"""Tests of the HTTP transport layer (:mod:`repro.runtime.server`).

The daemon contract lives here:

* **endpoint contract** — ``/healthz``, ``/stats``, ``/models``,
  ``POST /jobs`` + ``GET /jobs/<id>`` speak the documented JSON shapes,
  and error paths return the documented statuses (404 unknown model/job,
  400 malformed plans, 429 admission rejections with a machine-readable
  reason);
* **served-vs-local parity** — jobs submitted over HTTP through
  :class:`~repro.runtime.jobs.client.HttpJobClient` return accuracies
  bit-identical to the in-process engine, and a DSE campaign driven by a
  :class:`~repro.runtime.jobs.client.RemotePlanEvaluator` produces the
  exact front of a local campaign with the same measurement setup;
* **cross-client caching over the wire** — a duplicate HTTP submission is
  served from the daemon's result cache, visible in ``/stats``.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dse import run_campaign
from repro.runtime.jobs import (
    AdmissionError,
    HttpJobClient,
    JobClientError,
    JobManager,
    LocalJobClient,
    RemotePlanEvaluator,
    encode_plans,
    sweep_over_jobs,
)
from repro.runtime.server import REQUEST_TIMEOUT_S, JobServer
from repro.simulation.campaign import TrainedModel, parallel_sweep
from repro.simulation.inference import AccurateProduct, ExecutionPlan, PerforatedProduct

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def trained(trained_tiny_model, tiny_dataset):
    return TrainedModel(
        name="vgg13",
        dataset_name=tiny_dataset.name,
        model=trained_tiny_model,
        float_accuracy=0.0,
    )


@pytest.fixture(scope="module")
def server(trained, tiny_dataset):
    manager = JobManager([trained], {tiny_dataset.name: tiny_dataset})
    srv = JobServer(manager)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown_and_close()
    thread.join(timeout=10)


@pytest.fixture()
def client(server):
    return HttpJobClient(server.url, poll_interval=0.01)


def _raw_post_jobs(url: str, content_length: str) -> tuple[int, dict]:
    """POST /jobs with a bare ``Content-Length`` header and no body.

    The client never closes its write side: a server that tried to read
    a body would stall until the socket timeout instead of answering.
    Returns the status and the JSON reply, read up to the server's close.
    """
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        reply = sock.makefile("rb").read()
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _short_body_post(url: str, declared: int = 100, sent: int = 10) -> tuple[bytes, float]:
    """POST /jobs declaring ``declared`` body bytes but sending only ``sent``.

    The client then waits without closing its write side, as a stalled
    client would; returns the raw reply (read up to the server's close)
    and the seconds it took.
    """
    host, port = url.rsplit("/", 1)[-1].split(":")
    start = time.monotonic()
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {declared}\r\n\r\n".encode()
            + b"{" * sent
        )
        reply = sock.makefile("rb").read()
    return reply, time.monotonic() - start


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["models"] == 1
        assert payload["uptime_s"] >= 0

    def test_models_descriptors(self, client, trained, tiny_dataset):
        infos = client.models()
        assert len(infos) == 1
        info = infos[0]
        assert info["name"] == trained.name
        assert info["dataset"] == tiny_dataset.name
        assert info["mac_layer_names"]
        assert len(info["context_key"]) == 64

    def test_stats_schema_over_the_wire(self, client):
        stats = client.stats()
        assert stats["schema"] == "repro-runtime-stats/v1.1"
        assert {"engine", "jobs", "cache", "sessions"} <= set(stats)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(JobClientError) as error:
            client.job("job-999999")
        assert error.value.status == 404

    def test_unknown_model_is_404(self, client):
        with pytest.raises(JobClientError) as error:
            client.submit_job("lenet9000", [ExecutionPlan.uniform(AccurateProduct())])
        assert error.value.status == 404

    def test_boolean_model_index_is_rejected(self, server):
        # bool subclasses int: `true` must not be accepted as index 1 (or,
        # with one hosted model, silently rejected for the wrong reason).
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": True, "plans": []}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 404
        body = json.loads(error.value.read().decode())
        assert "model index" in body["error"]

    def test_unreachable_daemon_is_a_client_error(self):
        # Connection refused (no HTTP response at all) must surface as
        # JobClientError with status None, not leak a raw URLError.
        client = HttpJobClient("http://127.0.0.1:9", request_timeout=2.0)
        with pytest.raises(JobClientError) as error:
            client.healthz()
        assert error.value.status is None
        assert "cannot reach" in str(error.value)

    def test_bad_plan_payload_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps(
                {"model_index": 0, "plans": [{"default": {"kind": "warp-drive"}}]}
            ).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    @pytest.mark.parametrize("content_length", ["-1", "abc", "1.5"])
    def test_bad_content_length_is_400_without_reading(
        self, server, client, content_length
    ):
        status, body = _raw_post_jobs(server.url, content_length)
        assert status == 400
        assert "Content-Length" in body["error"]
        assert client.healthz()["status"] == "ok"  # the daemon keeps serving

    def test_short_body_is_408_within_the_handler_timeout(self, server, client, monkeypatch):
        assert server.RequestHandlerClass.timeout == REQUEST_TIMEOUT_S
        monkeypatch.setattr(server.RequestHandlerClass, "timeout", 0.5)
        reply, elapsed = _short_body_post(server.url)
        assert elapsed < 5.0  # not pinned until the client gives up
        if reply:  # a 408 reply, then the server closes the connection
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split()[1] == b"408"
            assert "not received" in json.loads(body)["error"]
        assert client.healthz()["status"] == "ok"

    def test_empty_plans_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=json.dumps({"model_index": 0, "plans": []}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/jobs",
            data=b"perforate all the layers",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request)
        assert error.value.code == 400

    def test_unknown_endpoint_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{server.url}/teapot")
        assert error.value.code == 404

    def test_priority_and_deadline_round_trip(self, client):
        job_id = client.submit_job(
            0,
            [ExecutionPlan.uniform(AccurateProduct())],
            session="prio",
            priority=2,
            deadline_s=120.0,
        )
        view = client.wait(job_id, timeout=240)
        assert view["priority"] == 2
        assert view["deadline_s"] == 120.0
        assert view["reason"] is None

    def test_bad_priority_and_deadline_are_400(self, server):
        plans = encode_plans([ExecutionPlan.uniform(AccurateProduct())])
        for payload in (
            {"model_index": 0, "plans": plans, "priority": "high"},
            {"model_index": 0, "plans": plans, "priority": True},
            {"model_index": 0, "plans": plans, "deadline_s": "soon"},
            {"model_index": 0, "plans": plans, "deadline_s": -1},
        ):
            request = urllib.request.Request(
                f"{server.url}/jobs",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request)
            assert error.value.code == 400, payload


@pytest.mark.runtime
class TestServedParity:
    def test_http_job_matches_in_process_engine(
        self, server, client, trained
    ):
        plans = [
            ExecutionPlan.uniform(AccurateProduct()),
            ExecutionPlan.uniform(PerforatedProduct(1)),
            ExecutionPlan.uniform(PerforatedProduct(2, use_control_variate=False)),
        ]
        direct = server.manager.service.evaluate_plans(0, plans)
        job_id = client.submit_job(0, plans, session="parity")
        view = client.wait(job_id, timeout=240)
        assert view["accuracies"] == direct

    def test_served_sweep_matches_parallel_sweep(
        self, client, trained, tiny_dataset
    ):
        reference = parallel_sweep(
            [trained], {tiny_dataset.name: tiny_dataset},
            perforations=(1, 2), max_workers=1,
        )
        sweep, _totals = sweep_over_jobs(
            client, perforations=(1, 2), session="sweep-http"
        )
        assert sweep.baselines == reference.baselines
        assert sweep.records == reference.records

    def test_duplicate_http_submission_hits_the_cache(self, client):
        plans = [ExecutionPlan.uniform(PerforatedProduct(3))]
        first = client.wait(client.submit_job(0, plans, session="dup"), timeout=240)
        second = client.wait(client.submit_job(0, plans, session="dup"), timeout=240)
        assert second["accuracies"] == first["accuracies"]
        assert second["cache_hits"] == 1
        assert second["cache_misses"] == 0

    def test_remote_campaign_front_equals_local(
        self, client, trained, tiny_dataset
    ):
        kwargs = dict(
            strategy="greedy",
            max_loss=5.0,
            budget_evals=4,
            array_size=64,
            perforations=(1, 2),
        )
        local = run_campaign(trained, tiny_dataset, **kwargs)
        evaluator = RemotePlanEvaluator(client, trained.name, session="dse-http")
        remote = run_campaign(trained, tiny_dataset, evaluator=evaluator, **kwargs)
        assert remote.baseline_accuracy == local.baseline_accuracy
        local_points = [
            (p.label, p.energy_nj, p.accuracy) for p in local.front.points()
        ]
        remote_points = [
            (p.label, p.energy_nj, p.accuracy) for p in remote.front.points()
        ]
        assert remote_points == local_points
        # The remote campaign's ledger keys live under the server-reported
        # context digest — identical to the local measurement setup.
        assert remote.stats["context_key"] == local.stats["context_key"]


class TestAdmissionOverTheWire:
    def test_429_maps_back_to_admission_error(self, trained, tiny_dataset):
        manager = JobManager(
            [trained],
            {tiny_dataset.name: tiny_dataset},
            max_queue_depth=2,
            max_inflight_per_session=1,
            auto_start=False,
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpJobClient(srv.url)
            plans = [ExecutionPlan.uniform(AccurateProduct())]
            client.submit_job(0, plans, session="alice")
            with pytest.raises(AdmissionError) as busy:
                client.submit_job(0, plans, session="alice")
            assert busy.value.reason == "session_busy"
            client.submit_job(0, plans, session="bob")
            with pytest.raises(AdmissionError) as full:
                client.submit_job(0, plans, session="carol")
            assert full.value.reason == "queue_full"
        finally:
            srv.shutdown_and_close()
            thread.join(timeout=10)

    def test_cancelled_job_reported_over_http(self, trained, tiny_dataset):
        manager = JobManager(
            [trained], {tiny_dataset.name: tiny_dataset}, auto_start=False
        )
        srv = JobServer(manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = HttpJobClient(srv.url, poll_interval=0.01)
            job_id = client.submit_job(
                0, [ExecutionPlan.uniform(AccurateProduct())], session="alice"
            )
            manager.close()
            view = client.job(job_id)
            assert view["state"] == "cancelled"
        finally:
            srv.shutdown_and_close()
            thread.join(timeout=10)
