"""The fleet gateway: one front door over N sharded ``repro serve`` daemons.

Speaks the *same* job API as a single daemon — ``GET /healthz``, ``GET
/stats``, ``GET /models``, ``POST /jobs``, ``GET /jobs/<ref>`` — so every
existing client (``repro sweep|table3|dse --remote URL``,
:class:`~repro.runtime.jobs.client.HttpJobClient`, plain curl) works
unchanged against a gateway URL.  What changes is what is behind it:

* ``/models`` renumbers every shard's hosted models into one global index
  space (the :class:`~repro.runtime.fleet.router.RoutingTable`, built at
  startup, disjoint by construction);
* ``POST /jobs`` resolves the model reference, rewrites it to the owning
  shard's *local* index and forwards the payload otherwise untouched — the
  plan JSON travels through the gateway byte-for-byte, so content-addressed
  cell keys (and therefore cache hits and ledger records) are exactly what
  submitting to the shard directly would produce;
* job handles become ``<shard>/<job id>`` refs, so ``GET /jobs/<ref>``
  routes the poll back to the owning shard;
* ``/stats`` fans out and aggregates every healthy shard's
  ``repro-runtime-stats/v1.1`` payload (numeric counters summed, the cache
  hit ratio recomputed from the summed counters, sessions namespaced
  ``<shard>/<session>``) plus ``gateway`` and ``shards`` sections;
* a shard that stops answering is reported as a fast ``503`` with a
  machine-readable body (``reason: "shard_down"``, the shard's name) —
  never a hang — while the rest of the fleet keeps serving; ``/healthz``
  degrades to ``"degraded"`` instead of lying.

The gateway holds no evaluation state of its own: it owns the routing
table and the failure bookkeeping, nothing else.  Determinism lives on the
shards (single dispatcher, content-addressed cache); the gateway's job is
to never blur which shard owns which cell.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runtime.fleet.pool import BackendDownError, BackendPool
from repro.runtime.fleet.router import RoutingTable
from repro.runtime.jobs.client import JobClientError
from repro.runtime.jobs.queue import AdmissionError
from repro.runtime.server import REQUEST_TIMEOUT_S, RequestBodyError, read_json_object
from repro.runtime.stats import STATS_SCHEMA


def _merge_numeric(target: dict, extra: dict) -> dict:
    """Recursively sum numeric leaves of ``extra`` into ``target``.

    Dicts merge key-wise; ints/floats add (bools excluded); anything else
    keeps the first value seen.  This is the fleet-aggregation rule for
    the ``engine``/``jobs``/``cache`` stats sections: counters and
    capacities sum across shards, labels stay representative.
    """
    for key, value in extra.items():
        if isinstance(value, dict):
            target[key] = _merge_numeric(
                target.get(key, {}) if isinstance(target.get(key), dict) else {},
                value,
            )
        elif isinstance(value, bool):
            target.setdefault(key, value)
        elif isinstance(value, (int, float)):
            current = target.get(key)
            if isinstance(current, (int, float)) and not isinstance(current, bool):
                target[key] = current + value
            else:
                target[key] = value
        else:
            target.setdefault(key, value)
    return target


class GatewayServer(ThreadingHTTPServer):
    """The front process: routing table + backend pool behind the job API.

    Building the server **contacts every shard** (``GET /models``) to
    assemble the routing table; a shard that is down at startup is a hard
    error — a fleet must start from a verified topology, not guess one.
    ``shutdown_and_close`` stops serving and the health monitor; the
    shards' lifecycles belong to whoever spawned them (the CLI's
    supervisor, for ``--spawn`` shards).
    """

    daemon_threads = True

    def __init__(self, pool: BackendPool, host: str = "127.0.0.1", port: int = 0):
        self.pool = pool
        shard_models: dict[str, list[dict]] = {}
        for backend in pool:
            shard_models[backend.name] = backend.request("GET", "/models")["models"]
        self.table = RoutingTable(shard_models)
        for backend in pool:
            backend.expected_triples = self.table.expected_triples(backend.name)
        self.started_at = time.monotonic()
        self.jobs_forwarded = 0
        self.jobs_unroutable = 0
        self._count_lock = threading.Lock()
        super().__init__((host, port), _GatewayRequestHandler)

    def count(self, counter: str) -> None:
        """Bump one gateway counter (handler threads run concurrently)."""
        with self._count_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_and_close(self) -> None:
        """Stop serving and the health monitor (idempotent)."""
        self.shutdown()
        self.server_close()
        self.pool.close()

    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        shard_health = {
            backend.name: {"url": backend.url, "healthy": backend.healthy}
            for backend in self.pool
        }
        degraded = [name for name, entry in shard_health.items() if not entry["healthy"]]
        return {
            "status": "degraded" if degraded else "ok",
            "models": len(self.table),
            "shards": shard_health,
            "uptime_s": time.monotonic() - self.started_at,
        }

    def stats(self) -> dict:
        """Fan out ``/stats`` and aggregate into one stats/v1 payload."""
        engine: dict = {}
        jobs: dict = {}
        cache: dict = {}
        sessions: dict = {}
        shards: dict = {}
        for backend in self.pool:
            entry = backend.stats()
            if backend.healthy:
                try:
                    payload = backend.request("GET", "/stats")
                except (BackendDownError, JobClientError) as error:
                    entry["stats_error"] = str(error)
                else:
                    _merge_numeric(engine, payload.get("engine", {}))
                    _merge_numeric(jobs, payload.get("jobs", {}))
                    _merge_numeric(cache, payload.get("cache", {}))
                    for session_id, session in payload.get("sessions", {}).items():
                        sessions[f"{backend.name}/{session_id}"] = session
            shards[backend.name] = entry
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        if hits or misses:
            cache["hit_ratio"] = hits / (hits + misses)
        return {
            "schema": STATS_SCHEMA,
            "engine": engine,
            "jobs": jobs,
            "cache": cache,
            "sessions": sessions,
            "gateway": {
                "shards": len(self.pool.backends),
                "models": len(self.table),
                "jobs_forwarded": self.jobs_forwarded,
                "jobs_unroutable": self.jobs_unroutable,
                "uptime_s": time.monotonic() - self.started_at,
            },
            "shards": shards,
        }


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """Routes the five endpoints; every response body is JSON."""

    server: GatewayServer
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, **extra) -> None:
        self._send_json(status, {"error": message, **extra})

    def _send_shard_down(self, shard: str, message: str) -> None:
        with_reason = {"reason": "shard_down", "shard": shard}
        self._send_json(503, {"error": message, **with_reason})

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        server = self.server
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(200, server.healthz())
            elif path == "/stats":
                self._send_json(200, server.stats())
            elif path == "/models":
                self._send_json(200, {"models": server.table.models()})
            elif path.startswith("/jobs/"):
                self._poll_job(path[len("/jobs/"):])
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(error).__name__}: {error}")

    def _poll_job(self, ref: str) -> None:
        server = self.server
        shard, _, job_id = ref.partition("/")
        if not job_id or shard not in server.pool.backends:
            self._send_error_json(
                404, f"unknown job ref {ref!r} (expected <shard>/<job-id>)"
            )
            return
        backend = server.pool[shard]
        if not backend.healthy:
            self._send_shard_down(shard, backend.last_error or "shard is marked down")
            return
        try:
            payload = backend.request("GET", f"/jobs/{job_id}")
        except BackendDownError as error:
            self._send_shard_down(shard, str(error))
            return
        except JobClientError as error:
            self._send_error_json(error.status or 502, str(error))
            return
        self._send_json(200, {"job": self._global_view(shard, payload["job"])})

    @staticmethod
    def _global_view(shard: str, view: dict) -> dict:
        """A shard's job view in gateway coordinates (ref-shaped id + shard)."""
        view = dict(view)
        view["id"] = f"{shard}/{view['id']}"
        view["shard"] = shard
        return view

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send_error_json(404, f"no such endpoint: {path}")
            return
        try:
            self._submit_job()
        except BrokenPipeError:
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(error).__name__}: {error}")

    def _submit_job(self) -> None:
        server = self.server
        try:
            payload = read_json_object(self)
        except RequestBodyError as error:
            self._send_error_json(error.status, str(error))
            return
        # Resolve the model reference against the global routing table.
        try:
            if "model_index" in payload:
                route = server.table.by_index(payload["model_index"])
            elif "model" in payload:
                dataset = payload.get("dataset")
                route = server.table.by_name(
                    str(payload["model"]), None if dataset is None else str(dataset)
                )
            else:
                self._send_error_json(400, "payload needs 'model' or 'model_index'")
                return
        except (IndexError, KeyError) as error:
            server.count("jobs_unroutable")
            message = str(error)
            if isinstance(error, KeyError):
                message = error.args[0] if error.args else message
            self._send_error_json(404, message)
            return
        # Forward the payload otherwise untouched: the plan JSON must reach
        # the shard byte-for-byte so content-addressed keys are unchanged.
        forward = {
            key: value
            for key, value in payload.items()
            if key not in ("model", "model_index", "dataset")
        }
        forward["model_index"] = route.local_index
        backend = server.pool[route.shard]
        if not backend.healthy:
            self._send_shard_down(
                route.shard, backend.last_error or "shard is marked down"
            )
            return
        try:
            answer = backend.request("POST", "/jobs", forward)
        except AdmissionError as error:
            # The shard's admission verdict, relayed verbatim.
            self._send_error_json(429, error.message, reason=error.reason)
            return
        except BackendDownError as error:
            self._send_shard_down(route.shard, str(error))
            return
        except JobClientError as error:
            self._send_error_json(error.status or 502, str(error))
            return
        server.count("jobs_forwarded")
        self._send_json(202, {"job": self._global_view(route.shard, answer["job"])})


__all__ = ["GatewayServer"]
