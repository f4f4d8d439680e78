"""`repro serve`: the evaluation runtime behind an HTTP boundary (layer 3).

A long-lived daemon fronting one :class:`~repro.runtime.jobs.manager.
JobManager`: clients POST (model-ref, plan-set) jobs and poll results,
many concurrent campaigns multiplex one warm worker pool with hosted
models already published, and the service-level result cache makes
duplicate cells free across *all* of them.  Stdlib only
(:class:`http.server.ThreadingHTTPServer` + ``json``): no new
dependencies.

API (all JSON)::

    GET  /healthz        {"status": "ok", "models": N, "uptime_s": ...}
    GET  /stats          the repro-runtime-stats/v1.1 payload
    GET  /models         {"models": [{index, name, dataset,
                                      mac_layer_names, context_key}, ...]}
    POST /jobs           {"model": name | "model_index": i, "plans": [...],
                          "session": ..., "label": ...,
                          "priority": int?, "deadline_s": seconds?}
                         -> 202 {"job": {...}}   (409-free: poll the job)
                         -> 400 bad model/plan payloads, or a negative
                                or non-integer Content-Length
                         -> 408 body not received within REQUEST_TIMEOUT_S
                         -> 404 unknown model
                         -> 429 {"reason": "queue_full" | "session_busy"}
    GET  /jobs/<id>      {"job": {id, state, accuracies, cache_hits, ...}}

Plans travel through the fingerprint-preserving codec
(:mod:`repro.runtime.jobs.codec`), so a served job's content-addressed
cell keys — and therefore its cache hits and ledger records — are
identical to running the same job in-process.  Handler threads only
enqueue and snapshot; all evaluation happens on the manager's dispatcher
thread, keeping the engine single-submitter.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.runtime.jobs.codec import PlanCodecError, decode_plans
from repro.runtime.jobs.manager import JobManager
from repro.runtime.jobs.queue import AdmissionError
from repro.runtime.jobs.sessions import SessionError


#: Seconds a request handler (daemon and gateway alike) waits on its
#: client socket — request line, headers or body — before giving up, so a
#: client that declares more ``Content-Length`` than it sends cannot pin a
#: handler thread.  Applied per connection as the handler's ``timeout``.
REQUEST_TIMEOUT_S = 30.0


class RequestBodyError(ValueError):
    """A POST body that could not be read or parsed; ``status`` is the reply code."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_json_object(handler: BaseHTTPRequestHandler) -> dict:
    """The request body of ``handler`` as a JSON object.

    Raises :class:`RequestBodyError` carrying the status and message of the
    error reply.  A negative or non-integer ``Content-Length`` is rejected
    with 400 before any read — ``rfile.read(-1)`` would block the handler
    thread until the client half-closes.  A body that does not arrive
    within the handler's socket ``timeout`` is answered with 408.  Both
    close the connection after the reply, since an unread (or partly read)
    body must not be parsed as the next request.
    """
    raw = handler.headers.get("Content-Length", "0")
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        handler.close_connection = True
        raise RequestBodyError(
            f"Content-Length must be a non-negative integer, got {raw!r}"
        )
    try:
        body = handler.rfile.read(length)
    except TimeoutError:
        handler.close_connection = True
        raise RequestBodyError(
            f"request body of {length} bytes not received within "
            f"{handler.timeout} s",
            status=408,
        ) from None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise RequestBodyError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise RequestBodyError("request body must be a JSON object")
    return payload


class JobServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one :class:`JobManager`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`server_port` — the smoke test's handshake).  The server does
    not own the manager's lifecycle by default; :meth:`shutdown_and_close`
    is the one-call graceful teardown the CLI's signal handlers use.
    """

    daemon_threads = True

    def __init__(self, manager: JobManager, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self.started_at = time.monotonic()
        super().__init__((host, port), _JobRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown_and_close(self) -> None:
        """Stop serving, cancel queued jobs, close the engine (idempotent)."""
        self.shutdown()
        self.server_close()
        self.manager.close()


class _JobRequestHandler(BaseHTTPRequestHandler):
    """Routes the five endpoints; every response body is JSON."""

    server: JobServer
    protocol_version = "HTTP/1.1"
    timeout = REQUEST_TIMEOUT_S

    # Quiet by default: a polling client would flood stderr with one log
    # line per request.
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

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        manager = self.server.manager
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "models": len(manager.service.models),
                        "uptime_s": time.monotonic() - self.server.started_at,
                    },
                )
            elif path == "/stats":
                self._send_json(200, manager.stats())
            elif path == "/models":
                self._send_json(200, {"models": manager.models()})
            elif path.startswith("/jobs/"):
                job_id = path[len("/jobs/"):]
                try:
                    job = manager.job(job_id)
                except KeyError:
                    self._send_error_json(404, f"unknown job {job_id!r}")
                    return
                self._send_json(200, {"job": job.view()})
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"{type(error).__name__}: {error}")

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
        manager = self.server.manager
        try:
            payload = read_json_object(self)
        except RequestBodyError as error:
            self._send_error_json(error.status, str(error))
            return
        # Resolve the model reference: explicit index or name (+ dataset).
        if "model_index" in payload:
            model_index = payload["model_index"]
            # bool subclasses int: `true` must not sneak in as index 1.
            if (
                not isinstance(model_index, int)
                or isinstance(model_index, bool)
                or not 0 <= model_index < len(manager.service.models)
            ):
                self._send_error_json(404, f"unknown model index {model_index!r}")
                return
        elif "model" in payload:
            try:
                model_index = manager.resolve_model(
                    str(payload["model"]), payload.get("dataset")
                )
            except KeyError as error:
                self._send_error_json(404, str(error))
                return
        else:
            self._send_error_json(400, "payload needs 'model' or 'model_index'")
            return
        try:
            plans = decode_plans(payload.get("plans"))
        except PlanCodecError as error:
            self._send_error_json(400, str(error))
            return
        if not plans:
            self._send_error_json(400, "a job needs at least one plan")
            return
        priority = payload.get("priority")
        if priority is not None and (
            isinstance(priority, bool) or not isinstance(priority, int)
        ):
            self._send_error_json(400, f"priority must be an integer, got {priority!r}")
            return
        deadline_s = payload.get("deadline_s")
        if deadline_s is not None and (
            isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float))
        ):
            self._send_error_json(
                400, f"deadline_s must be a number, got {deadline_s!r}"
            )
            return
        try:
            job = manager.submit(
                model_index,
                plans,
                session=str(payload.get("session", "default")),
                label=str(payload.get("label", "")),
                priority=priority,
                deadline_s=deadline_s,
            )
        except AdmissionError as error:
            self._send_error_json(429, error.message, reason=error.reason)
            return
        except SessionError as error:
            self._send_error_json(400, str(error))
            return
        except (ValueError, TypeError, IndexError) as error:
            self._send_error_json(400, str(error))
            return
        self._send_json(202, {"job": job.view()})


def serve(
    manager: JobManager, host: str = "127.0.0.1", port: int = 0
) -> JobServer:
    """Bind a :class:`JobServer`; the caller drives ``serve_forever()``."""
    return JobServer(manager, host=host, port=port)


__all__ = ["JobServer", "serve"]
