"""The HTTP/JSON daemon: stdlib ``asyncio``, no third-party server.

Endpoints (see ``docs/serving.md`` for the full protocol):

* ``GET  /healthz`` — liveness probe.
* ``GET  /stats`` — hit/miss/coalesce counters and uptime.
* ``POST /query`` — normalise the body, resolve it, answer in-line.
  Warm keys come back in milliseconds; identical in-flight requests
  coalesce into one computation.
* ``POST /jobs`` — same body, asynchronous: answers ``202`` with a job
  id immediately and computes in the background.
* ``GET  /jobs/<id>`` — status snapshot of a submitted job.
* ``GET  /jobs/<id>/events`` — live JSONL progress stream (one JSON
  object per line) until the job reaches a terminal state.
* ``POST /shutdown`` — begin a graceful drain-and-stop.

The HTTP layer is deliberately minimal: one request per connection
(``Connection: close``), bounded body size, JSON in and JSON out.  All
simulation work happens off the event loop (see
:class:`~repro.serve.service.JobService`); the loop only parses,
routes, and streams.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import signal
import threading
import uuid
from typing import Any

from repro.orchestrate.store import ResultStore
from repro.serve.protocol import ProtocolError, normalise
from repro.serve.service import JobService, WorkerDied

__all__ = ["ServeApp", "ServerHandle", "jsonable", "run_app",
           "serve_in_thread"]

#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 1 << 20
#: Per-request header/body read timeout, seconds.
READ_TIMEOUT_S = 30.0

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def jsonable(value: Any) -> Any:
    """Best-effort JSON projection of a job result.

    Figure results are dataclasses, numpy scalars/arrays appear inside
    ablation tables — everything is folded down to JSON types, with
    ``repr`` as the terminal fallback so a response is always servable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:
            return jsonable(value.item())  # numpy scalar
        except Exception:  # noqa: BLE001 - fall through to repr
            pass
    if hasattr(value, "tolist"):
        try:
            return jsonable(value.tolist())  # numpy array
        except Exception:  # noqa: BLE001 - fall through to repr
            pass
    return repr(value)


class TrackedJob:
    """One ``POST /jobs`` submission: status, event log, waiters."""

    def __init__(self, job_id: str, body: dict) -> None:
        self.id = job_id
        self.body = body
        self.status = "running"
        self.error: str | None = None
        self.results: list[dict] | None = None
        self.events: list[dict] = []
        self.changed = asyncio.Condition()

    def snapshot(self) -> dict:
        payload = {"id": self.id, "status": self.status,
                   "events": len(self.events)}
        if self.error is not None:
            payload["error"] = self.error
        if self.results is not None:
            payload["results"] = self.results
        return payload


class ServeApp:
    """The daemon: owns the listening socket, the service, tracked jobs."""

    def __init__(self, service: JobService | None = None, *,
                 host: str = "127.0.0.1", port: int = 8023,
                 registry=None, store: ResultStore | None = None,
                 workers: int = 1) -> None:
        self.service = service if service is not None else JobService(
            registry=registry, store=store, workers=workers)
        self.host = host
        self.port = port
        self.tracked: dict[str, TrackedJob] = {}
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        self._stop = asyncio.Event()
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or a signal handler) fires."""
        if self._server is None:
            await self.start()
        await self._stop.wait()
        await self.shutdown()

    def request_stop(self) -> None:
        self._draining = True
        self._stop.set()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain in-flight work, release the pool."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain and self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        await asyncio.to_thread(self.service.close, drain=drain)

    def _track(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------
    # http plumbing

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            await asyncio.wait_for(self._handle_request(reader, writer),
                                   timeout=None)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except Exception as error:  # noqa: BLE001 - last-resort 500
            with contextlib.suppress(Exception):
                await _respond(writer, 500, {"error": repr(error)})
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await asyncio.wait_for(
                _read_request(reader), timeout=READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            await _respond(writer, 408, {"error": "request read timed out"})
            return
        except _BadRequest as error:
            await _respond(writer, error.status, {"error": str(error)})
            return
        if self._draining and not (method == "GET" and path == "/healthz"):
            await _respond(writer, 503, {"error": "server is draining"})
            return
        await self._route(method, path, body, writer)

    async def _route(self, method: str, path: str, body: Any,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/healthz" and method == "GET":
            await _respond(writer, 200, {"ok": True, "draining":
                                         self._draining})
            return
        if path == "/stats" and method == "GET":
            stats = self.service.stats()
            stats["tracked_jobs"] = len(self.tracked)
            await _respond(writer, 200, stats)
            return
        if path == "/query" and method == "POST":
            await self._handle_query(body, writer)
            return
        if path == "/jobs" and method == "POST":
            await self._handle_submit(body, writer)
            return
        if path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                await self._handle_events(rest[:-len("/events")].rstrip("/"),
                                          writer)
                return
            tracked = self.tracked.get(rest)
            if tracked is None:
                await _respond(writer, 404, {"error": f"no job {rest!r}"})
                return
            await _respond(writer, 200, tracked.snapshot())
            return
        if path == "/shutdown" and method == "POST":
            await _respond(writer, 200, {"ok": True, "draining": True})
            self.request_stop()
            return
        known = {"/healthz", "/stats", "/query", "/jobs", "/shutdown"}
        status = 405 if path in known else 404
        await _respond(writer, status,
                       {"error": f"{method} {path} is not served"})

    # ------------------------------------------------------------------
    # endpoints

    async def _handle_query(self, body: Any,
                            writer: asyncio.StreamWriter) -> None:
        try:
            query = normalise(body, self.service.registry)
        except ProtocolError as error:
            await _respond(writer, 400, {"error": str(error)})
            return
        task = self._track(self.service.resolve(query))
        try:
            resolutions = await task
        except Exception as error:  # noqa: BLE001 - job failure -> 500
            # a worker death is retryable: the pool has been replaced
            status = 503 if isinstance(error, WorkerDied) else 500
            await _respond(writer, status, {"error":
                                            f"{type(error).__name__}: "
                                            f"{error}"})
            return
        await _respond(writer, 200, {
            "ok": True,
            "results": [
                {"name": r.name, "key": r.key, "status": r.status,
                 "elapsed_s": r.elapsed_s, "result": jsonable(r.result)}
                for r in resolutions
            ],
        })

    async def _handle_submit(self, body: Any,
                             writer: asyncio.StreamWriter) -> None:
        try:
            query = normalise(body, self.service.registry)
        except ProtocolError as error:
            await _respond(writer, 400, {"error": str(error)})
            return
        tracked = TrackedJob(uuid.uuid4().hex[:12], dict(body))
        self.tracked[tracked.id] = tracked
        self._track(self._run_tracked(tracked, query))
        await _respond(writer, 202, {"id": tracked.id, "status": "running"})

    async def _run_tracked(self, tracked: TrackedJob, query) -> None:
        def emit(event: dict) -> None:
            # called on the loop thread (the service emits from
            # coroutines); append + notify so /events streams advance
            tracked.events.append(event)
            self._track(self._notify(tracked))

        try:
            resolutions = await self.service.resolve(query, emit)
        except Exception as error:  # noqa: BLE001 - fold into status
            tracked.status = "failed"
            tracked.error = f"{type(error).__name__}: {error}"
            tracked.events.append({"event": "failed",
                                   "error": tracked.error})
        else:
            tracked.status = "done"
            tracked.results = [
                {"name": r.name, "key": r.key, "status": r.status,
                 "elapsed_s": r.elapsed_s, "result": jsonable(r.result)}
                for r in resolutions
            ]
            tracked.events.append({"event": "done",
                                   "results": tracked.results})
        await self._notify(tracked)

    async def _notify(self, tracked: TrackedJob) -> None:
        async with tracked.changed:
            tracked.changed.notify_all()

    async def _handle_events(self, job_id: str,
                             writer: asyncio.StreamWriter) -> None:
        tracked = self.tracked.get(job_id)
        if tracked is None:
            await _respond(writer, 404, {"error": f"no job {job_id!r}"})
            return
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        sent = 0
        while True:
            while sent < len(tracked.events):
                line = json.dumps(jsonable(tracked.events[sent]),
                                  sort_keys=True)
                writer.write(line.encode() + b"\n")
                sent += 1
            await writer.drain()
            if tracked.status != "running":
                return
            async with tracked.changed:
                if (sent >= len(tracked.events)
                        and tracked.status == "running"):
                    await tracked.changed.wait()


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, Any]:
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise _BadRequest("empty request")
    parts = request_line.split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readline()).decode("latin-1")
        if line in ("\r\n", "\n", ""):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise _BadRequest("too many headers")
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large", status=413)
    body: Any = None
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw)
        except ValueError as error:
            raise _BadRequest(f"invalid JSON body: {error}") from None
    path = target.split("?", 1)[0]
    return method.upper(), path, body


async def _respond(writer: asyncio.StreamWriter, status: int,
                   payload: dict) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# ----------------------------------------------------------------------
# entry points


def run_app(app: ServeApp) -> None:
    """Run the daemon until SIGINT/SIGTERM, then drain and exit."""

    async def main() -> None:
        await app.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, app.request_stop)
        print(f"repro serve listening on http://{app.host}:{app.port} "
              f"(workers={app.service.workers}, "
              f"cache={app.service.store.root})", flush=True)
        await app.serve_until_stopped()

    asyncio.run(main())


class ServerHandle:
    """A server running on a background thread (tests and benchmarks)."""

    def __init__(self, app: ServeApp, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.app = app
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.app.port

    @property
    def host(self) -> str:
        return self.app.host

    def stop(self, timeout: float = 30.0) -> None:
        self._loop.call_soon_threadsafe(self.app.request_stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(*, registry=None, store: ResultStore | None = None,
                    workers: int = 1, host: str = "127.0.0.1",
                    port: int = 0) -> ServerHandle:
    """Boot a daemon on a daemon thread; returns once it is accepting."""
    app = ServeApp(registry=registry, store=store, workers=workers,
                   host=host, port=port)
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        async def main() -> None:
            await app.start()
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await app.serve_until_stopped()

        asyncio.run(main())

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise RuntimeError("serve thread failed to start in 30s")
    return ServerHandle(app, box["loop"], thread)
