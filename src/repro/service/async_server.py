"""The HTTP front-end: asyncio, with admission control and streaming.

``repro serve`` runs this server (its ``--async`` flag is accepted and
changes nothing).  It owns request framing only: every route is
answered by the transport-independent
:class:`~repro.service.server.StructurednessService` (whose module
docstring lists the routes and envelopes), in front of one executor —
inline for one worker, the :mod:`repro.service.elastic` worker pool
above.  A single-threaded asyncio event loop multiplexes the
connections and adds:

* **Request admission and queueing.**  Compute requests (the ``POST
  /v1/*`` routes) enter a bounded pending queue (``pending_limit``).
  When the queue is full the server answers ``429 Too Many Requests``
  with a ``Retry-After`` header *immediately* — it never stalls the
  client and never drops a request it admitted.  Admitted requests wait
  on a concurrency semaphore and run on a thread pool that bridges to
  the (blocking) executor.  Cheap ``GET`` routes (``/healthz``,
  ``/v1/stats``, ``/v1/metrics``, ``/v1/datasets``) bypass admission so
  the service stays observable while saturated.
* **Per-dataset mutation routing.**  A ``POST /v1/mutate`` serialises
  behind other mutations *of the same dataset* only (one asyncio lock
  per dataset key); queries and mutations of other datasets proceed
  concurrently.
* **Backpressure-aware JSONL streaming.**  ``POST /v1/batch`` with
  ``Accept: application/x-ndjson`` streams one result envelope per line
  as waves complete (the executor's ``execute_stream``), pausing compute
  when the client reads slowly (a bounded hand-off queue + ``await
  writer.drain()``); ``POST /v1/watch`` streams watch events with the
  same flow control.  A failure after the headers went out is framed as
  a terminal ``{"kind": "error", ...}`` line, never a second status line.
* **Worker pool.**  With ``workers``/``max_workers`` the executor runs
  worker processes that boot from the snapshot store and replay the
  mutation log; a ceiling above the floor makes it autoscale on queue
  depth, and scale events are counted in telemetry and served over
  ``GET /v1/metrics``.

Responses carry ``request_id`` + ``X-Request-Id`` and
``server_time_ms``; statuses map to structured 400s via
:func:`repro.service.wire.error_result`, 404 for unknown routes, 411 for
``Transfer-Encoding`` bodies, 429 on admission overflow and 500 with an
envelope for the unexpected.  Every connection is served ``Connection:
close``: one request, one response (or one stream), EOF as the
end-of-stream marker.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro import __version__
from repro.exceptions import ReproError, RequestError
from repro.service.executor import BatchExecutor, create_executor
from repro.service.registry import DatasetSpec
from repro.service.server import StructurednessService
from repro.service.wire import MUTATING_OPS, OPS, error_result

__all__ = ["AsyncServiceServer", "make_async_server", "serve_async"]

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
}
_SERVER_HEADER = f"repro-structuredness/{'.'.join(__version__.split('.')[:2])}"
#: Upper bound on accepted request bodies (inline N-Triples datasets are
#: the legitimate large payload; 64 MiB is far above every test corpus).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _HttpError(Exception):
    """An error with a definite HTTP status, raised before any response."""

    def __init__(self, status: int, payload: Dict[str, object]):
        super().__init__(payload.get("error", {}).get("message", ""))
        self.status = status
        self.payload = payload


def _client_error(status: int, error: BaseException) -> _HttpError:
    return _HttpError(status, dict(error_result(error), status=status))


class _Request:
    """One parsed HTTP request: method, path, headers (lower-cased), body."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class AsyncServiceServer:
    """The asyncio front-end bound to one :class:`StructurednessService`.

    The server owns its event loop.  :meth:`start` runs the loop on a
    background thread and returns once the socket is bound (handy for
    tests and embedding); :meth:`wait` blocks until :meth:`close` — the
    ``repro serve`` path.  ``url`` reports the bound address,
    which makes ``port=0`` ephemeral binds usable.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: StructurednessService,
        verbose: bool = False,
        pending_limit: int = 64,
        concurrency: Optional[int] = None,
        retry_after_s: int = 1,
    ):
        if pending_limit < 1:
            raise ValueError(f"pending_limit must be >= 1, got {pending_limit}")
        self._host, self._port = address
        self.service = service
        self.verbose = verbose
        self.pending_limit = pending_limit
        self.concurrency = concurrency if concurrency is not None else 8
        self.retry_after_s = retry_after_s
        # Admission state: touched only from the event loop, no lock needed.
        self._pending = 0
        self._accepted = 0
        self._rejected = 0
        self._peak_pending = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._dataset_locks: Dict[str, asyncio.Lock] = {}
        # The bridge to the blocking executor: a few extra threads beyond
        # the admission concurrency so watch streams never starve queries.
        self._threads = ThreadPoolExecutor(
            max_workers=self.concurrency + 4, thread_name_prefix="repro-async"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._bound: "threading.Event" = threading.Event()
        self._shutdown: Optional[asyncio.Event] = None
        self._stopped = threading.Event()
        self._bound_address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """The server's base URL (valid once the socket is bound)."""
        if self._bound_address is None:
            raise RuntimeError("the async server is not started")
        host, port = self._bound_address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncServiceServer":
        """Run the event loop on a background thread; return once bound."""
        if self._thread is not None:
            raise RuntimeError("the async server is already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-async-server", daemon=True
        )
        self._thread.start()
        self._bound.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`close`."""
        self._run()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server loop has stopped (True when it has)."""
        return self._stopped.wait(timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._stopped.set()
            self._bound.set()  # unblock start() even on a bind failure

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._slots = asyncio.Semaphore(self.concurrency)
        self._shutdown = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as error:
            self._startup_error = error
            return
        sockets = self._server.sockets or ()
        for sock in sockets:
            host, port = sock.getsockname()[:2]
            self._bound_address = (host, port)
            break
        self._bound.set()
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def close(self) -> None:
        """Stop the loop, release the socket and close the service."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:  # pragma: no cover - loop torn down already
                pass
        self._stopped.wait(timeout=10)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._threads.shutdown(wait=False)
        self.service.close()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        try:
            request_line = await reader.readline()
        except ValueError as error:  # line longer than the stream limit
            raise _client_error(400, RequestError(f"request line too long: {error}"))
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _client_error(400, RequestError("malformed HTTP request line"))
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError as error:
                raise _client_error(400, RequestError(f"header line too long: {error}"))
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        encoding = headers.get("transfer-encoding", "").strip().lower()
        if encoding:
            # Name the unsupported encoding instead of silently reading an
            # empty body (which would surface as a misleading 400).
            raise _client_error(411, RequestError(
                f"Transfer-Encoding {encoding!r} is not supported; "
                "send the body with a Content-Length header"
            ))
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _client_error(400, RequestError("Content-Length is not an integer"))
        if length > _MAX_BODY_BYTES:
            raise _client_error(413, RequestError(
                f"request body of {length} bytes exceeds the {_MAX_BODY_BYTES}-byte limit"
            ))
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _client_error(400, RequestError("request body was truncated"))
        return _Request(method, path, headers, body)

    def _write_head(
        self, writer: asyncio.StreamWriter, status: int,
        headers: Tuple[Tuple[str, str], ...],
    ) -> None:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}"]
        lines.append(f"Server: {_SERVER_HEADER}")
        for name, value in headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object],
        request_id: str, started: float,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
        payload = dict(payload, request_id=request_id, server_time_ms=elapsed_ms)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._write_head(writer, status, (
            ("Content-Type", _JSON),
            ("Content-Length", str(len(body))),
            ("X-Request-Id", request_id),
        ) + extra_headers)
        writer.write(body)
        await writer.drain()
        self._account(status, request_id)

    def _account(self, status: int, request_id: str) -> None:
        """Count one response; with ``verbose``, also print its access-log line."""
        self.service._count(200 <= status < 400)
        self.service.telemetry.incr(f"http.status.{status // 100}xx")
        self.service.telemetry.incr("http.access_log_lines")
        if self.verbose:
            print(f"[{request_id}] {status}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_id = self.service.next_request_id()
        started = time.perf_counter()
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer, request_id, started)
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, error.payload, request_id, started,
                    extra_headers=(
                        (("Retry-After", str(self.retry_after_s)),)
                        if error.status == 429 else ()
                    ),
                )
            except ReproError as error:
                await self._send_json(
                    writer, 400, error_result(error), request_id, started
                )
            except (ConnectionResetError, BrokenPipeError):
                self.service.telemetry.incr("http.client_disconnects")
            except Exception as error:  # noqa: BLE001 - defensive 500
                try:
                    await self._send_json(
                        writer, 500, error_result(error), request_id, started
                    )
                except (ConnectionResetError, BrokenPipeError, RuntimeError):
                    pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter,
        request_id: str, started: float,
    ) -> None:
        method, path = request.method, request.path
        if method == "GET":
            # Observability routes bypass admission: they must answer even
            # when the compute queue is saturated.
            if path == "/v1/datasets":
                status, payload = await self._in_thread(self.service.handle_datasets)
            elif path == "/v1/stats":
                status, payload = await self._in_thread(self.service.handle_stats)
                payload = dict(payload, admission=self._admission_snapshot())
            elif path == "/v1/metrics":
                status, payload = await self._in_thread(self.service.handle_metrics)
                payload = dict(payload, admission=self._admission_snapshot())
            elif path == "/healthz":
                status, payload = 200, {"ok": True}
            else:
                status, payload = 404, {
                    "ok": False, "error": {"type": "NotFound", "message": path}
                }
            await self._send_json(writer, status, payload, request_id, started)
            return
        if method != "POST":
            await self._send_json(
                writer, 404,
                {"ok": False, "error": {"type": "NotFound", "message": f"{method} {path}"}},
                request_id, started,
            )
            return
        if not path.startswith("/v1/"):
            await self._send_json(
                writer, 404,
                {"ok": False, "error": {"type": "NotFound", "message": path}},
                request_id, started,
            )
            return
        route = path[len("/v1/"):]
        if route == "watch":
            body = self._parse_json_body(request.body)
            await self._stream_watch(body, writer, request_id)
            return
        if route != "batch" and route not in OPS:
            await self._send_json(
                writer, 404,
                {"ok": False, "error": {"type": "NotFound", "message": path}},
                request_id, started,
            )
            return
        await self._admitted(
            self._run_compute(route, request, writer, request_id, started)
        )

    def _parse_json_body(self, raw: bytes) -> object:
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            raise _client_error(
                400, RequestError(f"body is not valid JSON: {error}")
            ) from None

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #
    def _admission_snapshot(self) -> Dict[str, object]:
        """The queue state served inside ``/v1/stats`` and ``/v1/metrics``."""
        return {
            "pending": self._pending,
            "pending_limit": self.pending_limit,
            "peak_pending": self._peak_pending,
            "concurrency": self.concurrency,
            "accepted": self._accepted,
            "rejected": self._rejected,
            "retry_after_s": self.retry_after_s,
        }

    async def _admitted(self, work) -> None:
        """Run a compute coroutine under the bounded pending queue.

        ``pending`` counts admitted-but-unfinished requests (queued and
        running).  At the limit, new arrivals are refused with 429 +
        ``Retry-After`` instead of queueing without bound — the client
        gets an immediate, actionable answer and admitted work is never
        displaced.
        """
        if self._pending >= self.pending_limit:
            self._rejected += 1
            self.service.telemetry.incr("admission.rejected")
            work.close()  # never started; drop the coroutine cleanly
            raise _HttpError(429, {
                "ok": False,
                "status": 429,
                "error": {
                    "type": "ServiceOverloaded",
                    "message": (
                        f"the pending queue is full ({self.pending_limit} requests); "
                        f"retry after {self.retry_after_s}s"
                    ),
                },
            })
        self._pending += 1
        self._peak_pending = max(self._peak_pending, self._pending)
        self._accepted += 1
        self.service.telemetry.incr("admission.accepted")
        try:
            async with self._slots:
                await work
        finally:
            self._pending -= 1

    async def _in_thread(self, fn, *args):
        """Run a blocking callable on the bridge thread pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._threads, fn, *args
        )

    async def _run_compute(
        self, route: str, request: _Request, writer: asyncio.StreamWriter,
        request_id: str, started: float,
    ) -> None:
        content_type = (request.headers.get("content-type") or _JSON).split(";")[0].strip()
        ndjson_body = content_type in (_NDJSON, "application/jsonl", "text/plain")
        if route == "batch":
            body = request.body.decode("utf-8") if ndjson_body \
                else self._parse_json_body(request.body)
            accept = request.headers.get("accept", "")
            if _NDJSON in accept:
                await self._stream_batch(body, ndjson_body, writer, request_id)
                return
            status, payload = await self._in_thread(
                self.service.handle_batch, body, ndjson_body
            )
            await self._send_json(writer, status, payload, request_id, started)
            return
        body = self._parse_json_body(request.body)
        if not isinstance(body, dict):
            raise _client_error(400, RequestError("the request body must be a JSON object"))
        if route in MUTATING_OPS:
            # Per-dataset routing: mutations of one dataset serialise in
            # arrival order; everything else proceeds concurrently.
            try:
                key = DatasetSpec.from_dict(body.get("dataset")).key
            except ReproError:
                key = ""  # the executor will produce the structured 400
            lock = self._dataset_locks.setdefault(key, asyncio.Lock())
            async with lock:
                status, payload = await self._in_thread(
                    self.service.handle_op, route, body
                )
        else:
            status, payload = await self._in_thread(self.service.handle_op, route, body)
        await self._send_json(writer, status, payload, request_id, started)

    # ------------------------------------------------------------------ #
    # Streaming routes
    # ------------------------------------------------------------------ #
    async def _stream_batch(
        self, body: object, ndjson_body: bool,
        writer: asyncio.StreamWriter, request_id: str,
    ) -> None:
        """``POST /v1/batch`` with ``Accept: application/x-ndjson``.

        Streams one envelope per line, in submission order, as execution
        waves complete.  The hand-off queue is bounded and the producer
        thread blocks when it is full, so a slow client throttles compute
        instead of buffering the whole batch in memory; each line is
        followed by ``await drain()``.  EOF marks the end of the stream.
        """
        # Same request-list semantics as handle_batch: a malformed element
        # (one JSONL line, one list entry) becomes an error envelope in its
        # slot via the executor's parse stage — it never poisons the batch.
        if ndjson_body:
            text = body if isinstance(body, str) else ""
            requests: list = [
                line for line in (raw.strip() for raw in text.splitlines())
                if line and not line.startswith("#")
            ]
        else:
            if not isinstance(body, dict) or not isinstance(body.get("requests"), list):
                raise _client_error(
                    400, RequestError("a batch body must be {'requests': [...]} or JSONL")
                )
            requests = list(body["requests"])
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=16)

        def produce() -> None:
            try:
                for envelope in self.service.executor.execute_stream(requests):
                    asyncio.run_coroutine_threadsafe(
                        queue.put(("envelope", envelope)), loop
                    ).result()
                asyncio.run_coroutine_threadsafe(queue.put(("done", None)), loop).result()
            except BaseException as error:  # noqa: BLE001 - framed below
                try:
                    asyncio.run_coroutine_threadsafe(
                        queue.put(("error", error)), loop
                    ).result()
                except RuntimeError:  # pragma: no cover - loop gone mid-close
                    pass

        producer = loop.run_in_executor(self._threads, produce)
        self._write_head(writer, 200, (
            ("Content-Type", _NDJSON),
            ("X-Request-Id", request_id),
        ))
        status = 200
        try:
            while True:
                kind, value = await queue.get()
                if kind == "done":
                    break
                if kind == "error":
                    line = json.dumps(
                        dict(error_result(value), kind="error", request_id=request_id),
                        sort_keys=True,
                    )
                    writer.write(line.encode("utf-8") + b"\n")
                    await writer.drain()
                    status = 500
                    break
                writer.write(json.dumps(value, sort_keys=True).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            status = 499  # client went away; count as an error response
            self.service.telemetry.incr("http.client_disconnects")
        finally:
            self._account(status, request_id)
            # Let the producer finish (envelopes it still pushes are
            # consumed and discarded) so its thread is not leaked.
            while not producer.done():
                try:
                    kind, _ = await asyncio.wait_for(queue.get(), timeout=5)
                except asyncio.TimeoutError:  # pragma: no cover - stuck producer
                    break
                if kind in ("done", "error"):
                    break

    async def _stream_watch(
        self, body: object, writer: asyncio.StreamWriter, request_id: str
    ) -> None:
        """``POST /v1/watch``: the JSONL watch stream, asyncio edition.

        Polls run on the bridge thread pool; every line is followed by
        ``await drain()`` so a slow consumer pauses the stream instead of
        growing an unbounded buffer.  Mid-stream failures are framed as a
        terminal ``{"kind": "error", ...}`` line.
        """
        # Setup errors (bad body, pooled executor) map to a 400 envelope
        # upstream because nothing has been written yet.
        watch, params = await self._in_thread(self.service.watch_session, body)
        telemetry = self.service.telemetry
        telemetry.incr("watch.streams")
        self._write_head(writer, 200, (
            ("Content-Type", _NDJSON),
            ("X-Request-Id", request_id),
        ))

        async def write_event(event) -> None:
            payload = dict(event.to_dict(), request_id=request_id)
            writer.write(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")
            await writer.drain()

        deadline = time.monotonic() + params["duration_s"]
        last_line = time.monotonic()
        sent = 0
        status = 200
        try:
            while time.monotonic() < deadline:
                events = await self._in_thread(watch.poll)
                for event in events:
                    await write_event(event)
                    telemetry.incr("watch.events_streamed")
                    sent += 1
                    last_line = time.monotonic()
                    if params["max_events"] and sent >= params["max_events"]:
                        return
                now = time.monotonic()
                if now - last_line >= params["heartbeat_s"]:
                    await write_event(watch.heartbeat())
                    last_line = now
                await asyncio.sleep(
                    min(params["poll_interval_s"], max(0.0, deadline - now))
                )
        except (ConnectionResetError, BrokenPipeError):
            status = 499
            telemetry.incr("watch.client_disconnects")
        except Exception as error:  # noqa: BLE001 - terminal error framing
            status = 500
            telemetry.incr("watch.stream_errors")
            try:
                line = json.dumps(
                    dict(error_result(error), kind="error", request_id=request_id),
                    sort_keys=True,
                )
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        finally:
            watch.close()
            self._account(status, request_id)


def make_async_server(
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    max_workers: Optional[int] = None,
    solver_time_limit: Optional[float] = None,
    executor: Optional[BatchExecutor] = None,
    verbose: bool = False,
    jobs: Optional[object] = None,
    pending_limit: int = 64,
    concurrency: Optional[int] = None,
    retry_after_s: int = 1,
) -> AsyncServiceServer:
    """Build (but do not start) an async server; ``port=0`` is ephemeral.

    ``workers``/``max_workers`` size the executor exactly as
    :func:`repro.service.executor.create_executor` does: inline for 1,
    a worker pool of N above, autoscaling up to ``max_workers`` when that
    exceeds ``workers``.  Call :meth:`AsyncServiceServer.start` (binds on
    a background thread, returns once listening) or
    :meth:`~AsyncServiceServer.serve_forever`.
    """
    if executor is None:
        executor = create_executor(
            workers=workers, solver_time_limit=solver_time_limit, jobs=jobs,
            max_workers=max_workers,
        )
    service = StructurednessService(executor=executor)
    return AsyncServiceServer(
        (host, port), service, verbose=verbose,
        pending_limit=pending_limit, concurrency=concurrency,
        retry_after_s=retry_after_s,
    )


def serve_async(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 1,
    max_workers: Optional[int] = None,
    solver_time_limit: Optional[float] = None,
    verbose: bool = False,
    jobs: Optional[object] = None,
    pending_limit: int = 64,
    concurrency: Optional[int] = None,
) -> int:
    """Run the HTTP service until interrupted (the ``repro serve`` command).

    SIGTERM stops it the way SIGINT does: :meth:`AsyncServiceServer.close`
    drains the worker pool before the process exits, so no worker is left
    orphaned behind a terminated server.
    """
    server = make_async_server(
        host, port, workers=workers, max_workers=max_workers,
        solver_time_limit=solver_time_limit, verbose=verbose, jobs=jobs,
        pending_limit=pending_limit, concurrency=concurrency,
    )
    server.start()
    mode = (
        f"elastic {workers}..{max_workers} workers"
        if max_workers is not None and max_workers > workers
        else f"{workers} worker(s)"
    )
    print(
        f"repro service listening on {server.url} (async, {mode}, "
        f"pending_limit={server.pending_limit})",
        flush=True,
    )
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def _interrupt(signum, frame) -> None:
    """SIGTERM handler: unwind :func:`serve_async` as Ctrl-C does."""
    raise KeyboardInterrupt
