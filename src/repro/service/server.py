"""The transport-independent request handling behind the HTTP routes.

:class:`StructurednessService` owns the executor and the service
counters, and answers every route of the HTTP front-end in
:mod:`repro.service.async_server`, which only frames requests and
responses.  Routes (all payloads JSON):

* ``POST /v1/evaluate`` / ``/v1/refine`` / ``/v1/lowest_k`` / ``/v1/sweep``
  — one wire request body (the ``op`` field is implied by the path); the
  request fields may be nested under ``"request"`` or spelled inline.
* ``POST /v1/mutate`` — apply a triple delta (``{"dataset": ...,
  "add": [[s, p, o], ...], "remove": [...]}``; literals spelled
  ``"\\"text\\""``) to the server's copy of the dataset.  Downstream
  matrix/signature artifacts are incrementally patched and session result
  caches invalidated; with ``--workers > 1`` the mutation is replayed
  into every pool worker's registry (via the executor's mutation log), so
  follow-up queries are consistent whichever worker serves them.  In a
  batch, a mutation acts as a barrier for its dataset: requests before
  it see the old graph, requests after it the new one (queries on other
  datasets are not serialised behind it).
* ``POST /v1/batch`` — ``{"requests": [...]}`` or a JSONL body
  (``Content-Type: application/x-ndjson``); responds with
  ``{"results": [one envelope per request, in order]}``.
* ``GET /v1/datasets`` — built-in dataset names plus everything the
  server's registry has materialised (inline mode; with ``--workers > 1``
  the datasets live inside pool workers, so ``loaded`` stays empty).
* ``GET /v1/stats`` — server counters and the executor's stats.  In
  inline mode that includes one entry per session with its resolved
  solver backend and cache-hit/solver-call counts; in pooled mode the
  per-session detail lives in the workers and the stats report the
  pool-level view (worker counts, jobs dispatched, mutations logged).
* ``GET /v1/metrics`` — a deterministic JSON snapshot of the
  observability spine: the service's always-on telemetry (HTTP status
  counters, watch-stream counters) plus the process-wide
  :func:`repro.telemetry.current` spine (dataset builds/patches, solver
  spans, ... — populated when ``REPRO_TRACE`` is set).
* ``POST /v1/watch`` — a streaming JSONL watch over one dataset (inline
  servers only): ``{"dataset": ..., "rules": ["Cov"], "theta": "3/4",
  "max_events": 3, "duration_s": 10}``.  The response streams one JSON
  object per :class:`~repro.api.watch.WatchEvent` as mutations land
  (plus ``heartbeat`` lines while idle) until ``max_events`` events were
  sent or ``duration_s`` elapsed; the connection closes to mark the end
  of the stream.
* ``GET /healthz`` — liveness probe.

Every response envelope carries a per-request ``request_id`` (also the
``X-Request-Id`` header) and ``server_time_ms``; both live at the
envelope's top level, so the deterministic ``result`` payloads stay
bit-identical across executors.  Malformed requests (unknown
op/rule/dataset/solver, out-of-range θ or k) map to structured ``400``
bodies via :func:`repro.service.wire.error_result` — never a traceback.
The locks on ``Dataset`` and ``StructurednessSession`` make concurrent
requests against shared sessions safe.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

from repro.api.dataset import builtin_dataset_names
from repro.exceptions import ReproError, RequestError
from repro.service.executor import BatchExecutor, create_executor
from repro.service.registry import DatasetSpec
from repro.service.wire import error_result, parse_request
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = ["StructurednessService"]


class StructurednessService:
    """The transport-independent request handling behind the HTTP routes."""

    def __init__(self, executor: Optional[BatchExecutor] = None, workers: int = 1,
                 solver_time_limit: Optional[float] = None,
                 jobs: Optional[object] = None):
        self.executor = executor if executor is not None else create_executor(
            workers=workers, solver_time_limit=solver_time_limit, jobs=jobs
        )
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "http_requests": 0,
            "ok_responses": 0,
            "error_responses": 0,
        }
        #: Always-on service telemetry (independent of ``REPRO_TRACE``):
        #: HTTP status-class counters, access-log lines and watch-stream
        #: counters land here so 4xx/5xx are observable even when the
        #: access log is quiet.  Served by ``GET /v1/metrics``.
        self.telemetry = Telemetry(enabled=True)
        self._request_seq = 0

    def _count(self, ok: bool) -> None:
        with self._lock:
            self.counters["http_requests"] += 1
            self.counters["ok_responses" if ok else "error_responses"] += 1

    def next_request_id(self) -> str:
        """A fresh, monotonically increasing per-server request id."""
        with self._lock:
            self._request_seq += 1
            return f"req-{self._request_seq:08d}"

    # ------------------------------------------------------------------ #
    # Route handlers: each returns (http_status, payload dict)
    # ------------------------------------------------------------------ #
    def handle_op(self, op: str, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        """One single-op POST: run the request and unwrap its envelope."""
        try:
            request = parse_request(dict(body, op=op))
        except ReproError as error:
            return 400, error_result(error)
        envelope = self.executor.execute([request])[0]
        status = 200 if envelope.get("ok") else int(envelope.get("status", 500))
        return status, envelope

    def handle_batch(self, body: object, ndjson: bool = False) -> Tuple[int, Dict[str, object]]:
        """A whole batch; per-request failures stay inside their envelope.

        Both spellings have identical semantics: a request that fails to
        parse (one NDJSON line, one list element) yields an error envelope
        in its slot — it never poisons the rest of the batch.
        """
        try:
            if ndjson:
                text = body if isinstance(body, str) else ""
                requests: list = [
                    line for line in (raw.strip() for raw in text.splitlines())
                    if line and not line.startswith("#")
                ]
            else:
                if not isinstance(body, dict) or not isinstance(body.get("requests"), list):
                    raise RequestError("a batch body must be {'requests': [...]} or JSONL")
                requests = list(body["requests"])
            envelopes = self.executor.execute(requests)
        except ReproError as error:
            return 400, error_result(error)
        return 200, {"ok": True, "count": len(envelopes), "results": envelopes}

    def handle_datasets(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/datasets``: builtin names + the registry inventory.

        Registry entries carry spec, name, generation and — for datasets
        reopened from a snapshot — the snapshot path and format version.
        """
        payload: Dict[str, object] = {"builtin": list(builtin_dataset_names())}
        registry = getattr(self.executor, "registry", None)
        payload["loaded"] = registry.describe() if registry is not None else []
        return 200, payload

    def handle_stats(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/stats``: HTTP counters plus the executor's stats."""
        with self._lock:
            server_counters = dict(self.counters)
        return 200, {"server": server_counters, "executor": self.executor.stats()}

    def handle_metrics(self) -> Tuple[int, Dict[str, object]]:
        """``GET /v1/metrics``: the observability spine as deterministic JSON.

        ``server`` holds the legacy request counters, ``service`` the
        always-on service telemetry snapshot and ``process`` the
        process-wide :func:`repro.telemetry.current` spine (disabled and
        empty unless ``REPRO_TRACE`` is set or a library caller enabled
        it).  Key order is stable and sorted; only the recorded wall-clock
        values vary between runs.
        """
        with self._lock:
            server_counters = dict(self.counters)
        payload: Dict[str, object] = {
            "server": server_counters,
            "service": self.telemetry.snapshot(),
            "process": current_telemetry().snapshot(),
        }
        # Executors with their own always-on telemetry (the elastic pool's
        # scale.worker_boots / scale.up_events / ...) surface it here, so
        # scale events are observable over plain GET /v1/metrics.
        executor_telemetry = getattr(self.executor, "telemetry", None)
        if executor_telemetry is not None:
            payload["executor"] = executor_telemetry.snapshot()
        return 200, payload

    def watch_session(self, body: object):
        """Build the watch behind ``POST /v1/watch``: ``(WatchSession, params)``.

        Validates the body and resolves the dataset through the inline
        executor's registry — the same handles ``/v1/mutate`` patches, so
        streamed events reflect mutations sent over sibling connections.
        Raises :class:`~repro.exceptions.RequestError` on a pooled
        executor (the datasets live inside worker processes where no
        streaming thread can observe them) and for malformed bodies.
        """
        from repro.api.watch import WatchSession

        registry = getattr(self.executor, "registry", None)
        if registry is None:
            raise RequestError(
                "watch requires an inline server (workers=1); with a worker pool "
                "the datasets live inside the pool processes"
            )
        if not isinstance(body, dict):
            raise RequestError("the watch body must be a JSON object")
        if "dataset" not in body:
            raise RequestError("a watch body needs a 'dataset' spec")
        known = {
            "dataset", "rules", "theta", "shards",
            "max_events", "duration_s", "poll_interval_s", "heartbeat_s",
        }
        unknown = set(body) - known
        if unknown:
            raise RequestError(f"unknown watch fields {sorted(unknown)}")
        rules = body["rules"] if body.get("rules") is not None else ["Cov"]
        if not isinstance(rules, (list, tuple)) or not rules:
            raise RequestError("rules must be a non-empty list of rule specs")

        def _timing(field: str, default: float) -> float:
            # Explicit zeros must reach the positivity check below — an
            # ``or default`` would silently turn them into the default.
            value = body.get(field)
            return default if value is None else float(value)

        try:
            params = {
                "max_events": int(_timing("max_events", 0)),
                "duration_s": _timing("duration_s", 10.0),
                "poll_interval_s": _timing("poll_interval_s", 0.05),
                "heartbeat_s": _timing("heartbeat_s", 2.0),
            }
        except (TypeError, ValueError, OverflowError) as error:
            raise RequestError(f"invalid watch timing field: {error}") from None
        if params["max_events"] < 0:
            raise RequestError(
                f"max_events must be >= 0 (0 streams until the deadline), "
                f"got {params['max_events']}"
            )
        for field in ("duration_s", "poll_interval_s", "heartbeat_s"):
            value = params[field]
            # NaN slips through a plain `<= 0` (every comparison against
            # NaN is false) and the stream would then exit instantly
            # because `time.monotonic() < deadline` is false too; +inf
            # would never terminate.  Both are caller mistakes.
            if not math.isfinite(value) or value <= 0:
                raise RequestError(
                    f"watch durations and intervals must be positive finite "
                    f"numbers, got {field}={value!r}"
                )
        dataset = registry.get(DatasetSpec.from_dict(body["dataset"]))
        watch = WatchSession(
            dataset, tuple(rules), theta=body.get("theta"), shards=body.get("shards")
        )
        return watch, params

    def close(self) -> None:
        """Shut the underlying executor down."""
        self.executor.close()
