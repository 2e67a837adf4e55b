"""The multiprocessing worker pool: fixed-size or autoscaling on queue depth.

:class:`ElasticPoolExecutor` fans batch groups out over long-lived worker
processes, each holding an :class:`~repro.service.executor.InlineExecutor`
(and through it a :class:`~repro.service.registry.DatasetRegistry` plus
a session cache) created at boot and kept for the worker's lifetime.  A
job is one batch *group* (requests sharing a dataset, rule and solver);
the graph → matrix → signature-table chain for a dataset is therefore
built at most once per worker, and jobs only ship scalar data across the
process boundary: wire dicts out, result envelopes back.

The worker count lies between ``min_workers`` and ``max_workers``.  With
``min_workers == max_workers`` (what :func:`~repro.service.executor.create_executor`
builds for ``workers=N``) the pool is fixed-size and no scaler thread
runs.  Otherwise a scaler thread watches the backlog of unfinished jobs
and

* **scales up** towards ``max_workers`` whenever jobs are queued faster
  than the live workers drain them, and
* **scales down** towards ``min_workers`` by sending a *drain* sentinel
  once the pool has been idle for ``idle_timeout_s`` — a worker that
  reads the sentinel finishes whatever job it is on, acknowledges, and
  exits cleanly (exit code 0, never a terminate).

Elasticity is practical because worker boot is nearly free when dataset
specs are snapshot-backed: a fresh worker's registry reopens the
persisted artifact chain via ``{"snapshot": path}`` specs in ~0.1 s
instead of re-parsing and rebuilding, so spawning for a traffic burst
and draining afterwards costs almost nothing.

Determinism: a group always runs in submission order inside one worker's
session, exactly as :class:`~repro.service.executor.InlineExecutor` runs
it in-process.  Workers are anonymous and pull jobs off one shared
queue, so the executor keeps an ordered *mutation log* (one ``(seq, wire
dict)`` entry per graph-changing ``mutate`` request), and a worker
replays the entries it has not folded yet before touching a job
(:func:`_apply_job`).  A worker booted mid-traffic therefore converges on
exactly the state every older worker has, and payloads stay
bit-identical to inline execution whichever — and however many — workers
served them.

Bounded shipping: every result reply carries the worker's id and the
last log sequence number it has applied, and the executor keeps that
mark per live (or draining) worker.  A job ships only the log entries
past the lowest mark, so its size follows how far the slowest worker
lags, not how long the pool has lived.  A worker boots with the whole
log in its process arguments (under ``fork`` that copies nothing) and
replays it inside its first job, so its mark starts at the log's end.
A mark moves only on a result reply: an error reply leaves it where it
was, and a crashed worker holds the floor down, so jobs then ship more
entries, never fewer than a worker needs.

Remaining trade-off: the executor keeps the whole log, because a worker
booted later replays it from the start, so the parent's memory and a
late boot's replay still grow with the number of mutations applied over
the pool's lifetime.

Known corner of the bit-identity invariant: the ``cached`` flag (only)
of a refinement repeated *within one batch* across a **no-op** mutation
of its own dataset is worker-placement-dependent — the repeat lands in
a later wave whose job may reach a worker with a cold session cache,
while the inline executor's single warm session reports ``cached:
true`` (a graph-changing mutation invalidates both sides identically,
so only no-op mutations expose this).  Every other payload field stays
bit-identical; exact parity here needs addressable workers (consistent
group→worker routing), which one shared job queue cannot express.

Scale events are counted in the executor's always-on
:class:`~repro.telemetry.Telemetry` (``scale.up`` / ``scale.down`` /
``scale.worker_boots`` / ``scale.worker_drains``), as are the log
entries jobs carry (``pool.log_entries_shipped``); all are mirrored into
the process spine, the scale events are reported by
:meth:`ElasticPoolExecutor.stats`, and all are served
over ``GET /v1/metrics``.

:meth:`close` is graceful by construction: drain sentinels queue
*behind* any in-flight jobs, so accepted work completes before the
workers exit; only workers that overrun ``drain_timeout`` are escalated
to ``terminate()`` (counted as ``scale.forced_terminations``).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from bisect import bisect_left
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

from repro.service.executor import BatchExecutor, BatchGroup, InlineExecutor
from repro.service.wire import ServiceRequest, parse_request
from repro.telemetry import Telemetry, current as current_telemetry

__all__ = ["ElasticPoolExecutor"]

#: Sentinel a worker interprets as "finish the current job, then exit".
_DRAIN = None


def _replay(executor: InlineExecutor, applied_seq: int, mutations) -> int:
    """Replay the ``(seq, wire dict)`` entries past ``applied_seq``.

    Entries at or below ``applied_seq`` are skipped, so a log that
    overlaps what the worker already holds is harmless.  The replayed
    envelopes are discarded: the phase that originated a mutation already
    produced its envelope.  Returns the seq of the last entry applied.
    """
    for seq, mutation in mutations:
        if seq > applied_seq:
            [replayed] = executor.run_group([parse_request(mutation)])
            if not replayed.get("ok"):
                # Only environmental failures can land here (the original
                # mutation succeeded elsewhere, and validated mutations are
                # total): fail the job loudly rather than skip the entry —
                # a worker that silently misses a mutation would serve
                # diverging answers forever.
                raise RuntimeError(
                    f"pool worker failed to replay mutation #{seq}: "
                    f"{replayed.get('error')}"
                )
            applied_seq = seq
    return applied_seq


def _apply_job(
    executor: InlineExecutor, applied_seq: int, payload: Dict[str, object]
) -> Tuple[List[Dict[str, object]], int]:
    """Catch up on the mutation log, then run one group on ``executor``.

    ``payload`` carries the group's wire dicts plus the log entries past
    the slowest live worker's mark, as ``(seq, wire dict)`` pairs; the
    ones beyond ``applied_seq`` are replayed into the executor's
    registry first.  ``payload["applied_seq"]`` marks the group itself as
    a mutation so the executing worker does not replay it again later:
    replaying a remove-then-insert of the same triple twice would count
    spurious changes and skew the generation counter.

    Returns ``(result envelopes, new applied_seq)``.
    """
    applied_seq = _replay(executor, applied_seq, payload.get("mutations", ()))
    results = executor.run_group([parse_request(d) for d in payload["requests"]])
    applied = payload.get("applied_seq")
    if applied is not None:
        applied_seq = max(applied_seq, applied)
    return results, applied_seq


def _elastic_worker_main(
    inbound, outbound, worker_id: int,
    solver_time_limit: Optional[float], jobs: Optional[object],
    boot_log: List[Tuple[int, Dict[str, object]]],
) -> None:
    """Worker process body: boot an inline engine, serve jobs until drained.

    ``boot_log`` is the mutation log as it stood when the worker was
    spawned; the executor counts it as applied from the start, so it is
    replayed before the first job runs — inside that job's ``try``, so a
    failed replay still answers the job (and is retried with the next).
    Result replies carry ``(worker_id, applied_seq, envelopes)``.

    Exceptions never escape a job — they come back as ``("error", job_id,
    message)`` tuples so the parent can resolve the job's future instead
    of hanging on a silently dead worker.
    """
    executor = InlineExecutor(solver_time_limit=solver_time_limit, jobs=jobs)
    applied_seq = 0
    outbound.put(("ready", worker_id, None))
    while True:
        item = inbound.get()
        if item is _DRAIN:
            outbound.put(("drained", worker_id, None))
            return
        job_id, payload = item
        try:
            if boot_log:
                applied_seq = _replay(executor, applied_seq, boot_log)
                boot_log = []
            results, applied_seq = _apply_job(executor, applied_seq, payload)
            outbound.put(("result", job_id, (worker_id, applied_seq, results)))
        except BaseException as error:  # noqa: BLE001 - must answer the job
            outbound.put(("error", job_id, f"{type(error).__name__}: {error}"))


class ElasticPoolExecutor(BatchExecutor):
    """A worker pool that autoscales between ``min_workers`` and ``max_workers``.

    Parameters
    ----------
    min_workers:
        The floor: the pool never drains below this many workers (booted
        lazily on first use).
    max_workers:
        The ceiling the scaler may grow to under backlog.  Equal to
        ``min_workers``, the pool is fixed-size and runs no scaler thread.
    solver_time_limit:
        Forwarded to every worker's session construction.
    start_method:
        A :mod:`multiprocessing` start method or ``None`` for the
        platform default (``fork`` boots fastest where available).
    jobs:
        Intra-query parallelism budget per worker session; deployed
        concurrency is ``live_workers × jobs``.
    idle_timeout_s:
        How long the pool must be completely idle before one surplus
        worker is asked to drain (one per interval, so scale-down is
        gradual).
    scale_interval_s:
        The scaler thread's decision cadence.
    drain_timeout:
        Seconds :meth:`close` waits for a graceful worker exit before
        escalating to ``terminate()``.
    """

    def __init__(
        self,
        min_workers: int = 1,
        max_workers: int = 4,
        solver_time_limit: Optional[float] = None,
        start_method: Optional[str] = None,
        jobs: Optional[object] = None,
        idle_timeout_s: float = 2.0,
        scale_interval_s: float = 0.02,
        drain_timeout: float = 10.0,
    ):
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if max_workers < min_workers:
            raise ValueError(
                f"max_workers must be >= min_workers, got {max_workers} < {min_workers}"
            )
        self.min_workers = min_workers
        self.max_workers = max_workers
        self._solver_time_limit = solver_time_limit
        self._session_jobs = jobs
        self._idle_timeout_s = idle_timeout_s
        self._scale_interval_s = scale_interval_s
        self._drain_timeout = drain_timeout
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        #: Always-on scale/lifecycle telemetry, served via ``/v1/metrics``.
        self.telemetry = Telemetry(enabled=True)
        # Guards every piece of mutable pool state below.
        self._lock = threading.Lock()
        # Serialises whole mutations (seq allocation → apply → log append).
        # Without it, two concurrent mutations could append to the log in
        # completion order rather than sequence order, and a worker that
        # replays the higher sequence first would skip the lower one
        # forever — workers would silently diverge.
        self._mutation_lock = threading.Lock()
        self._mutation_log: List[Tuple[int, Dict[str, object]]] = []
        self._mutation_seq = 0
        # Per live or draining worker: the last log seq it has applied, as
        # of its latest result reply (or its boot log).  The lowest mark is
        # the floor below which no job needs to ship entries.
        self._applied: Dict[int, int] = {}
        self._started = False
        self._closing = False
        self._inbound = None
        self._outbound = None
        self._workers: Dict[int, multiprocessing.Process] = {}
        self._worker_seq = 0
        self._draining = 0
        self._futures: Dict[int, Future] = {}
        self._job_seq = 0
        self._jobs_dispatched = 0
        self._last_busy = time.monotonic()
        self._peak_workers = 0
        self._scale_up_events = 0
        self._scale_down_events = 0
        self._collector: Optional[threading.Thread] = None
        self._scaler: Optional[threading.Thread] = None
        self._scaler_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self._closing = False
            self._scaler_stop.clear()
            self._inbound = self._context.Queue()
            self._outbound = self._context.Queue()
            self._collector = threading.Thread(
                target=self._collect, name="elastic-collector", daemon=True
            )
            self._collector.start()
            if self.max_workers > self.min_workers:
                self._scaler = threading.Thread(
                    target=self._autoscale, name="elastic-scaler", daemon=True
                )
                self._scaler.start()
            for _ in range(self.min_workers):
                self._spawn_locked()

    def _spawn_locked(self) -> None:
        """Boot one worker (caller holds ``self._lock``)."""
        self._worker_seq += 1
        worker_id = self._worker_seq
        # The log goes out whole at boot: start() forks or pickles it while
        # we hold the lock, so no append can slip in between the copy the
        # worker gets and the mark recorded for it.
        boot_log = self._mutation_log
        process = self._context.Process(
            target=_elastic_worker_main,
            args=(
                self._inbound, self._outbound, worker_id,
                self._solver_time_limit, self._session_jobs, boot_log,
            ),
            name=f"repro-elastic-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process
        self._applied[worker_id] = boot_log[-1][0] if boot_log else 0
        self._peak_workers = max(self._peak_workers, len(self._workers))
        self.telemetry.incr("scale.worker_boots")
        current_telemetry().incr("scale.worker_boots")

    def _collect(self) -> None:
        """Route worker answers to futures; account for drained workers."""
        while True:
            kind, key, value = self._outbound.get()
            if kind == "stop":
                return
            if kind == "ready":
                self.telemetry.incr("scale.workers_ready")
                continue
            if kind == "drained":
                with self._lock:
                    process = self._workers.pop(key, None)
                    self._applied.pop(key, None)
                    self._draining = max(0, self._draining - 1)
                    # close() joins the workers it drains itself.  Two
                    # threads reaping one process race in waitpid, and the
                    # loser sees the exited worker as alive and kills it.
                    closing = self._closing
                if process is not None and not closing:
                    process.join(timeout=5)
                self.telemetry.incr("scale.worker_drains")
                current_telemetry().incr("scale.worker_drains")
                continue
            with self._lock:
                if kind == "result":
                    worker_id, applied_seq, value = value
                    # Raise the mark before resolving the future, so the
                    # job a caller submits next already sees it.
                    if worker_id in self._applied:
                        self._applied[worker_id] = max(
                            self._applied[worker_id], applied_seq
                        )
                future = self._futures.pop(key, None)
                self._last_busy = time.monotonic()
            if future is None:  # pragma: no cover - job raced with close()
                continue
            if kind == "result":
                future.set_result(value)
            else:
                future.set_exception(RuntimeError(f"elastic worker failed: {value}"))

    def _autoscale(self) -> None:
        """The scaler loop: grow on backlog, drain one worker per idle window."""
        while not self._scaler_stop.wait(self._scale_interval_s):
            with self._lock:
                if not self._started or self._closing:
                    continue
                backlog = len(self._futures)
                effective = len(self._workers) - self._draining
                if backlog > effective and effective < self.max_workers:
                    spawn = min(backlog, self.max_workers) - effective
                    for _ in range(spawn):
                        self._spawn_locked()
                    self._scale_up_events += 1
                    self.telemetry.incr("scale.up")
                    current_telemetry().incr("scale.up")
                elif (
                    backlog == 0
                    and effective > self.min_workers
                    and time.monotonic() - self._last_busy >= self._idle_timeout_s
                ):
                    # One drain per idle window: gradual, never below min.
                    self._inbound.put(_DRAIN)
                    self._draining += 1
                    self._last_busy = time.monotonic()
                    self._scale_down_events += 1
                    self.telemetry.incr("scale.down")
                    current_telemetry().incr("scale.down")

    # ------------------------------------------------------------------ #
    # Job submission
    # ------------------------------------------------------------------ #
    def _log_suffix_locked(self) -> List[Tuple[int, Dict[str, object]]]:
        """The log entries some live worker lacks (caller holds ``self._lock``).

        The log is in seq order (the mutation lock serialises appends),
        so the cut past the lowest worker mark is a bisection; ``(floor +
        1,)`` sorts before every entry with that seq and after all lower.
        """
        floor = min(self._applied.values(), default=self._mutation_seq)
        return self._mutation_log[bisect_left(self._mutation_log, (floor + 1,)):]

    def _submit(self, payload: Dict[str, object]) -> Future:
        shipped = len(payload["mutations"])
        self.telemetry.incr("pool.log_entries_shipped", shipped)
        current_telemetry().incr("pool.log_entries_shipped", shipped)
        future: Future = Future()
        with self._lock:
            self._job_seq += 1
            job_id = self._job_seq
            self._futures[job_id] = future
            self._jobs_dispatched += 1
            self._last_busy = time.monotonic()
        self._inbound.put((job_id, payload))
        return future

    def _execute_groups(self, groups: List[BatchGroup]) -> List[List[Dict[str, object]]]:
        if not groups:
            return []
        self._ensure_started()
        with self._lock:
            log = self._log_suffix_locked()
        telemetry = current_telemetry()
        telemetry.incr("pool.round_trips", len(groups))
        with telemetry.span("pool.map"):
            futures = [
                self._submit({
                    "mutations": log,
                    "requests": [request.to_dict() for request in group.requests],
                })
                for group in groups
            ]
            return [future.result() for future in futures]

    def _execute_mutation(self, request: ServiceRequest) -> Dict[str, object]:
        """Run a mutation on one worker and append it to the shared log.

        The executing worker catches up on the entries it lacks, applies
        the mutation and marks it applied; every other worker replays it
        from the log before its next job, and a worker booted later gets
        it in its boot log.
        Failed mutations (e.g. a dataset with no graph stage) fail
        identically in every process, and no-op mutations leave every
        copy's generation unchanged, so neither enters the log.
        """
        self._ensure_started()
        with self._mutation_lock:
            with self._lock:
                self._mutation_seq += 1
                seq = self._mutation_seq
                log = self._log_suffix_locked()
            wire = request.to_dict()
            payload = {"mutations": log, "requests": [wire], "applied_seq": seq}
            telemetry = current_telemetry()
            telemetry.incr("pool.round_trips")
            with telemetry.span("pool.mutation"):
                [envelope] = self._submit(payload).result()
            result = envelope.get("result") or {}
            if envelope.get("ok") and (result.get("added") or result.get("removed")):
                with self._lock:
                    self._mutation_log.append((seq, wire))
        return envelope

    # ------------------------------------------------------------------ #
    # Introspection & shutdown
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Pool topology, backlog and the scale-event counters."""
        from repro.parallel import resolve_jobs

        with self._lock:
            return {
                "mode": "elastic",
                "min_workers": self.min_workers,
                "max_workers": self.max_workers,
                "workers": len(self._workers),
                "draining": self._draining,
                "peak_workers": self._peak_workers,
                "backlog": len(self._futures),
                "jobs": resolve_jobs(self._session_jobs),
                "start_method": self._context.get_start_method(),
                "jobs_dispatched": self._jobs_dispatched,
                "mutations_logged": len(self._mutation_log),
                "scale_up_events": self._scale_up_events,
                "scale_down_events": self._scale_down_events,
            }

    def close(self) -> None:
        """Drain every worker gracefully; terminate only on timeout.

        Drain sentinels queue behind in-flight jobs, so accepted work
        finishes before the workers exit.  The executor can be reused
        afterwards — the mutation log survives, and fresh workers boot
        with it and replay it before their first job.
        """
        with self._lock:
            if not self._started:
                return
            self._closing = True
            workers = list(self._workers.values())
        self._scaler_stop.set()
        if self._scaler is not None:
            self._scaler.join(timeout=5)
        for _ in workers:
            self._inbound.put(_DRAIN)
        deadline = time.monotonic() + self._drain_timeout
        for process in workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in workers:
            if process.is_alive():
                self.telemetry.incr("scale.forced_terminations")
                current_telemetry().incr("pool.forced_terminations")
                process.terminate()
                process.join(timeout=5)
        # The collector drains remaining acks, then stops on the sentinel.
        self._outbound.put(("stop", None, None))
        if self._collector is not None:
            self._collector.join(timeout=5)
        for queue in (self._inbound, self._outbound):
            queue.close()
            queue.cancel_join_thread()
        with self._lock:
            for future in self._futures.values():
                if not future.done():  # pragma: no cover - abnormal close
                    future.set_exception(RuntimeError("elastic pool closed"))
            self._futures.clear()
            self._workers.clear()
            self._applied.clear()
            self._draining = 0
            self._inbound = self._outbound = None
            self._collector = self._scaler = None
            self._started = False
            self._closing = False
