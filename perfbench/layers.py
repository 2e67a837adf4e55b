"""Layer attribution by wrapping the program's public calls from outside.

Nothing under ``src/`` is instrumented for the benchmark: the
:class:`Tracer` replaces a fixed set of public functions and methods with
thin wrappers for the duration of one workload, then puts the originals
back.  Every wrapper belongs to one layer of the stack (the module names
under ``src/repro``) and feeds one named metric.

Two modes share the same wrappers:

* **untraced** (``timed=False``): only the wrappers marked ``counted``
  are installed, and they take no clock readings.  They record the
  deterministic counters the benchmark gates on (solver calls and
  statuses, lowered model sizes, search probes).
* **traced** (``timed=True``): every wrapper is installed.  Each call is
  a span; a span's *self time* is its duration minus the time of the
  spans it encloses, so per-metric and per-layer self times never count
  a nested call twice, and their sum over all layers is at most the wall
  time of the traced region.  Whatever wall time no span covers is
  reported as ``unattributed_s``.

Spans are kept per thread; the workloads that use a tracer run their
program calls on one thread (``REPRO_JOBS=1``).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The layers time is attributed to, in stack order.
LAYERS = ("datasets", "rdf", "matrix", "rules", "core", "ilp", "storage", "service")

#: Solver statuses the histogram always reports.  ``feasible`` (an
#: incumbent found before a limit stopped the solve) is a time-limited
#: probe; ``unbounded`` cannot come out of a refinement model and is an
#: error if it does.
STATUS_BUCKETS = ("optimal", "infeasible", "time_limit", "error")
_STATUS_ALIASES = {"feasible": "time_limit", "unbounded": "error"}


class Tracer:
    """Wrap public calls, attribute their self time to layers, count work."""

    def __init__(self, timed: bool):
        self.timed = timed
        #: Self seconds per metric name (e.g. ``solve.highs_s``).
        self.seconds: Dict[str, float] = defaultdict(float)
        #: Longest single call per metric name.
        self.max_seconds: Dict[str, float] = defaultdict(float)
        #: Self seconds per layer.
        self.layer_seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Call counts and observed work counters.
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: object,
        attribute: str,
        metric: str,
        layer: str,
        observe: Optional[Callable[["Tracer", object], None]] = None,
        counted: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``metric`` names the self-time (``<metric>``) and call-count
        (``<metric>.calls``) entries; ``observe(tracer, result)`` runs on
        every return value.  Untraced tracers install only ``counted``
        wrappers.
        """
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        if not (self.timed or counted):
            return
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self._span(raw.__func__, metric, layer, observe))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._span(raw.__func__, metric, layer, observe))
        else:
            replacement = self._span(raw, metric, layer, observe)
        inherited = attribute not in vars(owner)
        setattr(owner, attribute, replacement)
        if not inherited:
            self._undo.append(lambda: setattr(owner, attribute, raw))
        else:
            self._undo.append(lambda: delattr(owner, attribute))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, function, metric, layer, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.timed:
                result = function(*args, **kwargs)
            else:
                stack = tracer._stack()
                frame = [0.0]
                stack.append(frame)
                started = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    own = elapsed - frame[0]
                    tracer.seconds[metric] += own
                    tracer.layer_seconds[layer] += own
                    if elapsed > tracer.max_seconds[metric]:
                        tracer.max_seconds[metric] = elapsed
            tracer.counts[f"{metric}.calls"] += 1
            if observe is not None:
                observe(tracer, result)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", metric)
        return wrapper


# ---------------------------------------------------------------------- #
# Observers: work counters read off return values
# ---------------------------------------------------------------------- #
def observe_lowered(tracer: Tracer, arrays: object) -> None:
    """Model size of one ``Model.to_arrays`` result."""
    matrix = arrays["A"]
    tracer.counts["ilp.rows"] += int(matrix.shape[0])
    tracer.counts["ilp.cols"] += int(len(arrays["c"]))
    tracer.counts["ilp.nnz"] += int(getattr(matrix, "nnz", 0))


def observe_solution(tracer: Tracer, solution: object) -> None:
    """Status histogram of ``ScipyMilpSolver.solve`` results."""
    status = str(solution.status)
    bucket = _STATUS_ALIASES.get(status, status)
    if bucket not in STATUS_BUCKETS:
        bucket = "error"
    tracer.counts[f"solve.status.{bucket}"] += 1


def observe_search(tracer: Tracer, search: object) -> None:
    """Probe counts of one refinement search."""
    tracer.counts["search.probes"] += int(search.n_probes)
    tracer.counts["search.solver_probes"] += int(search.n_solver_probes)


def observe_graph(tracer: Tracer, graph: object) -> None:
    """Triples produced by one N-Triples parse."""
    tracer.counts["rdf.triples"] += len(graph)


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the in-process workloads reach.

    The import sites matter: a function imported by name into another
    module is wrapped where the caller looks it up.
    """
    import repro.api.dataset as dataset_module
    import repro.api.session as session_module
    import repro.datasets as datasets
    import repro.experiments.yago_scalability as yago_experiment
    import repro.ilp.scipy_backend as scipy_backend
    import repro.rules.counting as counting
    from repro.api.dataset import Dataset, register_builtin_dataset
    from repro.core.encoder import EncodedInstance, SortRefinementEncoder
    from repro.ilp.model import Model
    from repro.matrix.property_matrix import PropertyMatrix
    from repro.matrix.signatures import SignatureTable
    from repro.storage.snapshots import Snapshot

    wrap = tracer.wrap
    # datasets: synthetic input generation inside the experiments.
    if tracer.timed:
        for name, factory in (
            ("dbpedia-persons", datasets.dbpedia_persons_table),
            ("wordnet-nouns", datasets.wordnet_nouns_table),
        ):
            timed = tracer._span(factory, "datasets.generate_s", "datasets", None)
            register_builtin_dataset(name, timed)
            tracer._undo.append(
                lambda name=name, factory=factory: register_builtin_dataset(name, factory)
            )
    wrap(yago_experiment, "yago_sort_sample", "datasets.generate_s", "datasets")
    # rdf: N-Triples parse + interning.
    wrap(dataset_module, "load_ntriples", "rdf.parse_s", "rdf", observe_graph)
    # matrix: property matrix, signature table, incremental patches.
    wrap(PropertyMatrix, "from_graph", "matrix.build_s", "matrix")
    wrap(SignatureTable, "from_matrix", "matrix.table_s", "matrix")
    wrap(Dataset, "mutate", "matrix.patch_s", "matrix")
    # rules: case counting and σ.
    wrap(SortRefinementEncoder, "compute_cases", "rules.count_s", "rules")
    wrap(counting, "rule_counts", "rules.count_s", "rules")
    # core: encoder, search, decode.
    wrap(SortRefinementEncoder, "encode_incremental", "encode.build_s", "core")
    wrap(SortRefinementEncoder, "encode", "encode.build_s", "core")
    wrap(session_module, "highest_theta_refinement", "search.s", "core", observe_search, True)
    wrap(session_module, "lowest_k_refinement", "search.s", "core", observe_search, True)
    wrap(EncodedInstance, "decode", "decode_s", "core")
    # ilp: lowering to arrays, the HiGHS call, the backend around it.
    wrap(Model, "to_arrays", "encode.lower_s", "ilp", observe_lowered, True)
    wrap(scipy_backend, "milp", "solve.highs_s", "ilp")
    wrap(scipy_backend.ScipyMilpSolver, "solve", "solve.backend_s", "ilp", observe_solution, True)
    # storage: snapshots and the out-of-core build.
    wrap(Dataset, "save", "snapshot.save_s", "storage")
    wrap(Dataset, "load", "snapshot.load_s", "storage")
    wrap(Snapshot, "load_graph", "snapshot.graph_load_s", "storage")
    wrap(Dataset, "build_out_of_core", "ooc.build_s", "storage")
