"""Shared pieces of the workloads: pass results and peak memory."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class PassResult:
    """One pass over a workload's fixed unit of work.

    ``latencies_s`` holds one entry per operation of the pass (what an
    operation is depends on the workload); ``counters`` are the
    deterministic work counters every pass must repeat exactly;
    ``metrics`` are extra per-pass measurements, reported as medians.
    """

    wall_s: float
    latencies_s: List[float]
    attempted: int
    failed: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)


def peak_rss_mb(who: int) -> float:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest waited-for
    descendant (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
