"""Workload ``paper-figures``: the paper's Figures 4–8 through ``run_experiment``.

Why: it is the paper's own workload, and the ILP layers (encoding,
lowering, HiGHS) do almost all of its work; parse, storage and service
do none.  A solver or encoder change shows here and nowhere else.

Sizes are the largest at which no probe reaches the 60 s solver limit
(Figure 5 with a 32-signature Cov cap and Figure 7 with a 20-signature
cap both do): a time-limited probe would make the wall time measure the
limit, not the program.

Seed: the figures run on the experiments' own seeds (7 for DBpedia
Persons, 11 for WordNet Nouns, 23 for the YAGO sample), whatever
``--seed`` says.  Each figure is a handful of single MILP instances, and
HiGHS time on one instance swings by an order of magnitude between
generator seeds (Figure 8 alone: 0.6 s to 10.6 s over nine seeds), and
some seeds hit the time limit; no bound of 25% could hold over seeds.
``--seed`` drives only the set-up's warm-up instance.

One pass runs the five figures, and the pass is the workload's one
operation: the latency percentiles are taken over passes and read the
pass time, as for any batch job.  A single figure's time is a 3–15 s
window of a shared host; over ten seeds its median spread 24% between
runs, the whole pass half that.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List

from common import PassResult

#: (experiment id, run_experiment keyword arguments).
FIGURES = (
    ("figure4", dict(n_subjects=20_000, seed=7, sim_max_signatures=12, step=0.01,
                     solver_time_limit=60.0, render_figures=True)),
    ("figure5", dict(n_subjects=20_000, seed=7, theta=0.9, cov_max_signatures=24,
                     sim_max_signatures=12, solver_time_limit=60.0)),
    ("figure6", dict(n_subjects=15_000, seed=11, sim_max_signatures=12, step=0.01,
                     solver_time_limit=60.0, render_figures=True)),
    ("figure7", dict(n_subjects=15_000, seed=11, cov_theta=0.9, sim_theta=0.98,
                     cov_max_signatures=16, sim_max_signatures=12, solver_time_limit=60.0)),
    ("figure8", dict(n_sorts=25, seed=23, max_signatures=36, max_properties=18, step=0.05,
                     max_probes=6, solver_time_limit=20.0)),
)


class Workload:
    """Figures 4–8 at fixed sizes."""

    name = "paper-figures"
    program_in_process = True
    #: Set-up takes a few tenths of a second, so one set-up reads mostly
    #: host noise; the median of nine is steadier.
    setup_repeats = 9

    def __init__(self, seed: int, work: Path, seconds: float):
        self.seed = seed
        self._results: Dict[str, object] = {}

    def setup(self) -> None:
        """Generate the figures' input tables, then warm the solver path.

        The experiments own their inputs and generate them again inside
        each pass; set-up times the same generators once, so work moved
        between generation and the figures shows in ``setup_s``.
        """
        from repro.api import Dataset
        from repro.datasets import dbpedia_persons_table, wordnet_nouns_table, yago_sort_sample

        dbpedia_persons_table(n_subjects=20_000, seed=7)
        wordnet_nouns_table(n_subjects=15_000, seed=11)
        yago_sort_sample(n_sorts=25, seed=23, max_signatures=36, max_properties=18)
        dataset = Dataset.builtin(
            "dbpedia-persons", n_subjects=2_000, seed=self.seed, max_signatures=12
        )
        dataset.session().refine("Cov", k=2, step=0.05)

    def one_pass(self) -> PassResult:
        from repro.experiments import run_experiment

        started = time.perf_counter()
        for experiment_id, params in FIGURES:
            self._results[experiment_id] = run_experiment(experiment_id, **params)
        wall = time.perf_counter() - started
        return PassResult(
            wall_s=wall,
            latencies_s=[wall],
            attempted=0,  # run.py counts the solver calls
        )

    def check(self) -> List[str]:
        """The paper-shape assertions of the existing figure benchmarks."""
        problems = []
        for experiment_id, check in (
            ("figure4", _check_figure4),
            ("figure5", _check_figure5),
            ("figure6", _check_figure6),
            ("figure7", _check_figure7),
            ("figure8", _check_figure8),
        ):
            try:
                check(self._results[experiment_id])
            except AssertionError as error:
                problems.append(f"{experiment_id}: {error}")
        return problems

    def layer_metrics(self) -> dict:
        return {}

    def close(self) -> None:
        self._results.clear()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _check_figure4(result) -> None:
    cov = [row for row in result.rows if row["rule"] == "Cov"]
    sim = [row for row in result.rows if row["rule"] == "Sim"]
    symdep = [row for row in result.rows if row["rule"].startswith("SymDep")]
    alive = [r for r in cov if not r["uses deathDate"] and not r["uses deathPlace"]]
    _require(bool(alive), "Cov k=2 does not find the sort of people that are alive")
    _require(alive[0]["subjects"] == max(r["subjects"] for r in cov),
             "the alive sort is not the larger Cov sort")
    _require(all(row["Cov"] > 0.6 for row in cov), "a Cov sort has Cov <= 0.6")
    _require(len(sim) == 2 and all(row["Sim"] > 0.75 for row in sim),
             "the Sim refinement is not two sorts with Sim > 0.75")

    def imbalance(rows):
        sizes = [r["subjects"] for r in rows]
        return max(sizes) / min(sizes)

    _require(imbalance(sim) < imbalance(cov) * 1.5, "the Sim split is not more balanced")
    values = sorted(row["SymDep"] for row in symdep)
    _require(len(symdep) == 2 and math.isclose(values[1], 1.0) and values[0] > 0.7,
             f"SymDep sort values {values} are not (>0.7, 1.0)")
    _require(any(not row["uses deathPlace"] for row in symdep),
             "no SymDep sort drops deathPlace")


def _check_figure5(result) -> None:
    cov = [row for row in result.rows if row["rule"] == "Cov"]
    sim = [row for row in result.rows if row["rule"] == "Sim"]
    cov_k, sim_k = cov[0]["k"], sim[0]["k"]
    _require(cov_k > sim_k >= 1 and cov_k >= 4, f"lowest k Cov={cov_k} Sim={sim_k}")
    _require(all(row["sigma"] >= 0.9 - 1e-9 for row in result.rows),
             "a sort is below theta = 0.9")
    _require(any(not r["uses deathDate"] and not r["uses deathPlace"] for r in cov),
             "no Cov sort without death properties")
    _require(any(row["uses deathDate"] for row in cov), "no Cov sort uses deathDate")


def _check_figure6(result) -> None:
    from repro.datasets import wordnet_nouns_table
    from repro.functions import coverage, similarity

    whole = wordnet_nouns_table(n_subjects=15_000)
    cov = [row for row in result.rows if row["rule"] == "Cov"]
    sim = [row for row in result.rows if row["rule"] == "Sim"]
    _require(all(coverage(whole) - 1e-9 <= row["Cov"] < 0.75 for row in cov),
             "a Cov sort is outside [Cov(whole), 0.75)")
    _require(all(row["Sim"] >= similarity(whole) - 0.02 for row in sim),
             "a Sim sort fell below the whole dataset's Sim")
    sizes = [row["subjects"] for row in sim]
    _require(min(sizes) < max(sizes), "the Sim sorts have equal sizes")


def _check_figure7(result) -> None:
    by_rule = {row["rule"]: row for row in result.rows}
    cov, sim = by_rule["Cov"], by_rule["Sim"]
    _require(cov["lowest k"] / cov["signatures"] > 0.3, "Cov lowest k is not a large fraction")
    _require(sim["lowest k"] <= 8 and cov["lowest k"] > sim["lowest k"],
             f"lowest k Cov={cov['lowest k']} Sim={sim['lowest k']}")
    _require(cov["min sigma"] >= 0.9 - 1e-9 and sim["min sigma"] >= 0.98 - 1e-9,
             "a sort is below its threshold")


def _check_figure8(result) -> None:
    by_quantity = {row["quantity"]: row for row in result.rows}
    signatures = by_quantity["runtime vs #signatures (power-law exponent)"]["measured"]
    properties = by_quantity["runtime vs #properties (exponential rate)"]["measured"]
    subjects = by_quantity["runtime vs #subjects (power-law exponent, expect ~0)"]["measured"]
    _require(signatures > 0.3 and properties > 0.0,
             f"runtime fits signatures={signatures} properties={properties}")
    _require(not math.isnan(subjects) and abs(subjects) < signatures,
             f"runtime depends on #subjects (exponent {subjects})")
    _require(len(result.figures) == 2, "Figure 8 lacks its two histograms")
