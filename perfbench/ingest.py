"""Workload ``ingest``: N-Triples → chain → σ → mutation → snapshot → out-of-core.

Why: ``rdf``, ``matrix`` and ``storage`` do the work here and the ILP
layers do none, so a solver or encoder change should leave this workload
unchanged, while a parser, matrix or snapshot change shows.  The
mutation puts writes beside reads in the matrix and table layer.

Input (set-up): a DBpedia Persons stand-in of 20k subjects (~106k
triples) drawn with the workload seed, written to N-Triples, and a
seeded mutation touching 1% of its subjects (drop a subject's
``deathDate`` or give it one).  The size lets a 25 s run report the
median of three passes on a 2-CPU host: with a single pass over a
50k-subject input, host noise alone spread ``wall_s`` by 11% between
runs on a loaded 2-CPU host.

One pass runs five steps, in order; the pass is the workload's one
operation, so the latency percentiles are taken over passes:

1. ``Dataset.from_ntriples``, then ``graph``, ``matrix`` and ``table``;
2. σ for Cov, Sim and SymDep[deathPlace, deathDate];
3. the mutation, then σ again;
4. ``save``, ``Dataset.load`` with verification on, then the lazy ``graph``;
5. ``Dataset.build_out_of_core`` on the same file.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from pathlib import Path
from typing import List

from common import PassResult

N_SUBJECTS = 20_000
MUTATED_SHARE = 0.01
STEPS = ("parse_build", "sigma", "mutate_sigma", "snapshot", "out_of_core")


def _sigma(session, rules):
    return tuple(session.evaluate(rule=rule, exact=True).exact for rule in rules)


class Workload:
    """The ingest pipeline over one seeded N-Triples file."""

    name = "ingest"
    #: The program runs in this process (see ``run.py``).
    program_in_process = True

    def __init__(self, seed: int, work: Path, seconds: float):
        from repro.datasets.dbpedia_persons import PERSONS_NAMESPACE as ns
        from repro.rules import coverage, similarity, symmetric_dependency

        self.seed = seed
        self.work = work
        self.path = work / "persons.nt"
        self.rules = (coverage(), similarity(), symmetric_dependency(ns.deathPlace, ns.deathDate))
        self._last = None

    def setup(self) -> None:
        """Generate the persons graph, write it as N-Triples, derive the mutation."""
        from repro.datasets.dbpedia_persons import PERSONS_NAMESPACE as ns
        from repro.datasets.dbpedia_persons import dbpedia_persons_graph
        from repro.rdf.ntriples import dump_ntriples
        from repro.rdf.terms import Literal, Triple

        self.work.mkdir(parents=True, exist_ok=True)
        graph = dbpedia_persons_graph(n_subjects=N_SUBJECTS, seed=self.seed)
        self.n_triples = dump_ntriples(graph, self.path)
        rng = random.Random(self.seed)
        self.add: List[Triple] = []
        self.remove: List[Triple] = []
        for subject in rng.sample(sorted(graph.subjects()), int(N_SUBJECTS * MUTATED_SHARE)):
            existing = list(graph.triples(subject, ns.deathDate, None))
            if existing:
                self.remove.extend(existing)
            else:
                year = 1900 + rng.randrange(120)
                self.add.append(Triple(subject, ns.deathDate, Literal(f"{year}-01-01")))

    def one_pass(self) -> PassResult:
        from repro.api import Dataset

        snapshot_dir, ooc_dir = self.work / "snapshot", self.work / "ooc"
        self._last = None
        for directory in (snapshot_dir, ooc_dir):
            shutil.rmtree(directory, ignore_errors=True)
        gc.collect()

        marks = [time.perf_counter()]
        dataset = Dataset.from_ntriples(self.path, name="persons")
        dataset.graph, dataset.matrix
        table_before = dataset.table
        marks.append(time.perf_counter())
        session = dataset.session()
        sigma_before = _sigma(session, self.rules)
        marks.append(time.perf_counter())
        mutation = dataset.mutate(add=self.add, remove=self.remove)
        sigma_after = _sigma(session, self.rules)
        marks.append(time.perf_counter())
        dataset.save(snapshot_dir)
        loaded = Dataset.load(snapshot_dir, verify=True)
        loaded.table, loaded.graph
        marks.append(time.perf_counter())
        ooc = Dataset.build_out_of_core(self.path, ooc_dir)
        ooc.table
        marks.append(time.perf_counter())

        self._last = (dataset, table_before, sigma_before, sigma_after, loaded, ooc)
        steps = [b - a for a, b in zip(marks, marks[1:])]
        return PassResult(
            wall_s=marks[-1] - marks[0],
            latencies_s=[marks[-1] - marks[0]],
            attempted=len(steps),
            counters={
                "input.triples": self.n_triples,
                "table.signatures": table_before.n_signatures,
                "mutation.touched_subjects": mutation.touched_subjects,
                "mutation.triples_changed": mutation.added + mutation.removed,
            },
            metrics={f"ingest.{step}_s": seconds for step, seconds in zip(STEPS, steps)},
        )

    def check(self) -> List[str]:
        """Snapshot and out-of-core tables equal the in-memory ones; σ matches a rebuild."""
        from repro.api import Dataset
        from repro.rdf.graph import RDFGraph

        dataset, table_before, sigma_before, sigma_after, loaded, ooc = self._last
        problems = _table_problems("snapshot-loaded table", loaded.table, dataset.table)
        problems += _table_problems("out-of-core table", ooc.table, table_before)
        if len(loaded.graph) != len(dataset.graph):
            problems.append("snapshot-loaded graph has a different triple count")
        rebuilt = Dataset.from_graph(RDFGraph(list(dataset.graph)), name="rebuilt")
        if _sigma(rebuilt.session(), self.rules) != sigma_after:
            problems.append("sigma after the mutation differs from a from-scratch rebuild")
        if sigma_after == sigma_before:
            problems.append("the mutation left every sigma unchanged")
        self._last = None
        return problems

    def layer_metrics(self) -> dict:
        """Heap-resident MB of a reopened snapshot, with verification off and on.

        Summed over stages from ``Dataset.residency()``.  Verification
        streams each segment through ``read()`` to hash it, so it costs
        load time (``snapshot.load_s``) rather than mapped pages in the
        process; the two readings differ only if that changes.
        """
        from repro.api import Dataset

        metrics = {}
        for label, verify in (("noverify", False), ("verify", True)):
            loaded = Dataset.load(self.work / "snapshot", verify=verify)
            loaded.table
            resident = sum(stage["resident_bytes"] for stage in loaded.residency().values())
            metrics[f"snapshot.resident_mb.{label}"] = resident / 2**20
        return metrics

    def close(self) -> None:
        self._last = None


def _table_problems(label, table, reference) -> List[str]:
    import numpy as np

    if table != reference:
        return [f"{label} differs from the in-memory table (signatures or counts)"]
    if not (
        np.array_equal(table.packed_support_matrix(), reference.packed_support_matrix())
        and np.array_equal(table.count_vector(), reference.count_vector())
    ):
        return [f"{label} has the same signatures but different support bitsets or counts"]
    return []
