"""Tests for the elastic autoscaling worker pool.

The invariants under test: payloads stay bit-identical to the inline
baseline through any amount of scaling (mutation-log replay makes a
worker booted mid-traffic converge before it takes work); a job ships
only the log entries some worker has not applied, and a fresh worker
gets the log at boot; the pool scales up under backlog and drains back
to the floor when idle; close() is graceful (in-flight work completes)
and the executor is reusable.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.service import ElasticPoolExecutor, InlineExecutor, create_executor
from repro.service.elastic import _DRAIN

NT = ('<http://e/a> <http://e/p> "1" .\n'
      '<http://e/a> <http://e/q> "1" .\n'
      '<http://e/b> <http://e/p> "1" .\n')
DATASET = {"ntriples": NT, "name": "elastic-tests"}


def _ev(rule="Cov", dataset=None):
    return {"op": "evaluate", "dataset": dataset or DATASET, "request": {"rule": rule}}


def _mut(i):
    return {"op": "mutate", "dataset": DATASET,
            "add": [[f"http://e/s{i}", "http://e/p", '"1"']], "remove": []}


def _strip_cached(envelope):
    """The session-cache flag is placement-dependent by design; drop it."""
    return json.dumps(
        {k: v for k, v in envelope.items() if k != "cached"}, sort_keys=True
    )


def _shipped(executor):
    """Log entries shipped in jobs so far (the counter must exist once used)."""
    return executor.telemetry.snapshot()["counters"]["pool.log_entries_shipped"]


def _wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestBounds:
    def test_rejects_bad_worker_bounds(self):
        with pytest.raises(ValueError, match="min_workers"):
            ElasticPoolExecutor(min_workers=0, max_workers=2)
        with pytest.raises(ValueError, match="max_workers"):
            ElasticPoolExecutor(min_workers=3, max_workers=2)

    def test_create_executor_dispatches_on_max_workers(self):
        elastic = create_executor(workers=1, max_workers=3)
        try:
            assert isinstance(elastic, ElasticPoolExecutor)
            assert elastic.min_workers == 1 and elastic.max_workers == 3
        finally:
            elastic.close()
        fixed = create_executor(workers=2, max_workers=2)
        try:
            assert isinstance(fixed, ElasticPoolExecutor)
            assert fixed.min_workers == fixed.max_workers == 2
        finally:
            fixed.close()
        assert isinstance(create_executor(workers=1), InlineExecutor)

    def test_create_executor_rejects_registry_with_elastic(self):
        from repro.service.registry import DatasetRegistry

        with pytest.raises(ValueError, match="registry"):
            create_executor(workers=1, max_workers=2, registry=DatasetRegistry())


class TestDeterminism:
    def test_bit_identical_to_inline_under_mutation_churn(self):
        batch = [
            _ev(), _mut(1), _ev(), _ev("Sim"),
            _mut(2), _ev(), _ev("Sim"), _mut(3), _ev(),
        ]
        inline = InlineExecutor()
        baseline = inline.execute([dict(r) for r in batch])
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=3)
        try:
            scaled = elastic.execute([dict(r) for r in batch])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in scaled
            ]
            assert elastic.stats()["mutations_logged"] == 3
        finally:
            elastic.close()
            inline.close()

    def test_worker_booted_mid_traffic_replays_the_mutation_log(self):
        inline = InlineExecutor()
        elastic = ElasticPoolExecutor(
            min_workers=1, max_workers=3, idle_timeout_s=30.0
        )
        try:
            # Mutate while a single worker holds the dataset...
            elastic.execute([_ev(), _mut(1), _mut(2)])
            inline.execute([_ev(), _mut(1), _mut(2)])
            # ... then force boots: a wide batch of distinct datasets makes
            # the backlog exceed the single worker.
            wide = [
                _ev(dataset={"builtin": "dbpedia-persons",
                             "params": {"n_subjects": 300, "seed": seed}})
                for seed in range(5)
            ]
            assert all(e["ok"] for e in elastic.execute(wide))
            assert _wait_for(lambda: elastic.stats()["peak_workers"] > 1)
            # Whichever (possibly fresh) worker serves this, the answer is
            # the inline one: the log replay converged its registry.
            scaled = elastic.execute([_ev(), _ev("Sim")])
            baseline = inline.execute([_ev(), _ev("Sim")])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in scaled
            ]
        finally:
            elastic.close()
            inline.close()


class TestBoundedShipping:
    def test_jobs_ship_only_the_entries_the_worker_lacks(self):
        inline = InlineExecutor()
        pool = ElasticPoolExecutor(min_workers=1, max_workers=1)
        try:
            shipped, total = [], 0
            for i in range(1000):
                batch = [_mut(i), _ev("Sim" if i % 2 else "Cov")]
                pooled = pool.execute([dict(r) for r in batch])
                shipped.append(_shipped(pool) - total)
                total += shipped[-1]
                baseline = inline.execute([dict(r) for r in batch])
                assert [json.dumps(e, sort_keys=True) for e in pooled] == [
                    json.dumps(e, sort_keys=True) for e in baseline
                ]
            # The lone worker has applied everything the log holds by the
            # time each job leaves, so no job after its first carries any.
            assert shipped[1:] == [0] * 999
            assert pool.stats()["mutations_logged"] == 1000
        finally:
            pool.close()
            inline.close()

    def test_worker_booted_after_mutations_gets_them_in_its_boot_log(self):
        inline = InlineExecutor()
        pool = ElasticPoolExecutor(min_workers=1, max_workers=1)
        try:
            history = [_mut(i) for i in range(25)]
            pool.execute([dict(r) for r in history])
            inline.execute([dict(r) for r in history])
            pool.close()  # the next job boots a fresh worker
            before = _shipped(pool)
            probe = [_ev(), _ev("Sim")]
            scaled = pool.execute([dict(r) for r in probe])
            assert _shipped(pool) == before  # nothing past the boot log
            baseline = inline.execute([dict(r) for r in probe])
            assert [_strip_cached(e) for e in baseline] == [
                _strip_cached(e) for e in scaled
            ]
            assert pool.stats()["mutations_logged"] == 25
        finally:
            pool.close()
            inline.close()

    def test_marks_survive_concurrent_mutations_from_many_threads(self):
        """More workers than cores, clients racing, a short switch interval.

        A worker that missed a log entry (a mark raised past what it
        applied) would report a repeated generation on its next mutation
        and a stale σ afterwards.
        """
        from concurrent.futures import ThreadPoolExecutor as Threads

        rounds, clients = 40, 4
        pool = ElasticPoolExecutor(min_workers=3, max_workers=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client(c):
                generations = []
                for r in range(rounds):
                    mutated, evaluated = pool.execute(
                        [_mut(c * rounds + r), _ev("Sim" if r % 2 else "Cov")]
                    )
                    assert mutated["ok"] and evaluated["ok"]
                    generations.append(mutated["result"]["generation"])
                return generations

            with Threads(max_workers=clients) as threads:
                futures = [threads.submit(client, c) for c in range(clients)]
                generations = [g for f in futures for g in f.result(timeout=120)]
            total = rounds * clients
            assert sorted(generations) == list(range(1, total + 1))
            with Threads(max_workers=6) as threads:
                follow = list(threads.map(
                    lambda _: pool.execute([_ev("Sim")])[0], range(12)
                ))
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        inline = InlineExecutor()
        try:
            expected = inline.execute([_mut(i) for i in range(total)] + [_ev("Sim")])[-1]
        finally:
            inline.close()
        assert {_strip_cached(e) for e in follow} == {_strip_cached(expected)}


class TestScaling:
    def test_scales_up_under_backlog_and_drains_back_to_floor(self):
        elastic = ElasticPoolExecutor(
            min_workers=1, max_workers=3, idle_timeout_s=0.3, scale_interval_s=0.02
        )
        try:
            wide = [
                _ev(dataset={"builtin": "dbpedia-persons",
                             "params": {"n_subjects": 400, "seed": seed}})
                for seed in range(6)
            ]
            assert all(e["ok"] for e in elastic.execute(wide))
            stats = elastic.stats()
            assert stats["peak_workers"] > 1
            assert stats["scale_up_events"] >= 1
            # Idle workers drain gracefully back to the floor...
            assert _wait_for(lambda: elastic.stats()["workers"] == 1)
            stats = elastic.stats()
            assert stats["scale_down_events"] >= 1
            assert stats["workers"] == elastic.min_workers
            # ... and the drained pool still serves (no dead-queue state).
            assert elastic.execute([_ev()])[0]["ok"]
            counters = elastic.telemetry.snapshot()["counters"]
            assert counters["scale.worker_boots"] >= 2
            assert counters.get("scale.worker_drains", 0) >= 1
        finally:
            elastic.close()

    def test_fixed_size_pool_never_scales_under_backlog(self):
        pool = create_executor(workers=2)
        try:
            wide = [
                _ev(dataset={"builtin": "dbpedia-persons",
                             "params": {"n_subjects": 400, "seed": seed}})
                for seed in range(6)
            ]
            assert all(e["ok"] for e in pool.execute(wide))
            stats = pool.stats()
            assert stats["peak_workers"] == stats["workers"] == 2
            assert stats["scale_up_events"] == stats["scale_down_events"] == 0
            counters = pool.telemetry.snapshot()["counters"]
            assert counters["scale.worker_boots"] == 2
            assert "scale.up" not in counters and "scale.down" not in counters
            assert pool._scaler is None  # min == max: no scaler thread at all
        finally:
            pool.close()

    def test_never_drains_below_the_floor(self):
        elastic = ElasticPoolExecutor(
            min_workers=2, max_workers=3, idle_timeout_s=0.1, scale_interval_s=0.02
        )
        try:
            assert all(e["ok"] for e in elastic.execute([_ev(), _ev("Sim")]))
            time.sleep(1.0)  # several idle windows pass
            assert elastic.stats()["workers"] == 2
        finally:
            elastic.close()


class TestLifecycle:
    def test_close_is_graceful_and_the_executor_is_reusable(self):
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=2)
        try:
            assert elastic.execute([_ev()])[0]["ok"]
            elastic.close()
            stats = elastic.stats()
            assert stats["workers"] == 0 and stats["backlog"] == 0
            counters = elastic.telemetry.snapshot()["counters"]
            assert counters.get("scale.forced_terminations", 0) == 0
            # Reuse after close: the mutation log survives, fresh workers
            # replay it before taking jobs.
            elastic.execute([_mut(9)])
            reopened = elastic.execute([_ev()])
            baseline = InlineExecutor().execute([_mut(9), _ev()])[1:]
            assert [_strip_cached(e) for e in reopened] == [
                _strip_cached(e) for e in baseline
            ]
        finally:
            elastic.close()

    def test_worker_failure_fails_the_job_without_killing_the_pool(self):
        elastic = ElasticPoolExecutor(min_workers=1, max_workers=2)
        try:
            [envelope] = elastic.execute([
                {"op": "evaluate", "dataset": {"builtin": "nope"},
                 "request": {"rule": "Cov"}},
            ])
            assert envelope["ok"] is False
            assert elastic.execute([_ev()])[0]["ok"]  # pool still healthy
        finally:
            elastic.close()

    def test_drain_sentinel_is_distinct_from_any_job(self):
        assert _DRAIN is None  # the sentinel the workers key their exit on
