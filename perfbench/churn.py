"""Workload ``serve-churn``: an open loop of mixed requests against ``repro serve``.

Why: it is the only workload that crosses the wire, admission and pool
layers, and its writes and reads hit the same dataset.  Every pool job
ships the whole mutation log, so request latency grows over a run;
changes to the pool or the front-end show here and nowhere else.

Set-up: write a 1.5k-subject DBpedia Persons stand-in as N-Triples (the
churn dataset), start ``repro serve --async --workers 2`` in a child
process, give it a mutation history (bulk additions of 6k triples to the
churn dataset, then their removal: the graph is unchanged and the log
holds 12k triples), and warm both datasets on the workers.  Set-up runs
three times; the first two servers are stopped again.

The history sets what a cheap (evaluate or mutate) request costs: about
30–40 ms on a 2-CPU host, most of it shipping the log to a pool worker.
Without it such a request took 5–10 ms, much of it the host's latency
in waking an idle virtual CPU, and the median spread 42% between runs
whose set-up times agreed within 5%.

Load: one client process with two connections drives an open loop at a
fixed rate.  Every block of ten requests holds three ``evaluate`` (Cov
or Sim) on the 20k-subject built-in dataset, two ``refine`` (Cov, k = 2)
on the churn dataset and five ``mutate`` on it, in seeded order.  The
shares put both reported percentiles inside one operation's bulk: the
median among the mutations, the 95th percentile at the refinements'
upper quartile.  Were half the requests evaluations, the median would
sit in the gap between the evaluate and the mutate latencies and jump
between them from run to run.  A mutation adds a triple or removes one
added at least ``REMOVE_LAG`` requests earlier, so the dataset stays
bounded and a removal never overtakes its addition.  Latency is timed
from when each request was due, so a stall also counts against the
requests queued behind it; how late the generator ran is reported too.

Seed: ``--seed`` drives the request order, the rules asked, the mutated
triples and the built-in dataset.  The churn dataset itself is always
drawn with seed ``CHURN_DATASET_SEED``: the refine requests set the tail
latency, and one k = 2 refinement's solve time changes several-fold
between generator seeds (the 95th percentile spread 18% over four
seeds when the seed drew this dataset too).

Each request is one operation of the latency percentiles.  A non-200
response, an ``ok: false`` envelope or a 429 counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from common import PassResult

RATE_PER_S = 8.0
CONNECTIONS = 2
WORKERS = 2
EVAL_SUBJECTS = 20_000
CHURN_SUBJECTS = 1_500
CHURN_DATASET_SEED = 23
#: One block of the request mix.
BLOCK = ("evaluate",) * 3 + ("refine",) * 2 + ("mutate",) * 5
REMOVE_LAG = 16
#: The mutation history set-up gives the server (see ``Workload._preload``).
PRELOAD_ENTRIES = 3
PRELOAD_TRIPLES = 2000
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
REFINE = {"rule": "Cov", "k": 2, "step": "1/10"}


class Workload:
    """The served churn mix against one child server."""

    name = "serve-churn"
    #: The program runs in the server processes: the client installs no
    #: wrappers, and the peak RSS that counts is the server tree's.
    program_in_process = False

    def __init__(self, seed: int, work: Path, seconds: float):
        self.seed = seed
        self.work = work
        self.seconds = seconds
        self.path = work / "churn.nt"
        self.eval_spec = {
            "builtin": "dbpedia-persons",
            "params": {"n_subjects": EVAL_SUBJECTS, "seed": seed},
        }
        self.churn_spec = {"path": str(self.path), "name": "churn"}
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.schedule: List[Tuple[str, dict]] = []
        self._served_sigma: Dict[str, str] = {}
        self._stats: dict = {}

    # ------------------------------------------------------------------ #
    # Set-up: input, schedule, server, warm-up
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        from repro.datasets.dbpedia_persons import PERSON_PROPERTIES, dbpedia_persons_graph
        from repro.rdf.ntriples import dump_ntriples

        self.close()
        self.work.mkdir(parents=True, exist_ok=True)
        graph = dbpedia_persons_graph(n_subjects=CHURN_SUBJECTS, seed=CHURN_DATASET_SEED)
        dump_ntriples(graph, self.path)
        self.schedule = _schedule(
            self.seed, int(RATE_PER_S * self.seconds), sorted(graph.subjects()),
            [str(p) for p in PERSON_PROPERTIES], self.eval_spec, self.churn_spec,
        )
        self._boot()
        self._preload(sorted(graph.subjects()), PERSON_PROPERTIES)
        # Two rounds of concurrent requests so both workers build both
        # datasets' chains before the clock starts.
        warm = [
            ("/v1/evaluate", {"dataset": self.eval_spec, "request": {"rule": "Cov"}}),
            ("/v1/evaluate", {"dataset": self.eval_spec, "request": {"rule": "Sim"}}),
            ("/v1/evaluate", {"dataset": self.churn_spec, "request": {"rule": "Cov"}}),
            ("/v1/refine", {"dataset": self.churn_spec, "request": REFINE}),
        ] * 2
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            responses = list(pool.map(lambda request: _request(self.url, *request), warm))
        for status, payload in responses:
            if status != 200 or not payload.get("ok"):
                raise RuntimeError(f"warm-up request failed: {status} {payload}")

    def _preload(self, subjects, properties) -> None:
        """Give the server a mutation history: add, then remove, bulk triples.

        The graph ends as it started, but the log holds
        ``2 * PRELOAD_ENTRIES`` entries of ``PRELOAD_TRIPLES`` triples, and
        every pool job ships all of it.  That makes log shipping, not the
        host's wake-up latency, the bulk of a cheap request's time.
        """
        batches = [
            [[str(subjects[(entry * PRELOAD_TRIPLES + i) % len(subjects)]),
              str(properties[i % len(properties)]), f'"preload {entry} {i}"']
             for i in range(PRELOAD_TRIPLES)]
            for entry in range(PRELOAD_ENTRIES)
        ]
        for add, remove in [(batch, []) for batch in batches] + [([], batch) for batch in batches]:
            status, payload = _request(self.url, "/v1/mutate", {
                "dataset": self.churn_spec, "add": add, "remove": remove})
            if status != 200 or not payload.get("ok"):
                raise RuntimeError(f"preload mutation failed: {status} {payload}")

    def _boot(self) -> None:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"), REPRO_JOBS="1")
        env.pop("REPRO_TRACE", None)
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--async",
             "--workers", str(WORKERS), "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        line: List[str] = []
        stdout = self.server.stdout
        reader = threading.Thread(target=lambda: line.append(stdout.readline()), daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        if not line or "listening on " not in line[0]:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line[0].split("listening on ", 1)[1].split()[0]

    def close(self) -> None:
        """Stop the server (SIGINT lets it drain its pool) and wait for it.

        A server that does not stop in time is killed with its pool
        workers, which share its process group.
        """
        if self.server is None:
            return
        server, self.server = self.server, None
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(30)
            except subprocess.TimeoutExpired:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait(30)
        server.stdout.close()

    # ------------------------------------------------------------------ #
    # The open loop
    # ------------------------------------------------------------------ #
    def one_pass(self) -> PassResult:
        def send(index: int, due: float) -> tuple:
            kind, body = self.schedule[index]
            sent = time.perf_counter()
            status, payload = _request(self.url, f"/v1/{kind}", body)
            done = time.perf_counter()
            return kind, due, sent, done, status == 200 and bool(payload.get("ok"))

        # The pool's two threads are the two connections; a request due
        # while both are busy waits in the pool's queue, and that wait
        # counts in its latency.
        start = time.perf_counter() + 0.05
        with ThreadPoolExecutor(CONNECTIONS) as pool:
            futures = []
            for index in range(len(self.schedule)):
                due = start + index / RATE_PER_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(send, index, due))
            records = [future.result() for future in futures]
        end = max(record[3] for record in records)

        latencies = [done - due for _, due, _, done, _ in records]
        by_kind: Dict[str, List[float]] = {"evaluate": [], "refine": [], "mutate": []}
        for kind, due, _, done, _ in records:
            by_kind[kind].append(done - due)
        intervals = sorted((sent, done) for _, _, sent, done, _ in records)
        self._stats = _request(self.url, "/v1/stats")[1]
        service = _request(self.url, "/v1/metrics")[1]["service"]["counters"]
        for rule in ("Cov", "Sim"):
            status, payload = _request(self.url, "/v1/evaluate", {
                "dataset": self.churn_spec, "request": {"rule": rule, "exact": True}})
            result = payload.get("result", {}) if status == 200 else {}
            self._served_sigma[rule] = result.get("exact")
        executor = self._stats["executor"]
        metrics = {
            "serve.late_max_ms": max(sent - due for _, due, sent, _, _ in records) * 1000,
            "self_s.service": _union_seconds(intervals),
            "admission.rejected": self._stats["admission"]["rejected"],
            "http.status.5xx": service.get("http.status.5xx", 0),
            "pool.jobs_dispatched": executor["jobs_dispatched"],
        }
        for kind, values in by_kind.items():
            metrics[f"serve.{kind}_p50_ms"] = statistics.median(values) * 1000
        return PassResult(
            wall_s=end - start,
            latencies_s=latencies,
            attempted=len(records),
            failed=sum(1 for record in records if not record[4]),
            counters={"pool.mutations_logged": executor["mutations_logged"]},
            metrics=metrics,
        )

    def check(self) -> List[str]:
        """The served σ of the churn dataset equals an in-process replay."""
        from repro.api import Dataset
        from repro.service.wire import parse_request

        reference = Dataset.from_ntriples(self.path, name="churn")
        changed = 0
        for kind, body in self.schedule:
            if kind == "mutate":
                result = reference.mutate(parse_request(dict(body, op="mutate")).request)
                changed += bool(result.added or result.removed)
        session = reference.session()
        problems = []
        for rule in ("Cov", "Sim"):
            expected = session.evaluate(rule=rule, exact=True).exact
            if self._served_sigma.get(rule) != expected:
                problems.append(
                    f"served sigma[{rule}] {self._served_sigma.get(rule)} != replayed {expected}"
                )
        logged = self._stats["executor"]["mutations_logged"] - 2 * PRELOAD_ENTRIES
        if logged != changed:
            problems.append(
                f"server logged {logged} mutations; the replay changed the graph {changed} times"
            )
        return problems

    def layer_metrics(self) -> dict:
        return {}


def _schedule(seed, n_requests, subjects, properties, eval_spec, churn_spec):
    """The seeded request mix: (route, body) per slot."""
    rng = random.Random(seed)
    live: List[Tuple[int, list]] = []  # (slot added, triple) not yet removed
    kinds = []
    while len(kinds) < n_requests:
        kinds += rng.sample(BLOCK, len(BLOCK))
    schedule = []
    for slot, kind in enumerate(kinds[:n_requests]):
        if kind == "evaluate":
            rule = rng.choice(("Cov", "Sim"))
            schedule.append(("evaluate", {"dataset": eval_spec, "request": {"rule": rule}}))
        elif kind == "refine":
            schedule.append(("refine", {"dataset": churn_spec, "request": dict(REFINE)}))
        else:
            removable = [i for i, (added, _) in enumerate(live) if added <= slot - REMOVE_LAG]
            if removable and rng.random() < 0.5:
                _, triple = live.pop(rng.choice(removable))
                schedule.append(("mutate", {"dataset": churn_spec, "add": [], "remove": [triple]}))
            else:
                triple = [rng.choice(subjects), rng.choice(properties), f'"churn {slot}"']
                live.append((slot, triple))
                schedule.append(("mutate", {"dataset": churn_spec, "add": [triple], "remove": []}))
    return schedule


def _request(url: str, path: str, body: Optional[dict] = None):
    """POST ``body`` as JSON (GET without one); return (status, decoded payload)."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S)
    try:
        if body is None:
            connection.request("GET", path)
        else:
            connection.request("POST", path, body=json.dumps(body).encode(),
                               headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, {}
    except (OSError, http.client.HTTPException) as error:
        return 0, {"error": str(error)}
    finally:
        connection.close()


def _union_seconds(intervals: List[Tuple[float, float]]) -> float:
    """Total time covered by at least one of the sorted ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
