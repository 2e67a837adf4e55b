"""Tests for the HTTP front-end (:mod:`repro.service.async_server`).

A real server is bound to an ephemeral port and driven through ``urllib``
— the same path ``curl`` takes — so routing, status mapping and payload
determinism are exercised end to end.  The route, error, envelope and
metrics tests run once per executor behind that front-end (inline, a
fixed worker pool and an autoscaling pool), which is how the executors
are shown to serve one contract.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import RequestError
from repro.service import InlineExecutor, make_async_server
from repro.service.server import StructurednessService
from repro.service.wire import strip_timing


#: ``make_async_server`` sizing per executor: inline, a fixed two-worker
#: pool (min == max, no scaler thread) and an autoscaling pool.
EXECUTORS = {
    "inline": {"workers": 1},
    "pool": {"workers": 2},
    "elastic": {"workers": 1, "max_workers": 2},
}

#: Runs a test once per executor behind the one front-end.  Tests left
#: unmarked need in-process state (watch streams, shared session builds,
#: per-session stats) and run against the inline executor only.
every_executor = pytest.mark.parametrize("server", list(EXECUTORS), indirect=True)


@pytest.fixture(scope="module")
def server(request):
    sizing = EXECUTORS[getattr(request, "param", "inline")]
    server = make_async_server(host="127.0.0.1", port=0, **sizing).start()
    yield server
    server.close()


def _request_full(server, path, body=None, content_type="application/json"):
    url = server.url + path
    if body is None:
        request = urllib.request.Request(url)
    else:
        data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        request = urllib.request.Request(url, data=data, headers={"Content-Type": content_type})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _request(server, path, body=None, content_type="application/json"):
    status, payload, _ = _request_full(server, path, body, content_type)
    return status, payload


def _stream_watch(server, body, timeout=30):
    """POST /v1/watch and collect the JSONL event lines until EOF."""
    request = urllib.request.Request(
        server.url + "/v1/watch",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        headers = dict(response.headers)
        lines = [json.loads(line) for line in response.read().decode().splitlines() if line]
    return response.status, headers, lines


class TestRoutes:
    @every_executor
    def test_healthz(self, server):
        status, payload = _request(server, "/healthz")
        assert status == 200 and payload["ok"] is True

    @every_executor
    def test_evaluate(self, server):
        status, payload = _request(
            server,
            "/v1/evaluate",
            {"dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
             "rule": "Cov", "exact": True},
        )
        assert status == 200 and payload["ok"]
        assert payload["result"]["rule"] == "Cov"
        assert 0 < payload["result"]["value"] < 1
        assert "/" in payload["result"]["exact"]

    @every_executor
    def test_mutate_round_trip_changes_followup_answers(self, server):
        dataset = {
            "ntriples": '<http://ex/a> <http://ex/p> "1" .\n'
                        '<http://ex/b> <http://ex/p> "2" .\n'
                        '<http://ex/b> <http://ex/q> "3" .\n',
            "name": "http-mutable",
        }
        _, before = _request(server, "/v1/evaluate", {"dataset": dataset, "rule": "Cov", "exact": True})
        status, payload = _request(
            server,
            "/v1/mutate",
            {"dataset": dataset, "add": [["http://ex/a", "http://ex/q", '"4"']]},
        )
        assert status == 200 and payload["ok"]
        assert payload["result"]["generation"] == 1
        assert payload["result"]["added"] == 1
        _, after = _request(server, "/v1/evaluate", {"dataset": dataset, "rule": "Cov", "exact": True})
        assert before["result"]["exact"] != after["result"]["exact"]
        assert after["result"]["exact"] == "1/1"  # both subjects now have p and q

    @every_executor
    def test_mutate_rejects_table_born_dataset(self, server):
        status, payload = _request(
            server,
            "/v1/mutate",
            {"dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
             "add": [["http://ex/x", "http://ex/p", '"1"']]},
        )
        assert status == 400 and not payload["ok"]
        assert payload["error"]["type"] == "DatasetError"

    @every_executor
    def test_refine_matches_inline_executor(self, server):
        body = {
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        status, payload = _request(server, "/v1/refine", body)
        assert status == 200 and payload["ok"]
        reference = InlineExecutor().execute([dict(body, op="refine")])[0]
        assert payload["result"] == reference["result"]

    @every_executor
    def test_lowest_k_and_sweep(self, server):
        dataset = {"builtin": "dbpedia-persons", "params": {"n_subjects": 300}}
        status, payload = _request(
            server, "/v1/lowest_k", {"dataset": dataset, "theta": "1/2"}
        )
        assert status == 200 and payload["result"]["kind"] == "lowest_k"
        status, payload = _request(
            server, "/v1/sweep", {"dataset": dataset, "k_values": [2, 3], "step": "1/4"}
        )
        assert status == 200 and len(payload["result"]["entries"]) == 2

    @every_executor
    def test_batch_json_and_ndjson(self, server):
        requests = [
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}},
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Sim"}},
        ]
        status, payload = _request(server, "/v1/batch", {"requests": requests})
        assert status == 200 and payload["count"] == 2
        assert all(env["ok"] for env in payload["results"])
        ndjson = "\n".join(json.dumps(r) for r in requests)
        status, again = _request(server, "/v1/batch", ndjson, "application/x-ndjson")
        assert status == 200
        assert again["results"] == payload["results"]

    @every_executor
    def test_datasets_lists_builtins_and_loaded(self, server):
        status, payload = _request(server, "/v1/datasets")
        assert status == 200
        assert {"dbpedia-persons", "wordnet-nouns"} <= set(payload["builtin"])
        assert isinstance(payload["loaded"], list)

    def test_stats_report_sessions_and_backends(self, server):
        _request(server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(server, "/v1/stats")
        assert status == 200
        assert payload["server"]["http_requests"] > 0
        sessions = payload["executor"]["sessions"]
        assert sessions and all("solver" in s and "solver_spec" in s for s in sessions)
        assert payload["executor"]["registry"]["builds"] >= 1


@every_executor
class TestErrorMapping:
    def test_unknown_route_404(self, server):
        assert _request(server, "/nope")[0] == 404
        assert _request(server, "/v1/transmogrify", {})[0] == 404

    def test_invalid_json_body_400(self, server):
        status, payload = _request(server, "/v1/evaluate", "{not json")
        assert status == 400
        assert payload["error"]["type"] == "RequestError"

    @pytest.mark.parametrize(
        "path,body,fragment",
        [
            ("/v1/lowest_k", {"dataset": "dbpedia-persons", "theta": "4/3"}, "theta"),
            ("/v1/lowest_k", {"dataset": "dbpedia-persons", "theta": "3/-4"}, "denominator"),
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 0}, "k"),
            ("/v1/refine", {"dataset": "dbpedia-persons", "k": 2, "wat": 1}, "unknown"),
            ("/v1/evaluate", {"dataset": {"builtin": "nope"}}, "unknown built-in"),
            ("/v1/evaluate", {"dataset": "dbpedia-persons", "rule": "Nope"}, "unknown rule"),
        ],
    )
    def test_bad_requests_are_400_with_structured_bodies(self, server, path, body, fragment):
        status, payload = _request(server, path, body)
        assert status == 400, payload
        assert payload["ok"] is False
        assert fragment in payload["error"]["message"]
        # Structured error body, never a traceback page.
        assert set(payload["error"]) == {"type", "message"}

    def test_unknown_solver_400_lists_names(self, server):
        status, payload = _request(
            server, "/v1/evaluate", {"dataset": "dbpedia-persons", "solver": "cplex", "rule": "Cov"}
        )
        assert status == 400
        assert "registered solvers" in payload["error"]["message"]

    def test_batch_body_must_be_requests_list(self, server):
        status, payload = _request(server, "/v1/batch", {"jobs": []})
        assert status == 400
        assert "requests" in payload["error"]["message"]

    def test_ndjson_and_json_batches_share_error_semantics(self, server):
        """A malformed entry yields an error envelope in its slot, both ways."""
        requests = [
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}},
            {"op": "transmogrify", "dataset": "wordnet-nouns"},
            {"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Sim"}},
        ]
        status, as_list = _request(server, "/v1/batch", {"requests": requests})
        assert status == 200
        ndjson = "\n".join(json.dumps(r) for r in requests)
        status, as_lines = _request(server, "/v1/batch", ndjson, "application/x-ndjson")
        assert status == 200
        assert as_lines["results"] == as_list["results"]
        oks = [envelope["ok"] for envelope in as_list["results"]]
        assert oks == [True, False, True]
        assert as_list["results"][1]["status"] == 400


class TestConcurrency:
    def test_parallel_identical_requests_agree_and_share_builds(self, server):
        """Eight concurrent HTTP callers: one table build, identical bodies."""
        body = {
            "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 250, "seed": 3}},
            "request": {"rule": "Cov", "k": 2, "step": "1/4"},
        }
        results = [None] * 8
        def call(i):
            results[i] = _request(server, "/v1/refine", body)
        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        statuses = {status for status, _ in results}
        assert statuses == {200}
        payloads = [strip_timing(dict(payload["result"], cached=False)) for _, payload in results]
        assert all(p == payloads[0] for p in payloads)
        registry = server.service.executor.registry
        spec_key = [e for e in registry.describe() if e["spec"].get("params", {}).get("seed") == 3]
        assert len(spec_key) == 1  # the dataset was materialised exactly once


#: A tiny graph-born dataset for the watch tests: mutable over HTTP.
WATCH_DATASET = {
    "ntriples": '<http://w/a> <http://w/p> "1" .\n'
                '<http://w/a> <http://w/q> "1" .\n'
                '<http://w/b> <http://w/p> "1" .\n',
    "name": "http-watch",
}


@every_executor
class TestEnvelope:
    """Every JSON envelope carries a request id and the server-side time."""

    def test_request_ids_are_monotone_and_mirrored_in_the_header(self, server):
        _, first, headers_a = _request_full(server, "/healthz")
        _, second, headers_b = _request_full(server, "/healthz")
        for payload, headers in ((first, headers_a), (second, headers_b)):
            assert re.fullmatch(r"req-\d{8}", payload["request_id"])
            assert headers["X-Request-Id"] == payload["request_id"]
        assert second["request_id"] > first["request_id"]  # zero-padded, sortable

    def test_server_time_is_a_nonnegative_float(self, server):
        _, payload = _request(
            server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"}
        )
        assert isinstance(payload["server_time_ms"], float)
        assert payload["server_time_ms"] >= 0.0

    def test_error_envelopes_carry_the_id_without_widening_the_error(self, server):
        status, payload = _request(server, "/v1/evaluate", {"rule": "Cov"})
        assert status == 400 and payload["ok"] is False
        assert "request_id" in payload and "server_time_ms" in payload
        # The id rides at the top level; the error object stays two-field.
        assert set(payload["error"]) == {"type", "message"}

    def test_batch_inner_envelopes_stay_deterministic(self, server):
        """request_id/server_time_ms wrap the batch, not each inner result."""
        requests = [{"op": "evaluate", "dataset": "wordnet-nouns", "request": {"rule": "Cov"}}]
        _, once = _request(server, "/v1/batch", {"requests": requests})
        _, twice = _request(server, "/v1/batch", {"requests": requests})
        assert once["request_id"] != twice["request_id"]
        assert once["results"] == twice["results"]
        assert "request_id" not in once["results"][0]


@every_executor
class TestMetrics:
    def test_metrics_sections_and_status_class_counters(self, server):
        _request(server, "/v1/evaluate", {"dataset": "wordnet-nouns", "rule": "Cov"})
        status, payload = _request(server, "/v1/metrics")
        assert status == 200
        assert {"server", "service", "process"} <= set(payload)
        assert payload["server"]["http_requests"] > 0
        service = payload["service"]
        assert service["enabled"] is True
        assert service["counters"]["http.status.2xx"] > 0
        # The access log is counted even though the server is not verbose.
        assert service["counters"]["http.access_log_lines"] > 0
        assert set(payload["process"]) == {"enabled", "counters", "spans"}

    def test_4xx_responses_are_counted_even_without_verbose(self, server):
        _, before = _request(server, "/v1/metrics")
        _request(server, "/v1/evaluate", {"rule": "Cov"})  # missing dataset -> 400
        _, after = _request(server, "/v1/metrics")
        seen = before["service"]["counters"].get("http.status.4xx", 0)
        assert after["service"]["counters"]["http.status.4xx"] == seen + 1

    def test_metrics_payload_is_json_stable(self, server):
        _, payload = _request(server, "/v1/metrics")
        assert json.loads(json.dumps(payload)) == payload
        assert list(payload["service"]["counters"]) == sorted(payload["service"]["counters"])


class TestWatchStreaming:
    def test_baseline_stream_emits_one_sigma_event_then_closes(self, server):
        status, headers, lines = _stream_watch(
            server, {"dataset": WATCH_DATASET, "max_events": 1, "duration_s": 30}
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert "Content-Length" not in headers  # EOF marks the end
        [event] = lines
        assert event["kind"] == "sigma" and event["rule"] == "Cov"
        assert event["generation"] == 0
        assert event["sigma"] == "3/4"  # a{p,q}, b{p}: 3 filled of 4 cells
        assert event["request_id"] == headers["X-Request-Id"]

    def test_idle_stream_heartbeats_until_the_deadline(self, server):
        status, _, lines = _stream_watch(
            server,
            {"dataset": WATCH_DATASET, "duration_s": 1.0, "heartbeat_s": 0.2,
             "rules": ["Sim"]},
        )
        assert status == 200
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "sigma"  # the baseline observation
        assert kinds.count("heartbeat") >= 2  # ~1s idle at 0.2s cadence
        assert set(kinds) == {"sigma", "heartbeat"}

    def test_mid_stream_mutation_is_observed_live(self, server):
        failures = []

        def mutate_later():
            try:
                time.sleep(0.4)
                status, payload = _request(
                    server, "/v1/mutate",
                    {"dataset": WATCH_DATASET,
                     "add": [["http://w/b", "http://w/q", '"1"']]},
                )
                if status != 200:
                    failures.append(payload)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        thread = threading.Thread(target=mutate_later, daemon=True)
        thread.start()
        status, _, lines = _stream_watch(
            server, {"dataset": WATCH_DATASET, "max_events": 2, "duration_s": 30}
        )
        thread.join(timeout=10)
        assert not failures, failures
        assert status == 200
        live = [line for line in lines if line["kind"] == "sigma" and line["generation"] >= 1]
        assert live, lines
        # The streamed σ matches a fresh exact evaluation of the mutated dataset.
        _, payload = _request(
            server, "/v1/evaluate",
            {"dataset": WATCH_DATASET, "request": {"rule": "Cov", "exact": True}},
        )
        assert live[-1]["sigma"] == payload["result"]["exact"]

    def test_watch_counters_land_in_service_telemetry(self, server):
        _, payload = _request(server, "/v1/metrics")
        counters = payload["service"]["counters"]
        assert counters["watch.streams"] >= 1
        assert counters["watch.events_streamed"] >= 1

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ({"rules": ["Cov"]}, "dataset"),
            ({"dataset": WATCH_DATASET, "wat": 1}, "unknown watch fields"),
            ({"dataset": WATCH_DATASET, "rules": []}, "non-empty"),
            ({"dataset": WATCH_DATASET, "duration_s": 0}, "positive"),
            ({"dataset": WATCH_DATASET, "heartbeat_s": -1}, "positive"),
        ],
    )
    def test_bad_watch_bodies_are_400_envelopes(self, server, body, fragment):
        status, payload = _request(server, "/v1/watch", body)
        assert status == 400 and payload["ok"] is False
        assert fragment in payload["error"]["message"]
        assert set(payload["error"]) == {"type", "message"}

    def test_watch_requires_an_inline_executor(self):
        """Pooled servers reject watch: datasets live in worker processes."""

        class _PooledStub:
            # No `registry` attribute, like the process-pool executor.
            def close(self):
                pass

        service = StructurednessService(executor=_PooledStub())
        with pytest.raises(RequestError, match="workers=1"):
            service.watch_session({"dataset": WATCH_DATASET})
        service.close()
