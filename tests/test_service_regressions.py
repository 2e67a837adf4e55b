"""Regression tests for the service-tier hardening fixes.

Each class pins one bug the service used to ship:

* a mid-stream ``watch.poll()`` failure crashed the handler *after* the
  status line went out, sending a second response on the same
  connection (and counting the wreck as ``ok``);
* ``float("nan")`` timings slipped past the ``<= 0`` validation and a
  negative ``max_events`` terminated the stream after the first event;
* a ``Transfer-Encoding: chunked`` body was silently read as empty and
  surfaced as a misleading "needs a 'dataset' spec" 400;
* the worker pool's ``close()`` called ``terminate()`` outright, killing
  in-flight jobs an orderly shutdown should have drained;
* a SIGTERM'd ``repro serve --workers N`` exited without closing its
  pool, leaving the workers orphaned and blocked on the job queue.

The HTTP tests run against the front-end
(:mod:`repro.service.async_server`), because the fixes are part of the
route contract; the shutdown tests run against the worker pool
(:class:`~repro.service.elastic.ElasticPoolExecutor`).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import RequestError
from repro.service import make_async_server
from repro.service.elastic import ElasticPoolExecutor
from repro.service.server import StructurednessService

WATCH_DATASET = {
    "ntriples": '<http://r/a> <http://r/p> "1" .\n'
                '<http://r/b> <http://r/p> "1" .\n',
    "name": "regression-watch",
}


@pytest.fixture
def live_server(request):
    """A fresh (function-scoped) server: these tests patch and break it.

    Inline by default; ``param`` is ``make_async_server`` sizing for the
    tests that run once per executor.
    """
    sizing = getattr(request, "param", {"workers": 1})
    server = make_async_server(host="127.0.0.1", port=0, **sizing).start()
    yield server
    server.close()


def _post(server, path, body, headers=None):
    data = json.dumps(body).encode()
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _counters(server):
    with urllib.request.urlopen(server.url + "/v1/metrics", timeout=10) as response:
        return json.loads(response.read())


class TestWatchValidation:
    """NaN/inf timings and negative max_events are caller errors, not modes."""

    @pytest.mark.parametrize("field", ["duration_s", "poll_interval_s", "heartbeat_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0])
    def test_nonfinite_and_nonpositive_timings_400(self, live_server, field, value):
        status, payload = _post(
            live_server, "/v1/watch", {"dataset": WATCH_DATASET, field: value}
        )
        assert status == 400 and payload["ok"] is False
        assert "positive finite" in payload["error"]["message"] or (
            # int/float coercion failures keep the older message shape
            "timing" in payload["error"]["message"]
        )

    def test_negative_max_events_400(self, live_server):
        status, payload = _post(
            live_server, "/v1/watch", {"dataset": WATCH_DATASET, "max_events": -1}
        )
        assert status == 400
        assert "max_events must be >= 0" in payload["error"]["message"]

    def test_service_level_rejects_nan_directly(self):
        # The validation lives in the service (shared by both transports).
        service = StructurednessService()
        try:
            with pytest.raises(RequestError, match="positive finite"):
                service.watch_session(
                    {"dataset": WATCH_DATASET, "duration_s": float("nan")}
                )
            assert math.isnan(float("nan"))  # the value under test really is NaN
        finally:
            service.close()


class TestChunkedBodies:
    """Chunked uploads get a clear 411 naming the encoding, not a bogus 400."""

    @pytest.mark.parametrize(
        "live_server",
        [{"workers": 1}, {"workers": 2}, {"workers": 1, "max_workers": 2}],
        ids=["inline", "pool", "elastic"],
        indirect=True,
    )
    def test_chunked_transfer_encoding_is_named_in_a_411(self, live_server):
        host, port = live_server.url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            body = json.dumps({"dataset": WATCH_DATASET})
            connection.putrequest("POST", "/v1/evaluate")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            chunk = body.encode()
            connection.send(b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk))
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 411
        assert payload["ok"] is False
        assert "Transfer-Encoding 'chunked' is not supported" in payload["error"]["message"]
        assert "Content-Length" in payload["error"]["message"]


class _ExplodingWatch:
    """A watch whose poll dies after the stream is already on the wire."""

    def __init__(self):
        self.closed = False

    def poll(self):
        raise RuntimeError("shard table evaporated")

    def heartbeat(self):  # pragma: no cover - poll raises first
        raise AssertionError("heartbeat should not be reached")

    def close(self):
        self.closed = True


class TestWatchMidStreamFailure:
    """A poll failure after the headers frames a terminal error line."""

    def test_error_is_framed_as_terminal_jsonl_line(self, live_server):
        exploding = _ExplodingWatch()
        service = live_server.service
        original = service.watch_session
        params = {
            "max_events": 0, "duration_s": 10.0,
            "poll_interval_s": 0.01, "heartbeat_s": 2.0,
        }
        service.watch_session = lambda body: (exploding, params)
        try:
            request = urllib.request.Request(
                live_server.url + "/v1/watch",
                data=json.dumps({"dataset": WATCH_DATASET}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                status = response.status
                lines = [json.loads(l) for l in response.read().decode().splitlines() if l]
        finally:
            service.watch_session = original
        # The status line was already committed as 200; the failure rides
        # inside the stream as its terminal line, then EOF — never a
        # second HTTP response on the same connection.
        assert status == 200
        assert len(lines) == 1
        [line] = lines
        assert line["kind"] == "error" and line["ok"] is False
        assert line["error"]["type"] == "RuntimeError"
        assert "shard table evaporated" in line["error"]["message"]
        assert exploding.closed  # the session is released even on failure

    def test_stream_failure_is_counted_as_an_error_response(self, live_server):
        service = live_server.service
        before_errors = service.counters["error_responses"]
        exploding = _ExplodingWatch()
        original = service.watch_session
        params = {
            "max_events": 0, "duration_s": 10.0,
            "poll_interval_s": 0.01, "heartbeat_s": 2.0,
        }
        service.watch_session = lambda body: (exploding, params)
        try:
            request = urllib.request.Request(
                live_server.url + "/v1/watch",
                data=json.dumps({"dataset": WATCH_DATASET}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()
        finally:
            service.watch_session = original
        assert service.counters["error_responses"] == before_errors + 1
        assert service.telemetry.snapshot()["counters"]["watch.stream_errors"] >= 1


class TestWatchClientDisconnect:
    """A client hangup is a disconnect, not a successful response."""

    def test_disconnect_counts_as_error_not_ok(self, live_server):
        service = live_server.service
        before_ok = service.counters["ok_responses"]
        host, port = live_server.url[len("http://"):].split(":")
        body = json.dumps({
            "dataset": WATCH_DATASET, "duration_s": 20.0,
            "poll_interval_s": 0.02, "heartbeat_s": 0.05,
        }).encode()
        # A raw socket keeps the hangup under our control (http.client
        # detaches the fd once it sees Connection: close).
        sock = socket.create_connection((host, int(port)), timeout=10)
        try:
            sock.sendall(
                b"POST /v1/watch HTTP/1.1\r\n"
                b"Host: %s\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (host.encode(), len(body), body)
            )
            first = sock.recv(4096)
            assert first.startswith(b"HTTP/1.1 200")
            # Hang up mid-stream: shutdown() sends the FIN immediately, so
            # the server's next heartbeat write hits a dead connection.
            sock.shutdown(socket.SHUT_RDWR)
        finally:
            sock.close()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            counters = service.telemetry.snapshot()["counters"]
            if counters.get("watch.client_disconnects", 0) >= 1:
                break
            time.sleep(0.05)
        counters = service.telemetry.snapshot()["counters"]
        assert counters.get("watch.client_disconnects", 0) >= 1
        # The aborted stream never lands in ok_responses.
        assert service.counters["ok_responses"] == before_ok


EVALUATE = {
    "op": "evaluate",
    "dataset": {"builtin": "dbpedia-persons", "params": {"n_subjects": 80}},
    "request": {"rule": "Cov"},
}


def _slow_jobs(monkeypatch, seconds):
    """Make every pool job sleep ``seconds`` first; returns a "job started" event.

    Works through ``fork``: the workers inherit the patched module, so the
    caller must build its pool with ``start_method="fork"``.
    """
    import multiprocessing

    from repro.service import elastic

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method to patch worker code")
    started = multiprocessing.get_context("fork").Event()
    apply_job = elastic._apply_job

    def slow_apply_job(*args):
        started.set()
        time.sleep(seconds)
        return apply_job(*args)

    monkeypatch.setattr(elastic, "_apply_job", slow_apply_job)
    return started


def _execute_in_thread(executor):
    """Run EVALUATE on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["envelopes"] = executor.execute([EVALUATE])
        except RuntimeError as error:
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestPoolShutdown:
    """close() drains in-flight work; terminate() is the last resort."""

    def test_graceful_close_drains_an_in_flight_job(self, monkeypatch):
        started = _slow_jobs(monkeypatch, seconds=0.5)
        executor = ElasticPoolExecutor(
            min_workers=1, max_workers=1, start_method="fork", drain_timeout=30.0
        )
        thread, outcome = _execute_in_thread(executor)
        assert started.wait(30)
        executor.close()
        thread.join(30)
        assert not thread.is_alive()
        assert outcome["envelopes"][0]["ok"]
        counters = executor.telemetry.snapshot()["counters"]
        assert counters.get("scale.forced_terminations", 0) == 0

    def test_job_outliving_drain_timeout_escalates_to_terminate(self, monkeypatch):
        started = _slow_jobs(monkeypatch, seconds=60)
        executor = ElasticPoolExecutor(
            min_workers=1, max_workers=1, start_method="fork", drain_timeout=0.5
        )
        thread, outcome = _execute_in_thread(executor)
        assert started.wait(30)
        began = time.monotonic()
        executor.close()
        elapsed = time.monotonic() - began
        thread.join(10)
        assert not thread.is_alive()
        assert elapsed < 5  # bounded by drain_timeout, not by the 60 s job
        counters = executor.telemetry.snapshot()["counters"]
        assert counters["scale.forced_terminations"] == 1
        assert "pool closed" in str(outcome["error"])

    def test_real_pool_drains_in_flight_jobs(self):
        executor = ElasticPoolExecutor(min_workers=1, max_workers=1, drain_timeout=30.0)
        results = executor.execute([EVALUATE])
        assert results[0]["ok"]
        executor.close()  # graceful: no forced_terminations counter bump
        from repro.telemetry import current as current_telemetry

        counters = current_telemetry().snapshot()["counters"]
        assert counters.get("pool.forced_terminations", 0) == 0


def _process_group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestServeSignals:
    """``repro serve`` drains its pool on SIGTERM exactly as on SIGINT."""

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_sigterm_leaves_no_pool_worker_behind(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_JOBS="1")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2", "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        pgid = server.pid
        try:
            line = server.stdout.readline()
            assert "listening on " in line, line
            url = line.split("listening on ", 1)[1].split()[0]
            request = urllib.request.Request(
                url + "/v1/evaluate",
                data=json.dumps({k: v for k, v in EVALUATE.items() if k != "op"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert json.loads(response.read())["ok"]  # the pool is up
            server.send_signal(signal.SIGTERM)
            assert server.wait(30) == 0
            deadline = time.monotonic() + 10
            while _process_group_alive(pgid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _process_group_alive(pgid), "pool workers outlived the server"
        finally:
            if server.poll() is None or _process_group_alive(pgid):
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                server.wait(30)
            server.stdout.close()
