"""Tests for the HTTP run service: routing, broker dedupe, store
short-circuit, event streaming and the degradation paths.

Every test talks to a real listening socket (ephemeral port) through
urllib on an executor thread — the same wire path curl takes — so the
transport layer (request parsing, close-delimited streams) is exercised,
not mocked around.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.runspec import RunSpec
from repro.serve import InMemoryBroker, ServeApp, create_app
from repro.serve.http import run_http_server
from repro.store import ResultStore


def _http(base: str, method: str, path: str, body=None, timeout=30):
    """One blocking HTTP exchange; returns ``(status, bytes)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def run_served(scenario, *, store=None, backend="serial", app=None):
    """Boot a server, run ``await scenario(call, app)``, tear down.

    ``call(method, path, body=None)`` awaits one HTTP exchange done on
    an executor thread (urllib blocks; the loop must keep serving).
    """

    async def main():
        if app is None:
            server, the_app = await create_app(
                "127.0.0.1", 0, store=store, backend=backend
            )
        else:
            the_app = app
            server = await run_http_server(the_app.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        base = f"http://127.0.0.1:{port}"
        loop = asyncio.get_event_loop()

        def call(method, path, body=None):
            return loop.run_in_executor(None, _http, base, method, path, body)

        try:
            return await scenario(call, the_app)
        finally:
            server.close()
            await server.wait_closed()
            await the_app.broker.close()

    return asyncio.run(main())


async def wait_done(call, job_id: str) -> dict:
    for _ in range(600):
        status, body = await call("GET", f"/runs/{job_id}")
        assert status == 200
        state = json.loads(body)
        if state["state"] in ("done", "failed", "cancelled"):
            return state
        await asyncio.sleep(0.02)
    raise AssertionError(f"job {job_id} never settled")


SPEC = {"algorithm": "GHS", "n": 60, "seed": 1, "trace": True, "perf": True}


class TestRoutes:
    def test_healthz_and_stats(self, tmp_path):
        async def scenario(call, app):
            status, body = await call("GET", "/healthz")
            assert status == 200 and json.loads(body) == {"ok": True}
            status, body = await call("GET", "/stats")
            stats = json.loads(body)
            assert status == 200
            assert stats["store"]["entries"] == 0
            assert stats["broker"]["queue_depth"] == 0
            assert set(stats["pool"]) == {"alive", "workers", "serial_fallback"}

        with ResultStore(tmp_path / "s.sqlite") as store:
            run_served(scenario, store=store)

    def test_unknown_routes_and_methods(self):
        async def scenario(call, app):
            assert (await call("GET", "/nope"))[0] == 404
            assert (await call("GET", "/runs/feedbeef"))[0] == 404
            assert (await call("DELETE", "/healthz"))[0] == 405
            assert (await call("GET", "/runs"))[0] == 405
            assert (await call("POST", "/runs/abc/events"))[0] == 405
            assert (await call("GET", "/runs/abc/unknown"))[0] == 404

        run_served(scenario)

    def test_invalid_spec_is_400(self):
        async def scenario(call, app):
            status, body = await call("POST", "/runs", {"algorithm": "NopeMST"})
            assert status == 400
            assert "invalid RunSpec" in json.loads(body)["error"]
            status, body = await call("POST", "/runs", ["not", "an", "object"])
            assert status == 400
            # Raw garbage (not JSON at all).
            status, body = await call("POST", "/runs", "just a string")
            assert status == 400

        run_served(scenario)


class TestSubmitLifecycle:
    def test_submit_compute_roundtrip(self, tmp_path):
        async def scenario(call, app):
            status, body = await call("POST", "/runs", SPEC)
            assert status == 201
            sub = json.loads(body)
            spec = RunSpec.from_dict(SPEC)
            assert sub["id"] == spec.spec_hash()
            state = await wait_done(call, sub["id"])
            assert state["state"] == "done" and state["source"] == "computed"
            assert state["report"]["spec_hash"] == spec.spec_hash()
            status, payload = await call("GET", f"/runs/{sub['id']}/report")
            assert status == 200
            assert json.loads(payload)["result"]["n"] == SPEC["n"]
            return payload

        with ResultStore(tmp_path / "s.sqlite") as store:
            payload = run_served(scenario, store=store)
            # What went over the wire is exactly what the store holds.
            stored = store.get(RunSpec.from_dict(SPEC).result_key())
            assert payload.decode("utf-8") == stored

    def test_resubmit_dedupes_to_same_job(self, tmp_path):
        async def scenario(call, app):
            status1, body1 = await call("POST", "/runs", SPEC)
            await wait_done(call, json.loads(body1)["id"])
            status2, body2 = await call("POST", "/runs", SPEC)
            assert (status1, status2) == (201, 200)
            assert json.loads(body1)["id"] == json.loads(body2)["id"]
            stats = json.loads((await call("GET", "/stats"))[1])
            assert stats["broker"]["computed"] == 1
            assert stats["broker"]["deduped"] == 1

        with ResultStore(tmp_path / "s.sqlite") as store:
            run_served(scenario, store=store)

    def test_warm_restart_serves_store_hit_byte_identical(self, tmp_path):
        """The acceptance gate: same spec, second service instance —
        no recompute, byte-identical payload, /stats shows the hit."""

        async def cold(call, app):
            status, body = await call("POST", "/runs", SPEC)
            job_id = json.loads(body)["id"]
            await wait_done(call, job_id)
            return (await call("GET", f"/runs/{job_id}/report"))[1]

        async def warm(call, app):
            status, body = await call("POST", "/runs", SPEC)
            sub = json.loads(body)
            assert status == 201  # new job in this broker...
            assert sub["state"] == "done" and sub["source"] == "store"
            payload = (await call("GET", f"/runs/{sub['id']}/report"))[1]
            stats = json.loads((await call("GET", "/stats"))[1])
            assert stats["broker"]["store_resolved"] == 1
            assert stats["broker"]["computed"] == 0
            assert stats["store"]["hits"] >= 1
            return payload

        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_served(cold, store=store)
            second = run_served(warm, store=store)
        assert first == second

    def test_concurrent_submissions_singleflight(self, tmp_path):
        async def scenario(call, app):
            results = await asyncio.gather(
                *(call("POST", "/runs", SPEC) for _ in range(8))
            )
            ids = {json.loads(body)["id"] for _, body in results}
            assert len(ids) == 1
            assert sorted(status for status, _ in results) == [200] * 7 + [201]
            await wait_done(call, ids.pop())
            stats = json.loads((await call("GET", "/stats"))[1])
            assert stats["broker"]["computed"] == 1
            assert stats["broker"]["deduped"] == 7

        with ResultStore(tmp_path / "s.sqlite") as store:
            run_served(scenario, store=store)

    def test_serves_without_store(self):
        async def scenario(call, app):
            status, body = await call("POST", "/runs", SPEC)
            state = await wait_done(call, json.loads(body)["id"])
            assert state["state"] == "done" and state["source"] == "computed"
            stats = json.loads((await call("GET", "/stats"))[1])
            assert stats["store"] is None

        run_served(scenario, store=None)

    def test_failed_run_reports_error_and_allows_retry(self):
        async def scenario(call, app):
            # Rand-NNT rejects fault plans: a per-run failure, not a
            # transport error.
            bad = {
                "algorithm": "Rand-NNT",
                "n": 50,
                "faults": {"seed": 0, "drop_rate": 0.5},
            }
            status, body = await call("POST", "/runs", bad)
            assert status == 201
            state = await wait_done(call, json.loads(body)["id"])
            assert state["state"] == "failed"
            assert "ExperimentError" in state["error"]
            status, _ = await call(
                "GET", f"/runs/{json.loads(body)['id']}/report"
            )
            assert status == 409
            # A FAILED job does not absorb resubmits: fresh attempt.
            status, body2 = await call("POST", "/runs", bad)
            assert status == 201

        run_served(scenario)


class TestEventsStream:
    def test_ndjson_stream_carries_lifecycle_and_trace(self, tmp_path):
        async def scenario(call, app):
            _, body = await call("POST", "/runs", SPEC)
            job_id = json.loads(body)["id"]
            await wait_done(call, job_id)
            status, raw = await call("GET", f"/runs/{job_id}/events")
            assert status == 200
            events = [json.loads(line) for line in raw.decode().splitlines()]
            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued"
            assert "running" in kinds
            assert kinds[-1] == "done"  # terminal event closes the stream
            assert any(k == "trace" for k in kinds)
            assert any(k == "perf" for k in kinds)

        with ResultStore(tmp_path / "s.sqlite") as store:
            run_served(scenario, store=store)

    def test_store_replay_streams_same_instrumentation(self, tmp_path):
        async def run_and_collect(call, app):
            _, body = await call("POST", "/runs", SPEC)
            job_id = json.loads(body)["id"]
            await wait_done(call, job_id)
            _, raw = await call("GET", f"/runs/{job_id}/events")
            return [
                json.loads(line)["event"]
                for line in raw.decode().splitlines()
            ]

        with ResultStore(tmp_path / "s.sqlite") as store:
            cold = run_served(run_and_collect, store=store)
            warm = run_served(run_and_collect, store=store)
        # The replayed job streams the same trace/perf events the
        # original computed — only the lifecycle prefix differs (no
        # "running" phase on a store hit).
        assert [k for k in cold if k == "trace"] == [
            k for k in warm if k == "trace"
        ]
        assert warm.count("perf") == 1 and warm[-1] == "done"
        assert "running" not in warm


def test_events_stream_ends_across_first_pool_compute(monkeypatch):
    """An ``/events`` stream open while the first compute runs on the
    process pool still reaches end of stream after ``done``: the pool is
    forked before the server accepts connections, so no worker holds a
    copy of the client socket."""
    import http.client
    import threading

    from repro.runspec import engine as engine_mod
    from repro.serve import broker as broker_mod

    opened = threading.Event()
    real = broker_mod.execute_batch

    def after_stream_opens(*args, **kwargs):
        assert opened.wait(30), "the /events stream never opened"
        return real(*args, **kwargs)

    monkeypatch.setattr(broker_mod, "execute_batch", after_stream_opens)

    def stream(port: int, job_id: str) -> list[str]:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
        try:
            conn.request("GET", f"/runs/{job_id}/events")
            resp = conn.getresponse()
            first = resp.readline()  # the server now holds this socket
            opened.set()
            rest = resp.read()  # returns at end of stream; times out if hung
        finally:
            conn.close()
        lines = (first + rest).decode().splitlines()
        return [json.loads(line)["event"] for line in lines]

    async def main():
        server, app = await create_app("127.0.0.1", 0, backend="process", workers=1)
        port = server.sockets[0].getsockname()[1]
        base = f"http://127.0.0.1:{port}"
        loop = asyncio.get_event_loop()
        try:
            assert engine_mod.pool_state()["alive"]  # forked before listening
            spec = {"algorithm": "MGHS", "n": 60, "seed": 4}
            status, body = await loop.run_in_executor(
                None, _http, base, "POST", "/runs", spec
            )
            assert status == 201
            job_id = json.loads(body)["id"]
            return await loop.run_in_executor(None, stream, port, job_id)
        finally:
            server.close()
            await server.wait_closed()
            await app.broker.close()

    try:
        kinds = asyncio.run(main())
    finally:
        engine_mod.shutdown()
    assert kinds[0] == "queued" and kinds[-1] == "done"


class TestCancellation:
    def test_cancel_queued_job_via_http(self):
        # A broker that was never started keeps jobs QUEUED forever —
        # deterministic cancellation without timing games.
        broker = InMemoryBroker(backend="serial")
        app = ServeApp(broker)

        async def scenario(call, _app):
            _, body = await call("POST", "/runs", SPEC)
            job_id = json.loads(body)["id"]
            status, body = await call("DELETE", f"/runs/{job_id}")
            assert status == 200
            assert json.loads(body)["state"] == "cancelled"
            # Terminal now: a second DELETE is a no-op success report.
            status, _ = await call("DELETE", f"/runs/{job_id}")
            assert status == 200
            # And a resubmit starts a fresh attempt.
            status, body = await call("POST", "/runs", SPEC)
            assert status == 201
            assert json.loads(body)["state"] == "queued"

        run_served(scenario, app=app)

    def test_cannot_cancel_settled_job(self, tmp_path):
        async def scenario(call, app):
            _, body = await call("POST", "/runs", SPEC)
            job_id = json.loads(body)["id"]
            await wait_done(call, job_id)
            status, _ = await call("DELETE", f"/runs/{job_id}")
            assert status == 409

        run_served(scenario)


class TestBrokerUnit:
    """Broker semantics that need no socket."""

    def test_submit_is_atomic_dedupe(self, tmp_path):
        async def main():
            store = ResultStore(tmp_path / "s.sqlite")
            broker = InMemoryBroker(store=store, backend="serial")
            spec = RunSpec.from_dict(SPEC)
            job1, created1 = broker.submit(spec)
            job2, created2 = broker.submit(spec)
            assert job1 is job2
            assert (created1, created2) == (True, False)
            assert broker.stats()["queue_depth"] == 1
            store.close()

        asyncio.run(main())

    def test_degraded_store_still_computes(self, tmp_path):
        """Store unopenable → inert: every probe misses, service runs."""

        async def scenario(call, app):
            status, body = await call("POST", "/runs", SPEC)
            assert status == 201
            state = await wait_done(call, json.loads(body)["id"])
            assert state["state"] == "done" and state["source"] == "computed"
            stats = json.loads((await call("GET", "/stats"))[1])
            assert stats["store"]["entries"] == 0

        store = ResultStore(tmp_path / "s.sqlite")
        store.close()
        store.path = str(tmp_path)  # a directory: unopenable, inert
        run_served(scenario, store=store)

    def test_oversized_body_rejected(self):
        async def scenario(call, app):
            blob = {"algorithm": "GHS", "pad": "x" * (5 * 1024 * 1024)}
            status, _ = await call("POST", "/runs", blob)
            assert status == 413

        run_served(scenario)


def _descendants(pid: int) -> set[int]:
    """Every process below ``pid``, read from ``/proc``."""
    found: set[int] = set()
    todo = [pid]
    while todo:
        for task in Path(f"/proc/{todo.pop()}/task").glob("*"):
            try:
                kids = (task / "children").read_text().split()
            except OSError:
                continue
            for kid in map(int, kids):
                if kid not in found:
                    found.add(kid)
                    todo.append(kid)
    return found


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie has exited


@pytest.mark.skipif(
    not os.path.exists("/proc/self/task"), reason="reads the process tree from /proc"
)
def test_sigterm_reaps_pool_workers(tmp_path):
    """``repro serve`` stops on SIGTERM like on Ctrl-C: no child outlives it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--cache-path", str(tmp_path / "s.sqlite"),
            "--workers", "2",
        ],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    kids: set[int] = set()
    try:
        m = re.search(r"http://([\d.]+:\d+)", proc.stdout.readline())
        assert m, "server never printed its listening line"
        base = f"http://{m.group(1)}"
        status, body = _http(base, "POST", "/runs", {"algorithm": "MGHS", "n": 150, "seed": 2})
        assert status == 201
        job = json.loads(body)["id"]
        for _ in range(600):
            state = json.loads(_http(base, "GET", f"/runs/{job}")[1])["state"]
            if state not in ("queued", "running"):
                break
            time.sleep(0.05)
        assert state == "done"
        kids = _descendants(proc.pid)
        assert kids, "the process backend started no workers"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_running, kids)):
            time.sleep(0.1)
        assert not [k for k in kids if _running(k)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for k in kids:
            if _running(k):
                os.kill(k, signal.SIGKILL)
        proc.stdout.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
