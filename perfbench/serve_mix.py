"""The serve-mix workload: ``repro serve`` driven over HTTP by one client.

Sequence of one run (see README.md for why each step is there):

1. untimed: a worker process fills a template result store with the
   run's hit specs; the server gets a fresh copy of it;
2. ``setup_s``: from launching ``python -m repro serve --backend process
   --workers 2`` until the first computed report has been fetched through
   the measured client path (POST, ``/events`` to end of stream, GET
   ``/report``).  That first compute forks the pool while the request's
   ``/events`` connection is open, so this request runs into the known
   hang and counts as a failed op;
3. the measured loop: one client in a closed loop over a seeded shuffle
   of hits and misses, timing the host reference (``hostref.py``)
   after each request;
4. with ``--trace 1``, a second, disjoint request set with client spans,
   ``/stats`` deltas and, after shutdown, direct ``ResultStore`` calls on
   a copy of the server's store;
5. SIGINT shutdown and a check that no process the server started
   survives it; survivors are killed and count as failed ops.

Only the standard library and the reference's numpy are imported until
the loops are over.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from hostref import adjust, reference_s
from spans import Spans, median, percentile
from workloads import label, serve_sets

#: Read timeout of every client socket.  The longest legitimate silence
#: on an ``/events`` stream is one queued compute (< 1 s at n <= 1000),
#: so a stream that stays open this long after its last event is hung.
CLIENT_TIMEOUT_S = 5.0
POOL_WORKERS = 2
#: How long processes the server started may take to exit after it did.
LEAK_GRACE_S = 5.0
TERMINAL = ("done", "failed", "cancelled")


class BenchError(RuntimeError):
    """The benchmark could not run to the end (not a failed op)."""


# -- processes ---------------------------------------------------------------


def _proc_stat(pid: int) -> tuple[int, int] | None:
    """``(ppid, starttime)`` of a live process, or ``None``."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[19])


def descendants(root: int) -> list[tuple[int, int]]:
    """``(pid, starttime)`` of every live descendant of ``root``."""
    parent: dict[int, int] = {}
    start: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            st = _proc_stat(int(entry))
            if st is not None:
                parent[int(entry)], start[int(entry)] = st
    out, frontier = [], [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += [(c, start[c]) for c in kids]
        frontier += kids
    return out


def _alive(pid: int, starttime: int) -> bool:
    st = _proc_stat(pid)
    return st is not None and st[1] == starttime


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` from ``/proc``, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, repo: Path, env: dict, store: Path, log: Path) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--cache-path", str(store), "--backend", "process",
             "--workers", str(POOL_WORKERS)],
            cwd=repo, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.port = self._wait_listening(deadline=time.monotonic() + 60)

    def _wait_listening(self, deadline: float) -> int:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        finally:
            sel.close()
        self.kill()
        raise BenchError("repro serve never printed its listening line")

    def peak_rss_mb(self) -> float:
        """Σ VmHWM of the server and every process it started."""
        pids = [self.proc.pid] + [p for p, _ in descendants(self.proc.pid)]
        total = 0.0
        for pid in pids:
            try:
                total += vm_hwm_mb(pid)
            except OSError:
                pass
        return total

    def stop(self) -> dict:
        """SIGINT, wait, then reap anything the server left behind."""
        started = descendants(self.proc.pid)
        clean_exit = True
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            clean_exit = False
            self.kill()
        deadline = time.monotonic() + LEAK_GRACE_S
        while time.monotonic() < deadline and any(_alive(*p) for p in started):
            time.sleep(0.05)
        leaked = [pid for pid, st in started if _alive(pid, st)]
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(_alive(*p) for p in started):
            time.sleep(0.05)
        self._close()
        return {"clean_exit": clean_exit, "children": len(started), "leaked": leaked}

    def kill(self) -> None:
        started = descendants(self.proc.pid)
        self.proc.kill()
        self.proc.wait()
        for pid, st in started:
            if _alive(pid, st):
                os.kill(pid, signal.SIGKILL)
        self._close()

    def _close(self) -> None:
        self.proc.stdout.close()
        self._log.close()


# -- client --------------------------------------------------------------------


class Client:
    def __init__(self, port: int, spans: Spans | None) -> None:
        self.port = port
        self.spans = spans

    def _call(self, method: str, path: str, body: dict | None = None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            data = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"} if data else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        status, body = self._call("GET", "/stats")
        if status != 200:
            raise BenchError(f"/stats answered HTTP {status}")
        return json.loads(body)

    def _events(self, job: str, rec: dict) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
        try:
            conn.request("GET", f"/runs/{job}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                raise BenchError(f"/events answered HTTP {resp.status}")
            try:
                for line in resp:
                    ev = json.loads(line)
                    rec["events"][ev["event"]] = ev
                    if ev["event"] in TERMINAL:
                        rec["t_done"] = time.perf_counter()
                rec["t_eof"] = time.perf_counter()
            except (socket.timeout, TimeoutError):
                rec["error"] = (f"/events stream not closed {CLIENT_TIMEOUT_S} s "
                                f"after its last event")
        finally:
            conn.close()

    def request(self, rid: int, cls: str, spec: dict) -> dict:
        """POST /runs, follow /events to end of stream, GET /report."""
        rec = {"rid": rid, "class": cls, "label": label(spec), "n": spec["n"],
               "events": {}, "error": None}
        t0 = time.perf_counter()
        try:
            status, body = self._call("POST", "/runs", spec)
            t1 = time.perf_counter()
            if status not in (200, 201):
                raise BenchError(f"POST /runs answered HTTP {status}: {body[:200]!r}")
            job = json.loads(body)["id"]
            self._events(job, rec)
            t2 = time.perf_counter()
            done = rec["events"].get("done")
            if done is None:
                rec["error"] = rec["error"] or f"job ended without done: {list(rec['events'])}"
            status, payload = self._call("GET", f"/runs/{job}/report")
            t3 = time.perf_counter()
            if status != 200:
                raise BenchError(f"GET /report answered HTTP {status}")
        except (OSError, http.client.HTTPException, BenchError, ValueError, KeyError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["latency_s"] = time.perf_counter() - t0
            return rec
        rec.update(latency_s=t3 - t0, submit_s=t1 - t0, fetch_s=t3 - t2,
                   source=done["source"] if done else None, payload=payload)
        if self.spans is not None:
            root = self.spans.add("serve.request", t0, t3, rid=rid)
            self.spans.add("serve.submit", t0, t1, parent=root, rid=rid)
            self.spans.add("serve.events", t1, t2, parent=root, rid=rid)
            self.spans.add("serve.report_fetch", t2, t3, parent=root, rid=rid)
        return rec

    def loop(self, reqs: list[tuple[str, dict]], rid0: int) -> tuple[list[float], list[dict]]:
        """Closed loop over ``reqs``: each request is sent as soon as the
        previous one has completed and the host reference has been timed.

        Returns the reference times (one before the first request and one
        after each) and the request records.
        """
        refs = [reference_s()]
        out = []
        for i, (cls, spec) in enumerate(reqs):
            out.append(self.request(rid0 + i, cls, spec))
            refs.append(reference_s())
        return refs, out


# -- the workload ----------------------------------------------------------------


def _ms(values: list[float], q: float) -> float:
    if not values:
        raise BenchError("a request class has no completed request to time")
    return percentile(values, q) * 1e3


def _copy_store(src: Path, dst: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        if Path(f"{src}{suffix}").exists():
            shutil.copyfile(f"{src}{suffix}", f"{dst}{suffix}")


def _loop_metrics(recs: list[dict], lat: list[float]) -> dict:
    """Metrics of one loop from its records and the latency of each."""
    ok = [(r, t) for r, t in zip(recs, lat) if r["error"] is None]
    misses = [t for r, t in ok if r["source"] == "computed"]
    wall = sum(lat)
    return {
        "wall_s": wall,
        "nodes_per_s": sum(r["n"] for r, _ in ok) / wall,
        "req_per_s": len(ok) / wall,
        "miss_p50_ms": _ms(misses, 50), "miss_p90_ms": _ms(misses, 90),
        "hits": sum(r["source"] == "store" for r, _ in ok), "misses": len(misses),
    }


def _layer_metrics(recs: list[dict], stats0: dict, stats1: dict) -> dict:
    ok = [r for r in recs if r["error"] is None]
    computed = [r for r in ok if r["source"] == "computed"]
    hits = [r["latency_s"] for r in ok if r["source"] == "store"]
    ev = lambda r, k: r["events"][k]["t"]  # noqa: E731 - server wall clock
    s0, s1 = stats0["store"], stats1["store"]
    store_hits = s1["hits"] - s0["hits"]
    lookups = store_hits + s1["misses"] - s0["misses"]
    return {
        "serve.hit_p50_ms": _ms(hits, 50), "serve.hit_p90_ms": _ms(hits, 90),
        "serve.submit_ms": median([r["submit_s"] for r in ok]) * 1e3,
        "serve.queue_wait_ms": median([ev(r, "running") - ev(r, "queued") for r in computed]) * 1e3,
        "serve.compute_ms": median([ev(r, "done") - ev(r, "running") for r in computed]) * 1e3,
        "serve.stream_close_ms": median([r["t_eof"] - r["t_done"] for r in ok]) * 1e3,
        "serve.report_fetch_ms": median([r["fetch_s"] for r in ok]) * 1e3,
        "store.hits": store_hits,
        "store.lookups": lookups,
        "store.hit_ratio": store_hits / lookups if lookups else 0.0,
    }


def _direct_store_metrics(store_copy: Path, recs: list[dict], work: Path) -> dict:
    """Time the store and report layers directly, off the server."""
    from repro.runspec.report import RunReport
    from repro.store import ResultStore

    reports = [RunReport.from_json(r["payload"]) for r in recs if r["error"] is None]
    get_s, put_s, enc_s, nbytes = [], [], 0.0, 0
    with ResultStore(store_copy) as src, ResultStore(work / "direct-put.sqlite") as dst:
        for rep in reports:
            t0 = time.perf_counter()
            got = src.get_report(rep.spec)
            t1 = time.perf_counter()
            if got is not None:
                get_s.append(t1 - t0)
            t0 = time.perf_counter()
            dst.put_report(rep)
            put_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            nbytes += len(rep.to_json(indent=None))
            enc_s += time.perf_counter() - t0
    return {
        "store.get_report_ms": median(get_s) * 1e3,
        "store.put_report_ms": median(put_s) * 1e3,
        "report.to_json_s": enc_s,
        "report.bytes": nbytes,
    }


def run(ctx) -> dict:
    """One serve-mix run; returns the pieces ``run.py`` turns into metrics."""
    work: Path = ctx.work_dir
    sets = 2 if ctx.trace else 1
    setup_spec, req_sets = serve_sets(ctx.seed, ctx.seconds, sets)
    hit_specs = [spec for reqs in req_sets for cls, spec in reqs if cls == "hit"]

    template, live = work / "prefill.sqlite", work / "serve.sqlite"
    ctx.worker({"role": "prefill", "store": str(template), "specs": hit_specs})
    _copy_store(template, live)

    t0 = time.perf_counter()
    server = Server(ctx.repo, ctx.env, live, work / "serve.log")
    try:
        client = Client(server.port, None)
        setup_rec = client.request(-1, "miss", setup_spec)
        setup_s = time.perf_counter() - t0
        refs, recs = client.loop(req_sets[0], 0)
        raw = [r["latency_s"] for r in recs]
        lat = adjust(raw, refs) if ctx.workload.adjusted else raw
        out = {"setup_s": [setup_s], "loop": _loop_metrics(recs, lat),
               "raw": _loop_metrics(recs, raw), "refs_s": refs}
        traced: list[dict] = []
        if ctx.trace:
            client.spans = Spans("client")
            stats0 = client.stats()
            traced_refs, traced = client.loop(req_sets[1], len(recs))
            layers = _layer_metrics(traced, stats0, client.stats())
            wall = out["loop"]["wall_s"]
            traced_lat = [r["latency_s"] for r in traced]
            if ctx.workload.adjusted:
                traced_lat = adjust(traced_lat, traced_refs)
            traced_wall = sum(traced_lat)
            layers["trace.wall_s"] = traced_wall
            layers["trace.untraced_wall_s"] = wall
            layers["trace.overhead_ratio"] = traced_wall / wall - 1
            layers["host.ref_ms"] = median(traced_refs) * 1e3
            out["layers"] = layers
            out["spans"] = client.spans.rows
        out["peak_rss_mb"] = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    out["shutdown"] = server.stop()

    all_recs = [setup_rec] + recs + traced
    out["requests"] = [
        {k: v for k, v in r.items() if k != "payload"} for r in all_recs
    ]
    out["mismatched_class"] = sum(
        1 for r in all_recs if r["error"] is None
        and r["source"] != ("store" if r["class"] == "hit" else "computed")
    )

    from oracle import Checker
    from repro.runspec.report import RunReport

    checker = Checker("serve-mix", ctx.seed)
    failed_ops = 0
    for r in all_recs:
        ok = "payload" in r and checker.check(r["label"], RunReport.from_json(r["payload"]))
        failed_ops += r["error"] is not None or not ok
    out["checks"] = checker.summary()
    out["failures"] = [f"request {r['rid']} {r['label']}: {r['error']}"
                       for r in all_recs if r["error"] is not None]
    out["failures"] += checker.failures
    down = out["shutdown"]
    out["failures"] += [f"process {pid} survived serve shutdown" for pid in down["leaked"]]
    if not down["clean_exit"]:
        out["failures"].append("serve did not exit within 30 s of SIGINT")
    # Every request is one op, and so is the shutdown.
    out["attempted"] = len(all_recs) + 1
    out["failed"] = failed_ops + bool(down["leaked"] or not down["clean_exit"])
    if ctx.trace:
        copy = work / "direct-get.sqlite"
        _copy_store(live, copy)
        out["layers"].update(_direct_store_metrics(copy, traced, work))
    return out
