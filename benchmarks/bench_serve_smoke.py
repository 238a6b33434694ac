#!/usr/bin/env python
"""Serve-layer smoke: cold vs warm HTTP latency, byte-identity, dedupe.

The ``make serve-smoke`` gate for the HTTP run service.  The whole
exercise goes through the real CLI (``python -m repro serve``) against a
throwaway sqlite cache, twice:

* **cold** — a fresh server computes the golden spec once; the report is
  fetched over HTTP and kept as the reference bytes;
* **concurrent** — eight clients race the *same* new spec at one server:
  exactly one submission may create the job (the broker's atomic
  singleflight), every client must land on the same job id, and every
  fetched report must be byte-identical;
* **warm** — the server is killed and restarted on the same cache path;
  resubmitting the golden spec must resolve from the store without
  computing (``source == "store"``, broker ``computed == 0``, store
  ``hits >= 1``) and the served report must be **byte-identical** to the
  cold pass (exit code 2 otherwise — the service returned something the
  engine would not have produced).

The warm round trip must beat the cold one by ``WARM_SPEEDUP_MIN``
(exit code 1 otherwise).  Results land in
``benchmarks/out/BENCH_serve.json``.

Usage::

    python benchmarks/bench_serve_smoke.py
    python benchmarks/bench_serve_smoke.py --quick

Not a pytest file on purpose: ``make serve-smoke`` calls it directly so
the gates' exit codes reach CI.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_PATH = REPO / "benchmarks" / "out" / "BENCH_serve.json"

#: A warm (store-hit) round trip skips the compute entirely; even with
#: HTTP and sqlite overhead it must beat the cold pass handily.
WARM_SPEEDUP_MIN = 5.0

CLIENTS = 8
POLL_S = 0.02
TIMEOUT_S = 120.0

_READY_RE = re.compile(r"listening on http://([\d.]+):(\d+)")


def _fail(msg: str) -> None:
    print(f"FATAL: {msg}", file=sys.stderr)
    sys.exit(2)


def _gold_spec(quick: bool) -> dict:
    return {
        "algorithm": "MGHS",
        "n": 200 if quick else 500,
        "seed": 0,
    }


# -- tiny blocking HTTP client ------------------------------------------------


def _request(method: str, url: str, body: dict | None = None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _poll_done(base: str, job_id: str) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    while time.perf_counter() < deadline:
        status, raw = _request("GET", f"{base}/runs/{job_id}")
        if status != 200:
            _fail(f"status poll for {job_id} returned HTTP {status}")
        data = json.loads(raw)
        if data["state"] in ("done", "failed", "cancelled"):
            if data["state"] != "done":
                _fail(f"job {job_id} ended {data['state']}: {data.get('error')}")
            return data
        time.sleep(POLL_S)
    _fail(f"job {job_id} did not finish within {TIMEOUT_S}s")


def _round_trip(base: str, spec: dict) -> tuple[float, dict, bytes]:
    """Submit, wait for done, fetch the verbatim report; returns
    (seconds, final status payload, report bytes)."""
    t0 = time.perf_counter()
    status, raw = _request("POST", f"{base}/runs", spec)
    if status not in (200, 201):
        _fail(f"submit returned HTTP {status}: {raw[:200]!r}")
    job_id = json.loads(raw)["id"]
    final = _poll_done(base, job_id)
    elapsed = time.perf_counter() - t0
    status, report = _request("GET", f"{base}/runs/{job_id}/report")
    if status != 200:
        _fail(f"report fetch returned HTTP {status}")
    return elapsed, final, report


# -- server lifecycle ---------------------------------------------------------


class _Server:
    """One ``python -m repro serve`` subprocess on an ephemeral port."""

    def __init__(self, cache_path: Path, workers: int) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--cache-path",
                str(cache_path),
                "--workers",
                str(workers),
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + 30
        self.base = None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = _READY_RE.search(line)
            if m:
                self.base = f"http://{m.group(1)}:{m.group(2)}"
                return
        self.stop()
        _fail("serve subprocess never printed its listening line")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# -- the smoke ----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smaller instance")
    args = ap.parse_args(argv)

    spec = _gold_spec(args.quick)
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        cache = Path(tmp) / "results.sqlite"

        # Cold pass + concurrent gate against server #1.
        srv = _Server(cache, workers=2)
        try:
            cold_s, cold_final, cold_report = _round_trip(srv.base, spec)
            if cold_final["source"] != "computed":
                _fail(f"cold run source is {cold_final['source']!r}, not computed")
            print(f"cold: {cold_s * 1e3:.1f} ms (computed, {len(cold_report)} bytes)")

            race_spec = dict(spec, seed=spec["seed"] + 1)
            with concurrent.futures.ThreadPoolExecutor(CLIENTS) as pool:
                raced = list(
                    pool.map(
                        lambda _i: _request("POST", f"{srv.base}/runs", race_spec),
                        range(CLIENTS),
                    )
                )
            bodies = [json.loads(raw) for _status, raw in raced]
            ids = {b["id"] for b in bodies}
            created = sum(1 for b in bodies if b["created"])
            if len(ids) != 1:
                _fail(f"concurrent clients saw {len(ids)} job ids: {sorted(ids)}")
            if created != 1:
                _fail(f"{created} of {CLIENTS} concurrent submissions created the job")
            race_id = ids.pop()
            _poll_done(srv.base, race_id)
            race_reports = {
                _request("GET", f"{srv.base}/runs/{race_id}/report")[1]
                for _ in range(CLIENTS)
            }
            if len(race_reports) != 1:
                _fail("concurrent clients fetched differing report bytes")
            _status, raw = _request("GET", f"{srv.base}/stats")
            stats1 = json.loads(raw)
            if stats1["broker"]["computed"] != 2:
                _fail(
                    "server computed "
                    f"{stats1['broker']['computed']} jobs, expected 2"
                )
            if stats1["broker"]["deduped"] != CLIENTS - 1:
                _fail(
                    f"expected {CLIENTS - 1} deduped submissions, got "
                    f"{stats1['broker']['deduped']}"
                )
            print(
                f"concurrent: {CLIENTS} clients, 1 job, "
                f"{stats1['broker']['deduped']} deduped"
            )
        finally:
            srv.stop()

        # Warm pass: a fresh server over the same cache must answer from
        # the store, byte-identically, without computing.
        srv = _Server(cache, workers=2)
        try:
            warm_s, warm_final, warm_report = _round_trip(srv.base, spec)
            if warm_final["source"] != "store":
                _fail(f"warm run source is {warm_final['source']!r}, not store")
            if warm_report != cold_report:
                _fail(
                    "warm report diverged from cold report "
                    f"({len(warm_report)} vs {len(cold_report)} bytes)"
                )
            _status, raw = _request("GET", f"{srv.base}/stats")
            stats2 = json.loads(raw)
            if stats2["broker"]["computed"] != 0:
                _fail("warm server computed a job it should have store-resolved")
            if stats2["broker"]["store_resolved"] != 1:
                _fail("warm server did not record a store resolution")
            if stats2["store"]["hits"] < 1:
                _fail(f"store recorded {stats2['store']['hits']} hits, expected >= 1")
            print(f"warm: {warm_s * 1e3:.1f} ms (store hit, byte-identical)")
        finally:
            srv.stop()

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"speedup: {speedup:.1f}x")
    if speedup < WARM_SPEEDUP_MIN:
        failures.append(
            f"warm speedup {speedup:.1f}x below the {WARM_SPEEDUP_MIN:.0f}x gate"
        )

    rows = {
        "spec": spec,
        "quick": bool(args.quick),
        "timing": {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "warm_speedup": round(speedup, 2),
        },
        "report_bytes": len(cold_report),
        "concurrent": {
            "clients": CLIENTS,
            "deduped": stats1["broker"]["deduped"],
        },
        "warm_stats": {
            "store_hits": stats2["store"]["hits"],
            "store_resolved": stats2["broker"]["store_resolved"],
        },
    }
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"results written to {OUT_PATH}")

    if failures:
        for f in failures:
            print("FATAL:", f, file=sys.stderr)
        return 1
    print(
        f"serve smoke ok: cold {cold_s * 1e3:.0f} ms, warm {warm_s * 1e3:.0f} ms, "
        "reports byte-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
