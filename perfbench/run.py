#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics (see README.md for every definition).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a full record with provenance
and spans is written under ``.perfbench/results/``.

Exit status: 0 when every output checked out, 1 when an output was wrong
or the benchmark could not run, 2 when there is no program to measure.
``--record-golden`` adds the observed statistics of specs that have no
golden yet for this workload seed to ``goldens.json``, when every
output checked out (specs that have one are compared as always).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import multiprocessing
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import serve_mix  # noqa: E402
from hostref import adjust, reference_s  # noqa: E402
from serve_mix import BenchError  # noqa: E402
from spans import median, percentile, with_self_times  # noqa: E402
from workloads import SMALL_MIX_ALGORITHMS, WORKLOADS, compute_specs, warmup_specs  # noqa: E402

REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench"

#: Worker start-ups timed per compute run; ``setup_s`` is their median.
SETUPS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s", "nodes_per_s": "nodes/s", "peak_rss_mb": "MB",
    "setup_s": "s", "ok_ratio": "1", "req_per_s": "req/s",
    "miss_p50_ms": "ms", "miss_p90_ms": "ms",
}

PERF_TIMERS = (
    "mghs.hello", "mghs.phases", "ghs.hello", "ghs.phases",
    "eopt.step1.hello", "eopt.step1.phases", "eopt.census",
    "eopt.step2.hello", "eopt.step2.phases",
)
PER_LAYER = {
    "engine.execute_s": "s", "engine.unaccounted_s": "s",
    "kernel.nbr_table_build_s": "s", "kernel.nbr_table_builds": "count",
    "kernel.nbr_table_entries": "count", "kernel.rounds": "count",
    "kernel.deliveries": "count", "kernel.plane_deliveries": "count",
    "kernel.round_cost_us": "us", "kernel.turbo_engine_rounds": "count",
    "kernel.turbo_engine_share": "1",
    **{f"{t}_s": "s" for t in PERF_TIMERS},
    **{f"execute_s.{a}": "s" for a in SMALL_MIX_ALGORITHMS},
    "report.to_json_s": "s", "report.bytes": "bytes",
    "store.get_report_ms": "ms", "store.put_report_ms": "ms",
    "store.hits": "count", "store.lookups": "count", "store.hit_ratio": "1",
    "serve.hit_p50_ms": "ms", "serve.hit_p90_ms": "ms",
    "serve.submit_ms": "ms", "serve.queue_wait_ms": "ms",
    "serve.compute_ms": "ms", "serve.stream_close_ms": "ms",
    "serve.report_fetch_ms": "ms",
    "mem.peak_rss_mb": "MB", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "1", "host.ref_ms": "ms",
}


# -- processes -------------------------------------------------------------------


def worker_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def start_worker(cfg: dict) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=REPO, env=worker_env(), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    proc.stdin.write(json.dumps(cfg) + "\n")
    proc.stdin.flush()
    return proc


def finish_worker(proc: subprocess.Popen, command: str | None = None) -> dict | None:
    """Send ``command``, wait for exit, return the last JSON stdout line."""
    try:
        out, _ = proc.communicate(command and command + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def run_worker(cfg: dict) -> dict:
    out = finish_worker(start_worker(cfg))
    if out is None:
        raise BenchError(f"{cfg['role']} worker printed no result")
    return out


# -- provenance ----------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_sha() -> str | None:
    if not (REPO / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _src_sha256() -> str:
    """Content digest of the program sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, probe_start: float) -> dict:
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "mp_start_method": multiprocessing.get_start_method(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_ref_s": [probe_start, reference_s()],
    }


# -- compute workloads -------------------------------------------------------------


def _compute_layers(specs: list[dict], out: dict, adjusted: bool) -> dict:
    traced = out["traced"]
    lat = traced["latencies_s"]
    traced_wall, untraced_wall = sum(lat), sum(out["latencies_s"])
    if adjusted:
        traced_wall = sum(adjust(lat, traced["refs_s"]))
        untraced_wall = sum(adjust(out["latencies_s"], out["refs_s"]))
    layers = dict.fromkeys(PER_LAYER, 0.0)
    timers: dict[str, float] = {}
    counters: dict[str, int] = {}
    unaccounted = 0.0
    for spec, t, snap in zip(specs, lat, traced["perf"]):
        own = 0.0
        for name, cell in snap["timers"].items():
            timers[name] = timers.get(name, 0.0) + cell["total_s"]
            if not name.startswith("kernel."):
                own += cell["total_s"]
        for name, count in snap["counters"].items():
            counters[name] = counters.get(name, 0) + count
        unaccounted += t - own
        layers[f"execute_s.{spec['algorithm']}"] += t
    rounds = counters.get("kernel.rounds", 0)
    phases = sum(v for k, v in timers.items() if k.endswith(".phases"))
    spans = out["spans"]

    def span_s(name: str) -> list[float]:
        return [r["end"] - r["start"] for r in spans if r["name"] == name]

    layers.update({
        "engine.execute_s": sum(lat),
        "engine.unaccounted_s": unaccounted,
        "kernel.nbr_table_build_s": timers.get("kernel.nbr_table_build", 0.0),
        "kernel.round_cost_us": phases / rounds * 1e6 if rounds else 0.0,
        "kernel.turbo_engine_share":
            counters.get("kernel.turbo_engine_rounds", 0) / rounds if rounds else 0.0,
        **{f"{t}_s": timers.get(t, 0.0) for t in PERF_TIMERS},
        "report.to_json_s": sum(span_s("runspec.report.to_json")),
        "report.bytes": sum(traced["report_bytes"]),
        "mem.peak_rss_mb": traced["peak_rss_mb"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall - 1,
        "host.ref_ms": median(traced["refs_s"]) * 1e3,
    })
    for name in ("nbr_table_builds", "nbr_table_entries", "rounds", "deliveries",
                 "plane_deliveries", "turbo_engine_rounds"):
        layers[f"kernel.{name}"] = counters.get(f"kernel.{name}", 0)
    return layers


def time_metrics(specs: list[dict], lat: list[float]) -> dict:
    """Time metrics of a compute run from the latency of each spec.

    A unit is one spec of each of the workload's algorithms on one seed.
    Every figure is taken per algorithm over the run's units, then
    combined, so a slow call does not move it: ``wall_s`` is the time of
    one unit, the sum over algorithms of each one's median; the miss
    percentiles are the mean over algorithms of each one's percentile
    (a run's latencies are a mixture of six algorithms on ``small-mix``,
    whose own percentiles would fall between their clusters).
    """
    by_alg: dict[str, list[float]] = {}
    for spec, t in zip(specs, lat):
        by_alg.setdefault(spec["algorithm"], []).append(t)
    units = len(specs) // len(by_alg)
    wall = sum(median(ts) for ts in by_alg.values())

    def mean_pct_ms(q: float) -> float:
        return sum(percentile(ts, q) for ts in by_alg.values()) / len(by_alg) * 1e3

    return {
        "wall_s": wall,
        "nodes_per_s": sum(s["n"] for s in specs) / units / wall,
        "req_per_s": len(by_alg) / wall,
        "miss_p50_ms": mean_pct_ms(50), "miss_p90_ms": mean_pct_ms(90),
    }


def run_compute(ctx) -> dict:
    w = ctx.workload
    specs = compute_specs(w, ctx.seed, ctx.seconds)
    cfg = {
        "role": "compute", "workload": w.name, "seed": ctx.seed,
        "trace": ctx.trace, "specs": specs,
        "warmup": warmup_specs(specs),
    }
    setups = []
    count = 1 if ctx.trace else SETUPS
    for i in range(count):
        t0 = time.perf_counter()
        proc = start_worker(cfg)
        ready = proc.stdout.readline().strip()
        setups.append(time.perf_counter() - t0)
        if ready != "READY":
            finish_worker(proc, "QUIT")
            raise BenchError(f"worker set-up failed: {ready!r}")
        if i < count - 1:
            finish_worker(proc, "QUIT")
    out = finish_worker(proc, "GO")
    if out is None:
        raise BenchError("compute worker printed no result")
    raw, refs = out["latencies_s"], out["refs_s"]
    lat = adjust(raw, refs) if w.adjusted else raw
    res = {
        "attempted": len(specs),
        "failed": out["checks"]["failed_ops"],
        "failures": out["checks"]["failures"],
        "checks": out["checks"],
        "metrics": {
            **time_metrics(specs, lat),
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": median(setups),
        },
        "raw": time_metrics(specs, raw),
        "samples": {"setup_s": setups, "miss_s": lat, "raw_miss_s": raw, "ref_s": refs},
    }
    if ctx.trace:
        res["layers"] = _compute_layers(specs, out, w.adjusted)
        res["spans"] = out["spans"]
    return res


# -- serve workload ------------------------------------------------------------------


def run_serve(ctx) -> dict:
    out = serve_mix.run(ctx)
    loop = out["loop"]
    res = {
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "checks": out["checks"],
        "metrics": {
            **{k: loop[k] for k in ("wall_s", "nodes_per_s", "req_per_s",
                                    "miss_p50_ms", "miss_p90_ms")},
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": median(out["setup_s"]),
        },
        "raw": {k: out["raw"][k] for k in ("wall_s", "nodes_per_s", "req_per_s",
                                            "miss_p50_ms", "miss_p90_ms")},
        "samples": {"hits": loop["hits"], "misses": loop["misses"],
                    "mismatched_class": out["mismatched_class"], "ref_s": out["refs_s"]},
        "shutdown": out["shutdown"],
        "requests": out["requests"],
    }
    if ctx.trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(out["layers"])
        layers["mem.peak_rss_mb"] = out["peak_rss_mb"]
        res["layers"] = layers
        res["spans"] = out["spans"]
    return res


# -- main ----------------------------------------------------------------------------


def record_goldens(workload: str, seed: int, observed: dict) -> None:
    path = HERE / "goldens.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault(workload, {}).setdefault(str(seed), {}).update(observed)
    text = json.dumps(data, indent=1, sort_keys=True)
    # One golden per line: keep each [energy, messages, rounds] list flat.
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    path.write_text(text + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    # A launcher may start us with SIGINT ignored, and every process we
    # start would inherit that; serve-mix stops the server with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))  # the checks import the program after timing

    probe_start = reference_s()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = SimpleNamespace(
        workload=WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), repo=REPO,
        env=worker_env(), work_dir=work, worker=run_worker,
    )
    try:
        res = (run_serve if ctx.workload.kind == "serve" else run_compute)(ctx)
    except BenchError as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_golden and not res["checks"]["failures"]:
        record_goldens(args.workload, args.seed, res["checks"]["observed"])
    res["metrics"]["ok_ratio"] = 1.0 - res["failed"] / res["attempted"]
    names = PER_LAYER if args.trace else END_TO_END
    values = res["layers"] if args.trace else res["metrics"]
    metrics = {k: {"value": values[k], "unit": names[k]} for k in names}
    correct = not res["checks"]["failures"]

    record = {
        "provenance": provenance(args, probe_start), "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "metrics": metrics,
        "end_to_end": res["metrics"], "raw": res["raw"],
        "checks": {k: v for k, v in res["checks"].items() if k != "observed"},
        **{k: res[k] for k in ("samples", "shutdown", "requests") if k in res},
        "spans": with_self_times(res.get("spans", [])),
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for f in res["failures"]:
        print(f"failed op: {f}")
    for k, m in metrics.items():
        print(f"{k:<28} {m['value']:>16.6f} {m['unit']}")
    if not args.trace and ctx.workload.adjusted:
        print("measured, not adjusted to nominal host speed: "
              + " ".join(f"{k}={v:.6g}" for k, v in res["raw"].items()))
    print(f"record: {out_path.relative_to(REPO)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
