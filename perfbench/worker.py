"""Benchmark worker: the only process of a compute workload that runs the program.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It reads one JSON config line from stdin and then, by role:

* ``compute`` — imports, runs the warm-up specs and prints ``READY``
  (the parent times start-up to here as ``setup_s``); then waits for
  ``GO`` or ``QUIT``.  On ``GO`` it times each call of
  ``repro.runspec.engine.execute`` over the measured spec list, with the
  host reference (``hostref.py``) timed between the calls, checks
  every output, and prints one JSON result line.  With ``trace`` it
  first runs the list untraced (the overhead baseline), then again with
  ``perf=True`` and spans around ``execute`` and ``RunReport.to_json``.
* ``prefill`` — fills a result store with the given specs through
  ``execute_batch`` on the process pool (serve-mix set-up, untimed).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostref import reference_s  # noqa: E402
from oracle import Checker  # noqa: E402
from spans import Spans  # noqa: E402
from workloads import label  # noqa: E402

from repro.perf import peak_rss_bytes  # noqa: E402
from repro.runspec.engine import execute, execute_batch, shutdown  # noqa: E402
from repro.runspec.spec import RunSpec  # noqa: E402
from repro.scenario.mobility import mixed_plan  # noqa: E402
from repro.store import ResultStore  # noqa: E402


def to_spec(data: dict) -> RunSpec:
    data = dict(data)
    preset = data.pop("scenario", None)
    spec = RunSpec.from_dict(data)
    if preset == "mixed":
        spec = spec.with_(scenario=mixed_plan(spec.n, seed=spec.seed))
    return spec


def _pass(specs: list[RunSpec], spans: Spans | None) -> dict:
    """Execute ``specs`` once, timing the host reference before the first
    call and after each; traced, with spans around each call."""
    out = {"reports": [], "latencies_s": [], "report_bytes": [], "refs_s": [reference_s()]}
    for i, spec in enumerate(specs):
        if spans is None:
            t0 = time.perf_counter()
            report = execute(spec)
            out["latencies_s"].append(time.perf_counter() - t0)
        else:
            with spans.span("op", rid=i) as op:
                with spans.span("runspec.engine.execute", parent=op, rid=i) as sid:
                    report = execute(spec)
                with spans.span("runspec.report.to_json", parent=op, rid=i):
                    out["report_bytes"].append(len(report.to_json(indent=None)))
            row = spans.rows[sid]
            out["latencies_s"].append(row["end"] - row["start"])
        out["reports"].append(report)
        out["refs_s"].append(reference_s())
    out["peak_rss_mb"] = peak_rss_bytes() / 2**20
    return out


def run_compute(cfg: dict) -> None:
    specs = [to_spec(s) for s in cfg["specs"]]
    for s in cfg["warmup"]:
        execute(to_spec(s))
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return
    res = _pass(specs, None)
    spans = None
    if cfg["trace"]:
        spans = Spans("worker")
        traced = _pass([s.with_(perf=True) for s in specs], spans)
        res["traced"] = {k: traced[k] for k in ("latencies_s", "refs_s", "report_bytes", "peak_rss_mb")}
        res["traced"]["perf"] = [r.perf for r in traced["reports"]]
        res["reports"] = traced["reports"]
    checker = Checker(cfg["workload"], cfg["seed"])
    for data, report in zip(cfg["specs"], res.pop("reports")):
        checker.check(label(data), report)
    res["checks"] = checker.summary()
    res["spans"] = spans.rows if spans is not None else []
    print(json.dumps(res), flush=True)


def run_prefill(cfg: dict) -> None:
    with ResultStore(cfg["store"]) as store:
        execute_batch(
            [to_spec(s) for s in cfg["specs"]],
            backend="process", workers=2, store=store,
        )
    shutdown()
    print(json.dumps({"prefilled": len(cfg["specs"])}), flush=True)


def main() -> None:
    cfg = json.loads(sys.stdin.readline())
    {"compute": run_compute, "prefill": run_prefill}[cfg["role"]](cfg)


if __name__ == "__main__":
    main()
