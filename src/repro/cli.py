"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's experiments without writing code:

* ``run``    — one algorithm on one instance, full stats (a thin
  :class:`~repro.runspec.spec.RunSpec` builder over
  :func:`repro.runspec.engine.execute`; ``--spec``/``--emit-spec``
  round-trip the spec as JSON);
* ``algorithms`` — the registered algorithm labels and capabilities;
* ``kernels``    — the kernel modes (see
  :data:`repro.runspec.spec.KERNELS`);
* ``fig3a`` / ``fig3b`` — the energy sweep and the slope fits;
* ``fig1`` / ``fig2``   — percolation picture / potential-region lemmas;
* ``tab1``   — the Co-NNT vs MST quality comparison;
* ``thm52``  — giant-component empirics;
* ``lb``     — lower-bound constants;
* ``fuzz``   — stateful protocol fuzzing (corpus replay + hypothesis
  state machines; see :mod:`repro.fuzz` and ``docs/fuzzing.md``);
* ``render`` — SVG of an instance with its MST and NNT.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import BENCH_NS, SweepConfig
from repro.experiments.report import format_table
from repro.runspec import KERNEL_ALIASES, KERNEL_MODES, algorithm_names


def _parse_crash(spec: str) -> tuple[int, int, int | None]:
    """Parse a ``NODE:START[:END]`` crash-window spec."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"crash spec {spec!r} is not NODE:START[:END]"
        )
    try:
        node, start = int(parts[0]), int(parts[1])
        end = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"crash spec {spec!r} has non-integer fields"
        ) from exc
    return (node, start, end)


def _build_fault_plan(args):
    """A :class:`FaultPlan` from the ``run`` flags, or None when unused."""
    if not (args.drop_rate or args.dup_rate or args.crash):
        return None
    from repro.sim.faults import FaultPlan

    return FaultPlan(
        seed=args.fault_seed,
        drop_rate=args.drop_rate,
        dup_rate=args.dup_rate,
        crashes=tuple(args.crash),
    )


def _build_run_spec(args):
    """The :class:`RunSpec` for the ``run`` flags (or the ``--spec`` file)."""
    from pathlib import Path

    from repro.runspec import RunSpec

    if args.spec:
        spec = RunSpec.from_json(Path(args.spec).read_text())
    else:
        spec = RunSpec(
            algorithm=args.algorithm,
            n=args.n,
            seed=args.seed,
            kernel=args.kernel,
            faults=_build_fault_plan(args),
        )
    if getattr(args, "scenario", None):
        from repro.scenario import ScenarioPlan

        spec = spec.with_(
            scenario=ScenarioPlan.from_json(Path(args.scenario).read_text())
        )
    # The instrumentation flags compose with a loaded spec: --perf /
    # --trace on top of --spec FILE turn recording on for this run.
    if args.perf:
        spec = spec.with_(perf=True)
    if args.trace is not None:
        spec = spec.with_(trace=True)
    return spec


def _cmd_run(args) -> int:
    from pathlib import Path

    from repro.experiments.report import format_phase_summary
    from repro.perf import format_snapshot
    from repro.runspec import execute
    from repro.trace import export_events_jsonl

    if args.algorithm is None and not args.spec:
        print("repro run: needs an algorithm label or --spec FILE", file=sys.stderr)
        return 2
    spec = _build_run_spec(args)
    if args.emit_spec:
        out = Path(args.emit_spec)
        out.write_text(spec.to_json())
        print(f"spec written to {out}")
        print(f"spec_hash: {spec.spec_hash()}")
        return 0

    store = None
    if args.cache or args.cache_path:
        from repro.store import ResultStore

        store = ResultStore(args.cache_path)
        hits_before = store.stats()["hits"]
    report = execute(spec, store=store)
    if store is not None:
        outcome = "hit" if store.stats()["hits"] > hits_before else "miss (stored)"
        print(f"cache: {outcome}  key={spec.result_key()[:16]}  {store.path}")
    res = report.result
    print(res.summary())
    print("\nper message kind:")
    rows = [(k, m, f"{e:.4f}") for k, m, e in res.stats.kind_table()]
    print(format_table(["kind", "messages", "energy"], rows))
    if res.stats.energy_by_stage:
        print("\nper stage:")
        rows = [(s, m, f"{e:.4f}") for s, m, e in res.stats.stage_table()]
        print(format_table(["stage", "messages", "energy"], rows))
    if spec.faults is not None:
        print("\nfault plane:")
        rows = report.fault_table()
        if rows:
            print(
                format_table(["kind", "dropped", "crash-dropped", "dup"], rows)
            )
        else:
            print("(no deliveries dropped, duplicated or crash-dropped)")
    if report.trace is not None:
        if args.trace is not None:
            path = export_events_jsonl(report.trace, args.trace)
            print(f"\ntrace: {len(report.trace)} events -> {path}")
        else:
            print(f"\ntrace: {len(report.trace)} events")
        print(format_phase_summary(report.trace))
    if report.perf is not None:
        print("\nperf report:")
        print(format_snapshot(report.perf))
    return 0


def _cmd_algorithms(args) -> int:
    from repro.runspec import algorithm_entries

    rows = [
        (
            e.name,
            "yes" if e.supports_faults else "no",
            "yes" if e.supports_kernel_mode else "no",
            "yes" if e.supports_scenario else "no",
            e.summary,
        )
        for e in algorithm_entries()
    ]
    print(
        format_table(
            ["algorithm", "faults", "alt kernels", "scenarios", "summary"], rows
        )
    )
    return 0


def _cmd_scenarios(args) -> int:
    """List the scenario presets, or emit one as a plan JSON file."""
    import inspect
    from pathlib import Path

    from repro.scenario.mobility import PRESETS

    if args.emit:
        factory = PRESETS[args.preset]
        plan = factory(args.n, seed=args.seed)
        out = Path(args.emit)
        out.write_text(plan.to_json(indent=1))
        print(
            f"{args.preset} plan for n={args.n} seed={args.seed}: "
            f"{len(plan.events)} events -> {out}"
        )
        print(f"run it:  repro run MAINT -n {args.n} --scenario {out}")
        return 0
    rows = [
        (name, (inspect.getdoc(factory) or "").splitlines()[0])
        for name, factory in PRESETS.items()
    ]
    print(format_table(["preset", "summary"], rows))
    print(
        "\nemit one:  repro scenarios --emit PLAN.json --preset churn -n 40 --seed 0"
    )
    return 0


def _cmd_kernels(args) -> int:
    import inspect

    from repro.runspec import KERNELS
    from repro.sim.legacy import LegacyKernel

    rows = [
        (
            name,
            "yes" if cls is LegacyKernel else "no",
            (inspect.getdoc(cls) or "").splitlines()[0],
        )
        for name, cls in KERNELS.items()
    ]
    print(format_table(["kernel", "reference", "summary"], rows))
    for alias, target in KERNEL_ALIASES.items():
        print(f"\nalias: {alias} -> {target}")
    return 0


def _cmd_cache(args) -> int:
    from repro.store import ResultStore

    with ResultStore(args.store) as store:
        if args.action == "prune":
            evicted = store.prune(args.max_bytes)
            print(f"pruned {evicted} entries from {store.path}")
        elif args.action == "clear":
            dropped = store.clear()
            print(f"cleared {dropped} entries from {store.path}")
        s = store.stats()
        rows = [(k, str(v)) for k, v in s.items()]
        print(format_table(["stat", "value"], rows))
        if args.action == "stats":
            entries = store.entry_rows()
            if entries:
                print("\nnewest entries:")
                print(
                    format_table(
                        ["key", "algorithm", "n", "bytes"],
                        [(k[:16], a, n, b) for k, a, n, b in entries],
                    )
                )
    return 0


def _cmd_trace_diff(args) -> int:
    from repro.trace.diff import diff_files, format_divergence

    d = diff_files(args.left, args.right, context=args.context)
    print(format_divergence(d, args.left, args.right))
    return 1 if d is not None else 0


def _cmd_fuzz(args) -> int:
    """Replay the corpus, then run the stateful fuzz machines."""
    from repro.fuzz.corpus import iter_corpus, load_scenario, replay_scenario

    rc = 0
    corpus_files = iter_corpus(args.corpus) if args.corpus else []
    for path in corpus_files:
        try:
            replay_scenario(load_scenario(path))
            print(f"corpus  {path.name}: ok")
        except Exception as exc:
            rc = 1
            print(f"corpus  {path.name}: FAILED ({type(exc).__name__}: {exc})")
    if corpus_files:
        print(f"corpus  {len(corpus_files)} scenario(s) replayed")

    from repro.fuzz.machine import run_fuzz

    machines = (
        ["ghs", "retry", "connt", "maint"]
        if args.machine == "all"
        else [args.machine]
    )
    for name in machines:
        out = run_fuzz(
            name,
            examples=args.examples,
            steps=args.steps,
            seed=args.seed,
            export_dir=args.out,
        )
        if out.ok:
            print(f"machine {name}: ok ({args.examples} examples x {args.steps} steps)")
        else:
            rc = 1
            print(f"machine {name}: FAILED — {out.error}")
            for kind, path in out.artifacts.items():
                print(f"  {kind}: {path}")
    return rc


def _cmd_serve(args) -> int:
    """Run the HTTP run service (docs/architecture.md, serve layer)."""
    import asyncio
    import signal

    from repro.serve import serve

    store = None
    if not args.no_cache:
        from repro.store import ResultStore

        store = ResultStore(args.cache_path)

    def ready(bound) -> None:
        where = store.path if store is not None else "off"
        print(
            f"repro serve listening on http://{bound[0]}:{bound[1]}  "
            f"(store: {where}, backend: {args.backend})",
            flush=True,
        )

    # SIGTERM takes the Ctrl-C path: asyncio.run cancels the server, the
    # broker shuts its worker pool down, and the store closes.
    prev_term = signal.signal(
        signal.SIGTERM, lambda signum, frame: signal.raise_signal(signal.SIGINT)
    )
    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                store=store,
                backend=args.backend,
                workers=args.workers,
                ready=ready,
            )
        )
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, prev_term)
        if store is not None:
            store.close()
    return 0


def _cmd_fig3a(args) -> int:
    from repro.experiments.figures import fig3a_energy, fig3a_plot, fig3a_rows

    ns = tuple(n for n in BENCH_NS if n <= args.max_n)
    cfg = SweepConfig(ns=ns, seeds=tuple(range(args.seeds)))
    sweep = fig3a_energy(cfg)
    headers = ["n"] + [f"E[{a}]" for a in cfg.algorithms]
    print(format_table(headers, fig3a_rows(sweep)))
    print()
    print(fig3a_plot(sweep))
    if args.save:
        from repro.experiments.io import save_sweep

        print(f"\nsweep saved to {save_sweep(sweep, args.save)}")
    return 0


def _cmd_fig3b(args) -> int:
    from repro.experiments.figures import fig3a_energy, fig3b_plot, fig3b_slopes
    from repro.experiments.io import load_sweep

    if args.load:
        sweep = load_sweep(args.load)
    else:
        ns = tuple(n for n in BENCH_NS if n <= args.max_n)
        sweep = fig3a_energy(SweepConfig(ns=ns, seeds=tuple(range(args.seeds))))
    fits = fig3b_slopes(sweep, min_n=args.min_n)
    rows = [
        (a, f"{f.slope:.2f}", f"{f.r_squared:.3f}") for a, f in fits.items()
    ]
    print(format_table(["algorithm", "slope", "R^2"], rows))
    print()
    print(fig3b_plot(sweep, min_n=args.min_n))
    return 0


def _cmd_fig1(args) -> int:
    from repro.experiments.figures import fig1_percolation

    r = fig1_percolation(n=args.n, c1=args.c1, seed=args.seed)
    print(
        f"n={r.n}  r={r.radius:.4f}  giant={r.giant_fraction:.1%}  "
        f"max small region={r.max_small_region_nodes} nodes"
    )
    print(r.good_cluster_picture)
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.figures import fig2_potential

    r = fig2_potential(n=args.n, seed=args.seed)
    rows = [
        ("min potential angle (Lemma 6.1: >= 0.5)", f"{r.min_potential_angle:.4f}"),
        ("n * E[d_u^2] (Thm 6.1: <= 4)", f"{r.n * r.mean_sq_connect_distance:.3f}"),
        ("n * 2/(n alpha) bound (Lemma 6.2)", f"{r.n * r.expected_sq_bound:.3f}"),
        ("max d_u / sqrt(log n / n) (Lemma 6.3)", f"{r.lemma63_constant:.3f}"),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_tab1(args) -> int:
    from repro.experiments.tables import PAPER_TAB1_EDGE_SUMS, tab1_quality

    rows = []
    for row in tab1_quality(ns=tuple(args.ns), seed=args.seed):
        paper = PAPER_TAB1_EDGE_SUMS.get(row.n, ("-", "-"))
        rows.append(
            (
                row.n,
                f"{row.connt_edge_sum:.1f}",
                paper[0],
                f"{row.mst_edge_sum:.1f}",
                paper[1],
                f"{row.connt_sq_sum:.2f}",
                f"{row.mst_sq_sum:.2f}",
            )
        )
    print(
        format_table(
            ["n", "CoNNT len", "paper", "MST len", "paper", "CoNNT d^2", "MST d^2"],
            rows,
        )
    )
    return 0


def _cmd_thm52(args) -> int:
    from repro.experiments.tables import thm52_giant

    rows = [
        (r.n, f"{r.radius:.4f}", f"{r.giant_fraction:.1%}", r.second_component,
         f"{r.beta_estimate:.2f}")
        for r in thm52_giant(ns=tuple(args.ns), c1=args.c1, seed=args.seed)
    ]
    print(format_table(["n", "r1", "giant", "2nd comp", "beta"], rows))
    return 0


def _cmd_lb(args) -> int:
    from repro.experiments.tables import lower_bound_table

    rows = [
        (r.n, f"{r.l_mst:.3f}", r.knn_k, f"{r.knn_min_energy:.2e}",
         f"{r.lemma41_b:.1f}", f"{r.omega_log_curve:.2f}")
        for r in lower_bound_table(ns=tuple(args.ns), seed=args.seed)
    ]
    print(
        format_table(
            ["n", "L_MST", "k", "min kNN energy", "b", "log n/pi"], rows
        )
    )
    return 0


def _cmd_render(args) -> int:
    from repro.geometry.points import uniform_points
    from repro.mst.delaunay import euclidean_mst
    from repro.mst.nnt import nearest_neighbor_tree
    from repro.viz.svg import render_instance

    pts = uniform_points(args.n, seed=args.seed)
    mst, _ = euclidean_mst(pts)
    nnt, _ = nearest_neighbor_tree(pts)
    canvas = render_instance(
        pts, {"MST": mst, "NNT": nnt}, title=f"n={args.n} seed={args.seed}"
    )
    print(f"written {canvas.save(args.output)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Energy-optimal distributed MST — paper reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    perf_help = "enable repro.perf timers/counters and print the table after"

    run = sub.add_parser("run", help="run one algorithm on one instance")
    run.add_argument(
        "algorithm",
        nargs="?",
        choices=list(algorithm_names()),
        help="registered algorithm label (optional with --spec)",
    )
    run.add_argument("-n", type=int, default=500)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--kernel",
        choices=[*KERNEL_MODES, *KERNEL_ALIASES],
        default="fast",
        help="kernel implementation (legacy = frozen pre-optimization "
        "reference; GHS family only; turbo = alias of fast)",
    )
    run.add_argument(
        "--spec",
        metavar="FILE.json",
        help="load the full RunSpec from FILE (instance and fault flags "
        "are then ignored; --perf/--trace still compose)",
    )
    run.add_argument(
        "--scenario",
        metavar="FILE.json",
        help="attach a scenario plan (timed churn/mobility events; MAINT "
        "workload) from FILE; composes with --spec; see `repro scenarios`",
    )
    run.add_argument(
        "--emit-spec",
        metavar="FILE.json",
        help="write the assembled RunSpec JSON to FILE and exit "
        "without running",
    )
    run.add_argument(
        "--cache",
        action="store_true",
        help="memoize through the persistent result store (default "
        "location: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    run.add_argument(
        "--cache-path",
        metavar="FILE.sqlite",
        help="result-store database to use (implies --cache)",
    )
    run.add_argument("--perf", action="store_true", help=perf_help)
    run.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="record a repro.trace event stream, write it here as JSONL "
        "and print the per-phase summary",
    )
    run.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        help="per-delivery message loss probability (fault plane)",
    )
    run.add_argument(
        "--dup-rate",
        type=float,
        default=0.0,
        help="per-delivery duplicate probability (fault plane)",
    )
    run.add_argument(
        "--crash",
        type=_parse_crash,
        action="append",
        default=[],
        metavar="NODE:START[:END]",
        help="crash window: node radio off for rounds [START, END) "
        "(END omitted = forever); repeatable",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault plane",
    )
    # The run command manages its own instrumentation through the spec
    # engine; main()'s global perf/trace wrapper must not double-record.
    run.set_defaults(func=_cmd_run, spec_managed=True)

    algs = sub.add_parser(
        "algorithms", help="list the registered algorithms and capabilities"
    )
    algs.set_defaults(func=_cmd_algorithms)

    kerns = sub.add_parser(
        "kernels", help="list the kernel modes"
    )
    kerns.set_defaults(func=_cmd_kernels)

    scen = sub.add_parser(
        "scenarios",
        help="list scenario presets or emit one as a plan JSON file",
    )
    scen.add_argument(
        "--emit",
        metavar="FILE.json",
        help="write the generated ScenarioPlan JSON here",
    )
    scen.add_argument(
        "--preset",
        choices=("churn", "mobility", "mixed"),
        default="churn",
        help="which generator to use (see `repro scenarios`)",
    )
    scen.add_argument("-n", type=int, default=40, help="initial instance size")
    scen.add_argument("--seed", type=int, default=0, help="schedule seed")
    scen.set_defaults(func=_cmd_scenarios)

    cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent result store"
    )
    cache.add_argument(
        "action",
        choices=("stats", "prune", "clear"),
        help="stats = counters and newest entries; prune = evict LRU "
        "entries past the byte bound; clear = drop every entry",
    )
    cache.add_argument(
        "--store",
        metavar="FILE.sqlite",
        help="result-store database (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte bound for prune (default: the store's configured bound)",
    )
    cache.set_defaults(func=_cmd_cache)

    f3a = sub.add_parser("fig3a", help="energy-vs-n sweep (Fig. 3a)")
    f3a.add_argument("--max-n", type=int, default=2000)
    f3a.add_argument("--seeds", type=int, default=1)
    f3a.add_argument("--save", help="write the sweep JSON here")
    f3a.add_argument("--perf", action="store_true", help=perf_help)
    f3a.set_defaults(func=_cmd_fig3a)

    f3b = sub.add_parser("fig3b", help="log-log-log slope fits (Fig. 3b)")
    f3b.add_argument("--max-n", type=int, default=2000)
    f3b.add_argument("--seeds", type=int, default=1)
    f3b.add_argument("--min-n", type=int, default=100)
    f3b.add_argument("--load", help="reuse a sweep JSON from fig3a --save")
    f3b.add_argument("--perf", action="store_true", help=perf_help)
    f3b.set_defaults(func=_cmd_fig3b)

    f1 = sub.add_parser("fig1", help="percolation picture (Fig. 1)")
    f1.add_argument("-n", type=int, default=3000)
    f1.add_argument("--c1", type=float, default=3.0)
    f1.add_argument("--seed", type=int, default=0)
    f1.set_defaults(func=_cmd_fig1)

    f2 = sub.add_parser("fig2", help="potential-region lemma checks (Fig. 2)")
    f2.add_argument("-n", type=int, default=2000)
    f2.add_argument("--seed", type=int, default=0)
    f2.set_defaults(func=_cmd_fig2)

    t1 = sub.add_parser("tab1", help="Co-NNT vs MST quality (Sec. VII)")
    t1.add_argument("--ns", type=int, nargs="+", default=[1000, 5000])
    t1.add_argument("--seed", type=int, default=0)
    t1.set_defaults(func=_cmd_tab1)

    t52 = sub.add_parser("thm52", help="giant-component empirics (Thm 5.2)")
    t52.add_argument("--ns", type=int, nargs="+", default=[500, 1000, 2000, 4000])
    t52.add_argument("--c1", type=float, default=1.4)
    t52.add_argument("--seed", type=int, default=0)
    t52.set_defaults(func=_cmd_thm52)

    lb = sub.add_parser("lb", help="lower-bound constants (Sec. IV)")
    lb.add_argument("--ns", type=int, nargs="+", default=[500, 1000, 2000])
    lb.add_argument("--seed", type=int, default=0)
    lb.set_defaults(func=_cmd_lb)

    td = sub.add_parser(
        "trace-diff",
        help="report the first divergent event between two trace JSONL files",
    )
    td.add_argument("left")
    td.add_argument("right")
    td.add_argument(
        "--context",
        type=int,
        default=3,
        help="agreed-upon events to print before the divergence",
    )
    td.set_defaults(func=_cmd_trace_diff)

    fz = sub.add_parser(
        "fuzz",
        help="stateful protocol fuzzing: corpus replay + hypothesis machines",
    )
    fz.add_argument(
        "--machine",
        choices=["ghs", "retry", "connt", "maint", "all"],
        default="all",
        help="which state machine(s) to run",
    )
    fz.add_argument(
        "--examples", type=int, default=20, help="hypothesis examples per machine"
    )
    fz.add_argument(
        "--steps", type=int, default=30, help="max rule applications per example"
    )
    fz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="scenario-offset seed (runs stay deterministic per seed)",
    )
    fz.add_argument(
        "--corpus",
        default=None,
        help="directory of saved counterexample scenarios to replay first",
    )
    fz.add_argument(
        "--out",
        default="fuzz-failure",
        help="directory for counterexample artifacts on failure",
    )
    fz.set_defaults(func=_cmd_fuzz)

    sv = sub.add_parser(
        "serve",
        help="HTTP run service: submit RunSpecs over the wire, results "
        "memoized through the store",
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument(
        "--port",
        type=int,
        default=8177,
        help="bind port (0 picks an ephemeral port and prints it)",
    )
    sv.add_argument(
        "--cache-path",
        default=None,
        help="result-store database (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    sv.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a result store (every submission recomputes)",
    )
    sv.add_argument(
        "--backend",
        choices=["serial", "process"],
        default="process",
        help="engine fan-out backend for submitted runs",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: CPU count)",
    )
    sv.set_defaults(func=_cmd_serve, spec_managed=True)

    rd = sub.add_parser("render", help="SVG of an instance with MST + NNT")
    rd.add_argument("-n", type=int, default=300)
    rd.add_argument("--seed", type=int, default=0)
    rd.add_argument("-o", "--output", default="instance.svg")
    rd.set_defaults(func=_cmd_render)

    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "spec_managed", False):
        # Spec-managed commands record perf/trace through the engine's
        # isolated snapshot lifecycle instead of the global wrapper.
        return args.func(args)
    want_perf = getattr(args, "perf", False)
    trace_out = getattr(args, "trace", None)
    if not want_perf and trace_out is None:
        return args.func(args)
    # Reset at the run boundary: repeated in-process invocations (tests,
    # notebooks) must not accumulate a previous run's numbers.
    if want_perf:
        from repro.perf import perf

        perf.reset()
        perf.enable()
    if trace_out is not None:
        from repro.trace import trace

        trace.reset()
        trace.enable()
    try:
        rc = args.func(args)
    finally:
        if want_perf:
            perf.disable()
        if trace_out is not None:
            trace.disable()
    if trace_out is not None:
        from repro.experiments.report import format_phase_summary

        path = trace.export_jsonl(trace_out)
        print(f"\ntrace: {len(trace.events)} events -> {path}")
        print(format_phase_summary(trace.events))
    if want_perf:
        print("\nperf report:")
        print(perf.report())
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
