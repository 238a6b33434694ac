"""The one execution engine under the CLI, sweeps and benchmarks.

:func:`execute` turns a :class:`~repro.runspec.spec.RunSpec` into a
:class:`~repro.runspec.report.RunReport`: it resolves the algorithm
through the registry, derives the instance from ``(n, seed)`` via the
shared per-process cache, validates capability flags (fault recovery,
legacy kernel) and owns the perf/trace reset–enable–snapshot lifecycle
that used to be duplicated between ``cli.py`` and
``experiments/parallel.py``.  Instrumentation requested by the spec is
*isolated*: whatever the ambient process registries held before the call
is saved and restored, so a spec-managed run can record its own snapshot
inside a larger instrumented session without clobbering it.

Passing a :class:`~repro.store.ResultStore` memoizes: a spec whose
result key (:meth:`RunSpec.result_key` — the content hash minus the
perf/trace switches) is already stored returns the persisted report
without running anything, and a fresh run is written back.  Every run is
deterministic, so the cached payload is byte-for-byte what the run would
have produced (pinned by ``tests/test_store.py`` and the
``bench_run_cache`` golden gate).

:func:`execute_batch` is the one fan-out path.  ``backend="serial"``
executes in-process; ``backend="process"`` ships each spec to a worker as
its serialized dict (small, self-describing task payloads — the worker
re-derives the instance from the seed through its own per-process
cache, as a serial run does) and returns the reports in spec order.  Two
batch-level optimizations sit in front of the fan-out:

* **store consult** — with a store attached, cached specs are answered
  before any task is shipped; only the misses fan out.
* **singleflight dedupe** — positions holding an identical spec (same
  :meth:`~RunSpec.spec_hash`) are computed once and the report fanned
  back to every position, preserving spec order.

One :class:`~concurrent.futures.ProcessPoolExecutor` stays alive at
module level across batches (spawning workers pays interpreter start-up
and a cold instance cache otherwise) and is reused as long as it is at
least as large as the requested worker count; :func:`shutdown` tears it
down, and an ``atexit`` hook reaps it at interpreter exit.  When the
host cannot spawn a process pool at all (sandboxed CI, locked-down
containers), the batch degrades to the serial backend with a single
:class:`RuntimeWarning` **per process** instead of raising — every cell
is deterministic, so the results are identical, only slower.  A long-lived server fanning every request
through here would otherwise log the same warning once per request;
after the first warning the degraded state is surfaced through
:func:`pool_state` (the serve layer exposes it in ``/stats``) rather
than the warnings stream.  Pool lifecycle is guarded by a module lock
so concurrent submitters (serve worker threads) cannot double-spawn or
tear down a pool another batch is using.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Iterable

from repro.errors import ExperimentError
from repro.perf import perf
from repro.runspec.registry import AlgorithmEntry, get
from repro.runspec.report import RunReport
from repro.runspec.spec import RunSpec
from repro.trace import trace

__all__ = [
    "execute", "execute_batch", "dispatch", "pool_state", "shutdown", "warm_pool",
]

#: Batch backends accepted by :func:`execute_batch`.
BACKENDS = ("serial", "process")


def dispatch(entry: AlgorithmEntry, points, spec: RunSpec):
    """Run ``entry`` on explicit ``points`` under ``spec``'s knobs.

    The capability checks live here — one place — so every spec reaching
    a runner is rejected with the same errors for unsupported
    combinations.
    """
    if spec.kernel != "fast" and not entry.supports_kernel_mode:
        raise ExperimentError(
            f"{entry.name} does not support kernel={spec.kernel!r}; "
            f"only the GHS family accepts alternate kernel backends"
        )
    if (
        spec.faults is not None
        and not spec.faults.is_null
        and not entry.supports_faults
    ):
        raise ExperimentError(
            f"{entry.name} has no fault-recovery layer; "
            "run it without --drop-rate/--crash"
        )
    if (
        spec.scenario is not None
        and not spec.scenario.is_null
        and not entry.supports_scenario
    ):
        raise ExperimentError(
            f"{entry.name} does not interpret scenario plans; "
            "run schedules through the MAINT workload"
        )
    return entry.adapter(points, spec)


def execute(spec: RunSpec, *, store=None) -> RunReport:
    """Execute one spec and return its full report.

    Bit-identical to calling the underlying runner directly with the
    spec's constants (pinned by ``tests/test_runspec.py``): the engine is
    plumbing, not behavior.  With ``store`` a cached result short-
    circuits the run entirely and a fresh result is persisted; a store
    failure is never allowed to fail the run (the store degrades to
    inert and the run proceeds uncached).
    """
    # Imported lazily: experiments.instances sits above the algorithm
    # layer, whose runner modules import this package to self-register.
    from repro.experiments.instances import get_points

    if store is not None:
        cached = store.get_report(spec)
        if cached is not None:
            perf.add("engine.store_hits")
            return cached
        perf.add("engine.store_misses")
    entry = get(spec.algorithm)
    pts = get_points(spec.n, spec.seed)
    # Each registry records the run alone; the ambient state of a larger
    # instrumented session is restored on exit, also when the run raises.
    with ExitStack() as stack:
        pcap = stack.enter_context(perf.isolated()) if spec.perf else None
        tcap = stack.enter_context(trace.isolated()) if spec.trace else None
        result = dispatch(entry, pts, spec)
    report = RunReport(
        spec=spec,
        result=result,
        perf=pcap.data if pcap is not None else None,
        trace=tcap.data if tcap is not None else None,
    )
    if store is not None:
        store.put_report(report)
    return report


# -- process backend ---------------------------------------------------------

#: The module-level pool reused across batches (lazily created).
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0

#: Guards the pool globals: concurrent batches from serve worker threads
#: must not double-spawn the pool or shut one down mid-``map``.
_pool_lock = threading.RLock()

#: Set after the first pool-unavailable fallback; later fallbacks stay
#: silent (the degraded state is queryable via :func:`pool_state`).
_fallback_warned = False

#: Exceptions that mean "the pool machinery is unusable", as opposed to a
#: worker raising from inside a run: spawn failures surface as OSError
#: (EPERM/ENOSYS under sandboxes), missing multiprocessing primitives as
#: ImportError/NotImplementedError, and a dead pool as BrokenProcessPool.
_POOL_FAILURES = (BrokenProcessPool, OSError, ImportError, NotImplementedError)


def _executor(workers: int) -> ProcessPoolExecutor:
    """The shared pool, reused whenever it is big enough.

    A pool with *more* workers than requested serves the batch fine (the
    extras idle), so only growth forces a respawn.  Recreating on every
    size change made alternating sweeps — a wide scaling pass followed by
    a narrow fault grid — pay worker start-up and a cold instance cache
    twice per alternation.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < workers:
            shutdown()
            _pool = ProcessPoolExecutor(max_workers=workers)
            _pool_workers = workers
        return _pool


def shutdown() -> None:
    """Tear down the shared pool (idempotent; next batch respawns it)."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None
            _pool_workers = 0


def warm_pool(workers: int | None = None) -> None:
    """Start the shared pool's workers now.

    Under the ``fork`` start method the first submit launches every
    worker, so one no-op round trip starts them all.  A server calls this
    before it accepts connections, so its workers hold no copy of a
    client socket and ``/stats`` reports a live pool from start-up.  A
    host that cannot spawn a pool is left to the batch path, which
    degrades to serial (warn-once).
    """
    if workers is None:
        workers = os.cpu_count() or 1
    try:
        _executor(workers).submit(os.getpid).result()
    except _POOL_FAILURES:
        shutdown()


def pool_state() -> dict:
    """A snapshot of the shared pool for health surfaces (``/stats``).

    ``serial_fallback`` stays ``True`` for the life of the process once
    a batch has degraded — the warn-once policy means the warnings
    stream only ever says it once, so this flag is the durable signal.
    """
    with _pool_lock:
        return {
            "alive": _pool is not None,
            "workers": _pool_workers,
            "serial_fallback": _fallback_warned,
        }


# A process that batches and exits without calling shutdown() would leak
# the worker processes until interpreter teardown reaps them (and under
# some start methods hang joining them).
atexit.register(shutdown)


def _execute_task(task: dict) -> RunReport:
    """Worker: one serialized spec -> its report.

    Module-level so it pickles under the spawn start method.  The task is
    the spec's JSON dict — small and self-describing; the worker derives
    the instance through its per-process cache and, because the spec
    carries the perf/trace switches, records isolated snapshots that ship
    back inside the report for the parent to merge.
    """
    return execute(RunSpec.from_dict(task))


def _chunksize(n_tasks: int, workers: int, align: int) -> int:
    """Adaptive ``pool.map`` chunksize.

    A multiple of ``align`` (e.g. the number of algorithms per sweep
    cell, so a chunk never splits a cell across workers and one chunk
    shares one cached instance build), aiming at ~4 chunks per worker to
    balance scheduling overhead against tail latency.
    """
    align = max(1, align)
    target = math.ceil(n_tasks / (workers * 4))
    return max(align, align * math.ceil(target / align))


def execute_batch(
    specs: Iterable[RunSpec],
    *,
    backend: str = "serial",
    workers: int | None = None,
    chunk_align: int = 1,
    store=None,
) -> list[RunReport]:
    """Execute many specs; reports come back in spec order.

    Parameters
    ----------
    specs:
        The run requests.  Order is preserved — report ``i`` belongs to
        spec ``i`` — so callers can merge instrumentation deterministically.
        Positions holding an identical spec are computed once
        (singleflight) and the one report fanned back to each of them.
    backend:
        ``"serial"`` runs in-process; ``"process"`` fans out over the
        shared process pool (falling back to serial, with one warning
        per process, when the host cannot spawn a pool).
    workers:
        Pool size for the process backend; defaults to the CPU count.
    chunk_align:
        Chunk-size alignment for the process backend (see
        :func:`_chunksize`).
    store:
        Optional :class:`~repro.store.ResultStore`.  Cached specs are
        answered before any fan-out; fresh results are written back.
    """
    specs = list(specs)
    if backend not in BACKENDS:
        raise ExperimentError(
            f"unknown batch backend {backend!r}; expected one of {BACKENDS}"
        )
    if not specs:
        return []

    # Singleflight: collapse identical positions to one computation per
    # distinct spec hash, keeping first-appearance order for the fan-out
    # (so chunk alignment still sees cell-major runs of the sweep).
    order: dict[str, int] = {}
    unique: list[RunSpec] = []
    slots: list[int] = []
    for spec in specs:
        h = spec.spec_hash()
        at = order.get(h)
        if at is None:
            at = order[h] = len(unique)
            unique.append(spec)
        slots.append(at)
    if len(unique) < len(specs):
        perf.add("engine.batch_deduped", len(specs) - len(unique))

    # Store consult: answer what we can before shipping anything.
    reports: list[RunReport | None] = [None] * len(unique)
    if store is not None:
        for i, spec in enumerate(unique):
            cached = store.get_report(spec)
            if cached is not None:
                perf.add("engine.store_hits")
                reports[i] = cached
            else:
                perf.add("engine.store_misses")
    todo = [i for i in range(len(unique)) if reports[i] is None]

    if todo:
        fresh = _run_batch(
            [unique[i] for i in todo], backend, workers, chunk_align
        )
        for i, report in zip(todo, fresh):
            reports[i] = report
            if store is not None:
                store.put_report(report)
    return [reports[at] for at in slots]


def _run_batch(
    specs: list[RunSpec], backend: str, workers: int | None, chunk_align: int
) -> list[RunReport]:
    """Fan ``specs`` (already deduped, all misses) out on ``backend``."""
    if backend == "serial":
        return [execute(s) for s in specs]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ExperimentError(f"workers must be >= 1, got {workers}")

    tasks = [s.to_dict() for s in specs]
    chunksize = _chunksize(len(tasks), workers, chunk_align)
    try:
        pool = _executor(workers)
        return list(pool.map(_execute_task, tasks, chunksize=chunksize))
    except _POOL_FAILURES as exc:
        # The pool machinery itself is unusable (sandboxed CI, broken
        # workers).  Every cell is deterministic, so degrading to the
        # serial backend changes nothing but wall-clock; a genuine
        # per-run error re-raises from the serial execute() below.
        shutdown()
        global _fallback_warned
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "falling back to the serial backend "
                "(warned once per process; see pool_state())",
                RuntimeWarning,
                stacklevel=2,
            )
        return [execute(s) for s in specs]
    except BaseException:
        # A worker crash or interrupt may leave the shared pool unusable;
        # drop it so the next batch starts clean.
        shutdown()
        raise
