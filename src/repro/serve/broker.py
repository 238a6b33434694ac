"""The job broker: dedupe, store consult, fan-out onto the engine.

:class:`InMemoryBroker` is the whole queue story today, kept behind the
small :class:`Broker` interface so a redis/NATS backend can drop in
later without touching the HTTP layer: the router only ever calls
``submit`` / ``get`` / ``cancel`` / ``stats``.

Three layers of "never compute twice" stack up, cheapest first:

1. **broker dedupe** — an in-flight or finished job with the same
   ``spec_hash`` is returned as-is (no second enqueue);
2. **store consult** — a :class:`~repro.store.ResultStore` hit resolves
   the job synchronously at submit time, before it ever touches the
   queue;
3. **engine singleflight** — identical specs racing past 1 and 2 (e.g.
   a FAILED job resubmitted while its retry is mid-compute) collapse
   inside :func:`~repro.runspec.engine.execute_batch`.

The dedupe-and-probe section of :meth:`InMemoryBroker.submit` runs with
**no awaits** — on a single-threaded event loop that makes
check-and-insert atomic, which is the whole concurrency argument for
"concurrent submissions of one spec singleflight to one execution".
The store probe is a blocking sqlite read on the loop thread; it is a
point lookup (milliseconds) and keeping it inside the atomic section is
exactly what prevents the probe/enqueue race.

Compute runs in a worker thread (``loop.run_in_executor``) so the loop
stays responsive; the thread fans onto the shared process pool via
``execute_batch(store=...)``.  One consumer task drains the queue —
parallelism lives *inside* the engine (the process pool), and a single
consumer also serializes the perf/trace registry surgery
:func:`~repro.runspec.engine.execute` performs around each run.
"""

from __future__ import annotations

import asyncio
from functools import partial

from repro.runspec import execute_batch
from repro.runspec.engine import warm_pool
from repro.runspec.spec import RunSpec
from repro.serve.jobs import CANCELLED, FAILED, QUEUED, Job

__all__ = ["Broker", "InMemoryBroker"]


class Broker:
    """Queue-backend interface the HTTP layer programs against."""

    async def start(self) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    def submit(self, spec: RunSpec) -> tuple[Job, bool]:
        """Route one spec; returns ``(job, created)``."""
        raise NotImplementedError

    def get(self, job_id: str) -> Job | None:
        raise NotImplementedError

    def cancel(self, job_id: str) -> bool:
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError


class InMemoryBroker(Broker):
    """Asyncio in-process broker over the shared engine and store.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.ResultStore`; consulted before
        enqueue and passed to the engine for write-back.  An unopenable
        store arrives here already degraded to inert — every probe
        misses and the broker just computes (the degradation matrix in
        docs/architecture.md).
    backend / workers / chunk_align:
        Forwarded to :func:`~repro.runspec.engine.execute_batch`.  The
        default ``"process"`` fans onto the shared pool; hosts that
        cannot spawn one degrade to serial inside the engine (warn-once
        — ``/stats`` surfaces the flag via ``pool_state``).
    """

    def __init__(
        self,
        *,
        store=None,
        backend: str = "process",
        workers: int | None = None,
        chunk_align: int = 1,
    ) -> None:
        self.store = store
        self.backend = backend
        self.workers = workers
        self.chunk_align = chunk_align
        self._jobs: dict[str, Job] = {}
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._consumer: asyncio.Task | None = None
        self._counters = {
            "submitted": 0,
            "deduped": 0,
            "store_resolved": 0,
            "computed": 0,
            "failed": 0,
            "cancelled": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start consuming; with the process backend, fork the pool first.

        Call before the HTTP server accepts connections, so no pool
        worker inherits a client socket (an inherited ``/events``
        connection would never see end of stream).
        """
        if self._consumer is None:
            if self.backend == "process":
                # Blocks the loop for one fork and round trip; nothing
                # is being served yet.
                warm_pool(self.workers)
            self._consumer = asyncio.ensure_future(self._consume())

    async def close(self) -> None:
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except (asyncio.CancelledError, Exception):
                pass
            self._consumer = None

    # -- submission (atomic: no awaits between check and insert) -----------

    def submit(self, spec: RunSpec) -> tuple[Job, bool]:
        """Route one spec; returns ``(job, created)``.

        ``created`` is ``False`` when an existing job absorbed the
        submission (dedupe).  FAILED and CANCELLED jobs do *not* absorb
        — a resubmit after failure is a fresh attempt.
        """
        self._counters["submitted"] += 1
        job_id = spec.spec_hash()
        job = self._jobs.get(job_id)
        if job is not None and job.state not in (FAILED, CANCELLED):
            self._counters["deduped"] += 1
            return job, False

        if self.store is not None:
            cached = self.store.get_report(spec)
            if cached is not None:
                job = Job(spec)
                payload = cached.to_json(indent=None)
                job.attach_report_events(
                    {"trace": cached.trace, "perf": cached.perf}
                )
                job.finish(payload, source="store")
                self._jobs[job_id] = job
                self._counters["store_resolved"] += 1
                return job, True

        job = Job(spec)
        self._jobs[job_id] = job
        self._queue.put_nowait(job)
        return job, True

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job.  Running compute cannot be interrupted
        (it lives in a thread over a process pool); terminal jobs are
        already settled.  Returns whether a cancellation happened."""
        job = self._jobs.get(job_id)
        if job is None or job.state != QUEUED:
            return False
        job.cancel()
        self._counters["cancelled"] += 1
        return True

    # -- the consumer ------------------------------------------------------

    async def _consume(self) -> None:
        loop = asyncio.get_event_loop()
        while True:
            job = await self._queue.get()
            if job.state != QUEUED:  # cancelled while waiting in queue
                continue
            job.mark_running()
            try:
                reports = await loop.run_in_executor(
                    None,
                    partial(
                        execute_batch,
                        [job.spec],
                        backend=self.backend,
                        workers=self.workers,
                        chunk_align=self.chunk_align,
                        store=self.store,
                    ),
                )
            except asyncio.CancelledError:
                # Broker shutdown mid-compute: leave the job RUNNING —
                # the report may still land in the store for next boot.
                raise
            except Exception as exc:  # noqa: BLE001 - job-scoped failure
                self._counters["failed"] += 1
                job.fail(f"{type(exc).__name__}: {exc}")
                continue
            report = reports[0]
            job.attach_report_events(
                {"trace": report.trace, "perf": report.perf}
            )
            job.finish(report.to_json(indent=None), source="computed")
            self._counters["computed"] += 1

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        by_state: dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "kind": "in-memory",
            "queue_depth": self._queue.qsize(),
            "jobs": len(self._jobs),
            "jobs_by_state": by_state,
            **self._counters,
        }
