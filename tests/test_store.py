"""Tests for the content-addressed run cache: spec hashing, the sqlite
result store, engine memoization and the batch singleflight dedupe."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.errors import ExperimentError
from repro.runspec import RunReport, RunSpec, execute, execute_batch
from repro.store import DEFAULT_MAX_BYTES, ResultStore, default_store_path


def make_store(tmp_path, **kwargs) -> ResultStore:
    return ResultStore(tmp_path / "results.sqlite", **kwargs)


class TestSpecHash:
    def test_hash_is_deterministic_and_content_addressed(self):
        a = RunSpec(algorithm="GHS", n=100, seed=3)
        b = RunSpec(algorithm="GHS", n=100, seed=3)
        assert a.spec_hash() == b.spec_hash()
        assert len(a.spec_hash()) == 64
        assert a.spec_hash() != RunSpec(algorithm="GHS", n=100, seed=4).spec_hash()
        assert a.spec_hash() != RunSpec(algorithm="MGHS", n=100, seed=3).spec_hash()

    def test_instrumentation_changes_spec_hash_not_result_key(self):
        bare = RunSpec(algorithm="GHS", n=100)
        instrumented = bare.with_(perf=True, trace=True)
        assert bare.spec_hash() != instrumented.spec_hash()
        assert bare.result_key() == instrumented.result_key()
        assert bare.result_key() != bare.spec_hash()

    def test_result_key_still_sees_semantic_fields(self):
        base = RunSpec(algorithm="GHS", n=100)
        assert base.result_key() != base.with_(rx_cost=0.5).result_key()
        assert base.result_key() != base.with_(kernel="legacy").result_key()

    def test_report_stored_under_turbo_alias_loads(self):
        from repro.runspec.spec import _canonical_hash

        spec = RunSpec(algorithm="MGHS", n=60, seed=2)
        data = execute(spec).to_dict()
        data["spec"]["kernel"] = "turbo"  # as written before the alias
        data["spec_hash"] = _canonical_hash(data["spec"])
        assert RunReport.from_dict(data).spec == spec
        data["spec_hash"] = spec.spec_hash()  # stamp of a different payload
        with pytest.raises(ExperimentError, match="spec_hash stamp"):
            RunReport.from_dict(data)

    def test_report_payload_stamped_and_validated(self):
        spec = RunSpec(algorithm="Co-NNT", n=60)
        report = execute(spec)
        data = report.to_dict()
        assert data["spec_hash"] == spec.spec_hash()
        assert RunReport.from_dict(data).spec == spec
        data["spec_hash"] = "0" * 64
        with pytest.raises(ExperimentError, match="spec_hash stamp"):
            RunReport.from_dict(data)


class TestResultStore:
    def test_default_path_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_store_path() == tmp_path / "results.sqlite"

    def test_report_round_trip_is_byte_identical(self, tmp_path):
        spec = RunSpec(algorithm="GHS", n=80, seed=1)
        report = execute(spec)
        with make_store(tmp_path) as store:
            store.put_report(report)
            hit = store.get_report(spec)
        assert hit is not None
        assert hit.to_json() == report.to_json()

    def test_memoized_execute_skips_recompute(self, tmp_path):
        spec = RunSpec(algorithm="MGHS", n=80, seed=2)
        with make_store(tmp_path) as store:
            first = execute(spec, store=store)
            assert store.stats()["misses"] == 1
            again = execute(spec, store=store)
            assert store.stats()["hits"] == 1
            assert again.to_json() == first.to_json()

    def test_instrumented_and_bare_share_result_entry(self, tmp_path):
        bare = RunSpec(algorithm="GHS", n=70)
        instrumented = bare.with_(perf=True)
        with make_store(tmp_path) as store:
            report = execute(instrumented, store=store)
            assert report.perf is not None
            # The bare spec hits the instrumented entry, snapshot stripped.
            hit = store.get_report(bare)
            assert hit is not None
            assert hit.perf is None
            assert hit.result.stats.energy_total == report.result.stats.energy_total

    def test_missing_instrumentation_is_a_miss(self, tmp_path):
        bare = RunSpec(algorithm="GHS", n=70)
        with make_store(tmp_path) as store:
            execute(bare, store=store)
            # Asking for perf the stored payload never recorded: recompute.
            assert store.get_report(bare.with_(perf=True)) is None
            report = execute(bare.with_(perf=True), store=store)
            assert report.perf is not None
            # The overwrite upgraded the shared entry for both callers.
            assert store.get_report(bare.with_(perf=True)) is not None
            assert store.get_report(bare) is not None

    def test_corrupted_database_recovers_cold(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_bytes(b"this is definitely not a sqlite file" * 100)
        spec = RunSpec(algorithm="Co-NNT", n=50)
        store = ResultStore(path)
        assert store.get_report(spec) is None  # cold, not crashed
        report = execute(spec, store=store)
        assert store.get_report(spec).to_json() == report.to_json()
        store.close()

    def test_truncated_database_mid_life_never_crashes(self, tmp_path):
        path = tmp_path / "results.sqlite"
        spec = RunSpec(algorithm="Co-NNT", n=50)
        store = ResultStore(path)
        execute(spec, store=store)
        store.close()
        path.write_bytes(path.read_bytes()[:100])  # truncate the file
        store = ResultStore(path)
        # Either recovered cold or degraded inert — both answer None and
        # accept a fresh run without raising.
        assert store.get_report(spec) is None
        execute(spec, store=store)
        store.close()

    def test_unparseable_payload_dropped_as_miss(self, tmp_path):
        spec = RunSpec(algorithm="GHS", n=60)
        with make_store(tmp_path) as store:
            store.put(spec.result_key(), "{not json", algorithm="GHS", n=60)
            assert store.get_report(spec) is None
            assert store.stats()["entries"] == 0  # corrupt row dropped

    def test_prune_respects_byte_bound(self, tmp_path):
        with make_store(tmp_path, max_bytes=DEFAULT_MAX_BYTES) as store:
            payload = "x" * 1000
            for i in range(10):
                store.put(f"key{i}", payload)
            assert store.stats()["entries"] == 10
            # Touch the oldest entries so LRU order != insert order.
            store.get("key0")
            store.get("key1")
            store.prune(max_bytes=3000)
            stats = store.stats()
            assert stats["total_bytes"] <= 3000
            assert stats["entries"] == 3
            # The touched rows survived; the stale middle ones went.
            assert store.get("key0") is not None
            assert store.get("key1") is not None
            assert store.get("key5") is None

    def test_put_enforces_bound_inline(self, tmp_path):
        with make_store(tmp_path, max_bytes=2500) as store:
            for i in range(10):
                store.put(f"key{i}", "x" * 1000)
            assert store.stats()["total_bytes"] <= 2500

    def test_clear_drops_entries_keeps_counters(self, tmp_path):
        spec = RunSpec(algorithm="GHS", n=60)
        with make_store(tmp_path) as store:
            execute(spec, store=store)
            execute(spec, store=store)
            assert store.clear() == 1
            stats = store.stats()
            assert stats["entries"] == 0
            assert stats["hits"] == 1 and stats["misses"] == 1

    def test_counters_persist_across_reopen(self, tmp_path):
        path = tmp_path / "results.sqlite"
        spec = RunSpec(algorithm="GHS", n=60)
        with ResultStore(path) as store:
            execute(spec, store=store)
            execute(spec, store=store)
        with ResultStore(path) as store:
            stats = store.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert stats["entries"] == 1

    def test_stale_payload_schema_dropped(self, tmp_path):
        spec = RunSpec(algorithm="GHS", n=60)
        with make_store(tmp_path) as store:
            report = execute(spec, store=store)
            with sqlite3.connect(store.path) as conn:
                conn.execute("UPDATE results SET schema_version = 999")
            assert store.get_report(spec) is None
            assert store.stats()["entries"] == 0
            assert report is not None


class TestBatchCaching:
    def _counting_execute(self, monkeypatch):
        from repro.runspec import engine as engine_mod

        calls = []
        real = engine_mod.execute

        def counted(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(engine_mod, "execute", counted)
        return calls

    def test_in_batch_dedupe_preserves_spec_order(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        a = RunSpec(algorithm="GHS", n=60, seed=0)
        b = RunSpec(algorithm="Co-NNT", n=60, seed=0)
        specs = [a, b, a, a, b]
        reports = execute_batch(specs, backend="serial")
        assert len(calls) == 2  # singleflight: one compute per distinct spec
        assert [r.spec for r in reports] == specs
        assert reports[0].to_json() == reports[2].to_json() == reports[3].to_json()
        assert reports[1].to_json() == reports[4].to_json()

    def test_dedupe_keys_on_full_spec_hash(self, monkeypatch):
        calls = self._counting_execute(monkeypatch)
        bare = RunSpec(algorithm="GHS", n=60, seed=0)
        instrumented = bare.with_(perf=True)
        reports = execute_batch([bare, instrumented], backend="serial")
        assert len(calls) == 2  # same result key, but NOT the same run
        assert reports[0].perf is None
        assert reports[1].perf is not None

    def test_store_consulted_before_fanout(self, tmp_path, monkeypatch):
        spec = RunSpec(algorithm="GHS", n=60, seed=1)
        with make_store(tmp_path) as store:
            warmed = execute(spec, store=store)
            calls = self._counting_execute(monkeypatch)
            reports = execute_batch([spec, spec], backend="serial", store=store)
            assert calls == []  # answered from the store, nothing ran
            assert [r.to_json() for r in reports] == [warmed.to_json()] * 2

    def test_batch_misses_written_back(self, tmp_path):
        specs = [RunSpec(algorithm="GHS", n=60, seed=s) for s in (0, 1)]
        with make_store(tmp_path) as store:
            first = execute_batch(specs, backend="serial", store=store)
            assert store.stats()["entries"] == 2
            second = execute_batch(specs, backend="serial", store=store)
            assert [r.to_json() for r in first] == [r.to_json() for r in second]
            assert store.stats()["hits"] == 2

    def test_cached_process_batch_identical_to_fresh(self, tmp_path):
        from repro.runspec import shutdown

        specs = [
            RunSpec(algorithm=alg, n=80, seed=s)
            for alg in ("GHS", "MGHS")
            for s in (0, 1)
        ]
        with make_store(tmp_path) as store:
            shutdown()
            fresh = execute_batch(specs, backend="process", workers=2, store=store)
            warm = execute_batch(specs, backend="process", workers=2, store=store)
            shutdown()
            for a, b in zip(fresh, warm):
                assert a.to_json() == b.to_json()
            stats = store.stats()
            assert stats["hits"] == 4 and stats["misses"] == 4

    def test_degraded_store_never_fails_the_run(self, tmp_path, monkeypatch):
        spec = RunSpec(algorithm="GHS", n=60)
        store = make_store(tmp_path)
        # Make the database directory unwritable-after-close unrecoverable:
        # close the connection and point the store at an unopenable path.
        store.close()
        store.path = str(tmp_path)  # a directory: sqlite cannot open it
        report = execute(spec, store=store)
        assert report.result.stats.energy_total > 0
        assert store.stats().get("degraded", True) or store.stats()["entries"] == 0


class TestStorePayloadIsCanonicalJson:
    def test_stored_payload_equals_fresh_serialization(self, tmp_path):
        """The cache must hand back byte-for-byte what the engine would
        have produced — pinned here and by the bench golden gate."""
        spec = RunSpec(algorithm="MGHS", n=90, seed=5)
        fresh = execute(spec)
        with make_store(tmp_path) as store:
            store.put_report(fresh)
            payload = store.get(spec.result_key())
        assert payload == fresh.to_json(indent=None)
        assert json.loads(payload)["spec_hash"] == spec.spec_hash()


class _TouchOnDelete:
    """Connection proxy: just before the prune's DELETE reaches
    ``victim``, bump the row's recency — the exact interleave a
    concurrent ``get_report`` produces between the prune's LRU
    snapshot and its eviction."""

    def __init__(self, conn, victim: str):
        self._conn = conn
        self.victim = victim
        self.fired = False

    def execute(self, sql, params=()):
        if (
            not self.fired
            and sql.lstrip().startswith("DELETE")
            and params
            and params[0] == self.victim
        ):
            self.fired = True
            self._conn.execute(
                "UPDATE results SET last_used = last_used + 1000 WHERE key = ?",
                (self.victim,),
            )
        return self._conn.execute(sql, params)


class TestStoreConcurrency:
    """The serve layer shares one store across worker threads; these
    pin the fixes that make that safe (busy timeout + instance lock +
    ``check_same_thread=False`` + conditional prune deletes)."""

    def test_two_thread_hammer_no_locked_errors(self, tmp_path):
        """Before the fix this *silently lost every row*: the
        cross-thread ``sqlite3.ProgrammingError`` (a subclass of
        ``sqlite3.Error``) tripped the corruption ladder, which deleted
        the database files and degraded the store to inert."""
        import threading

        store = make_store(tmp_path)
        errors: list[BaseException] = []

        def worker(tid: int) -> None:
            try:
                for i in range(50):
                    key = f"k-{tid}-{i}"
                    store.put(key, "x" * 100, algorithm="GHS", n=10)
                    assert store.get(key) is not None
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        stats = store.stats()
        assert stats["entries"] == 100
        assert not stats.get("degraded")
        store.close()

    def test_hammer_with_report_round_trips(self, tmp_path):
        """Same hammer through the report API: concurrent put_report /
        get_report must stay byte-identical and lock-free."""
        import threading

        store = make_store(tmp_path)
        specs = [RunSpec(algorithm="GHS", n=40 + i) for i in range(4)]
        reports = [execute(s) for s in specs]
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                for _ in range(15):
                    for spec, report in zip(specs, reports):
                        store.put_report(report)
                        got = store.get_report(spec)
                        assert got is not None
                        assert got.to_json() == report.to_json()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.stats()["entries"] == len(specs)
        store.close()

    def test_prune_spares_concurrently_touched_row(self, tmp_path):
        """A row the LRU snapshot marked for eviction but a reader
        touched in between must survive the prune: the DELETE is
        conditional on the snapshot's ``(last_used, seq)``, and the
        loop re-snapshots to evict the next genuine victim instead."""
        with make_store(tmp_path) as store:
            for i in range(6):
                store.put(f"key{i}", "x" * 1000)
            proxy = _TouchOnDelete(store._conn, victim="key0")
            evicted = ResultStore._prune_locked(proxy, 3000)
            store._conn.commit()
            assert proxy.fired
            # The touched row survived; the next-oldest went instead.
            assert store.get("key0") is not None
            assert store.get("key1") is None
            assert evicted == 3
            stats = store.stats()
            assert stats["total_bytes"] <= 3000
            assert stats["entries"] == 3

    def test_prune_stops_when_every_candidate_is_touched(self, tmp_path):
        """If *every* candidate gets refreshed mid-prune, the loop must
        bail out instead of livelocking — pruning is advisory."""

        class _TouchAll(_TouchOnDelete):
            def execute(self, sql, params=()):
                if sql.lstrip().startswith("DELETE") and params:
                    self._conn.execute(
                        "UPDATE results SET last_used = last_used + 1000"
                        " WHERE key = ?",
                        (params[0],),
                    )
                return self._conn.execute(sql, params)

        with make_store(tmp_path) as store:
            for i in range(4):
                store.put(f"key{i}", "x" * 1000)
            evicted = ResultStore._prune_locked(
                _TouchAll(store._conn, victim=""), 1000
            )
            store._conn.commit()
            assert evicted == 0
            assert store.stats()["entries"] == 4
