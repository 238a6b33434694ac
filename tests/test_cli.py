"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "EOPT"])
        assert args.algorithm == "EOPT"
        assert args.n == 500

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "DIJKSTRA"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "Co-NNT", "-n", "80", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Co-NNT" in out
        assert "CONNECTION" in out

    def test_run_perf_flag_prints_report(self, capsys):
        assert main(["run", "MGHS", "-n", "120", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "perf report:" in out
        assert "timers:" in out
        assert "mghs.hello" in out
        # The flag must not leave the global registry switched on.
        from repro.perf import perf

        assert not perf.enabled

    def test_run_without_perf_flag_prints_no_report(self, capsys):
        assert main(["run", "MGHS", "-n", "120"]) == 0
        assert "perf report:" not in capsys.readouterr().out

    def test_kernels_lists_backends_and_alias(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "fast" in out and "legacy" in out
        assert "alias: turbo -> fast" in out
        assert "layout" not in out

    def test_run_accepts_turbo_alias(self, capsys):
        assert main(["run", "MGHS", "-n", "120", "--kernel", "turbo"]) == 0
        aliased = capsys.readouterr().out
        assert main(["run", "MGHS", "-n", "120"]) == 0
        assert aliased == capsys.readouterr().out

    def test_fig3a(self, capsys):
        assert main(["fig3a", "--max-n", "100"]) == 0
        out = capsys.readouterr().out
        assert "E[GHS]" in out and "Fig 3(a)" in out

    def test_fig3a_save_and_fig3b_load(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.json")
        assert main(["fig3a", "--max-n", "250", "--save", path]) == 0
        assert main(["fig3b", "--load", path, "--min-n", "50"]) == 0
        out = capsys.readouterr().out
        assert "slope" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "-n", "500"]) == 0
        assert "giant" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2", "-n", "400"]) == 0
        assert "Lemma 6.1" in capsys.readouterr().out

    def test_tab1(self, capsys):
        assert main(["tab1", "--ns", "500"]) == 0
        assert "CoNNT len" in capsys.readouterr().out

    def test_thm52(self, capsys):
        assert main(["thm52", "--ns", "300", "500"]) == 0
        assert "giant" in capsys.readouterr().out

    def test_lb(self, capsys):
        assert main(["lb", "--ns", "300"]) == 0
        assert "L_MST" in capsys.readouterr().out

    def test_render(self, capsys, tmp_path):
        out_path = str(tmp_path / "i.svg")
        assert main(["render", "-n", "50", "-o", out_path]) == 0
        assert (tmp_path / "i.svg").read_text().startswith("<svg")


class TestFaultFlags:
    def test_crash_spec_parsing(self):
        args = build_parser().parse_args(
            ["run", "MGHS", "--crash", "3:10", "--crash", "7:0:50"]
        )
        assert args.crash == [(3, 10, None), (7, 0, 50)]

    def test_bad_crash_spec_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MGHS", "--crash", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MGHS", "--crash", "3"])

    def test_run_with_drop_rate_prints_fault_table(self, capsys):
        assert (
            main(
                [
                    "run",
                    "MGHS",
                    "-n",
                    "150",
                    "--drop-rate",
                    "0.2",
                    "--fault-seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault plane:" in out
        assert "dropped" in out

    def test_run_without_fault_flags_prints_no_fault_table(self, capsys):
        assert main(["run", "MGHS", "-n", "120"]) == 0
        assert "fault plane:" not in capsys.readouterr().out

    def test_zero_rate_plan_prints_empty_table_message(self, capsys):
        """Satellite regression: a fault plan that drops nothing used to
        print a bare header row — misleading zeros-with-headers.  An
        explicit "(no deliveries ...)" line replaces it."""
        assert (
            main(["run", "MGHS", "-n", "100", "--crash", "0:100000"]) == 0
        )
        out = capsys.readouterr().out
        assert "fault plane:" in out
        assert "(no deliveries dropped, duplicated or crash-dropped)" in out
        assert "crash-dropped\n" not in out  # no orphaned header row


class TestTraceFlags:
    def test_run_trace_writes_jsonl_and_prints_summary(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        assert main(["run", "MGHS", "-n", "120", "--trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "events" in out
        assert "phase" in out and "fragments" in out
        from repro.trace import load_jsonl, trace

        events = load_jsonl(out_path)
        assert events and events[0]["ev"] == "run_start"
        # The flag must not leave the global registry switched on or full.
        assert not trace.enabled

    def test_trace_diff_identical_and_divergent(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["run", "MGHS", "-n", "100", "--trace", str(a)]) == 0
        assert main(["run", "MGHS", "-n", "100", "--trace", str(b)]) == 0
        capsys.readouterr()
        assert main(["trace-diff", str(a), str(b)]) == 0
        assert "traces identical" in capsys.readouterr().out
        assert main(["run", "MGHS", "-n", "100", "--seed", "1",
                     "--trace", str(b)]) == 0
        capsys.readouterr()
        assert main(["trace-diff", str(a), str(b)]) == 1
        assert "diverge at event" in capsys.readouterr().out

    def test_fuzz_smoke_with_corpus(self, capsys):
        assert main(["fuzz", "--machine", "retry", "--examples", "4",
                     "--steps", "12", "--corpus", "tests/corpus"]) == 0
        out = capsys.readouterr().out
        assert "machine retry: ok" in out
        assert "scenario(s) replayed" in out

    def test_fuzz_rejects_unknown_machine(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--machine", "nope"])


class TestSpecFlags:
    def test_emit_spec_writes_valid_json(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        argv = ["run", "MGHS", "-n", "100", "--seed", "2",
                "--emit-spec", str(spec_path)]
        assert main(argv) == 0
        assert "spec written to" in capsys.readouterr().out
        data = json.loads(spec_path.read_text())
        assert data["kind"] == "run_spec"
        assert data["schema_version"] == 1
        assert data["algorithm"] == "MGHS"
        assert data["n"] == 100 and data["seed"] == 2

    def test_spec_run_matches_flag_run(self, capsys, tmp_path):
        """`run --spec FILE` replays the emitted spec bit-identically:
        the printed stats are byte-for-byte the flag run's output."""
        spec_path = tmp_path / "spec.json"
        argv = ["run", "EOPT", "-n", "120", "--seed", "3"]
        assert main(argv + ["--emit-spec", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        flag_out = capsys.readouterr().out
        assert main(["run", "--spec", str(spec_path)]) == 0
        spec_out = capsys.readouterr().out
        assert spec_out == flag_out

    def test_spec_file_with_faults_round_trips(self, capsys, tmp_path):
        spec_path = tmp_path / "faulted.json"
        assert main(["run", "MGHS", "-n", "100", "--drop-rate", "0.1",
                     "--fault-seed", "1", "--emit-spec", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "fault plane:" in out

    def test_run_needs_algorithm_or_spec(self, capsys):
        assert main(["run"]) == 2
        assert "needs an algorithm label or --spec" in capsys.readouterr().err

    def test_malformed_spec_file_errors(self, tmp_path):
        from repro.errors import ExperimentError

        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "run_spec", "schema_version": 1, "nn": 5}')
        with pytest.raises(ExperimentError, match="unknown fields"):
            main(["run", "--spec", str(bad)])


class TestAlgorithmsCommand:
    def test_lists_every_registered_algorithm(self, capsys):
        from repro.runspec import algorithm_names

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "faults" in out and "summary" in out

    def test_unknown_algorithm_error_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "DIJKSTRA", "-n", "100"])
        err = capsys.readouterr().err
        assert "GHS" in err


class TestCacheCli:
    def test_emit_spec_prints_spec_hash(self, capsys, tmp_path):
        from repro.runspec import RunSpec

        spec_path = tmp_path / "spec.json"
        assert main(["run", "GHS", "-n", "80", "--seed", "4",
                     "--emit-spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        expected = RunSpec(algorithm="GHS", n=80, seed=4).spec_hash()
        assert f"spec_hash: {expected}" in out

    def test_run_cache_miss_then_hit(self, capsys, tmp_path):
        db = tmp_path / "cache.sqlite"
        argv = ["run", "GHS", "-n", "80", "--seed", "4",
                "--cache-path", str(db)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: miss (stored)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache: hit" in second
        # The cached stats block is byte-identical to the fresh one.
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("cache:")]
        assert strip(first) == strip(second)

    def test_cache_flag_uses_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "GHS", "-n", "80", "--cache"]) == 0
        assert "cache: miss (stored)" in capsys.readouterr().out
        assert (tmp_path / "results.sqlite").exists()

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        db = tmp_path / "cache.sqlite"
        assert main(["run", "GHS", "-n", "80", "--cache-path", str(db)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "1" in out
        assert main(["cache", "clear", "--store", str(db)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(db)]) == 0
        assert "entries             1" not in capsys.readouterr().out

    def test_cache_prune_honors_max_bytes(self, capsys, tmp_path):
        db = tmp_path / "cache.sqlite"
        for seed in range(4):
            assert main(["run", "GHS", "-n", "80", "--seed", str(seed),
                         "--cache-path", str(db)]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--store", str(db),
                     "--max-bytes", "1"]) == 0
        capsys.readouterr()
        from repro.store import ResultStore

        with ResultStore(db) as store:
            assert store.stats()["entries"] == 0
