"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "65536"])
        assert args.capacity_bytes == 65536
        assert args.line_size == 8

    def test_compare_flags(self):
        args = build_parser().parse_args(
            ["compare", "--stride", "16", "--t-m", "8"]
        )
        assert args.stride == 16
        assert args.t_m == 8

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8023
        assert args.workers is None
        assert args.cache_dir is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2",
             "--cache-dir", "/tmp/x"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.cache_dir == "/tmp/x"


class TestCommands:
    def test_design(self, capsys):
        assert main(["design", "131072"]) == 0
        out = capsys.readouterr().out
        assert "c = 13" in out
        assert "8191 lines" in out
        assert "claim holds" in out

    def test_compare(self, capsys):
        assert main(["compare", "--stride", "8", "--length", "1000",
                     "--c", "13", "--t-m", "16"]) == 0
        out = capsys.readouterr().out
        assert "PrimeMappedCache" in out
        assert "DirectMappedCache" in out

    def test_compare_capacity_warning(self, capsys):
        main(["compare", "--length", "4096", "--c", "7"])
        assert "capacity misses" in capsys.readouterr().out

    def test_subblock(self, capsys):
        assert main(["subblock", "300", "--c", "7"]) == 0
        out = capsys.readouterr().out
        assert "46 x 2" in out
        assert "collisions 0" in out

    def test_subblock_degenerate(self, capsys):
        assert main(["subblock", "254", "--c", "7"]) == 1
        assert "multiple" in capsys.readouterr().out

    def test_blocking(self, capsys):
        assert main(["blocking", "--t-m", "16"]) == 0
        out = capsys.readouterr().out
        assert "direct 8192" in out and "prime 8191" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_figures_simulated_flags_parse(self):
        args = build_parser().parse_args(
            ["figures", "--simulated", "fig7", "--seeds", "2",
             "--workers", "4"]
        )
        assert args.simulated and args.seeds == 2 and args.workers == 4

    def test_figures_simulated(self, capsys, monkeypatch, tmp_path):
        """--seeds and --base-seed override the registry job's params;
        its other params stay, and the figure job is assembled from the
        override's own point jobs."""
        from repro.experiments import simulated_figures

        seen = {}
        measured = []
        figure = simulated_figures.figure7_simulated(
            [8], block=64, reuse=2, seeds=1, blocks=1)

        def tiny_point(**point):
            measured.append(point)
            return 1.0

        def tiny(points, /, **params):
            seen.update(params)
            assert sorted(points.values()) == [1.0] * 30
            return figure

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(simulated_figures, "measure_point", tiny_point)
        monkeypatch.setattr(simulated_figures, "assemble_figure7", tiny)
        assert main(["figures", "--simulated", "fig7",
                     "--seeds", "2", "--workers", "1",
                     "--base-seed", "5"]) == 0
        assert seen == {"seeds": 2, "blocks": 4, "base_seed": 5}
        # 5 t_m values x 3 machines x 2 seeds, each its own job
        assert len(measured) == 30
        assert {point["seed"] for point in measured} == {
            5 * 1_000_003, 5 * 1_000_003 + 1}
        assert {point["blocks"] for point in measured} == {4}
        assert "fig7" in capsys.readouterr().out

    def test_figures_simulated_override_prints_its_own_figure(
            self, capsys, monkeypatch, tmp_path):
        """An override runs its own point jobs, and the figure they
        assemble is the one the in-process function measures."""
        from repro.experiments import figure7_simulated, render_figure

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figures", "--simulated", "fig7", "--seeds", "1",
                     "--workers", "2"]) == 0
        expected = render_figure(figure7_simulated(seeds=1, blocks=4))
        assert capsys.readouterr().out == expected + "\n\n"

    def test_figures_simulated_defaults_print_the_artifact(
            self, capsys, monkeypatch, tmp_path):
        from repro.orchestrate import RESULTS_DIR

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figures", "--simulated", "fig7", "--workers", "1"]) == 0
        expected = (RESULTS_DIR / "fig7_simulated.txt").read_text()
        assert capsys.readouterr().out == expected + "\n"

    def test_figures_simulated_unknown(self, capsys):
        assert main(["figures", "--simulated", "fig4"]) == 2
        assert "unknown simulated" in capsys.readouterr().out

    def test_figures_simulated_refuses_zero_seeds(self, capsys, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["figures", "--simulated", "fig7", "--seeds", "0"]) == 2
        assert "seeds must be in 1.." in capsys.readouterr().out

    def test_validate_small(self, capsys, monkeypatch, tmp_path):
        from repro.orchestrate import RESULTS_DIR

        committed = (RESULTS_DIR / "validation.txt").read_bytes()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["validate", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        # an override is a variant: the committed artifact stays
        assert (RESULTS_DIR / "validation.txt").read_bytes() == committed

    def test_validate_prints_the_artifact(self, capsys, monkeypatch,
                                          tmp_path):
        from repro.orchestrate import RESULTS_DIR

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["validate"]) == 0
        expected = (RESULTS_DIR / "validation.txt").read_text()
        assert capsys.readouterr().out == expected

    def test_report(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "report.md"
        assert main(["report", str(out)]) == 0
        text = out.read_text()
        assert "claims reproduced: 29/29" in text
        assert "FAIL" not in text
        assert "## fig11b" in text

    def test_fit(self, capsys, tmp_path):
        from repro.trace.patterns import multistride

        path = tmp_path / "t.trace"
        multistride(length=64, num_vectors=20, stride_modulus=128,
                    p_stride1=0.5, sweeps=2, seed=0).save(path)
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fitted VCM=" in out
        assert "model prediction" in out

    def test_fit_rejects_scalar_trace(self, capsys, tmp_path):
        from repro.trace.records import Trace

        path = tmp_path / "scalar.trace"
        Trace.from_addresses([3, 99, 7]).save(path)
        assert main(["fit", str(path)]) == 1
        assert "cannot fit" in capsys.readouterr().out


class TestCheckCommand:
    def test_all_claims_pass(self, capsys):
        assert main(["check", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "0 claim(s) failing" in out

    def test_unknown_figure(self, capsys):
        assert main(["check", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_claim_failure_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import checks

        def broken(result):
            return [checks.ClaimCheck(result.figure_id, "forced failure",
                                      False, "injected by test")]

        monkeypatch.setitem(checks.CHECKERS, "fig9", broken)
        assert main(["check", "fig9"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "FAILED: 1 claim(s) failing" in out

    def test_figures_claim_failure_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import checks

        def broken(result):
            return [checks.ClaimCheck(result.figure_id, "forced failure",
                                      False, "injected by test")]

        monkeypatch.setitem(checks.CHECKERS, "fig9", broken)
        assert main(["figures", "fig9"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


class TestVerifyCommand:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["verify", "--deep", "--seed", "7", "--json", "r.json"])
        assert args.deep and not args.quick
        assert args.seed == 7
        assert args.json == "r.json"

    def test_quick_and_deep_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--quick", "--deep"])

    def test_oracle_sweep_clean(self, capsys):
        assert main(["verify", "--quick", "--no-golden",
                     "--no-selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CLEAN" in out
        assert "oracle cache-batch" in out

    def test_json_artifact(self, capsys, tmp_path):
        import json

        path = tmp_path / "VERIFY_report.json"
        assert main(["verify", "--quick", "--no-golden", "--no-selfcheck",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["ok"] is True
        assert payload["mode"] == "quick"
        assert {o["oracle"] for o in payload["oracles"]} >= {
            "cache-batch", "machine-timing"}

    def test_unknown_mutation(self, capsys):
        assert main(["verify", "--mutate", "nonexistent-fault"]) == 2
        assert "unknown mutation" in capsys.readouterr().out

    def test_injected_mutation_exits_nonzero(self, capsys):
        assert main(["verify", "--quick",
                     "--mutate", "congruence-lost-solutions"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "verdict: FAILED" in out

    def test_bless_writes_baselines(self, capsys, monkeypatch, tmp_path):
        import repro.verify as verify

        def fake_bless():
            return [tmp_path / "figures.json"]

        monkeypatch.setattr(verify, "bless", fake_bless)
        assert main(["verify", "--bless"]) == 0
        assert "blessed" in capsys.readouterr().out


class TestSweepCommand:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "fig4", "--jobs", "2", "--force",
             "--cache-dir", "/tmp/c", "--json"])
        assert args.names == ["fig4"]
        assert args.jobs == 2 and args.force
        assert args.cache_dir == "/tmp/c" and args.json

    def test_list_prints_registry(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7-simulated" in out
        assert "-> results/reproduction_report.md" in out

    def test_unknown_job_rejected(self, capsys):
        assert main(["sweep", "nope", "--no-artifacts"]) == 2
        assert "unknown jobs" in capsys.readouterr().out

    def test_cold_then_warm_selection(self, capsys, tmp_path):
        base = ["sweep", "fig4", "fig5", "--cache-dir", str(tmp_path),
                "--jobs", "1", "--no-artifacts"]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "2 ran" in cold and "0 hit" in cold

        assert main(base) == 0
        warm = capsys.readouterr().out
        assert "2 hit" in warm and "0 ran" in warm
        assert "claims:" in warm and "pass (ok)" in warm

    def test_status_reports_cache_state(self, capsys, tmp_path):
        args = ["sweep", "fig4", "--cache-dir", str(tmp_path)]
        assert main([*args, "--status", "--no-artifacts"]) == 0
        assert "0/1 cached" in capsys.readouterr().out

        assert main([*args, "--no-artifacts"]) == 0
        capsys.readouterr()
        assert main([*args, "--status", "--no-artifacts"]) == 0
        out = capsys.readouterr().out
        assert "1/1 cached" in out and "to compute" in out

    def test_json_payload(self, capsys, tmp_path):
        import json

        assert main(["sweep", "fig4", "--cache-dir", str(tmp_path),
                     "--jobs", "1", "--no-artifacts", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["counts"]["ran"] == 1
        assert payload["claims"]["failed"] == 0
        assert payload["jobs"][0]["name"] == "fig4"
        assert len(payload["jobs"][0]["key"]) == 64

    def test_study_claims_are_counted(self, capsys, tmp_path):
        assert main(["sweep", "address-gen", "--cache-dir", str(tmp_path),
                     "--jobs", "1", "--no-artifacts"]) == 0
        assert "claims: 4/4 pass (ok)" in capsys.readouterr().out

    def test_failing_claim_exits_nonzero(self, capsys, tmp_path,
                                         monkeypatch):
        from repro.experiments import checks

        def broken(result):
            return [checks.ClaimCheck("address-gen", "forced failure",
                                      False, "injected by test")]

        monkeypatch.setitem(checks.CHECKERS, "address-gen", broken)
        assert main(["sweep", "address-gen", "--cache-dir", str(tmp_path),
                     "--jobs", "1", "--no-artifacts"]) == 1
        out = capsys.readouterr().out
        assert "address-gen: [FAIL] forced failure" in out
        assert "claims: 0/1 pass (FAILED)" in out

    def test_force_reruns_warm_cache(self, capsys, tmp_path):
        args = ["sweep", "fig4", "--cache-dir", str(tmp_path),
                "--jobs", "1", "--no-artifacts"]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--force"]) == 0
        assert "1 ran" in capsys.readouterr().out


    def test_smoke_runs_on_the_jobs_width(self, capsys, tmp_path,
                                          monkeypatch):
        import repro.orchestrate
        from repro.orchestrate.runlog import read_events

        # a one-job selection keeps the cold pass short
        monkeypatch.setattr(repro.orchestrate, "smoke_sweep",
                            lambda: ("fig4",))
        monkeypatch.setattr(repro.orchestrate, "RESULTS_DIR",
                            tmp_path / "results")
        log = tmp_path / "smoke.jsonl"
        main(["sweep", "--smoke", "--jobs", "2", "--log", str(log),
              "--cache-dir", str(tmp_path / "cache")])
        capsys.readouterr()
        events = read_events(log)
        starts = [e for e in events if e["event"] == "run_start"]
        assert [e["workers"] for e in starts] == [2, 2]
        ends = [e for e in events if e["event"] == "run_end"]
        assert [(e["ran"], e["hit"]) for e in ends] == [(1, 0), (0, 1)]


class TestDumpMarkdown:
    def test_dump_md_prints_reference(self, capsys):
        assert main(["--dump-md"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# CLI reference")
        for command in ("figures", "sweep", "report", "verify"):
            assert f"## `repro {command}`" in out
