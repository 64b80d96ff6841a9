"""Unit tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import list_experiments


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(["run", "eq22-spectral-covariance", "--seed", "3"])
        assert args.command == "run"
        assert args.experiments == ["eq22-spectral-covariance"]
        assert args.seed == 3

    def test_export_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "eq22-spectral-covariance"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_batch_command_parses(self):
        args = build_parser().parse_args(
            ["batch", "--batch-sizes", "1,8", "--branches", "3", "--samples", "32"]
        )
        assert args.command == "batch"
        assert args.batch_sizes == "1,8"
        assert args.branches == 3
        assert args.samples == 32

    def test_serve_command_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8437
        assert args.max_queue == 64
        assert args.dispatch_slots == 4
        assert not hasattr(args, "max_workers")

    def test_serve_command_parses_overrides(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--host", "0.0.0.0",
                "--port", "0",
                "--max-queue", "8",
                "--dispatch-slots", "2",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 0
        assert args.max_queue == 8
        assert args.dispatch_slots == 2

    def test_serve_rejects_degenerate_limits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--max-queue", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--dispatch-slots", "0"])


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in list_experiments():
            assert experiment_id in out

    def test_run_single_experiment(self, capsys):
        code = main(["run", "eq22-spectral-covariance"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eq22-spectral-covariance" in out
        assert "PASS" in out

    def test_run_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "does-not-exist"])

    def test_batch_runs_and_reports(self, capsys):
        code = main(["batch", "--batch-sizes", "1,4", "--samples", "16", "--repeats", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scaling-batch" in out
        assert "cache hits" in out

    def test_batch_rejects_malformed_sizes(self):
        with pytest.raises(SystemExit):
            main(["batch", "--batch-sizes", "1,x"])
        with pytest.raises(SystemExit):
            main(["batch", "--batch-sizes", "0,4"])

    def test_export_writes_report_and_csv(self, tmp_path, capsys):
        code = main(
            ["export", "eq23-spatial-covariance", "--output", str(tmp_path / "out")]
        )
        assert code == 0
        report = tmp_path / "out" / "eq23-spatial-covariance.txt"
        assert report.exists()
        assert "Eq. (23)" in report.read_text(encoding="utf8")

    def test_export_with_series_writes_csv(self, tmp_path):
        code = main(
            [
                "export",
                "doppler-autocorrelation",
                "--output",
                str(tmp_path / "series"),
            ]
        )
        assert code == 0
        csv_path = tmp_path / "series" / "doppler-autocorrelation.csv"
        assert csv_path.exists()
        assert csv_path.read_text(encoding="utf8").startswith("index,")


class TestVersionFlag:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_flag_parses_before_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0


class TestBackendOptionRemoved:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "eq22-spectral-covariance"],
            ["batch"],
            ["suite", "rayleigh-baseline"],
            ["serve"],
            ["shard", "--cache-dir", "cache"],
        ],
        ids=["run", "batch", "suite", "serve", "shard"],
    )
    def test_backend_flag_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestBatchCacheSummary:
    def test_batch_prints_cache_hit_miss_line(self, capsys):
        code = main(["batch", "--batch-sizes", "1,4", "--samples", "16", "--repeats", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decomposition cache:" in out
        assert "hit rate" in out


class TestCacheDirOption:
    @pytest.mark.parametrize(
        "argv",
        [["run", "eq22-spectral-covariance"], ["batch"], ["suite", "rayleigh-baseline"]],
    )
    def test_cache_dir_is_rejected_on_run_batch_and_suite(self, argv, tmp_path, capsys):
        # These commands build private memory-only caches, so a directory
        # flag would persist nothing.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--cache-dir", str(tmp_path)])
        assert "--cache-dir" in capsys.readouterr().err

    def test_doppler_batch_leaves_env_dir_empty(self, tmp_path, monkeypatch, capsys):
        # The library reads no REPRO_CACHE_DIR: the sweep's caches all stay
        # in memory.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["batch", "--doppler", "--batch-sizes", "1", "--points", "64",
             "--repeats", "1"]
        )
        assert code == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _served_cache_dir(monkeypatch, argv):
        """Run ``serve`` with ``run_server`` stubbed; return its session's cache_dir."""
        import repro.service.http as http_module

        seen = []
        monkeypatch.setattr(
            http_module,
            "run_server",
            lambda host, port, *, simulator, **kwargs: seen.append(simulator.cache_dir),
        )
        assert main(["serve", "--port", "0"] + argv) == 0
        (cache_dir,) = seen
        return cache_dir

    def test_serve_ignores_env_cache_dir(self, tmp_path, monkeypatch, capsys):
        # Only --cache-dir names a directory; without it serve is memory-only.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert self._served_cache_dir(monkeypatch, []) is None

    def test_serve_cache_dir_flag(self, tmp_path, monkeypatch, capsys):
        flag = tmp_path / "flag"
        assert self._served_cache_dir(monkeypatch, ["--cache-dir", str(flag)]) == str(flag)


class TestCacheSubcommand:
    def test_cache_command_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["cache", "stats", "--cache-dir", str(tmp_path)]
        )
        assert args.command == "cache"
        assert args.action == "stats"
        assert args.cache_dir == tmp_path

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])

    def test_stats_without_directory_errors(self, tmp_path, monkeypatch, capsys):
        # The environment names no directory: --cache-dir is required.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "stats"])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    @staticmethod
    def _populate_plans(tmp_path):
        import numpy as np

        from repro.engine import SimulationEngine, SimulationPlan

        matrix = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
        for scale in (1.0, 2.0):
            SimulationEngine(cache_dir=tmp_path).run(
                SimulationPlan.from_specs([scale * matrix], seed=1), 8
            )

    def test_stats_counts_compiled_plans(self, tmp_path, capsys):
        self._populate_plans(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compiled plans: 2 entries" in out
        # A fresh handle's memory tier is always empty, so it is not shown.
        assert "memory tier" not in out
        assert "decompositions" not in out and "filters" not in out

    def test_clear_removes_everything(self, tmp_path, capsys):
        self._populate_plans(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "compiled plans: 0 entries" in out


class TestBatchDopplerMode:
    def test_doppler_flags_parse(self):
        args = build_parser().parse_args(
            ["batch", "--doppler", "--fm", "0.1", "--points", "128"]
        )
        assert args.doppler is True
        assert args.fm == 0.1
        assert args.points == 128

    def test_doppler_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.doppler is False
        assert args.fm == 0.05
        assert args.points == 128

    def test_doppler_batch_runs_and_reports_filter_reuse(self, capsys):
        code = main(
            ["batch", "--doppler", "--batch-sizes", "1,4", "--points", "64",
             "--repeats", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scaling-doppler-batch" in out
        assert "doppler filters:" in out
        assert "entries served" in out

    def test_doppler_rejects_out_of_range_fm(self):
        with pytest.raises(SystemExit):
            main(["batch", "--doppler", "--fm", "0.6", "--repeats", "1"])

    def test_doppler_rejects_tiny_block(self):
        with pytest.raises(SystemExit):
            main(["batch", "--doppler", "--points", "4", "--repeats", "1"])


class TestFadingModelFlags:
    """``batch --model`` and the ``suite`` subcommand (the model zoo CLI)."""

    def test_batch_model_runs_and_reports(self, capsys):
        code = main(
            ["batch", "--batch-sizes", "1,4", "--samples", "16", "--repeats", "1",
             "--model", "rician", "--shape", "3.0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rician" in out

    def test_batch_model_missing_shape_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="fading.shape"):
            main(["batch", "--batch-sizes", "1", "--model", "nakagami"])

    def test_batch_unknown_model_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="fading.model"):
            main(["batch", "--batch-sizes", "1", "--model", "rice"])

    def test_batch_shape_without_model_rejected(self):
        with pytest.raises(SystemExit, match="--model"):
            main(["batch", "--batch-sizes", "1", "--shape", "2.0"])
        with pytest.raises(SystemExit, match="--model"):
            main(["batch", "--batch-sizes", "1", "--shadow-sigma", "3.0"])

    def test_batch_model_conflicts_with_doppler(self):
        with pytest.raises(SystemExit, match="snapshot"):
            main(["batch", "--doppler", "--model", "rician", "--shape", "2.0",
                  "--repeats", "1"])

    def test_suite_list_names_every_model(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("rayleigh", "rician", "nakagami", "weibull", "shadowed"):
            assert name in out

    def test_suite_runs_named_workload(self, capsys):
        code = main(["suite", "rician-los", "--samples", "64"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["suite"] == "rician-los"
        assert summary["n_samples"] == 64
        assert all(entry["fading"]["model"] == "rician" for entry in summary["entries"])

    def test_suite_unknown_name_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="workload error"):
            main(["suite", "no-such-suite"])

    def test_suite_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["suite"])
        workload = tmp_path / "w.json"
        workload.write_text("{}")
        with pytest.raises(SystemExit, match="exactly one"):
            main(["suite", "rician-los", "--file", str(workload)])

    def test_suite_file_errors_name_the_field(self, tmp_path):
        workload = tmp_path / "w.json"
        workload.write_text(json.dumps({
            "name": "bad", "n_samples": 8, "seed": 1,
            "fading": {"model": "weibull"},
            "entries": [{"powers": [1.0, 2.0], "rho": 0.5}],
        }))
        with pytest.raises(SystemExit, match="fading.shape"):
            main(["suite", "--file", str(workload)])
