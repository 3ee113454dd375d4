import json
import re

import numpy as np
import pytest
from pytest import approx

from levyspline.cli import (
    RunConfig,
    fmt,
    load_config,
    main,
    parse_benchmark_spec,
    parse_config,
    parse_dataset,
    write_dataset,
)
from levyspline.signals import eval_test_function, sample_grid


class TestParseDataset:
    def _write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "d.csv")
        x = np.linspace(0, 1, 7)
        y = np.sin(x) * 1e-7 + 1.0 / 3.0
        write_dataset(path, x, y)
        data = parse_dataset(path)
        assert np.array_equal(data.x, x)
        assert np.array_equal(data.y, y)

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            parse_dataset(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = self._write(tmp_path, "x,y\n0,1\n0.5,2,9\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_dataset(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self._write(tmp_path, "x,y\n0,one\n")
        with pytest.raises(ValueError, match="line 2: non-numeric"):
            parse_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = self._write(tmp_path, "x,y\n0,nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            parse_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = self._write(tmp_path, "x,y\n")
        with pytest.raises(ValueError, match="empty"):
            parse_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, "x,y\n0,1\n\n1,2\n")
        assert parse_dataset(path).n == 2

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            parse_dataset("/no/such/file.csv")

    def test_fmt_round_trips_doubles(self):
        for v in (1 / 3, 1e-300, 123456.789, -0.1):
            assert float(fmt(v)) == v


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.degrees == (0, 1, 2)
        assert cfg.iterations == 50000 and cfg.burn_in == 25000 and cfg.thin == 10
        assert (cfg.r, cfg.R, cfg.a_gamma, cfg.b_gamma) == (0.01, 0.01, 5.0, 1.0)
        assert (cfg.p_birth, cfg.p_death, cfg.p_relocate) == (0.4, 0.4, 0.2)

    def test_parse_overrides(self):
        cfg = parse_config("degrees = 0,2\nr = 100\niterations = 1000\n"
                           "burn_in = 100\nprior_only = true\n")
        assert cfg.degrees == (0, 2)
        assert cfg.r == 100.0
        assert cfg.prior_only is True
        assert cfg.thin == 10  # untouched default

    def test_comments_and_blanks(self):
        cfg = parse_config("# full comment\n\nseed = 7  # trailing\n")
        assert cfg.seed == 7

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'sigma'"):
            parse_config("sigma = 1\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_config("iterations = ten\n")

    def test_invalid_combination_caught_at_parse(self):
        with pytest.raises(ValueError):
            parse_config("iterations = 100\nburn_in = 100\n")
        with pytest.raises(ValueError):
            parse_config("p_birth = 0.9\n")  # moves no longer sum to 1

    @pytest.mark.parametrize("text, message", [
        ("r = nan", "r must be finite and positive, got nan"),
        ("R = inf", "R must be finite and positive, got inf"),
        ("a_gamma = inf", "a_gamma entries must be finite and positive"),
        ("b_gamma = nan", "b_gamma entries must be finite and positive"),
        ("p_birth = nan\np_death = 0.5\np_relocate = 0.5",
         "move probabilities must be finite, >= 0 and sum to 1, got (nan, 0.5, 0.5)"),
        ("seed = -1", "seed must be non-negative, got -1"),
    ], ids=["r-nan", "R-inf", "a_gamma-inf", "b_gamma-nan", "p_birth-nan", "seed-negative"])
    def test_malformed_numeric_setting_names_field(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text + "\n")

    def test_dump_round_trip(self):
        cfg = parse_config("degrees = 1,3\nr = 0.125\nbeta_sweep = true\n")
        assert parse_config(cfg.dump()) == cfg

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 3\niterations = 2000\nburn_in = 500\n")
        cfg = load_config(str(path), {"seed": 11})
        assert cfg.seed == 11 and cfg.iterations == 2000


class TestBenchmarkSpec:
    def test_published_blocks_settings(self):
        spec = parse_benchmark_spec(
            "function = blocks\nn = 128\nrsnr = 3\nreplicates = 10\n"
            "degrees = 0\nr = 0.01\nR = 0.01\na_gamma = 1\nb_gamma = 1\n"
            "iterations = 50000\nburn_in = 25000\nthin = 10\nthreshold = 2.0\n")
        assert spec.function == "blocks"
        assert spec.hyper.degrees == (0,)
        assert spec.hyper.r == 0.01 and spec.hyper.a_gamma == {0: 1.0}
        assert spec.threshold == 2.0

    def test_defaults_applied(self):
        spec = parse_benchmark_spec(
            "function = heavisine\nn = 128\nrsnr = 10\nreplicates = 2\ndegrees = 0,2\n")
        assert spec.iterations == 50000 and spec.burn_in == 25000 and spec.thin == 10
        assert spec.threshold is None and spec.base_seed == 0

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing fields"):
            parse_benchmark_spec("function = blocks\nn = 128\n")

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown test function"):
            parse_benchmark_spec(
                "function = steps\nn = 8\nrsnr = 3\nreplicates = 1\ndegrees = 0\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_benchmark_spec("widgets = 3\n")

    _SPEC = "function = heavisine\nn = 16\nrsnr = inf\nreplicates = 1\ndegrees = 0\n"

    def test_noiseless_rsnr_accepted(self):
        # `rsnr = inf` is the noiseless sentinel, not a malformed value
        assert parse_benchmark_spec(self._SPEC).rsnr == float("inf")

    @pytest.mark.parametrize("line, message", [
        ("r = nan", "r must be finite and positive, got nan"),
        ("R = inf", "R must be finite and positive, got inf"),
        ("a_gamma = inf", "a_gamma entries must be finite and positive"),
        ("b_gamma = nan", "b_gamma entries must be finite and positive"),
        ("threshold = nan", "threshold must be finite, got nan"),
        ("seed = -3", "seed must be non-negative, got -3"),
    ], ids=["r-nan", "R-inf", "a_gamma-inf", "b_gamma-nan", "threshold-nan",
            "seed-negative"])
    def test_malformed_numeric_setting_names_field(self, line, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_benchmark_spec(self._SPEC + line + "\n")


class TestSimulateCommand:
    def test_writes_data_and_truth(self, tmp_path, capsys):
        out = str(tmp_path / "blocks.csv")
        rc = main(["simulate", "blocks", "--n", "64", "--rsnr", "3",
                   "--seed", "5", "--out", out])
        assert rc == 0
        data = parse_dataset(out)
        assert data.n == 64
        truth_lines = (tmp_path / "blocks_truth.csv").read_text().splitlines()
        assert truth_lines[0] == "x,f"
        assert len(truth_lines) == 65
        f = np.array([float(l.split(",")[1]) for l in truth_lines[1:]])
        assert f == approx(eval_test_function("blocks", sample_grid(64)))

    def test_truth_identical_across_seeds(self, tmp_path):
        for seed in (1, 2):
            main(["simulate", "doppler", "--n", "32", "--seed", str(seed),
                  "--out", str(tmp_path / f"d{seed}.csv")])
        t1 = (tmp_path / "d1_truth.csv").read_text()
        t2 = (tmp_path / "d2_truth.csv").read_text()
        assert t1 == t2
        assert ((tmp_path / "d1.csv").read_text()
                != (tmp_path / "d2.csv").read_text())

    def test_rerun_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            main(["simulate", "bumps", "--n", "32", "--seed", "9",
                  "--out", str(tmp_path / name)])
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())

    def test_noiseless(self, tmp_path):
        out = str(tmp_path / "h.csv")
        main(["simulate", "heavisine", "--n", "16", "--rsnr", "inf", "--out", out])
        data = parse_dataset(out)
        assert data.y == approx(eval_test_function("heavisine", data.x))


class TestFitCommand:
    def _simulate(self, tmp_path, n=32):
        out = str(tmp_path / "data.csv")
        main(["simulate", "blocks", "--n", str(n), "--seed", "1", "--out", out])
        return out

    def test_outputs(self, tmp_path):
        data = self._simulate(tmp_path)
        prefix = str(tmp_path / "run")
        rc = main(["fit", data, "--out-prefix", prefix, "--iterations", "400",
                   "--burn-in", "100", "--thin", "4", "--degrees", "0",
                   "--seed", "2", "--save-trace"])
        assert rc == 0
        curve_lines = (tmp_path / "run_curve.csv").read_text().splitlines()
        assert curve_lines[0] == "x,mean,q025,q975"
        assert len(curve_lines) == 33
        for line in curve_lines[1:]:
            _, m, lo, hi = (float(p) for p in line.split(","))
            assert lo - 1e-12 <= m <= hi + 1e-12
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["retained"] == 75
        assert "sigma2" in summary and "0" in summary["J"]
        trace_lines = (tmp_path / "run_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "sample,sigma2,J_0,M_0"
        assert len(trace_lines) == 76

    def test_boundary_retains_one_sample(self, tmp_path):
        data = self._simulate(tmp_path)
        prefix = str(tmp_path / "one")
        rc = main(["fit", data, "--out-prefix", prefix, "--iterations", "110",
                   "--burn-in", "100", "--thin", "10", "--degrees", "0"])
        assert rc == 0
        summary = json.loads((tmp_path / "one_summary.json").read_text())
        assert summary["retained"] == 1

    def test_deterministic_byte_identical(self, tmp_path):
        data = self._simulate(tmp_path)
        for prefix in ("r1", "r2"):
            main(["fit", data, "--out-prefix", str(tmp_path / prefix),
                  "--iterations", "300", "--burn-in", "100", "--degrees", "0,1",
                  "--seed", "7", "--save-trace"])
        for suffix in ("_curve.csv", "_summary.json", "_trace.csv"):
            assert ((tmp_path / f"r1{suffix}").read_bytes()
                    == (tmp_path / f"r2{suffix}").read_bytes())

    def test_prior_only_summary_is_valid_json(self, tmp_path):
        # prior-only sigma^2 draws reach 1e300, whose squares overflow
        data = str(tmp_path / "data.csv")
        main(["simulate", "blocks", "--n", "128", "--rsnr", "3", "--seed", "5",
              "--out", data])
        prefix = str(tmp_path / "po")
        assert main(["fit", data, "--out-prefix", prefix, "--prior-only",
                     "--degrees", "0,1", "--seed", "9", "--iterations", "2000",
                     "--burn-in", "500", "--save-trace"]) == 0
        out = tmp_path / "resummarized.json"
        assert main(["summarize", prefix + "_trace.csv", "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        fitted = json.loads((tmp_path / "po_summary.json").read_text(),
                            parse_constant=reject)
        resummarized = json.loads(out.read_text(), parse_constant=reject)
        summaries = ([fitted["sigma2"]] + list(fitted["J"].values())
                     + list(fitted["M"].values()) + list(resummarized.values()))
        assert len(summaries) == 10
        assert all(np.isfinite(s["sd"]) for s in summaries)
        assert fitted["sigma2"]["sd"] > 1e200

    def test_grid_option(self, tmp_path):
        data = self._simulate(tmp_path)
        prefix = str(tmp_path / "g")
        main(["fit", data, "--out-prefix", prefix, "--iterations", "200",
              "--burn-in", "50", "--degrees", "0", "--grid", "201"])
        lines = (tmp_path / "g_curve.csv").read_text().splitlines()
        assert len(lines) == 202

    def test_config_moves_per_degree_changes_trace(self, tmp_path):
        # the config key reaches the sweep: two moves per degree make
        # another chain than the default one
        data = self._simulate(tmp_path)
        config = tmp_path / "two.txt"
        config.write_text("moves_per_degree = 2\n")
        for prefix, extra in (("one", []), ("two", ["--config", str(config)])):
            assert main(["fit", data, "--out-prefix", str(tmp_path / prefix),
                         "--iterations", "300", "--burn-in", "100", "--degrees", "0",
                         "--seed", "3", "--save-trace", *extra]) == 0
        one = (tmp_path / "one_trace.csv").read_text()
        two = (tmp_path / "two_trace.csv").read_text()
        assert one.splitlines()[0] == two.splitlines()[0]
        assert one != two

    @pytest.mark.parametrize("config, flags, message", [
        ("r = nan\n", [], "error: r must be finite and positive, got nan"),
        (None, ["--seed", "-1"], "error: seed must be non-negative, got -1"),
    ], ids=["config-r-nan", "seed-negative"])
    def test_malformed_setting_exits_1(self, tmp_path, capsys, config, flags, message):
        # rejected before the chain runs: no summary with a NaN is written
        data = self._simulate(tmp_path)
        if config is not None:
            (tmp_path / "bad.txt").write_text(config)
            flags = ["--config", str(tmp_path / "bad.txt"), *flags]
        rc = main(["fit", data, "--out-prefix", str(tmp_path / "bad"),
                   "--iterations", "200", "--burn-in", "50", "--degrees", "0", *flags])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad_summary.json").exists()

    def test_degrees_flag_parsed_as_config_line(self, tmp_path, capsys):
        # `--degrees` and a `degrees =` line go through one parser
        data = self._simulate(tmp_path)
        config = tmp_path / "deg.txt"
        config.write_text("degrees = 0,,1,\n")
        common = ["--iterations", "200", "--burn-in", "50", "--seed", "3", "--dump-config"]
        for prefix, extra in (("flag", ["--degrees", "0,,1"]),
                              ("line", ["--config", str(config)])):
            assert main(["fit", data, "--out-prefix", str(tmp_path / prefix),
                         *common, *extra]) == 0
        flag = parse_config((tmp_path / "flag_config.txt").read_text())
        line = parse_config((tmp_path / "line_config.txt").read_text())
        assert flag.degrees == line.degrees == (0, 1)
        for suffix in ("_curve.csv", "_summary.json"):
            assert ((tmp_path / f"flag{suffix}").read_bytes()
                    == (tmp_path / f"line{suffix}").read_bytes())
        capsys.readouterr()
        assert main(["fit", data, "--out-prefix", str(tmp_path / "bad"),
                     "--degrees", "a"]) == 1
        assert ("config field 'degrees': cannot parse value 'a'"
                in capsys.readouterr().err)

    def test_dump_config_round_trips(self, tmp_path):
        data = self._simulate(tmp_path)
        prefix = str(tmp_path / "c")
        main(["fit", data, "--out-prefix", prefix, "--iterations", "200",
              "--burn-in", "50", "--degrees", "2", "--seed", "4",
              "--dump-config"])
        cfg = parse_config((tmp_path / "c_config.txt").read_text())
        assert cfg.degrees == (2,) and cfg.seed == 4 and cfg.iterations == 200

    def test_degenerate_data_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n" + "".join(f"{i/9},2.0\n" for i in range(10)))
        rc = main(["fit", str(path), "--out-prefix", str(tmp_path / "f"),
                   "--iterations", "100", "--burn-in", "10", "--degrees", "0"])
        assert rc == 1
        assert "hint" in capsys.readouterr().err

    def test_input_not_mutated(self, tmp_path):
        data = self._simulate(tmp_path)
        before = open(data, "rb").read()
        main(["fit", data, "--out-prefix", str(tmp_path / "m"),
              "--iterations", "150", "--burn-in", "50", "--degrees", "0"])
        assert open(data, "rb").read() == before

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["fit", str(tmp_path / "none.csv"),
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_small_benchmark(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "function = blocks\nn = 32\nrsnr = 3\nreplicates = 2\ndegrees = 0\n"
            "iterations = 300\nburn_in = 100\nthin = 4\nthreshold = 50\n")
        out = str(tmp_path / "table.csv")
        rc = main(["benchmark", str(spec), "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("function,n,rsnr,degrees,replicates,mean_mse")
        assert len(lines) == 2
        assert ",pass" in lines[1] or ",fail" in lines[1]

    def test_json_format(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "function = blocks\nn = 16\nrsnr = 3\nreplicates = 1\ndegrees = 0\n"
            "iterations = 200\nburn_in = 50\nthin = 2\n")
        out = str(tmp_path / "table.json")
        assert main(["benchmark", str(spec), "--out", out, "--format", "json"]) == 0
        rows = json.loads(open(out).read())
        assert len(rows) == 1 and rows[0]["function"] == "blocks"

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("function = blocks\n")
        rc = main(["benchmark", str(spec), "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "missing fields" in capsys.readouterr().err


class TestSummarizeCommand:
    def test_round_trip_with_fit_trace(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["simulate", "blocks", "--n", "32", "--seed", "1", "--out", data])
        prefix = str(tmp_path / "s")
        main(["fit", data, "--out-prefix", prefix, "--iterations", "300",
              "--burn-in", "100", "--thin", "2", "--degrees", "0",
              "--save-trace"])
        out = str(tmp_path / "summary.json")
        rc = main(["summarize", prefix + "_trace.csv", "--out", out])
        assert rc == 0
        recomputed = json.loads(open(out).read())
        original = json.loads(open(prefix + "_summary.json").read())
        assert recomputed["sigma2"]["mean"] == approx(original["sigma2"]["mean"])
        assert recomputed["J_0"]["mean"] == approx(original["J"]["0"]["mean"])

    def test_stdout_when_no_out(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("sample,sigma2\n0,1.0\n1,3.0\n")
        assert main(["summarize", str(trace)]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["sigma2"]["mean"] == approx(2.0)

    def test_ragged_trace_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("sample,sigma2\n0,1.0,9\n")
        assert main(["summarize", str(trace)]) == 1
        assert "ragged" in capsys.readouterr().err

    def test_header_only_trace_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("sample,sigma2,J_0,M_0\n")
        assert main(["summarize", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: {trace}: no samples\n"

    def test_non_numeric_cell_reports_line(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("sample,sigma2\n0,1.0\n1,abc\n")
        assert main(["summarize", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: {trace}: line 3: non-numeric value\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, capsys, cell):
        # the summary would print `NaN`/`Infinity`, which is not JSON
        trace = tmp_path / "t.csv"
        trace.write_text(f"sample,sigma2\n0,1.0\n1,{cell}\n")
        assert main(["summarize", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {trace}: line 3: non-finite value\n"
        assert captured.out == ""
