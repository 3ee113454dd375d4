import argparse
import csv
import dataclasses
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys

import numpy as np
import pytest
from pytest import approx

from levyspline.cli import (
    RunConfig,
    _trace_summary,
    build_parser,
    fmt,
    main,
    parse_benchmark_spec,
    parse_config,
    parse_dataset,
    write_csv,
)
from levyspline.model import Hyperparams
from levyspline.sampler import ChainConfig, _quantiles, posterior_curve, run_chain
from levyspline.signals import eval_test_function, generate_dataset, sample_grid


class TestParseDataset:
    def _write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return str(path)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "d.csv")
        x = np.linspace(0, 1, 7)
        y = np.sin(x) * 1e-7 + 1.0 / 3.0
        write_csv(path, "x,y", x, y)
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

    def test_parser_description_states_the_defaults(self):
        # the description restates the defaults by hand, so one changed in RunConfig alone fails
        d, text = RunConfig(), build_parser().description
        for stated in (f"degrees {','.join(map(str, d.degrees))};",
                       f"r=R={d.r:g};", f"R={d.R:g};",
                       f"a_gamma={d.a_gamma:g},", f"b_gamma={d.b_gamma:g};",
                       f"move probabilities ({d.p_birth:g}, {d.p_death:g}, {d.p_relocate:g});",
                       f"; {d.iterations} iterations,", f", {d.burn_in} burn-in,",
                       f", thin {d.thin};", f"; {d.q_lower:g}/{d.q_upper:g} quantile band."):
            assert stated in text, stated

    def test_frozen_and_derived_once(self):
        cfg = parse_config("degrees = 3,0\nr = 0.5\nR = 0.25\na_gamma = 2\nb_gamma = 3\n"
                           "p_birth = 0.3\np_death = 0.5\np_relocate = 0.2\n"
                           "iterations = 900\nburn_in = 300\nthin = 6\nseed = 4\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 5
        assert cfg.hyper == Hyperparams((0, 3), r=0.5, R=0.25, a_gamma=2.0, b_gamma=3.0,
                                        move_probs=(0.3, 0.5, 0.2))
        assert cfg.chain == ChainConfig(iterations=900, burn_in=300, thin=6, seed=4)
        moved = dataclasses.replace(cfg, seed=9)
        assert moved.chain == ChainConfig(iterations=900, burn_in=300, thin=6, seed=9)
        assert moved.hyper == cfg.hyper and cfg.chain.seed == 4

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

    def test_duplicate_field(self):
        with pytest.raises(ValueError, match="config line 3: duplicate field 'iterations'"):
            parse_config("iterations = 100\nseed = 2\niterations = 200000\n")

    @pytest.mark.parametrize("line", ["moves_per_degree = 1", "beta_sweep = false"])
    def test_removed_sweep_keys_rejected(self, line):
        # a config dumped before the sweep lost these keys names them
        with pytest.raises(ValueError, match="unknown field"):
            parse_config(line + "\n")

    def test_invalid_combination_caught_at_parse(self):
        with pytest.raises(ValueError):
            parse_config("iterations = 100\nburn_in = 100\n")
        with pytest.raises(ValueError):
            parse_config("p_birth = 0.9\n")  # moves no longer sum to 1

    @pytest.mark.parametrize("text, message", [
        ("r = nan", "r must be finite and positive, got nan"),
        ("R = inf", "R must be finite and positive, got inf"),
        ("a_gamma = inf", "a_gamma must be finite and positive, got inf"),
        ("b_gamma = nan", "b_gamma must be finite and positive, got nan"),
        ("p_birth = nan\np_death = 0.5\np_relocate = 0.5",
         "move probabilities must be finite, >= 0 and sum to 1, got (nan, 0.5, 0.5)"),
        ("seed = -1", "seed must be non-negative, got -1"),
        ("grid = -5", "config field grid must be >= 0, got -5"),
    ], ids=["r-nan", "R-inf", "a_gamma-inf", "b_gamma-nan", "p_birth-nan", "seed-negative",
            "grid-negative"])
    def test_malformed_numeric_setting_names_field(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(text + "\n")

    def test_dump_round_trip(self):
        cfg = parse_config("degrees = 1,3\nr = 0.125\nfull_recompute = true\n")
        assert parse_config(cfg.dump()) == cfg

    def test_load_config_with_overrides(self):
        cfg = parse_config("seed = 3\niterations = 2000\nburn_in = 500\n", {"seed": 11})
        assert cfg.seed == 11 and cfg.iterations == 2000

    def test_load_config_validates_file_and_overrides_together(self):
        # the text alone has burn_in (default 25000) >= iterations; the
        # override makes the whole valid, as the same line in the text would
        cfg = parse_config("iterations = 240\n", {"burn_in": 40})
        assert (cfg.iterations, cfg.burn_in) == (240, 40)
        with pytest.raises(ValueError, match="burn_in must be smaller than iterations"):
            parse_config("iterations = 240\n")


class TestBenchmarkSpec:
    def test_published_blocks_settings(self):
        spec = parse_benchmark_spec(
            "function = blocks\nn = 128\nrsnr = 3\nreplicates = 10\n"
            "degrees = 0\nr = 0.01\nR = 0.01\na_gamma = 1\nb_gamma = 1\n"
            "iterations = 50000\nburn_in = 25000\nthin = 10\nthreshold = 2.0\n")
        assert spec.function == "blocks"
        assert spec.hyper.degrees == (0,)
        assert spec.hyper.r == 0.01 and spec.hyper.a_gamma == 1.0
        assert spec.threshold == 2.0

    def test_defaults_applied(self):
        spec = parse_benchmark_spec(
            "function = heavisine\nn = 128\nrsnr = 10\nreplicates = 2\ndegrees = 0,2\n")
        assert spec.chain == ChainConfig(iterations=50000, burn_in=25000, thin=10, seed=0)
        assert (spec.hyper.r, spec.hyper.R, spec.hyper.a_gamma, spec.hyper.b_gamma) == (
            0.01, 0.01, 1.0, 1.0)
        assert spec.threshold is None

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

    def test_duplicate_key(self):
        with pytest.raises(ValueError,
                           match="benchmark spec line 7: duplicate field 'iterations'"):
            parse_benchmark_spec(self._SPEC + "iterations = 100\niterations = 200000\n")

    _SPEC = "function = heavisine\nn = 16\nrsnr = inf\nreplicates = 1\ndegrees = 0\n"

    def test_noiseless_rsnr_accepted(self):
        # `rsnr = inf` is the noiseless sentinel, not a malformed value
        assert parse_benchmark_spec(self._SPEC).rsnr == float("inf")

    @pytest.mark.parametrize("line, message", [
        ("r = nan", "r must be finite and positive, got nan"),
        ("R = inf", "R must be finite and positive, got inf"),
        ("a_gamma = inf", "a_gamma must be finite and positive, got inf"),
        ("b_gamma = nan", "b_gamma must be finite and positive, got nan"),
        ("threshold = nan", "threshold must be finite, got nan"),
        ("seed = -3", "seed must be non-negative, got -3"),
        ("iterations = 100\nburn_in = 100", "burn_in must be smaller than iterations"),
    ], ids=["r-nan", "R-inf", "a_gamma-inf", "b_gamma-nan", "threshold-nan",
            "seed-negative", "burn_in-not-below-iterations"])
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
        # the truth is written on the data's own grid, to the same digits
        data_x = [l.split(",")[0] for l in (tmp_path / "blocks.csv").read_text().splitlines()]
        assert [l.split(",")[0] for l in truth_lines] == data_x

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

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "error: seed must be non-negative, got -1\n"),
        (["--rsnr", "nan"], "error: rsnr must be positive (inf for noiseless), got nan\n"),
    ], ids=["seed-negative", "rsnr-nan"])
    def test_malformed_setting_names_it(self, tmp_path, capsys, flags, message):
        rc = main(["simulate", "blocks", "--n", "16", "--out", str(tmp_path / "b.csv"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "b.csv").exists()

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
        # the rows are this seed's chain run through the library, written
        # losslessly; mean and band lie within the range of the retained
        # curves at each x, but the band need not hold the mean, which a
        # skewed pointwise posterior (most samples at beta0) puts outside it
        cfg = RunConfig(degrees=(0,), iterations=400, burn_in=100, thin=4, seed=2)
        parsed = parse_dataset(data)
        chain = run_chain(parsed, cfg.hyper, cfg.chain)
        rows = np.array([[float(p) for p in line.split(",")] for line in curve_lines[1:]])
        want = np.column_stack([parsed.x, *posterior_curve(chain)])
        assert rows.tobytes() == want.tobytes()
        lowest, highest = chain.curves.min(axis=0), chain.curves.max(axis=0)
        mean, q025, q975 = rows[:, 1], rows[:, 2], rows[:, 3]
        assert (lowest - 1e-12 <= mean).all() and (mean <= highest + 1e-12).all()
        assert (lowest <= q025).all() and (q025 <= q975).all() and (q975 <= highest).all()
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

    def test_curve_header_names_band_levels(self, tmp_path):
        # the band columns are named by their levels in per-mille
        data = self._simulate(tmp_path)
        config = tmp_path / "deciles.txt"
        config.write_text("q_lower = 0.1\nq_upper = 0.9\n")
        assert main(["fit", data, "--out-prefix", str(tmp_path / "d"), "--config", str(config),
                     "--iterations", "200", "--burn-in", "50", "--degrees", "0"]) == 0
        header = (tmp_path / "d_curve.csv").read_text().splitlines()[0]
        assert header == "x,mean,q100,q900"

    def test_overflowing_x_range_exits_1(self, tmp_path, capsys):
        # the knot domain's width overflows a double
        path = tmp_path / "wide.csv"
        path.write_text("x,y\n-1e308,0.0\n1e308,1.0\n")
        rc = main(["fit", str(path), "--out-prefix", str(tmp_path / "w"),
                   "--iterations", "100", "--burn-in", "10", "--degrees", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: domain width must be finite, got (-1e+308, 1e+308)\n")

    def test_overflowing_y_range_exits_1(self, tmp_path, capsys):
        # the response range's width overflows a double
        path = tmp_path / "tall.csv"
        path.write_text("x,y\n0.0,-1e308\n0.5,0.0\n1.0,1e308\n")
        rc = main(["fit", str(path), "--out-prefix", str(tmp_path / "t"),
                   "--iterations", "100", "--burn-in", "10", "--degrees", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: response range width must be finite, got (-1e+308, 1e+308)\n")

    def test_overflowing_y_mean_exits_1(self, tmp_path, capsys):
        # the response range is finite, but y's sum overflows a double
        path = tmp_path / "heavy.csv"
        path.write_text("x,y\n0.0,1e308\n0.5,1e308\n1.0,0.0\n")
        rc = main(["fit", str(path), "--out-prefix", str(tmp_path / "h"),
                   "--iterations", "100", "--burn-in", "10", "--degrees", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: response mean must be finite, got inf\n"

    def test_grid_spans_the_data_x_range(self, tmp_path):
        path = tmp_path / "user.csv"
        path.write_text("x,y\n0.5,1.0\n0.25,0.0\n0.625,3.0\n0.375,2.0\n")
        assert main(["fit", str(path), "--out-prefix", str(tmp_path / "u"), "--grid", "5",
                     "--iterations", "100", "--burn-in", "10", "--degrees", "0"]) == 0
        lines = (tmp_path / "u_curve.csv").read_text().splitlines()[1:]
        assert [float(line.split(",")[0]) for line in lines] == [0.25, 0.34375, 0.4375,
                                                                  0.53125, 0.625]

    @pytest.mark.parametrize("config, message", [
        ("q_lower = 0.0251\nq_upper = 0.0254\n",
         "error: config field q_lower must be a whole per-mille, got 0.0251\n"),
        ("q_upper = 0.9755\n", "error: config field q_upper must be a whole per-mille, got 0.9755\n"),
    ], ids=["lower-collides-with-upper", "upper"])
    def test_band_level_off_per_mille_exits_1(self, tmp_path, capsys, config, message):
        # the header names each level in per-mille: 0.0251 and 0.0254 would
        # both write a column `q025`
        data = self._simulate(tmp_path)
        (tmp_path / "levels.txt").write_text(config)
        rc = main(["fit", data, "--out-prefix", str(tmp_path / "b"), "--config",
                   str(tmp_path / "levels.txt"), "--iterations", "200", "--burn-in", "50",
                   "--degrees", "0"])
        assert rc == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "b_curve.csv").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ("r = nan\n", [], "error: r must be finite and positive, got nan"),
        (None, ["--seed", "-1"], "error: seed must be non-negative, got -1"),
        (None, ["--grid", "-5"], "error: config field grid must be >= 0, got -5"),
    ], ids=["config-r-nan", "seed-negative", "grid-negative"])
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

    # each config key `fit` takes as a flag: (key, flag text or None for a
    # switch, config line text, parsed value); the base run sets none of them
    _FLAG_CASES = [
        ("seed", "5", "5", 5),
        ("iterations", "240", "240", 240),
        ("burn_in", "40", "40", 40),
        ("thin", "3", "3", 3),
        ("degrees", "0,,1", "0,,1,", (0, 1)),
        ("grid", "64", "64", 64),
        ("prior_only", None, "true", True),
        ("full_recompute", None, "true", True),
    ]
    _BASE = {"iterations": "200", "burn_in": "50", "seed": "3", "degrees": "0"}

    @staticmethod
    def _flag(key):
        return "--" + key.replace("_", "-")

    @pytest.mark.parametrize("key, flag, line, value", _FLAG_CASES,
                             ids=[c[0] for c in _FLAG_CASES])
    def test_flag_parsed_as_config_line(self, tmp_path, key, flag, line, value):
        # `--burn-in 40` and a `burn_in = 40` line go through one parser
        data = self._simulate(tmp_path)
        base = [a for k, raw in self._BASE.items() if k != key for a in (self._flag(k), raw)]
        config = tmp_path / "line.txt"
        config.write_text(f"{key} = {line}\n")
        as_flag = [self._flag(key)] + ([] if flag is None else [flag])
        for prefix, extra in (("flag", as_flag), ("line", ["--config", str(config)])):
            assert main(["fit", data, "--out-prefix", str(tmp_path / prefix),
                         "--dump-config", *base, *extra]) == 0
        cfg = parse_config((tmp_path / "flag_config.txt").read_text())
        assert getattr(cfg, key) == value
        for suffix in ("_curve.csv", "_summary.json", "_config.txt"):
            assert ((tmp_path / f"flag{suffix}").read_bytes()
                    == (tmp_path / f"line{suffix}").read_bytes())

    @pytest.mark.parametrize("key", [c[0] for c in _FLAG_CASES if c[1] is not None])
    def test_malformed_flag_exits_1_as_config_line(self, tmp_path, capsys, key):
        # rejected with the config line's message before the dataset is
        # read (it does not exist here), so nothing is written
        config = tmp_path / "bad.txt"
        config.write_text(f"{key} = abc\n")
        for extra in ([self._flag(key), "abc"], ["--config", str(config)]):
            rc = main(["fit", str(tmp_path / "none.csv"), "--out-prefix",
                       str(tmp_path / "bad"), *extra])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: config field {key!r}: cannot parse value 'abc'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

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

    def test_noiseless_json_is_strict(self, tmp_path):
        # rsnr = inf is written as the text its CSV row carries, not the
        # `Infinity` token that strict JSON parsers reject
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        spec = tmp_path / "spec.txt"
        spec.write_text(
            "function = blocks\nn = 16\nrsnr = inf\nreplicates = 2\ndegrees = 0\n"
            "iterations = 200\nburn_in = 50\nthin = 2\n")
        out_json, out_csv = tmp_path / "t.json", tmp_path / "t.csv"
        assert main(["benchmark", str(spec), "--out", str(out_json), "--format", "json"]) == 0
        assert main(["benchmark", str(spec), "--out", str(out_csv)]) == 0
        rows = json.loads(out_json.read_text(), parse_constant=reject)
        csv_row = next(csv.DictReader(out_csv.read_text().splitlines()))
        assert rows[0]["rsnr"] == csv_row["rsnr"] == "inf"
        assert rows[0]["mean_mse"] == float(csv_row["mean_mse"])

    def test_nan_rsnr_named(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("function = blocks\nn = 16\nrsnr = nan\nreplicates = 1\ndegrees = 0\n"
                        "iterations = 20\nburn_in = 10\nthin = 1\n")
        rc = main(["benchmark", str(spec), "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: rsnr must be positive (inf for noiseless), got nan\n")

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("function = blocks\n")
        rc = main(["benchmark", str(spec), "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "missing fields" in capsys.readouterr().err


class TestMissingOutputDirectory:
    # the directory is checked before the chain runs, not when the first
    # output is opened after it
    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_chain called")

        monkeypatch.setattr("levyspline.cli.run_chain", refuse)
        monkeypatch.setattr("levyspline.bench.run_chain", refuse)

    def test_fit(self, tmp_path, capsys):
        data = str(tmp_path / "data.csv")
        assert main(["simulate", "blocks", "--n", "16", "--out", data]) == 0
        missing = tmp_path / "missing" / "dir"
        rc = main(["fit", data, "--out-prefix", str(missing / "fit")])
        assert rc == 1
        want = f"error: output directory {str(missing)!r} does not exist\n"
        assert capsys.readouterr().err == want

    def test_benchmark(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("function = blocks\nn = 16\nrsnr = 3\nreplicates = 2\ndegrees = 0\n"
                        "iterations = 20\nburn_in = 10\nthin = 1\n")
        missing = tmp_path / "missing"
        rc = main(["benchmark", str(spec), "--out", str(missing / "t.csv")])
        assert rc == 1
        want = f"error: output directory {str(missing)!r} does not exist\n"
        assert capsys.readouterr().err == want

    def test_simulate(self, tmp_path, capsys):
        # a missing truth directory leaves no data CSV behind
        ok = tmp_path / "ok.csv"
        missing = tmp_path / "missing"
        rc = main(["simulate", "blocks", "--n", "16", "--out", str(ok),
                   "--truth-out", str(missing / "t.csv")])
        assert rc == 1
        want = f"error: output directory {str(missing)!r} does not exist\n"
        assert capsys.readouterr().err == want
        assert not ok.exists()

    def test_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("sample,sigma2\n0,1.5\n1,2.5\n")
        missing = tmp_path / "missing"
        rc = main(["summarize", str(trace), "--out", str(missing / "s.json")])
        assert rc == 1
        want = f"error: output directory {str(missing)!r} does not exist\n"
        assert capsys.readouterr().err == want


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

    def test_repeated_column_rejected(self, tmp_path, capsys):
        # a summary keyed by column name would keep only the last `a`
        trace = tmp_path / "t.csv"
        trace.write_text("a,a\n1.0,2.0\n3.0,4.0\n")
        assert main(["summarize", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {trace}: repeated column 'a'\n"
        assert captured.out == ""

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


class TestTraceSummary:
    @staticmethod
    def _traces(n):
        rng = np.random.default_rng(n)
        yield rng.standard_normal(n)
        yield rng.integers(0, 6, size=n).astype(float)  # a J_k trace
        yield rng.lognormal(0.0, 50.0, size=n)  # magnitudes from about 1e-87 to 1e87
        for seed in range(20):  # +0.0/-0.0 ties
            yield np.random.default_rng(seed).choice(
                [-0.0, 0.0, -1.0, 1.0], size=n, p=[0.4, 0.4, 0.1, 0.1])

    @staticmethod
    def _same(got, want):
        assert got.hex() == want.hex() and np.signbit(got) == np.signbit(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500])
    def test_quantiles_have_the_bits_of_np_quantile(self, n):
        # each summary quantile is its own `np.quantile` call: the sign of a
        # +0.0/-0.0 tie depends on which order statistics the partition
        # pins, so one call for both levels could flip it
        for v in self._traces(n):
            summary = _trace_summary(v)
            self._same(summary["q025"], float(np.quantile(v, 0.025)))
            self._same(summary["q975"], float(np.quantile(v, 0.975)))
            for q in (0.0, 0.025, 0.5, 0.975, 1.0):
                self._same(float(_quantiles(v[:, None], (q,))[0, 0]),
                           float(np.quantile(v, q)))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500])
    def test_json_has_the_bytes_of_numpy(self, n):
        # the summary is taken at unit scale; a power-of-two scale is exact here
        for v in self._traces(n):
            want = {"mean": float(np.mean(v)),
                    "sd": float(np.std(v, ddof=1)) if n > 1 else 0.0,
                    "q025": float(np.quantile(v, 0.025)),
                    "q975": float(np.quantile(v, 0.975))}
            assert json.dumps(_trace_summary(v)) == json.dumps(want)

    def test_prior_only_sigma2_reaching_1e300_stays_finite(self):
        # the squares of these draws overflow at their own scale
        data = generate_dataset("blocks", 32, 3.0, 5)
        out = run_chain(data, Hyperparams((0,)), ChainConfig(iterations=1000),
                        grid=data.x, prior_only=True)
        v = out.sigma2
        assert v.max() > 9.9e299
        summary = _trace_summary(v)
        assert all(np.isfinite(list(summary.values())))
        assert summary["sd"] == approx(statistics.stdev(v.tolist()), rel=1e-13)
        assert summary["mean"] == float(np.mean(v))
        assert summary["q025"] == float(np.quantile(v, 0.025))
        assert summary["q975"] == float(np.quantile(v, 0.975))

    def test_sd_of_a_column_near_1e_200(self):
        # its squares underflow at its own scale
        v = [1e-200, 2e-200, 3e-200]
        assert _trace_summary(v)["sd"] == statistics.stdev(v) == 1e-200

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500])
    def test_nan_reads_nan(self, n):
        v = next(self._traces(n))
        v[n // 2] = np.nan
        for q in (0.0, 0.025, 0.5, 0.975, 1.0):
            got = float(_quantiles(v[:, None], (q,))[0, 0])
            assert np.isnan(got)
            self._same(got, float(np.quantile(v, q)))


def test_no_command_imports_numpy_ma(tmp_path):
    # a quantile through `np.quantile` imports numpy.ma (via `np.unique`),
    # which costs every process time and memory that no output needs
    script = """
import sys
from levyspline.cli import main

out = sys.argv[1]
assert main(["simulate", "blocks", "--n", "32", "--seed", "1",
             "--out", out + "/data.csv"]) == 0
assert main(["fit", out + "/data.csv", "--out-prefix", out + "/fit",
             "--iterations", "300", "--burn-in", "100", "--degrees", "0,1",
             "--grid", "97", "--seed", "2", "--save-trace"]) == 0
assert main(["summarize", out + "/fit_trace.csv", "--out", out + "/s.json"]) == 0
assert main(["benchmark", out + "/spec.txt", "--out", out + "/bench.csv"]) == 0
print("numpy.ma" in sys.modules)
"""
    (tmp_path / "spec.txt").write_text(
        "function = blocks\nn = 16\nrsnr = 3\nreplicates = 2\ndegrees = 0\n"
        "iterations = 200\nburn_in = 50\nthin = 2\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_readme_commands_use_real_flags():
    # every `levyspline <command>` in the README's sh blocks, continuations
    # joined and comments dropped, names only that subcommand's options
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    seen = set()
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"(^|\s)#.*", "", line)
            for command, rest in re.findall(r"\blevyspline\s+(\S+)([^;|&]*)", line):
                options = {s for a in subparsers[command]._actions for s in a.option_strings}
                for flag in re.findall(r"(?<!\S)--[\w-]+", rest):
                    assert flag in options, (command, flag)
                seen.add(command)
    assert seen == set(subparsers)
