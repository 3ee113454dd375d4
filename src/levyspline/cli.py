"""Command-line surface: dataset I/O, fitting, benchmarking, summaries.

Configuration files are flat `key = value` text (one pair per line, `#`
comments allowed; `degrees` as comma-separated integers). A `fit` setting
flag is the config key of its name (`--burn-in 40` is `burn_in = 40`),
parsed the same way and applied over the file. Numeric output uses 17
significant digits so every emitted file round-trips exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .bench import ExperimentSpec, emit_table, run_experiment
from .model import Dataset, DegenerateDataError, Hyperparams
from .sampler import ChainConfig, _quantiles, posterior_curve, run_chain
from .signals import TEST_FUNCTIONS, eval_test_function, generate_dataset


def fmt(v: float) -> str:
    return format(float(v), ".17g")


# ---- dataset files --------------------------------------------------------


def parse_dataset(path: str) -> Dataset:
    """Read a CSV with header `x,y`; rejects ragged rows and non-finite values."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset file not found: {path}") from None
    if not lines or lines[0].strip() != "x,y":
        raise ValueError(f"{path}: expected header 'x,y'")
    rows = list(_numeric_rows(path, lines, 2, "expected 2 fields, got {}"))
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    xs, ys = zip(*rows)
    return Dataset(x=np.asarray(xs), y=np.asarray(ys))


def _numeric_rows(path: str, lines: list[str], width: int, ragged: str):
    """Each non-blank line after the header as `width` finite floats.

    A row of another width raises `ragged`, formatted with its field count.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: {ragged.format(len(parts))}")
        try:
            row = list(map(float, parts))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        yield row


def write_csv(path: str, header: str, *columns):
    """One row per index of the equal-length `columns`, every value via `fmt`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
            fh.write(",".join(map(fmt, row)) + "\n")


# ---- run configuration ----------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A run's settings; `hyper` and `chain` are built from them once, here."""

    degrees: tuple[int, ...] = (0, 1, 2)
    r: float = 0.01
    R: float = 0.01
    a_gamma: float = 5.0
    b_gamma: float = 1.0
    p_birth: float = 0.4
    p_death: float = 0.4
    p_relocate: float = 0.2
    iterations: int = 50000
    burn_in: int = 25000
    thin: int = 10
    seed: int = 0
    grid: int = 0  # 0: evaluate on the data grid
    q_lower: float = 0.025
    q_upper: float = 0.975
    prior_only: bool = False
    full_recompute: bool = False

    def __post_init__(self):
        # not fields: `dump` and the config keys skip them, and `replace` rebuilds them
        object.__setattr__(self, "hyper", Hyperparams(
            self.degrees, r=self.r, R=self.R, a_gamma=self.a_gamma, b_gamma=self.b_gamma,
            move_probs=(self.p_birth, self.p_death, self.p_relocate)))
        object.__setattr__(self, "chain", ChainConfig(
            iterations=self.iterations, burn_in=self.burn_in, thin=self.thin, seed=self.seed))
        if self.grid < 0:
            raise ValueError(f"config field grid must be >= 0, got {self.grid}")
        if not (0.0 <= self.q_lower < self.q_upper <= 1.0):
            raise ValueError("config fields q_lower/q_upper must satisfy 0 <= lower < upper <= 1")
        for name in ("q_lower", "q_upper"):  # the curve header names them in per-mille
            q = getattr(self, name)
            if round(1000 * q) / 1000 != q:
                raise ValueError(f"config field {name} must be a whole per-mille, got {q}")

    def dump(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "degrees":
                v = ",".join(str(k) for k in v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = fmt(v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


def _parse_value(name: str, raw: str, kind):
    try:
        if kind == "degrees":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError
        return kind(raw)
    except ValueError:
        raise ValueError(f"config field {name!r}: cannot parse value {raw!r}") from None


_CONFIG_KEYS = {f.name: "degrees" if f.name == "degrees" else type(f.default)
                for f in fields(RunConfig)}


def _read_key_values(text: str, kinds: dict, what: str) -> dict:
    """Typed values of flat `key = value` lines; `#` starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {lineno}: expected 'key = value'")
        key, raw = (p.strip() for p in line.split("=", 1))
        if key not in kinds:
            raise ValueError(f"{what} line {lineno}: unknown field {key!r}")
        if key in values:
            raise ValueError(f"{what} line {lineno}: duplicate field {key!r}")
        values[key] = _parse_value(key, raw, kinds[key])
    return values


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """The text's values with `overrides` on top, validated once as a whole."""
    values = _read_key_values(text, _CONFIG_KEYS, "config")
    return RunConfig(**{**values, **(overrides or {})})


# ---- subcommands ----------------------------------------------------------


def cmd_simulate(args) -> int:
    data = generate_dataset(args.function, args.n, args.rsnr, args.seed)
    write_csv(args.out, "x,y", data.x, data.y)
    truth_path = args.truth_out or _with_suffix(args.out, "_truth")
    write_csv(truth_path, "x,f", data.x, eval_test_function(args.function, data.x))
    print(f"wrote {args.out} and {truth_path}")
    return 0


def _with_suffix(path: str, suffix: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + suffix + ".csv"
    return path + suffix


# the config keys `fit` also takes as flags (`--burn-in` sets `burn_in`),
# in `fit --help` order, with their help text
_FIT_FLAGS = {
    "seed": None, "iterations": None, "burn_in": None, "thin": None,
    "degrees": "comma-separated, e.g. 0,1,2",
    "grid": "curve grid resolution; 0 uses the data grid",
    "prior_only": "disable the likelihood (prior-recovery mode)",
    "full_recompute": "rebuild every basis column and the residual from the "
                      "knots at each write to the fit (verification mode)",
}


def cmd_fit(args) -> int:
    # a flag's text is parsed as the config line `key = text` would be
    flags = {key: _parse_value(key, raw, _CONFIG_KEYS[key])
             for key, raw in vars(args).items() if key in _FIT_FLAGS}
    text = ""
    if args.config is not None:
        with open(args.config) as fh:
            text = fh.read()
    cfg = parse_config(text, flags)
    data = parse_dataset(args.data)
    grid = data.x if cfg.grid == 0 else np.linspace(data.x.min(), data.x.max(), cfg.grid)
    out = run_chain(data, cfg.hyper, cfg.chain, grid=grid,
                    prior_only=cfg.prior_only, full_recompute=cfg.full_recompute)
    mean, lower, upper = posterior_curve(out, levels=(cfg.q_lower, cfg.q_upper))
    prefix = args.out_prefix
    lower_name, upper_name = (f"q{round(1000 * q):03d}" for q in (cfg.q_lower, cfg.q_upper))
    write_csv(prefix + "_curve.csv", f"x,mean,{lower_name},{upper_name}",
              grid, mean, lower, upper)
    summary = {
        "retained": out.retained,
        "acceptance_rates": out.acceptance_rates(),
        "sigma2": _trace_summary(out.sigma2),
        "J": {str(k): _trace_summary(v) for k, v in out.J.items()},
        "M": {str(k): _trace_summary(v) for k, v in out.M.items()},
        "config": cfg.dump().splitlines(),
    }
    with open(prefix + "_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    written = [prefix + "_curve.csv", prefix + "_summary.json"]
    if args.save_trace:
        trace_path = prefix + "_trace.csv"
        _write_trace(trace_path, out)
        written.append(trace_path)
    if args.dump_config:
        cfg_path = prefix + "_config.txt"
        with open(cfg_path, "w") as fh:
            fh.write(cfg.dump())
        written.append(cfg_path)
    print("wrote " + ", ".join(written))
    return 0


def _trace_summary(values) -> dict:
    v = np.asarray(values, dtype=float)
    # one call per level, as `np.quantile(v, q)`: the kth set decides ±0 ties
    return {
        "mean": float(v.mean()),
        "sd": _sd(v),
        "q025": float(_quantiles(v[:, None], (0.025,))[0, 0]),
        "q975": float(_quantiles(v[:, None], (0.975,))[0, 0]),
    }


def _sd(v: np.ndarray) -> float:
    """Sample standard deviation that stays finite when the squares overflow.

    Prior-only sigma^2 draws reach 1e300, whose squares overflow. Only then
    is the sd taken on v scaled by a power of two, which is exact, so every
    summary that did not overflow keeps its bytes.
    """
    if len(v) < 2:
        return 0.0
    with np.errstate(over="ignore"):
        sd = v.std(ddof=1)
    if not np.isfinite(sd):
        e = int(np.frexp(np.abs(v).max())[1])
        sd = np.ldexp(np.ldexp(v, -e).std(ddof=1), e)
    return float(sd)


def _write_trace(path: str, out):
    degrees = sorted(out.J)
    header = ["sample", "sigma2"] + [f"J_{k}" for k in degrees] + [f"M_{k}" for k in degrees]
    write_csv(path, ",".join(header), range(out.retained), out.sigma2,
              *(out.J[k] for k in degrees), *(out.M[k] for k in degrees))


_SHARED_KEYS = ("degrees", "r", "R", "a_gamma", "b_gamma",
                "iterations", "burn_in", "thin", "seed")
_BENCH_KEYS = {"function": str, "n": int, "rsnr": float, "replicates": int,
               "threshold": float, **{k: _CONFIG_KEYS[k] for k in _SHARED_KEYS}}


def parse_benchmark_spec(text: str) -> ExperimentSpec:
    values = _read_key_values(text, _BENCH_KEYS, "benchmark spec")
    required = ["function", "n", "rsnr", "replicates", "degrees"]
    missing = [k for k in required if k not in values]
    if missing:
        raise ValueError(f"benchmark spec missing fields: {missing}")
    if values["function"] not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {values['function']!r}")
    # a spec's M_k prior defaults to Gamma(1, 1), the published study's for most functions
    cfg = RunConfig(**{"a_gamma": 1.0, **{k: values[k] for k in _SHARED_KEYS if k in values}})
    return ExperimentSpec(
        function=values["function"], n=values["n"], rsnr=values["rsnr"],
        replicates=values["replicates"], hyper=cfg.hyper, chain=cfg.chain,
        threshold=values.get("threshold"),
    )


def cmd_benchmark(args) -> int:
    with open(args.spec) as fh:
        spec = parse_benchmark_spec(fh.read())
    def progress(i, value):
        if args.verbose:
            print(f"replicate {i}: mse={value:.4f}", file=sys.stderr)
    mses = run_experiment(spec, progress=progress)
    table = emit_table(spec, mses, format=args.format)
    with open(args.out, "w") as fh:
        fh.write(table)
    print(f"wrote {args.out}")
    return 0


def cmd_summarize(args) -> int:
    with open(args.trace) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{args.trace}: empty trace file")
    header = lines[0].split(",")
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ValueError(f"{args.trace}: repeated column {name!r}")
    rows = list(_numeric_rows(args.trace, lines, len(header), "ragged row"))
    if not rows:
        raise ValueError(f"{args.trace}: no samples")
    summary = {name: _trace_summary(vals) for name, vals in zip(header, zip(*rows))
               if name != "sample"}
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="levyspline",
        description="Adaptive B-spline regression with a compound-Poisson atom "
                    "prior, fit by reversible-jump MCMC. Defaults: degrees 0,1,2; "
                    "r=R=0.01; a_gamma=5, b_gamma=1; move probabilities "
                    "(0.4, 0.4, 0.2); 50000 iterations, 25000 burn-in, thin 10; "
                    "0.025/0.975 quantile band.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a noisy benchmark dataset")
    sim.add_argument("function", choices=sorted(TEST_FUNCTIONS))
    sim.add_argument("--n", type=int, default=128)
    sim.add_argument("--rsnr", type=float, default=3.0,
                     help="root signal-to-noise ratio; 'inf' for noiseless")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--truth-out", default=None)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit the model to a dataset CSV")
    fit.add_argument("data")
    fit.add_argument("--config", default=None, help="flat key=value config file")
    fit.add_argument("--out-prefix", required=True)
    for key, text in _FIT_FLAGS.items():  # an absent flag leaves its key unset
        flag = "--" + key.replace("_", "-")
        if _CONFIG_KEYS[key] is bool:
            fit.add_argument(flag, action="store_const", const="true",
                             default=argparse.SUPPRESS, help=text)
        else:
            fit.add_argument(flag, default=argparse.SUPPRESS, help=text)
    fit.add_argument("--save-trace", action="store_true")
    fit.add_argument("--dump-config", action="store_true",
                     help="write the resolved configuration next to the outputs")
    fit.set_defaults(func=cmd_fit)

    bench = sub.add_parser("benchmark", help="run a replicate experiment spec")
    bench.add_argument("spec")
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--verbose", action="store_true")
    bench.set_defaults(func=cmd_benchmark)

    summ = sub.add_parser("summarize", help="recompute summaries from a trace CSV")
    summ.add_argument("trace")
    summ.add_argument("--out", default=None)
    summ.set_defaults(func=cmd_summarize)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}\nhint: a constant response needs no spline atoms; "
              "fit an intercept instead", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
