"""Span tracing attached to levyspline from outside the package.

`Tracer.install()` replaces selected functions and `Chain` methods with
wrappers that record one span per call: name, start and end (ns), the index
of the enclosing span, and an optional note about the call. A wrapper is set
on the module attribute its callers look the name up in (for example
`levyspline.sampler.basis_values`, which the chain imported by name), so no
call is missed. Spans stay in memory until `dump()` writes them as JSON.
The wrappers draw no random numbers and never change arguments or results,
so a traced run writes the same bytes as an untraced one.

`layer_metrics()` turns the spans of one or more traced runs into the
per-layer metrics, and `basis_count_mismatches()` checks each chain's
`basis_values` count against the count the sampler's code implies.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


def _degree(args, result):
    return int(args[1])


def _accepted(args, result):
    return int(result[0])


def _relocation(args, result):
    return [int(args[1]), len(result), int(sum(result))]


def _chain_atoms(args, result):
    return sum(len(atoms) for atoms in args[0].atoms.values())


def _state_atoms(args, result):
    return sum(comp.count for comp in result.components.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, note]
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, note=None):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        import levyspline.bench as bench
        import levyspline.bspline as bspline
        import levyspline.cli as cli
        import levyspline.model as model
        import levyspline.sampler as sampler

        targets = [
            (sampler, "basis_values", "bspline.basis_values", _degree),
            (bspline, "basis_values", "bspline.basis_values", _degree),
            (sampler, "sample_atom", "model.sample_atom", None),
            (model, "sample_atom", "model.sample_atom", None),
            (sampler, "init_state", "model.init_state", _state_atoms),
            (cli, "generate_dataset", "signals.generate_dataset", None),
            (bench, "generate_dataset", "signals.generate_dataset", None),
            (sampler.Chain, "sweep", "sampler.sweep", _chain_atoms),
            (sampler.Chain, "birth", "sampler.birth", _accepted),
            (sampler.Chain, "death", "sampler.death", _accepted),
            (sampler.Chain, "relocate", "sampler.relocate", _relocation),
            (sampler.Chain, "gibbs_beta", "sampler.gibbs_beta", None),
            (sampler.Chain, "gibbs_M", "sampler.gibbs_M", None),
            (sampler.Chain, "gibbs_sigma2", "sampler.gibbs_sigma2", None),
            (sampler.Chain, "mean_on", "sampler.mean_on", _chain_atoms),
            (cli, "run_chain", "sampler.run_chain", None),
            (bench, "run_chain", "sampler.run_chain", None),
            (cli, "posterior_curve", "sampler.posterior_curve", None),
            (bench, "posterior_curve", "sampler.posterior_curve", None),
            (bench, "run_replicate", "bench.run_replicate", None),
            (cli, "emit_table", "bench.emit_table", None),
            (cli, "parse_dataset", "cli.parse_dataset", None),
            (cli, "cmd_fit", "cli.fit", None),
            (cli, "cmd_benchmark", "cli.benchmark", None),
        ]
        for owner, attr, name, note in targets:
            self.wrap(owner, attr, name, note)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---- analysis -------------------------------------------------------------


class Spans:
    """Spans of one traced process with durations and self times in seconds."""

    def __init__(self, spans: list[list]):
        self.names = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.notes = [s[4] for s in spans]
        self.dur = np.array([(s[2] - s[1]) * 1e-9 for s in spans])
        child = np.zeros(len(spans))
        for p, d in zip(self.parent, self.dur):
            if p >= 0:
                child[p] += d
        self.self_time = self.dur - child
        self._by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            self._by_name.setdefault(name, []).append(i)

    def where(self, name: str) -> list[int]:
        return self._by_name.get(name, [])

    def chain_of(self) -> list[int]:
        """Index of the enclosing `sampler.run_chain` span of each span, or -1."""
        out = []
        for i, (name, p) in enumerate(zip(self.names, self.parent)):
            if name == "sampler.run_chain":
                out.append(i)
            else:
                out.append(out[p] if p >= 0 else -1)
        return out


def basis_count_mismatches(spans: Spans) -> list[str]:
    """Check, chain by chain, the count of `basis_values` calls.

    The sampler evaluates one basis column per initial atom, one per birth
    attempt, k + 2 per relocation of a degree-k atom and one per atom each
    time it records a curve; nothing else in a chain calls `basis_values`.
    """
    chains: dict[int, list[int]] = {}  # chain -> [traced calls, expected calls]
    for i, c in enumerate(spans.chain_of()):
        if c < 0:
            continue
        counts = chains.setdefault(c, [0, 0])
        name, note = spans.names[i], spans.notes[i]
        if name == "bspline.basis_values":
            counts[0] += 1
        elif name == "sampler.birth":
            counts[1] += 1
        elif name == "sampler.relocate":
            counts[1] += note[0] + 2
        elif name in ("model.init_state", "sampler.mean_on"):
            counts[1] += note
    return [f"chain span {c}: {got} basis_values calls traced, {want} expected"
            for c, (got, want) in chains.items() if got != want]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def layer_metrics(runs: list[Spans]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of several traced processes."""
    def pick(name):
        dur, self_t, notes = [], [], []
        for s in runs:
            idx = s.where(name)
            dur.extend(s.dur[idx])
            self_t.extend(s.self_time[idx])
            notes.extend(s.notes[i] for i in idx)
        return np.array(dur), np.array(self_t), notes

    command_s = sum(pick(name)[0].sum() for name in ("cli.fit", "cli.benchmark"))
    basis_dur, basis_self, _ = pick("bspline.basis_values")
    sweep_dur, _, sweep_atoms = pick("sampler.sweep")
    birth_dur, _, birth_ok = pick("sampler.birth")
    death_dur, _, death_ok = pick("sampler.death")
    reloc_dur, _, reloc = pick("sampler.relocate")
    mean_on_dur, mean_on_self, _ = pick("sampler.mean_on")
    replicate_dur = pick("bench.run_replicate")[0]
    _, fit_self, _ = pick("cli.fit")
    chains = len(pick("sampler.run_chain")[0])
    sweeps = len(sweep_dur)
    proposals = sum(r[1] for r in reloc)
    us, ms = 1e6, 1e3

    def med(name, scale):
        return _median(pick(name)[0]) * scale

    return {
        "bspline.basis_values.calls_per_sweep": (len(basis_dur) / sweeps, "count"),
        "bspline.basis_values.self_share": (basis_self.sum() / command_s, "fraction"),
        "model.sample_atom.us": (med("model.sample_atom", us), "us"),
        "model.init_state.ms": (med("model.init_state", ms), "ms"),
        "signals.generate_dataset.ms": (med("signals.generate_dataset", ms), "ms"),
        "sampler.sweep.us_median": (_median(sweep_dur) * us, "us"),
        "sampler.sweep.us_p99": (float(np.quantile(sweep_dur, 0.99)) * us, "us"),
        "sampler.birth.us": (_median(birth_dur) * us, "us"),
        "sampler.death.us": (_median(death_dur) * us, "us"),
        "sampler.relocate.us": (_median(reloc_dur) * us, "us"),
        "sampler.gibbs_beta.us": (med("sampler.gibbs_beta", us), "us"),
        "sampler.gibbs_M.us": (med("sampler.gibbs_M", us), "us"),
        "sampler.gibbs_sigma2.us": (med("sampler.gibbs_sigma2", us), "us"),
        "sampler.birth.attempts": (len(birth_ok), "count"),
        "sampler.birth.accept_rate": (sum(birth_ok) / len(birth_ok), "fraction"),
        "sampler.death.attempts": (len(death_ok), "count"),
        "sampler.death.accept_rate": (sum(death_ok) / len(death_ok), "fraction"),
        "sampler.relocate.proposals": (proposals, "count"),
        "sampler.relocate.accept_rate": (sum(r[2] for r in reloc) / proposals, "fraction"),
        "sampler.atoms_mean": (float(np.mean(sweep_atoms)), "count"),
        "sampler.mean_on.calls": (len(mean_on_dur) / chains, "count"),
        "sampler.mean_on.self_share": (mean_on_self.sum() / command_s, "fraction"),
        "sampler.mean_on.share": (mean_on_dur.sum() / command_s, "fraction"),
        "sampler.posterior_curve.ms": (med("sampler.posterior_curve", ms), "ms"),
        "bench.run_replicate.s_median": (_median(replicate_dur), "s"),
        "bench.run_replicate.s_max": (float(max(replicate_dur, default=np.nan)), "s"),
        "bench.emit_table.ms": (med("bench.emit_table", ms), "ms"),
        "cli.fit.self_ms": (_median(fit_self) * ms, "ms"),
        "cli.parse_dataset.ms": (med("cli.parse_dataset", ms), "ms"),
    }
