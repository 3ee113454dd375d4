"""Trans-dimensional sampler: birth/death/relocation moves plus Gibbs updates.

Move ratios use the prior as the birth proposal, so the birth acceptance
ratio collapses to lik-ratio * M_k/(J_k+1) * p_d/p_b, with the forced-birth
correction at the J_k = 0 boundary (the birth proposal probability there is
1, and the matching reverse-birth probability inside a death ratio at
J_k = 1 is likewise 1). Relocation proposes each knot uniformly between its
neighbors, an interval identical for the forward and reverse moves, so its
acceptance ratio is the bare likelihood ratio; the relocated atom's
coefficient is then re-drawn from its Normal full conditional.

`Chain` is the only move kernel. Every move evaluates its likelihood ratio
incrementally from cached basis columns and fitted values, and the
birth/death ratios come from `birth_ratio`/`death_ratio`, which the
full-likelihood oracles `birth_log_ratio`/`death_log_ratio` share. A
prior-only chain is the same chain fitted to no observations: every
likelihood ratio is 0 and each Gibbs conditional is its prior. A
full-recompute chain rebuilds the cache from its atoms before each residual
is read; tests check it against the incremental chain.

`run_chain` records a curve on the data grid by summing the cached columns
(`Chain.cached_mean`), which has `mean_on`'s bits: a cached column is
exactly `basis_values` of its atom on the data, and the sum runs in the
same order. Any other grid, and a prior-only chain's, goes through
`mean_on`, which evaluates every atom.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector, basis_values, eval_mean
from .model import (
    Atom,
    Dataset,
    DegreeComponent,
    Hyperparams,
    ModelState,
    init_state,
    log_likelihood,
    sample_atom,
)

BIRTH, DEATH, RELOCATE = "birth", "death", "relocate"
_TINY = 1e-300


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _rss(resid: np.ndarray) -> float:
    return float(resid @ resid)


@dataclass(frozen=True)
class ChainConfig:
    iterations: int
    burn_in: int = 0
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= 0 or self.thin <= 0 or self.burn_in < 0:
            raise ValueError("iterations and thin must be positive, burn_in >= 0")
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")
        if self.retained == 0:
            raise ValueError("config retains no samples")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainOutput:
    """Thinned post-burn-in records plus per-move acceptance counters."""

    config: ChainConfig
    grid: np.ndarray | None
    curves: np.ndarray | None
    sigma2: np.ndarray
    J: dict[int, np.ndarray]
    M: dict[int, np.ndarray]
    attempts: dict[tuple[str, int], int]
    accepts: dict[tuple[str, int], int]
    states: list[ModelState] | None = None

    def __post_init__(self):
        for key, acc in self.accepts.items():
            if acc > self.attempts.get(key, 0):
                raise ValueError(f"accept count exceeds attempts for {key}")

    @property
    def retained(self) -> int:
        return len(self.sigma2)

    def acceptance_rates(self) -> dict[str, float]:
        rates = {}
        for (move, k), att in sorted(self.attempts.items()):
            rates[f"{move}_{k}"] = self.accepts[(move, k)] / att if att else float("nan")
        return rates


def choose_move(hyper: Hyperparams, J_k: int, rng: np.random.Generator) -> str:
    """Birth is forced while the component is empty; otherwise (p_b, p_d, p_w)."""
    if J_k == 0:
        return BIRTH
    pb, pd, _ = hyper.move_probs
    u = rng.random()
    if u < pb:
        return BIRTH
    if u < pb + pd:
        return DEATH
    return RELOCATE


class Chain:
    """Mutable sampler state with cached basis columns and fitted values.

    The chain fits its own `x`/`y`: the data's, or none of them when
    `prior_only`. The knot domain is the data's either way, and so are
    `phi` and `beta0` when the chain starts from `init_state`.
    """

    def __init__(self, data: Dataset, hyper: Hyperparams, rng: np.random.Generator,
                 state: ModelState | None = None, prior_only: bool = False,
                 full_recompute: bool = False):
        self.hyper = hyper
        self.rng = rng
        self.domain = data.domain
        self.full_recompute = full_recompute
        n = 0 if prior_only else data.n
        self.x, self.y = data.x[:n], data.y[:n]
        if state is None:
            state = init_state(data, hyper, rng)
        self.beta0 = state.beta0
        self.sigma2 = state.sigma2
        self.phi = state.phi
        self.atoms: dict[int, list[Atom]] = {
            k: list(comp.atoms) for k, comp in state.components.items()}
        self.M: dict[int, float] = {k: comp.M for k, comp in state.components.items()}
        if set(self.atoms) != set(hyper.degrees):
            raise ValueError("state degrees do not match hyperparameter degrees")
        self._rebuild_cache()

    # ---- caches -----------------------------------------------------------

    def _col(self, knots, k) -> np.ndarray:
        return basis_values(knots, k, self.x)

    def _rebuild_cache(self):
        self.cols: dict[int, list[np.ndarray]] = {
            k: [self._col(a.knots.knots, k) for a in atoms]
            for k, atoms in self.atoms.items()
        }
        self.fitted = self.cached_mean()

    def cached_mean(self) -> np.ndarray:
        """The mean on the chain's `x`, summed from the cached columns.

        Each column is `basis_values` of its atom on `x` and the sum runs in
        `mean_on`'s order, so this is `mean_on(x)` bit for bit without
        evaluating a basis function. `fitted`, updated by adding deltas,
        can differ from it in the last bits.
        """
        out = np.full(len(self.x), self.beta0)
        for k, atoms in self.atoms.items():
            for a, col in zip(atoms, self.cols[k]):
                out += a.beta * col
        return out

    def _resid(self) -> np.ndarray:
        """y - fitted; a full-recompute chain first rebuilds the cache."""
        if self.full_recompute:
            self._rebuild_cache()
        return self.y - self.fitted

    def _llr(self, delta: np.ndarray) -> float:
        """Log-likelihood ratio of adding `delta` to the fitted values."""
        resid = self._resid()
        return -(_rss(resid - delta) - _rss(resid)) / (2.0 * self.sigma2)

    def _accept(self, log_ratio: float) -> bool:
        return math.log(self.rng.random() + _TINY) < log_ratio

    def snapshot(self) -> ModelState:
        components = {
            k: DegreeComponent(degree=k, atoms=list(atoms), M=self.M[k])
            for k, atoms in self.atoms.items()
        }
        return ModelState(beta0=self.beta0, components=components,
                          sigma2=self.sigma2, phi=self.phi)

    def mean_on(self, grid: np.ndarray) -> np.ndarray:
        out = np.full(len(grid), self.beta0)
        for k, atoms in self.atoms.items():
            for a in atoms:
                out += a.beta * basis_values(a.knots.knots, k, grid)
        return out

    # ---- reversible-jump moves -------------------------------------------

    def birth(self, k: int) -> tuple[bool, float]:
        J = len(self.atoms[k])
        atom = sample_atom(k, self.phi, self.domain, self.rng)
        col = self._col(atom.knots.knots, k)
        delta = atom.beta * col
        log_ratio = birth_ratio(self._llr(delta), self.M[k], J, self.hyper)
        accepted = self._accept(log_ratio)
        if accepted:
            self.atoms[k].append(atom)
            self.cols[k].append(col)
            self.fitted = self.fitted + delta
        return accepted, log_ratio

    def death(self, k: int) -> tuple[bool, float]:
        atoms = self.atoms[k]
        J = len(atoms)
        if J == 0:
            raise RuntimeError("death move attempted on an empty component")
        r = int(self.rng.integers(J))
        delta = -atoms[r].beta * self.cols[k][r]
        log_ratio = death_ratio(self._llr(delta), self.M[k], J, self.hyper)
        accepted = self._accept(log_ratio)
        if accepted:
            atoms.pop(r)
            self.cols[k].pop(r)
            self.fitted = self.fitted + delta
        return accepted, log_ratio

    def relocate(self, k: int) -> list[bool]:
        atoms = self.atoms[k]
        J = len(atoms)
        if J == 0:
            raise RuntimeError("relocation attempted on an empty component")
        r = int(self.rng.integers(J))
        beta = atoms[r].beta
        knots = list(atoms[r].knots.knots)
        lo_bound, hi_bound = self.domain
        flags = []
        for i in range(k + 2):
            lo = knots[i - 1] if i > 0 else lo_bound
            hi = knots[i + 1] if i < k + 1 else hi_bound
            candidate = knots.copy()
            candidate[i] = float(self.rng.uniform(lo, hi))
            new_col = self._col(candidate, k)
            delta = beta * (new_col - self.cols[k][r])
            accepted = self._accept(self._llr(delta))
            if accepted:
                knots = candidate
                atoms[r] = Atom(knots=KnotVector(degree=k, knots=knots), beta=beta)
                self.cols[k][r] = new_col
                self.fitted = self.fitted + delta
            flags.append(accepted)
        self.gibbs_beta(k, r)
        return flags

    # ---- Gibbs updates ----------------------------------------------------

    def gibbs_beta(self, k: int, idx: int):
        resid = self._resid()
        atom = self.atoms[k][idx]
        col = self.cols[k][idx]
        var = 1.0 / (float(col @ col) / self.sigma2 + 1.0 / self.phi**2)
        partial = resid + atom.beta * col
        mean = var * float(partial @ col) / self.sigma2
        new_beta = float(self.rng.normal(mean, math.sqrt(var)))
        self.fitted = self.fitted + (new_beta - atom.beta) * col
        self.atoms[k][idx] = dataclasses.replace(atom, beta=new_beta)

    def gibbs_M(self, k: int):
        a = self.hyper.a_gamma[k] + len(self.atoms[k])
        b = self.hyper.b_gamma[k] + 1.0
        self.M[k] = max(float(self.rng.gamma(a, 1.0 / b)), _TINY)

    def gibbs_sigma2(self):
        r, R = self.hyper.r, self.hyper.R
        r0 = r + len(self.y)
        R0 = (_rss(self._resid()) + r * R) / r0
        g = self.rng.gamma(r0 / 2.0, 2.0 / max(r0 * R0, _TINY))
        self.sigma2 = 1.0 / max(g, _TINY)

    # ---- outer loop -------------------------------------------------------

    def move(self, k: int, counters=None) -> None:
        kind = choose_move(self.hyper, len(self.atoms[k]), self.rng)
        if kind == BIRTH:
            accepted, _ = self.birth(k)
        elif kind == DEATH:
            accepted, _ = self.death(k)
        else:
            flags = self.relocate(k)
            accepted = any(flags)
        if counters is not None:
            attempts, accepts = counters
            attempts[(kind, k)] = attempts.get((kind, k), 0) + 1
            accepts[(kind, k)] = accepts.get((kind, k), 0) + int(accepted)

    def sweep(self, counters=None, moves_per_degree: int = 1,
              beta_sweep: bool = False) -> None:
        for k in self.hyper.degrees:
            for _ in range(moves_per_degree):
                self.move(k, counters)
            self.gibbs_M(k)
        self.gibbs_sigma2()
        if beta_sweep:
            for k in self.hyper.degrees:
                for idx in range(len(self.atoms[k])):
                    self.gibbs_beta(k, idx)


# ---- acceptance ratios ----------------------------------------------------


def birth_ratio(llr: float, M: float, J: int, hyper: Hyperparams) -> float:
    """Log acceptance ratio of a prior-proposed birth into a component of J atoms."""
    pb, pd, _ = hyper.move_probs
    proposal_pb = 1.0 if J == 0 else pb
    return llr + _log(M) - math.log(J + 1) + _log(pd) - _log(proposal_pb)


def death_ratio(llr: float, M: float, J: int, hyper: Hyperparams) -> float:
    """Log acceptance ratio of removing one of a component's J atoms."""
    pb, pd, _ = hyper.move_probs
    reverse_pb = 1.0 if J == 1 else pb
    return llr + math.log(J) - _log(M) + _log(reverse_pb) - _log(pd)


def birth_log_ratio(state: ModelState, k: int, atom: Atom, data: Dataset,
                    hyper: Hyperparams) -> float:
    """Full-likelihood oracle of `Chain.birth`'s log ratio for appending `atom`."""
    comp = state.components[k]
    proposed = _with_atoms(state, k, comp.atoms + [atom])
    llr = log_likelihood(proposed, data) - log_likelihood(state, data)
    return birth_ratio(llr, comp.M, comp.count, hyper)


def death_log_ratio(state: ModelState, k: int, r: int, data: Dataset,
                    hyper: Hyperparams) -> float:
    """Full-likelihood oracle of `Chain.death`'s log ratio for removing atom r."""
    comp = state.components[k]
    if comp.count == 0:
        raise RuntimeError("death ratio undefined for an empty component")
    proposed = _with_atoms(state, k, comp.atoms[:r] + comp.atoms[r + 1:])
    llr = log_likelihood(proposed, data) - log_likelihood(state, data)
    return death_ratio(llr, comp.M, comp.count, hyper)


def _with_atoms(state: ModelState, k: int, atoms: list[Atom]) -> ModelState:
    comp = dataclasses.replace(state.components[k], atoms=list(atoms))
    return dataclasses.replace(state, components={**state.components, k: comp})


def run_chain(data: Dataset, hyper: Hyperparams, cfg: ChainConfig,
              grid: np.ndarray | None = None, prior_only: bool = False,
              full_recompute: bool = False, moves_per_degree: int = 1,
              beta_sweep: bool = False, store_curves: bool = True,
              keep_states: bool = False) -> ChainOutput:
    """Run the full sampler: init from the prior, sweep, retain thinned samples."""
    rng = np.random.default_rng(cfg.seed)
    chain = Chain(data, hyper, rng, prior_only=prior_only,
                  full_recompute=full_recompute)
    if grid is None:
        grid = data.x
    grid = np.asarray(grid, dtype=float)
    on_data = np.array_equal(grid, chain.x)
    attempts: dict[tuple[str, int], int] = {}
    accepts: dict[tuple[str, int], int] = {}
    curves = [] if store_curves else None
    sigma2_trace = []
    J_trace = {k: [] for k in hyper.degrees}
    M_trace = {k: [] for k in hyper.degrees}
    states = [] if keep_states else None
    for it in range(cfg.iterations):
        chain.sweep((attempts, accepts), moves_per_degree=moves_per_degree,
                    beta_sweep=beta_sweep)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            sigma2_trace.append(chain.sigma2)
            for k in hyper.degrees:
                J_trace[k].append(len(chain.atoms[k]))
                M_trace[k].append(chain.M[k])
            if store_curves:
                curves.append(chain.cached_mean() if on_data else chain.mean_on(grid))
            if keep_states:
                states.append(chain.snapshot())
    return ChainOutput(
        config=cfg,
        grid=grid if store_curves else None,
        curves=np.asarray(curves) if store_curves else None,
        sigma2=np.asarray(sigma2_trace),
        J={k: np.asarray(v, dtype=int) for k, v in J_trace.items()},
        M={k: np.asarray(v) for k, v in M_trace.items()},
        attempts=attempts,
        accepts=accepts,
        states=states,
    )


def posterior_curve(out: ChainOutput, grid: np.ndarray | None = None,
                    levels: tuple[float, float] = (0.025, 0.975)):
    """Pointwise posterior mean and empirical quantile band over retained samples."""
    if out.retained == 0:
        raise ValueError("no retained samples")
    if grid is None or (out.grid is not None and np.array_equal(grid, out.grid)):
        if out.curves is None:
            raise ValueError("chain output stored no curves")
        curves = out.curves
    elif out.states is not None:
        grid = np.asarray(grid, dtype=float)
        curves = np.asarray([eval_mean(s, grid) for s in out.states])
    else:
        raise ValueError("grid differs from the stored one and no states were kept")
    mean = curves.mean(axis=0)
    lower = np.quantile(curves, levels[0], axis=0)
    upper = np.quantile(curves, levels[1], axis=0)
    return mean, lower, upper
