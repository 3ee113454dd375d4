"""Trans-dimensional sampler: birth/death/relocation moves plus Gibbs updates.

Births are proposed from the prior, so the birth acceptance ratio collapses
to lik-ratio * M_k/(J_k+1) * p_d/p_b, with the forced-birth correction at
the J_k = 0 boundary (the birth proposal probability there is 1, and so is
the matching reverse-birth probability inside a death ratio at J_k = 1).
Relocation proposes each knot uniformly between its neighbors, an interval
identical for the forward and reverse moves, so its acceptance ratio is the
bare likelihood ratio; the relocated atom's coefficient is then re-drawn
from its Normal full conditional.

`Chain` is the only move kernel and `birth_ratio`/`death_ratio` the only
acceptance-ratio code. Every likelihood ratio is computed incrementally from
cached basis columns and the residual `y - fitted`. Most proposals are
rejected, so the residual and its sum of squares are kept until the
`fitted` setter drops them, and a birth builds its validated `Atom` only
when accepted. A prior-only chain is the same chain fitted to no
observations; a full-recompute chain rebuilds the cache from its atoms
before each residual read.

`run_chain` records a data-grid curve by summing the cached columns
(`Chain.cached_mean`), which has `mean_on`'s bits; any other grid goes
through `mean_on`, which evaluates every atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector, basis_values
from .model import (
    Atom,
    Dataset,
    Hyperparams,
    ModelState,
    draw_atom,
    init_state,
    sample_atom,  # noqa: F401  bound here for span tracing; births call draw_atom
    uniform,
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def retained(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainOutput:
    """Thinned post-burn-in records plus per-move acceptance counters."""

    config: ChainConfig
    curves: np.ndarray | None
    sigma2: np.ndarray
    J: dict[int, np.ndarray]
    M: dict[int, np.ndarray]
    attempts: dict[tuple[str, int], int]
    accepts: dict[tuple[str, int], int]

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

    @property
    def fitted(self) -> np.ndarray:
        return self._fitted

    @fitted.setter
    def fitted(self, value: np.ndarray):
        self._fitted = value
        self._resid_rss = None

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

    def _resid(self) -> tuple[np.ndarray, float]:
        """(y - fitted, its sum of squares), computed once per `fitted`.

        A full-recompute chain first rebuilds the cache, so it computes the
        pair afresh on every call.
        """
        if self.full_recompute:
            self._rebuild_cache()
        if self._resid_rss is None:
            resid = self.y - self._fitted
            self._resid_rss = resid, _rss(resid)
        return self._resid_rss

    def _llr(self, delta: np.ndarray) -> float:
        """Log-likelihood ratio of adding `delta` to the fitted values."""
        pair = self._resid_rss
        if pair is None or self.full_recompute:
            pair = self._resid()
        resid, rss = pair
        return -(_rss(resid - delta) - rss) / (2.0 * self.sigma2)

    def _accept(self, log_ratio: float) -> bool:
        return math.log(self.rng.random() + _TINY) < log_ratio

    def mean_on(self, grid: np.ndarray) -> np.ndarray:
        """The mean on any `grid`, evaluating every atom's basis there."""
        out = np.full(len(grid), self.beta0)
        for k, atoms in self.atoms.items():
            for a in atoms:
                out += a.beta * basis_values(a.knots.knots, k, grid)
        return out

    # ---- reversible-jump moves -------------------------------------------

    def birth(self, k: int) -> tuple[bool, float]:
        J = len(self.atoms[k])
        beta, knots = draw_atom(k, self.phi, self.domain, self.rng)
        col = self._col(knots, k)
        delta = beta * col
        log_ratio = birth_ratio(self._llr(delta), self.M[k], J, self.hyper)
        accepted = self._accept(log_ratio)
        if accepted:
            self.atoms[k].append(Atom(knots=KnotVector(degree=k, knots=knots), beta=beta))
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
            candidate[i] = uniform(lo, hi, self.rng)
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
        resid, _ = self._resid()
        atom = self.atoms[k][idx]
        col = self.cols[k][idx]
        var = 1.0 / (float(col @ col) / self.sigma2 + 1.0 / self.phi**2)
        partial = resid + atom.beta * col
        mean = var * float(partial @ col) / self.sigma2
        new_beta = float(self.rng.normal(mean, math.sqrt(var)))
        self.fitted = self.fitted + (new_beta - atom.beta) * col
        self.atoms[k][idx] = Atom(knots=atom.knots, beta=new_beta)

    def gibbs_M(self, k: int):
        a = self.hyper.a_gamma[k] + len(self.atoms[k])
        b = self.hyper.b_gamma[k] + 1.0
        self.M[k] = max(float(self.rng.gamma(a, 1.0 / b)), _TINY)

    def gibbs_sigma2(self):
        r, R = self.hyper.r, self.hyper.R
        r0 = r + len(self.y)
        R0 = (self._resid()[1] + r * R) / r0
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


def run_chain(data: Dataset, hyper: Hyperparams, cfg: ChainConfig,
              grid: np.ndarray | None = None, prior_only: bool = False,
              full_recompute: bool = False, moves_per_degree: int = 1,
              beta_sweep: bool = False, store_curves: bool = True) -> ChainOutput:
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
    curves = np.empty((cfg.retained, len(grid))) if store_curves else None
    sigma2_trace = []
    J_trace = {k: [] for k in hyper.degrees}
    M_trace = {k: [] for k in hyper.degrees}
    for it in range(cfg.iterations):
        chain.sweep((attempts, accepts), moves_per_degree=moves_per_degree,
                    beta_sweep=beta_sweep)
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == cfg.thin - 1:
            row = len(sigma2_trace)
            sigma2_trace.append(chain.sigma2)
            for k in hyper.degrees:
                J_trace[k].append(len(chain.atoms[k]))
                M_trace[k].append(chain.M[k])
            if store_curves:
                curves[row] = chain.cached_mean() if on_data else chain.mean_on(grid)
    return ChainOutput(
        config=cfg,
        curves=curves,
        sigma2=np.asarray(sigma2_trace),
        J={k: np.asarray(v, dtype=int) for k, v in J_trace.items()},
        M={k: np.asarray(v) for k, v in M_trace.items()},
        attempts=attempts,
        accepts=accepts,
    )


def posterior_curve(out: ChainOutput, levels: tuple[float, float] = (0.025, 0.975)):
    """Pointwise posterior mean and empirical quantile band of the stored curves."""
    if out.retained == 0:
        raise ValueError("no retained samples")
    if out.curves is None:
        raise ValueError("chain output stored no curves")
    # one transposed copy puts each grid point's samples in a row, partitioned in place
    lower, upper = np.quantile(out.curves.T.copy(), levels, axis=1, overwrite_input=True)
    return out.curves.mean(axis=0), lower, upper
