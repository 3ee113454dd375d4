"""Trans-dimensional sampler: birth/death/relocation moves plus Gibbs updates.

Births are proposed from the prior (`model.sample_atom`, the one prior
draw of an atom), so the birth acceptance ratio collapses
to lik-ratio * M_k/(J_k+1) * p_d/p_b, with the forced-birth correction at
the J_k = 0 boundary (the birth proposal probability there is 1, and so is
the matching reverse-birth probability inside a death ratio at J_k = 1).
Relocation proposes each knot uniformly between its neighbors, an interval
identical for the forward and reverse moves, so its acceptance ratio is the
bare likelihood ratio; the relocated atom's coefficient is then re-drawn
from its Normal full conditional. Both acceptance ratios read log p_b
and log p_d from `Hyperparams`, which takes them once per chain.

`Chain` is the only move kernel and `birth_ratio`/`death_ratio` the only
acceptance-ratio code. Every likelihood ratio is `Chain._llr`: adding
`beta * c` to the fit changes the log-likelihood by
`beta * (r·c - beta * c·c / 2) / sigma^2`, with r the residual. A death
reads c and c·c from its atom's record, a birth computes c·c with its
column, and a relocation passes the new column minus the old. Most
proposals are rejected, and a ratio writes nothing. The residual is the
chain's only fit state: `Chain._write`, the one place it changes, takes an
accepted move's delta off it and recomputes its sum of squares. A
prior-only chain is the same chain fitted to no observations; a
full-recompute chain differs only in `_write`, which re-runs the chain's
initial `_refit` at each write: every column and c·c rebuilt from its
record's knots, and the residual taken afresh from their sum.

`run_chain` records a data-grid curve by summing the cached columns
(`Chain.cached_mean`), which has `mean_on`'s bits; any other grid goes
through `mean_on`, which evaluates every atom.

A chain draws every random number through its `Draws`, which wraps the
`Generator` the chain receives. A sweep makes only a handful of scalar
draws, and one scalar `Generator` call costs tens of times as much as
popping a float from a list, so `Draws` fills blocks of `BLOCK` uniforms
(`Generator.random`), `BLOCK` standard normals (`Generator.standard_normal`)
and, for each gamma shape it is asked for, `GAMMA_BLOCK` standard gammas
(`Generator.standard_gamma`), and hands them out one at a time, in block
order. A normal is `loc + scale * z` and a gamma `scale * g`, numpy's own
formulas; an atom index is exactly uniform, by rejection on the 53-bit
integer behind a uniform. Poisson draws, made only by `init_state` and each
with its own rate, go straight to the `Generator`. A chain is fixed by its
seed, but it is not the chain that one `Generator` call per draw would give
on that seed.

`run_chain` seeds its `Generator` from the first child of the seed's
`SeedSequence`; `signals.generate_dataset` draws a dataset's noise from the
root, so data and chain on one seed share no random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import basis_values
from .model import TINY, Dataset, Hyperparams, ModelState, init_state, safe_log, sample_atom

BIRTH, DEATH, RELOCATE = "birth", "death", "relocate"
BLOCK = 1024  # uniforms, and standard normals, drawn per `Generator` call
GAMMA_BLOCK = 16  # standard gammas drawn per `Generator` call, one block per shape
_BAND_COLUMNS = 64  # grid points per `_quantiles` call in `posterior_curve`
_TWO53 = 1 << 53  # a uniform is an integer in [0, 2**53) times 2**-53


def _sumsq(v: np.ndarray) -> float:
    # `.dot` skips the `matmul` gufunc dispatch of `@` and gives the same `ddot` bits
    return float(v.dot(v))


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

    curves: np.ndarray
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


class Draws:
    """A chain's random draws, buffered from one `Generator`.

    Uniforms and standard normals come out in the order of
    `rng.random(BLOCK)` and `rng.standard_normal(BLOCK)`, block after block,
    as Python floats. Each gamma shape has its own blocks of
    `rng.standard_gamma(shape, GAMMA_BLOCK)`, so memory grows with the
    number of distinct shapes: a_gamma + J_k for each J_k seen, r/2 and
    (r + n)/2. Poisson draws are the Generator's own.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # each block is stored reversed, so pop() hands out its first value first
        self._u: list[float] = []
        self._z: list[float] = []
        self._g: dict[float, list[float]] = {}

    def random(self) -> float:
        try:
            return self._u.pop()
        except IndexError:
            self._u = self.rng.random(BLOCK)[::-1].tolist()
            return self._u.pop()

    def normal(self, loc: float, scale: float) -> float:
        try:
            z = self._z.pop()
        except IndexError:
            self._z = self.rng.standard_normal(BLOCK)[::-1].tolist()
            z = self._z.pop()
        return loc + scale * z

    def index(self, J: int) -> int:
        """An exactly uniform draw from range(J), J >= 1.

        The next uniform's 53-bit integer m is rejected when m >= 2**53 -
        2**53 % J, which leaves an equal count of each residue m % J.
        """
        limit = _TWO53 - _TWO53 % J
        while True:
            m = int(self.random() * _TWO53)
            if m < limit:
                return m % J

    def gamma(self, shape: float, scale: float) -> float:
        block = self._g.get(shape)
        if not block:
            block = self.rng.standard_gamma(shape, GAMMA_BLOCK)[::-1].tolist()
            self._g[shape] = block
        return scale * block.pop()

    def poisson(self, lam: float) -> int:
        return self.rng.poisson(lam)


def choose_move(hyper: Hyperparams, J_k: int, rng: Draws | np.random.Generator) -> str:
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
    """Mutable sampler state with cached basis columns and the residual.

    `atoms[k]` is the chain's only store of degree k's atoms: a list of
    plain `(knots, beta, col, cc)` records, `knots` a sorted list of k + 2
    floats, `col` its `basis_values` on the chain's `x` and `cc` the float
    `col·col`. `resid` is `y` minus the fit and `rss` its `resid·resid`.
    `__init__` copies the `(knots, beta)` pairs of the initial
    `ModelState` (from `init_state`, or a caller's `state`, which has checked
    each record), rejects a state whose degrees differ from the
    hyperparameters' or with a knot outside the data's domain, and fits the
    pairs with `_refit`, which makes them records. From then on
    no record is checked: a birth appends a `sample_atom` draw and a
    relocation keeps each knot between its neighbours.

    The chain fits its own `x`/`y`: the data's, or none of them when
    `prior_only`. The knot domain is the data's either way, and so are
    `phi` and `beta0` when the chain starts from `init_state`. Every draw,
    the initial state's included, goes through `self.draws`, which wraps
    `rng`.
    """

    def __init__(self, data: Dataset, hyper: Hyperparams, rng: np.random.Generator,
                 state: ModelState | None = None, prior_only: bool = False,
                 full_recompute: bool = False):
        self.hyper = hyper
        self.draws = Draws(rng)
        self.domain = data.domain
        self.full_recompute = full_recompute
        n = 0 if prior_only else data.n
        self.x, self.y = data.x[:n], data.y[:n]
        if state is None:
            state = init_state(data, hyper, self.draws)
        self.beta0 = state.beta0
        self.sigma2 = state.sigma2
        self.phi = state.phi
        self.atoms: dict[int, list[tuple]] = {
            k: [(list(knots), beta) for knots, beta in comp.atoms]
            for k, comp in state.components.items()}
        self.M: dict[int, float] = {k: comp.M for k, comp in state.components.items()}
        if set(self.atoms) != set(hyper.degrees):
            raise ValueError("state degrees do not match hyperparameter degrees")
        lo, hi = self.domain
        for atoms in self.atoms.values():
            for knots, _ in atoms:
                if knots[0] < lo or knots[-1] > hi:
                    raise ValueError(
                        f"knots {tuple(knots)} lie outside the domain ({lo}, {hi})")
        self.attempts: dict[tuple[str, int], int] = {}
        self.accepts: dict[tuple[str, int], int] = {}
        self._refit()

    # ---- caches -----------------------------------------------------------

    def _refit(self):
        """Fit the records afresh: every column and c·c, then `resid` and `rss`."""
        # in place: a relocation in progress holds its degree's list
        for k, atoms in self.atoms.items():
            for i, (knots, beta, *_) in enumerate(atoms):
                col = basis_values(knots, k, self.x)
                atoms[i] = (knots, beta, col, _sumsq(col))
        self.resid = self.y - self.cached_mean()
        self.rss = _sumsq(self.resid)

    def _write(self, delta: np.ndarray):
        """Add `delta` to the fit: take it off `resid` and recompute `rss`.

        Every move writes its record first, so a full-recompute chain ignores
        `delta` and re-runs its initial `_refit` from the records instead.
        """
        if self.full_recompute:
            self._refit()
        else:
            self.resid -= delta
            self.rss = _sumsq(self.resid)

    def cached_mean(self) -> np.ndarray:
        """The mean on the chain's `x`, summed from the cached columns.

        Each column is `basis_values` of its atom on `x` and the sum runs in
        `mean_on`'s order, so this is `mean_on(x)` bit for bit without
        evaluating a basis function. `y - resid`, updated by taking off
        deltas, can differ from it in the last bits.
        """
        out = np.full(len(self.x), self.beta0)
        for atoms in self.atoms.values():
            for _, beta, col, _ in atoms:
                out += beta * col
        return out

    def _llr(self, beta: float, col: np.ndarray, cc: float) -> float:
        """Log-likelihood ratio of adding `beta * col` to the fit, `cc` = col·col.

        -(|r - beta c|^2 - |r|^2) / (2 sigma^2), expanded, so no difference
        of two large sums of squares is taken.
        """
        return beta * (float(self.resid.dot(col)) - 0.5 * beta * cc) / self.sigma2

    def _accept(self, log_ratio: float) -> bool:
        return math.log(self.draws.random() + TINY) < log_ratio

    def mean_on(self, grid: np.ndarray) -> np.ndarray:
        """The mean on any `grid`, evaluating every atom's basis there."""
        out = np.full(len(grid), self.beta0)
        for k, atoms in self.atoms.items():
            for knots, beta, *_ in atoms:
                out += beta * basis_values(knots, k, grid)
        return out

    # ---- reversible-jump moves -------------------------------------------

    def birth(self, k: int) -> tuple[bool, float]:
        J = len(self.atoms[k])
        knots, beta = sample_atom(k, self.phi, self.domain, self.draws)
        col = basis_values(knots, k, self.x)
        cc = _sumsq(col)
        log_ratio = birth_ratio(self._llr(beta, col, cc), self.M[k], J, self.hyper)
        accepted = self._accept(log_ratio)
        if accepted:
            self.atoms[k].append((knots, beta, col, cc))
            self._write(beta * col)
        return accepted, log_ratio

    def death(self, k: int) -> tuple[bool, float]:
        atoms = self.atoms[k]
        J = len(atoms)
        if J == 0:
            raise RuntimeError("death move attempted on an empty component")
        r = self.draws.index(J)
        _, beta, col, cc = atoms[r]
        log_ratio = death_ratio(self._llr(-beta, col, cc), self.M[k], J, self.hyper)
        accepted = self._accept(log_ratio)
        if accepted:
            atoms.pop(r)
            self._write(-beta * col)
        return accepted, log_ratio

    def relocate(self, k: int) -> list[bool]:
        atoms = self.atoms[k]
        J = len(atoms)
        if J == 0:
            raise RuntimeError("relocation attempted on an empty component")
        r = self.draws.index(J)
        knots, beta, col, _ = atoms[r]
        lo_bound, hi_bound = self.domain
        flags = []
        for i in range(k + 2):
            lo = knots[i - 1] if i > 0 else lo_bound
            hi = knots[i + 1] if i < k + 1 else hi_bound
            candidate = knots.copy()
            candidate[i] = lo + (hi - lo) * self.draws.random()
            new_col = basis_values(candidate, k, self.x)
            diff = new_col - col
            accepted = self._accept(self._llr(beta, diff, _sumsq(diff)))
            if accepted:
                knots, col = candidate, new_col
                # written before the fit: a full-recompute rebuild reads it
                atoms[r] = (knots, beta, col, _sumsq(col))
                self._write(beta * diff)
            flags.append(accepted)
        self.gibbs_beta(k, r)
        return flags

    # ---- Gibbs updates ----------------------------------------------------

    def gibbs_beta(self, k: int, idx: int):
        knots, beta, col, cc = self.atoms[k][idx]
        var = 1.0 / (cc / self.sigma2 + 1.0 / self.phi**2)
        # (resid + beta col)·col, the partial residual's, without forming it
        mean = var * (float(self.resid.dot(col)) + beta * cc) / self.sigma2
        new_beta = self.draws.normal(mean, math.sqrt(var))
        self.atoms[k][idx] = (knots, new_beta, col, cc)
        self._write((new_beta - beta) * col)

    def gibbs_M(self, k: int):
        a = self.hyper.a_gamma + len(self.atoms[k])
        b = self.hyper.b_gamma + 1.0
        self.M[k] = max(self.draws.gamma(a, 1.0 / b), TINY)

    def gibbs_sigma2(self):
        r, R = self.hyper.r, self.hyper.R
        r0 = r + len(self.y)
        R0 = (self.rss + r * R) / r0
        g = self.draws.gamma(r0 / 2.0, 2.0 / max(r0 * R0, TINY))
        self.sigma2 = 1.0 / max(g, TINY)

    # ---- outer loop -------------------------------------------------------

    def sweep(self) -> None:
        """One move per degree, each followed by its M_k draw, then sigma^2."""
        for k in self.hyper.degrees:
            kind = choose_move(self.hyper, len(self.atoms[k]), self.draws)
            if kind == BIRTH:
                accepted, _ = self.birth(k)
            elif kind == DEATH:
                accepted, _ = self.death(k)
            else:
                accepted = any(self.relocate(k))
            key = (kind, k)
            self.attempts[key] = self.attempts.get(key, 0) + 1
            self.accepts[key] = self.accepts.get(key, 0) + int(accepted)
            self.gibbs_M(k)
        self.gibbs_sigma2()


# ---- acceptance ratios ----------------------------------------------------


def birth_ratio(llr: float, M: float, J: int, hyper: Hyperparams) -> float:
    """Log acceptance ratio of a prior-proposed birth into a component of J atoms."""
    # log 1 = 0.0 at J = 0, where the birth was forced
    log_proposal = 0.0 if J == 0 else hyper.log_pb
    return llr + safe_log(M) - math.log(J + 1) + hyper.log_pd - log_proposal


def death_ratio(llr: float, M: float, J: int, hyper: Hyperparams) -> float:
    """Log acceptance ratio of removing one of a component's J atoms."""
    log_reverse = 0.0 if J == 1 else hyper.log_pb
    return llr + math.log(J) - safe_log(M) + log_reverse - hyper.log_pd


def run_chain(data: Dataset, hyper: Hyperparams, cfg: ChainConfig,
              grid: np.ndarray | None = None, prior_only: bool = False,
              full_recompute: bool = False) -> ChainOutput:
    """Run the full sampler: init from the prior, sweep, retain thinned samples.

    Row i records the state after `cfg.burn_in + (i + 1) * cfg.thin` sweeps;
    the sweeps left after the last row still count in `attempts`. Curves
    are recorded on `grid`, a 1-d array of finite points (the data's `x` by
    default); an empty `grid` records none. The chain draws from the first
    child of `cfg.seed`'s `SeedSequence`, not from `generate_dataset`'s
    stream.
    """
    grid = data.x if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-d, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("grid contains non-finite values")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    chain = Chain(data, hyper, rng, prior_only=prior_only,
                  full_recompute=full_recompute)
    on_data = np.array_equal(grid, chain.x)
    for _ in range(cfg.burn_in):
        chain.sweep()
    # allocated after the burn-in, which keeps a fit's peak RSS 0.06 MB lower
    curves = np.empty((cfg.retained, len(grid)))
    sigma2 = np.empty(cfg.retained)
    J = {k: np.empty(cfg.retained, dtype=int) for k in hyper.degrees}
    M = {k: np.empty(cfg.retained) for k in hyper.degrees}
    for row in range(cfg.retained):
        for _ in range(cfg.thin):
            chain.sweep()
        sigma2[row] = chain.sigma2
        for k in hyper.degrees:
            J[k][row] = len(chain.atoms[k])
            M[k][row] = chain.M[k]
        if len(grid):
            curves[row] = chain.cached_mean() if on_data else chain.mean_on(grid)
    for _ in range(cfg.iterations - cfg.burn_in - cfg.retained * cfg.thin):
        chain.sweep()
    return ChainOutput(curves, sigma2, J, M, chain.attempts, chain.accepts)


def _quantiles(a: np.ndarray, levels) -> np.ndarray:
    """`np.quantile(a, levels, axis=0)` for a 2-D array and float levels, bit for bit.

    numpy's linear method step for step, without its `np.unique`, which
    imports numpy.ma: the same virtual indexes and bounds, one partition of
    a C-contiguous copy with numpy's own kth set (another set moves where
    +0.0/-0.0 ties land), numpy's `_lerp` with its `t >= 0.5` branch, and
    a column holding a NaN reads NaN.
    """
    n = len(a)
    virtual = [(n - 1) * q for q in levels]
    prev = [math.floor(v) if v < n - 1 else -1 for v in virtual]
    nxt = [i + 1 if i >= 0 else -1 for i in prev]
    t = np.array([[v - i] for v, i in zip(virtual, prev)])
    arr = np.array(a, dtype=float, order="C")
    arr.partition(sorted({0, -1, *prev, *nxt}), axis=0)
    lo, hi = arr[prev], arr[nxt]
    diff = hi - lo
    res = lo + diff * t
    np.subtract(hi, diff * (1 - t), out=res, where=t >= 0.5)
    nan = np.isnan(arr[-1])
    if nan.any():
        np.copyto(res, arr[-1], where=nan)
    return res


def posterior_curve(out: ChainOutput, levels: tuple[float, float] = (0.025, 0.975)):
    """Pointwise posterior mean and empirical quantile band of the stored curves.

    Returns `(mean, lower, upper)` with the bits of `out.curves.mean(axis=0)`
    and of `np.quantile(out.curves, levels, axis=0)`. The band is taken
    by `_quantiles`, `_BAND_COLUMNS` grid points at a time, so its scratch is
    retained x `_BAND_COLUMNS` doubles, not a copy of the store, and each
    block's is freed before the next is copied; each grid point's quantiles
    see the same column in the same order, so no bit moves. `out.curves` is
    not modified. Levels outside [0, 1], or NaN, raise `np.quantile`'s
    ValueError.
    """
    if out.retained == 0:
        raise ValueError("no retained samples")
    if not all(0.0 <= q <= 1.0 for q in levels):
        raise ValueError("Quantiles must be in the range [0, 1]")
    curves = out.curves
    band = np.empty((2, curves.shape[1]))
    for j in range(0, curves.shape[1], _BAND_COLUMNS):
        cols = slice(j, j + _BAND_COLUMNS)
        band[:, cols] = _quantiles(curves[:, cols], levels)
    return curves.mean(axis=0), band[0], band[1]
