"""Probabilistic model: state, hyperparameters and priors.

The mean function is an intercept plus a compound-Poisson sum of B-spline
atoms, one Poisson-rate component per configured degree. The knot prior
U(domain^(k+2)) is realized as "draw k+2 iid uniforms, sort", whose density
on the ordered region is (k+2)!/|domain|^(k+2); acceptance ratios only ever
use prior ratios in which this constant cancels.

An atom is a plain `(knots, beta)` record: a non-descending sequence of
k + 2 finite knots and a finite coefficient. `ModelState` is the one place
a record is checked; `sample_atom` draws records that pass by construction.

A function's `rng` is a numpy `Generator` or a chain's `sampler.Draws`,
which draws through the same `random`, `normal`, `gamma` and `poisson`
methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


TINY = 1e-300  # floor that keeps a drawn rate, precision or log argument positive


class DegenerateDataError(ValueError):
    """Raised when y is constant: the coefficient prior scale would be 0."""


@dataclass
class DegreeComponent:
    """All `(knots, beta)` records of one degree plus that degree's Poisson rate."""

    atoms: list[tuple]
    M: float

    def __post_init__(self):
        if not _positive(self.M):
            raise ValueError(f"M must be finite and positive, got {self.M}")

    @property
    def count(self) -> int:
        return len(self.atoms)


@dataclass
class ModelState:
    """One point in the variable-dimension parameter space.

    Each component's degree is its key in `components`. `phi` is the
    coefficient prior scale, one value shared by every degree.
    """

    beta0: float
    components: dict[int, DegreeComponent]
    sigma2: float
    phi: float

    def __post_init__(self):
        if not math.isfinite(self.beta0):
            raise ValueError(f"beta0 must be finite, got {self.beta0}")
        if not _positive(self.sigma2):
            raise ValueError(f"sigma2 must be finite and positive, got {self.sigma2}")
        if not _positive(self.phi):
            raise ValueError(f"phi must be finite and positive, got {self.phi}")
        for k, comp in self.components.items():
            for knots, beta in comp.atoms:
                if len(knots) != k + 2:
                    raise ValueError(f"degree {k} needs {k + 2} knots, got {len(knots)}")
                if not all(map(math.isfinite, knots)):
                    raise ValueError(f"knots must be finite, got {tuple(knots)}")
                if any(a > b for a, b in zip(knots, knots[1:])):
                    raise ValueError(f"knots must be non-descending, got {tuple(knots)}")
                if not math.isfinite(beta):
                    raise ValueError(f"beta must be finite, got {beta}")


@dataclass(frozen=True)
class Hyperparams:
    """Everything held fixed during one chain.

    One (a_gamma, b_gamma) pair is the Gamma prior of every degree's rate M_k.
    `log_pb` and `log_pd` are the logs of the birth and death probabilities
    (-inf for 0), which every birth and death ratio reads.
    """

    degrees: tuple[int, ...]
    r: float = 0.01
    R: float = 0.01
    a_gamma: float = 1.0
    b_gamma: float = 1.0
    move_probs: tuple[float, float, float] = (0.4, 0.4, 0.2)
    log_pb: float = field(init=False, repr=False, compare=False)
    log_pd: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k in self.degrees:
            if not float(k).is_integer():
                raise ValueError(f"degrees must be integers, got {k!r}")
        degrees = tuple(sorted(set(int(k) for k in self.degrees)))
        if not degrees or any(k < 0 for k in degrees):
            raise ValueError("degrees must be a non-empty set of non-negative ints")
        object.__setattr__(self, "degrees", degrees)
        for name in ("r", "R", "a_gamma", "b_gamma"):
            val = getattr(self, name)
            if not _positive(val):
                raise ValueError(f"{name} must be finite and positive, got {val}")
        pb, pd, pw = probs = tuple(self.move_probs)
        if (not all(map(math.isfinite, probs)) or min(probs) < 0
                or abs(pb + pd + pw - 1.0) > 1e-12):
            raise ValueError(
                f"move probabilities must be finite, >= 0 and sum to 1, got {probs}")
        object.__setattr__(self, "move_probs", probs)
        object.__setattr__(self, "log_pb", safe_log(pb))
        object.__setattr__(self, "log_pd", safe_log(pd))


def _positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


def safe_log(x: float) -> float:
    """log x, and -inf at x = 0."""
    return math.log(x) if x > 0 else -math.inf


@dataclass(frozen=True)
class Dataset:
    """Paired observations with the closed domain knots are confined to."""

    x: np.ndarray
    y: np.ndarray
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("x and y must be 1-d sequences of equal length")
        if len(x) == 0:
            raise ValueError("dataset must contain at least one observation")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        lo, hi = (x.min(), x.max()) if self.domain is None else self.domain
        lo, hi = float(lo), float(hi)
        if lo > x.min() or hi < x.max():
            raise ValueError("domain does not cover the data")
        if not math.isfinite(hi - lo):
            raise ValueError(f"domain width must be finite, got ({lo}, {hi})")
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def n(self) -> int:
        return len(self.x)


def sample_atom(k: int, phi: float, domain: tuple[float, float],
                rng) -> tuple[list[float], float]:
    """Draw one atom `(knots, beta)` from its prior.

    beta ~ N(0, phi^2) is drawn first, as `rng.normal(0, phi)`; the knots
    are then k + 2 successive `lo + (hi - lo) * rng.random()` draws, sorted.
    Given a `Generator`, the knots are `rng.uniform(lo, hi, size=k + 2)`'s
    doubles.
    """
    if not _positive(phi):
        raise ValueError(f"phi must be finite and positive, got {phi}")
    lo, hi = domain
    span = hi - lo
    if not 0 < span < math.inf:
        raise ValueError(f"domain width must be finite and positive, got ({lo}, {hi})")
    beta = float(rng.normal(0.0, phi))
    return sorted([lo + span * rng.random() for _ in range(k + 2)]), beta


def init_state(data: Dataset, hyper: Hyperparams, rng) -> ModelState:
    """Initialize from the prior, with beta0 = mean(y) and phi = half y's range."""
    with np.errstate(over="ignore"):  # y's sum can overflow while y's range does not
        beta0 = float(data.y.mean())
    if not math.isfinite(beta0):
        raise ValueError(f"response mean must be finite, got {beta0}")
    lo, hi = float(data.y.min()), float(data.y.max())
    spread = hi - lo  # Python floats: an overflow is inf, not a numpy warning
    if not math.isfinite(spread):
        raise ValueError(f"response range width must be finite, got ({lo}, {hi})")
    if spread <= 0:
        raise DegenerateDataError("y is constant: coefficient prior scale would be 0; "
                                  "an intercept-only fit needs no atoms")
    phi = 0.5 * spread
    components: dict[int, DegreeComponent] = {}
    for k in hyper.degrees:
        M = float(rng.gamma(hyper.a_gamma, 1.0 / hyper.b_gamma))
        M = max(M, TINY)
        J = int(rng.poisson(M))
        atoms = [sample_atom(k, phi, data.domain, rng) for _ in range(J)]
        components[k] = DegreeComponent(atoms=atoms, M=M)
    g = rng.gamma(hyper.r / 2.0, 2.0 / (hyper.r * hyper.R))  # sigma^2 ~ IG(r/2, rR/2)
    sigma2 = 1.0 / max(g, TINY)
    return ModelState(beta0=beta0, components=components, sigma2=sigma2, phi=phi)
