"""Probabilistic model: state, hyperparameters and priors.

The mean function is an intercept plus a compound-Poisson sum of B-spline
atoms, one Poisson-rate component per configured degree. The knot prior
U(domain^(k+2)) is realized as "draw k+2 iid uniforms, sort", whose density
on the ordered region is (k+2)!/|domain|^(k+2); acceptance ratios only ever
use prior ratios in which this constant cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import KnotVector


class DegenerateDataError(ValueError):
    """Raised when y is constant: the coefficient prior scale would be 0."""


@dataclass(frozen=True)
class Atom:
    """One (degree, knot vector, coefficient) triple in the mean function."""

    knots: KnotVector
    beta: float

    @property
    def degree(self) -> int:
        return self.knots.degree


@dataclass
class DegreeComponent:
    """All atoms of one degree plus that degree's Poisson rate."""

    degree: int
    atoms: list[Atom]
    M: float

    def __post_init__(self):
        if self.M <= 0:
            raise ValueError("M must be positive")
        for a in self.atoms:
            if a.degree != self.degree:
                raise ValueError(
                    f"atom of degree {a.degree} in component of degree {self.degree}"
                )

    @property
    def count(self) -> int:
        return len(self.atoms)


@dataclass
class ModelState:
    """One point in the variable-dimension parameter space.

    `phi` is the coefficient prior scale, one value shared by every degree.
    """

    beta0: float
    components: dict[int, DegreeComponent]
    sigma2: float
    phi: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.phi <= 0:
            raise ValueError(f"phi must be positive, got {self.phi}")


@dataclass(frozen=True)
class Hyperparams:
    """Everything held fixed during one chain.

    a_gamma / b_gamma may be given as scalars (applied to every degree) or
    as per-degree mappings.
    """

    degrees: tuple[int, ...]
    r: float = 0.01
    R: float = 0.01
    a_gamma: float | dict[int, float] = 1.0
    b_gamma: float | dict[int, float] = 1.0
    move_probs: tuple[float, float, float] = (0.4, 0.4, 0.2)

    def __post_init__(self):
        degrees = tuple(sorted(set(int(k) for k in self.degrees)))
        if not degrees or any(k < 0 for k in degrees):
            raise ValueError("degrees must be a non-empty set of non-negative ints")
        object.__setattr__(self, "degrees", degrees)
        for name, val in (("r", self.r), ("R", self.R)):
            if not _positive(val):
                raise ValueError(f"{name} must be finite and positive, got {val}")
        for name in ("a_gamma", "b_gamma"):
            val = getattr(self, name)
            if not isinstance(val, dict):
                val = {k: float(val) for k in degrees}
            else:
                val = {int(k): float(v) for k, v in val.items()}
                missing = [k for k in degrees if k not in val]
                if missing:
                    raise ValueError(f"{name} missing degrees {missing}")
            if not all(map(_positive, val.values())):
                raise ValueError(f"{name} entries must be finite and positive, got {val}")
            object.__setattr__(self, name, val)
        pb, pd, pw = probs = tuple(self.move_probs)
        if (not all(map(math.isfinite, probs)) or min(probs) < 0
                or abs(pb + pd + pw - 1.0) > 1e-12):
            raise ValueError(
                f"move probabilities must be finite, >= 0 and sum to 1, got {probs}")
        object.__setattr__(self, "move_probs", probs)


def _positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


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
        if self.domain is None:
            object.__setattr__(self, "domain", (float(x.min()), float(x.max())))
        else:
            lo, hi = float(self.domain[0]), float(self.domain[1])
            if lo > x.min() or hi < x.max():
                raise ValueError("domain does not cover the data")
            object.__setattr__(self, "domain", (lo, hi))

    @property
    def n(self) -> int:
        return len(self.x)


def _uniform_span(lo: float, hi: float) -> float:
    """hi - lo, checked as `Generator.uniform` checks it, with numpy's errors."""
    span = hi - lo
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    return span


def uniform(lo: float, hi: float, rng: np.random.Generator) -> float:
    """`rng.uniform(lo, hi)` bit for bit: numpy computes lo + (hi - lo) * random()."""
    return lo + _uniform_span(lo, hi) * rng.random()


def draw_atom(k: int, phi: float, domain: tuple[float, float],
              rng: np.random.Generator) -> tuple[float, list[float]]:
    """Draw one atom's prior values: beta ~ N(0, phi^2), knots sorted iid uniforms.

    The knots are `rng.uniform(lo, hi, size=k + 2)`'s doubles, sorted: a
    sorted list of finite values, ready for `basis_values` unvalidated.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    lo, hi = domain
    if not hi > lo:
        raise ValueError("domain must be non-degenerate")
    beta = float(rng.normal(0.0, phi))
    span = _uniform_span(lo, hi)
    return beta, sorted([lo + span * u for u in rng.random(k + 2).tolist()])


def sample_atom(k: int, phi: float, domain: tuple[float, float],
                rng: np.random.Generator) -> Atom:
    """Draw one atom from its prior (`draw_atom`'s values, validated)."""
    beta, knots = draw_atom(k, phi, domain, rng)
    return Atom(knots=KnotVector(degree=k, knots=knots), beta=beta)


def coefficient_scale(data: Dataset) -> float:
    """phi = half the observed response range, shared by every degree."""
    spread = float(data.y.max() - data.y.min())
    if spread <= 0:
        raise DegenerateDataError(
            "y is constant: coefficient prior scale would be 0; "
            "an intercept-only fit needs no atoms"
        )
    return 0.5 * spread


def sample_sigma2_prior(hyper: Hyperparams, rng: np.random.Generator) -> float:
    """Draw sigma^2 from its IG(r/2, rR/2) prior."""
    g = rng.gamma(hyper.r / 2.0, 2.0 / (hyper.r * hyper.R))
    return 1.0 / max(g, 1e-300)


def init_state(data: Dataset, hyper: Hyperparams,
               rng: np.random.Generator) -> ModelState:
    """Initialize from the prior with beta0 = mean(y) and data-ranged phi."""
    beta0 = float(data.y.mean())
    phi = coefficient_scale(data)
    components: dict[int, DegreeComponent] = {}
    for k in hyper.degrees:
        M = float(rng.gamma(hyper.a_gamma[k], 1.0 / hyper.b_gamma[k]))
        M = max(M, 1e-300)
        J = int(rng.poisson(M))
        atoms = [sample_atom(k, phi, data.domain, rng) for _ in range(J)]
        components[k] = DegreeComponent(degree=k, atoms=atoms, M=M)
    sigma2 = sample_sigma2_prior(hyper, rng)
    return ModelState(beta0=beta0, components=components, sigma2=sigma2, phi=phi)
