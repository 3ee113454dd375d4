"""Synthetic benchmark signals and RSNR-calibrated noisy datasets.

The four classic Donoho-Johnstone test functions (Bumps, Blocks, Doppler,
Heavisine) follow the standard Wavelab definitions; the three "modified"
variants add smooth components to mixtures of jumps and rational-kernel
peaks. All are defined on [0, 1]. Noise levels are set through the root
signal-to-noise ratio RSNR = sd(f)/sigma, with sd(f) taken as the grid
average of (f - mean f)^2 under the root.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Dataset

_BLOCKS_T = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_H = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_H = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_W = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def ssgn(x):
    """Shifted sign with values {0, 1/2, 1}: the unit step used by Blocks."""
    return (1.0 + np.sign(x)) / 2.0


def rational_kernel(x, w):
    """Peak kernel (1 + |x/w|)^-4."""
    return (1.0 + np.abs(x / w)) ** -4


def _blocks(x):
    out = np.zeros_like(x)
    for t0, h in zip(_BLOCKS_T, _BLOCKS_H):
        out += h * ssgn(x - t0)
    return out


def _bumps(x):
    out = np.zeros_like(x)
    for t0, h, w in zip(_BLOCKS_T, _BUMPS_H, _BUMPS_W):
        out += h * rational_kernel(x - t0, w)
    return out


def _doppler(x):
    return np.sqrt(x * (1.0 - x)) * np.sin(2.0 * np.pi * 1.05 / (x + 0.05))


def _heavisine(x):
    return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)


def _modified_blocks(x):
    jumps = (4.0 * ssgn(x - 0.1) - 5.0 * ssgn(x - 0.13) + 5.0 * ssgn(x - 0.25)
             - 4.2 * ssgn(x - 0.4) + 2.1 * ssgn(x - 0.44) + 4.3 * ssgn(x - 0.65)
             - 4.2 * ssgn(x - 0.81) + 2.0)
    return 0.6 / 0.92 * jumps + 0.2 + np.sin(8.0 * np.pi * x)


def _modified_bumps(x):
    peaks = (7.0 * rational_kernel(x - 0.1, 0.005)
             + 5.0 * rational_kernel(x - 0.25, 0.07)
             + 4.2 * rational_kernel(x - 0.4, 0.03)
             + 4.3 * rational_kernel(x - 0.65, 0.01)
             + 5.1 * rational_kernel(x - 0.78, 0.008)
             + 3.1 * rational_kernel(x - 0.9, 0.1))
    return peaks + np.cos(4.0 * np.pi * x)


def _modified_heavisine(x):
    return (6.0 * np.sin(4.0 * np.pi * x)
            + 7.0 * ssgn(x - 0.1) - 7.0 * ssgn(x - 0.18)
            - 2.0 * np.sign(x - 0.37)
            + 17.0 * rational_kernel(x - 0.5, 0.01)
            - 3.0 * np.sign(x - 0.72)
            + 10.0 * rational_kernel(x - 0.89, 0.05))


TEST_FUNCTIONS = {
    "bumps": _bumps,
    "blocks": _blocks,
    "doppler": _doppler,
    "heavisine": _heavisine,
    "modified_blocks": _modified_blocks,
    "modified_bumps": _modified_bumps,
    "modified_heavisine": _modified_heavisine,
}


def eval_test_function(name: str, x):
    """Evaluate a named test function at scalar or array x in [0, 1]."""
    try:
        f = TEST_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; choose from {sorted(TEST_FUNCTIONS)}"
        ) from None
    scalar = np.ndim(x) == 0
    out = f(np.atleast_1d(np.asarray(x, dtype=float)))
    return float(out[0]) if scalar else out


def sample_grid(n: int) -> np.ndarray:
    """Equally spaced points (i-1)/(n-1) on [0, 1], endpoints included."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return np.linspace(0.0, 1.0, n)


def rsnr_sigma(f_values, rsnr: float) -> float:
    """Noise sd achieving the requested root signal-to-noise ratio.

    An infinite rsnr is the noiseless sentinel and returns 0.
    """
    if not rsnr > 0:
        raise ValueError(f"rsnr must be positive (inf for noiseless), got {rsnr}")
    if math.isinf(rsnr):
        return 0.0
    f = np.asarray(f_values, dtype=float)
    sd = float(np.sqrt(np.mean((f - f.mean()) ** 2)))
    return sd / rsnr


def generate_dataset(name: str, n: int, rsnr: float, seed: int) -> Dataset:
    """Noisy observations of a test function on the equally spaced grid."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    x = sample_grid(n)
    f = eval_test_function(name, x)
    sigma = rsnr_sigma(f, rsnr)
    rng = np.random.default_rng(seed)
    y = f + rng.normal(0.0, 1.0, size=n) * sigma
    return Dataset(x=x, y=y)
