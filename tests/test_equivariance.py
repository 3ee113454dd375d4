"""Affine equivariance: relabelling the axes relabels the chain.

Each knot is drawn as `lo + span * u` on the data's domain, the piece
tables are built from ratios h / span, and `beta0` and `phi` come from y.
So x -> a x + b leaves every likelihood ratio, and with it every accept
decision, as it was; y -> c y + s with R -> c^2 R scales each beta and the
residual by c and sigma^2 by c^2, and shifts beta0 by s. A power-of-two a
or c with no shift is exact in floating point, so it must move no bit. The
cases, maps, chain and bounds were fixed before the test first ran.
"""

import math

import numpy as np
import pytest

from levyspline.model import Dataset, Hyperparams
from levyspline.sampler import ChainConfig, run_chain
from levyspline.signals import generate_dataset

CASES = {"blocks": (0,), "heavisine": (0, 2), "modified_heavisine": (0, 1, 2, 3)}
# (a, b, c, s): x -> a x + b, y -> c y + s
MAPS = [(2.0, 0.0, 1.0, 0.0), (0.5, 0.0, 1.0, 0.0), (1.0, 3.0, 1.0, 0.0),
        (3.7, -1.3, 1.0, 0.0), (1.0, 0.0, 1.0, 5.0), (1.0, 0.0, 4.0, 0.0),
        (1.0, 0.0, 3.0, -2.0)]
CHAIN = ChainConfig(iterations=3000, burn_in=1000, thin=10, seed=11)
R = Hyperparams(degrees=(0,)).R


def fit(function, a=1.0, b=0.0, c=1.0, s=0.0):
    data = generate_dataset(function, 128, 3.0, 7)
    mapped = Dataset(x=a * data.x + b, y=c * data.y + s)
    return run_chain(mapped, Hyperparams(degrees=CASES[function], R=c * c * R), CHAIN)


@pytest.fixture(scope="module", params=list(CASES))
def unmapped(request):
    return request.param, fit(request.param)


@pytest.mark.parametrize("a, b, c, s", MAPS)
def test_affine_map_relabels_the_chain(unmapped, a, b, c, s):
    function, base = unmapped
    out = fit(function, a, b, c, s)
    for k in CASES[function]:
        assert np.array_equal(out.J[k], base.J[k]), k
    if b == s == 0 and math.frexp(a)[0] == math.frexp(c)[0] == 0.5:
        assert out.curves.tobytes() == (c * base.curves).tobytes()
        assert (out.sigma2 / (c * c)).tobytes() == base.sigma2.tobytes()
    else:
        assert np.abs(out.curves - (c * base.curves + s)).max() <= 1e-10 * c
        assert np.abs(out.sigma2 / (c * c * base.sigma2) - 1).max() <= 1e-12
