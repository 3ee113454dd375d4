"""Calibration of the full sampler on data (Geweke 2004, "Getting it right";
Talts et al. 2018, simulation-based calibration).

Draw theta from the prior and y | theta, then run T sweeps of `Chain` on y
starting from theta. theta is then an exact posterior draw, which a correct
kernel leaves one, so the final state is again a prior draw, whatever T. Its
J_k, M_k, log sigma^2 and total knot support width are compared with
independent prior draws: a chi-square test of each J_k (counts 0..3 and >= 4)
and a two-sample KS test of each other statistic. Unlike the prior-only tests
this runs every likelihood ratio, relocation and beta draw. beta0 = 0 and
phi = 1 are fixed off the data, and sigma^2 has a proper IG(r/2, rR/2) prior.

A second setup watches the beta full conditional: relocations, each closing
with a beta redraw, take 80% of the moves, the chains run longer, and the sum
of beta^2 over the live atoms joins the statistics.
"""

import math

import numpy as np
import scipy.stats as st

from levyspline.model import TINY, Dataset, DegreeComponent, Hyperparams, ModelState, sample_atom
from levyspline.sampler import Chain
from levyspline.signals import sample_grid
from oracles import eval_mean

HYPER = Hyperparams((0, 2), r=10.0, R=1.0, a_gamma=1.0, b_gamma=1.0)
PHI = 1.0
X = sample_grid(8)
DOMAIN = (0.0, 1.0)
# written down before the first run: replicates, sweeps per replicate, seed,
# and the family-wise level, split evenly (Bonferroni) over the 6 tests
REPLICATES, SWEEPS, SEED, ALPHA = 1000, 50, 2004, 0.01
# the beta setup, also written down before its first run; its family-wise
# level ALPHA is split over 7 tests. It differs from HYPER only in its move
# probabilities, so `prior_draw` serves both.
BETA_HYPER = Hyperparams((0, 2), r=10.0, R=1.0, a_gamma=1.0, b_gamma=1.0,
                         move_probs=(0.1, 0.1, 0.8))
BETA_REPLICATES, BETA_SWEEPS, BETA_SEED = 1000, 100, 2018


def prior_draw(rng) -> ModelState:
    """theta from the prior: per degree M_k, then J_k, then its atoms; then sigma^2."""
    comps = {}
    for k in HYPER.degrees:
        M = max(float(rng.gamma(HYPER.a_gamma, 1.0 / HYPER.b_gamma)), TINY)
        atoms = [sample_atom(k, PHI, DOMAIN, rng) for _ in range(int(rng.poisson(M)))]
        comps[k] = DegreeComponent(atoms, M)
    g = float(rng.gamma(HYPER.r / 2.0, 2.0 / (HYPER.r * HYPER.R)))
    return ModelState(beta0=0.0, components=comps, sigma2=1.0 / max(g, TINY), phi=PHI)


def statistics(atoms: dict, M: dict, sigma2: float, beta_sq: bool) -> list[float]:
    """J_k and M_k for each degree, log sigma^2, and the atoms' total support
    width; then, if `beta_sq`, the sum of beta^2 over the atoms."""
    stats = ([len(atoms[k]) for k in HYPER.degrees] + [M[k] for k in HYPER.degrees]
             + [math.log(sigma2),
                sum(a[0][-1] - a[0][0] for k in HYPER.degrees for a in atoms[k])])
    if beta_sq:
        stats.append(sum(a[1] ** 2 for k in HYPER.degrees for a in atoms[k]))
    return stats


def calibration_pvalues(hyper=HYPER, replicates=REPLICATES, sweeps=SWEEPS, seed=SEED,
                        beta_sq=False) -> list[float]:
    rng = np.random.default_rng(seed)
    final, prior = [], []
    for _ in range(replicates):
        theta = prior_draw(rng)
        y = eval_mean(theta, X) + math.sqrt(theta.sigma2) * rng.standard_normal(len(X))
        chain = Chain(Dataset(X, y), hyper, rng, state=theta)
        for _ in range(sweeps):
            chain.sweep()
        final.append(statistics(chain.atoms, chain.M, chain.sigma2, beta_sq))
        other = prior_draw(rng)
        prior.append(statistics({k: c.atoms for k, c in other.components.items()},
                                {k: c.M for k, c in other.components.items()},
                                other.sigma2, beta_sq))
    final, prior = np.array(final), np.array(prior)
    n_counts = len(HYPER.degrees)
    p_values = []
    for j in range(n_counts):
        table = [np.bincount(np.minimum(s[:, j].astype(int), 4), minlength=5)
                 for s in (final, prior)]
        p_values.append(st.chi2_contingency(table).pvalue)
    for j in range(n_counts, final.shape[1]):
        p_values.append(st.ks_2samp(final[:, j], prior[:, j]).pvalue)
    return p_values


def beta_pvalues() -> list[float]:
    return calibration_pvalues(BETA_HYPER, BETA_REPLICATES, BETA_SWEEPS, BETA_SEED,
                               beta_sq=True)


def test_chain_on_data_keeps_the_prior():
    # about 2 s on a 2-vCPU VM
    p_values = calibration_pvalues()
    assert min(p_values) > ALPHA / len(p_values), p_values


def test_planted_likelihood_error_is_rejected(monkeypatch):
    # every move's log-likelihood ratio doubled: the chain targets the prior
    # times the likelihood squared, and the final states drift from the prior
    llr = Chain._llr
    monkeypatch.setattr(Chain, "_llr", lambda self, beta, col, cc: 2.0 * llr(self, beta, col, cc))
    p_values = calibration_pvalues()
    assert min(p_values) < ALPHA / len(p_values), p_values


def test_beta_draws_keep_the_prior():
    # about 5-8 s on a 2-vCPU VM
    p_values = beta_pvalues()
    assert len(p_values) == 7
    assert min(p_values) > ALPHA / len(p_values), p_values


def test_planted_beta_variance_error_is_rejected(monkeypatch):
    # Chain.gibbs_beta drawing from N(mean, 2 var): the betas the chain
    # leaves behind are too spread, and sum beta^2 drifts from the prior
    def gibbs_beta(self, k, idx):
        knots, beta, col, cc = self.atoms[k][idx]
        var = 1.0 / (cc / self.sigma2 + 1.0 / self.phi**2)
        mean = var * (float(self.resid.dot(col)) + beta * cc) / self.sigma2
        new_beta = self.draws.normal(mean, math.sqrt(2.0 * var))
        self.atoms[k][idx] = (knots, new_beta, col, cc)
        self._write((new_beta - beta) * col)

    monkeypatch.setattr(Chain, "gibbs_beta", gibbs_beta)
    p_values = beta_pvalues()
    assert min(p_values) < ALPHA / len(p_values), p_values
