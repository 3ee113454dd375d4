import levyspline
from levyspline import bspline, model, sampler

ORACLES = ("birth_log_ratio", "death_log_ratio", "_with_atoms", "log_likelihood",
           "LOG_2PI", "atom_log_prior", "eval_basis", "basis_integral", "eval_mean")


def test_all_resolves_every_name():
    assert len(set(levyspline.__all__)) == len(levyspline.__all__)
    for name in levyspline.__all__:
        assert getattr(levyspline, name) is not None, name


def test_test_oracles_not_in_package():
    # the full-evaluation oracles live in tests/oracles.py only
    import oracles

    for name in ORACLES:
        assert hasattr(oracles, name)
        assert name not in levyspline.__all__
        for module in (levyspline, bspline, model, sampler):
            assert not hasattr(module, name), (module.__name__, name)
