"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def full_scale_runner():
    """A fresh import of scripts/run_full_scale.py (scripts/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "run_full_scale", SCRIPTS / "run_full_scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_basis():
    """A fresh import of scripts/bench_basis.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_basis", SCRIPTS / "bench_basis.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perf_pairs():
    """A fresh import of scripts/perf_pairs.py."""
    spec = importlib.util.spec_from_file_location(
        "perf_pairs", SCRIPTS / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
