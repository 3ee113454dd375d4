"""Fixtures shared by the test modules."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name: str):
    """A fresh import of scripts/<name>.py (scripts/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def full_scale_runner():
    return _load_script("run_full_scale")


@pytest.fixture
def bench_basis():
    return _load_script("bench_basis")


@pytest.fixture
def perf_pairs():
    return _load_script("perf_pairs")
