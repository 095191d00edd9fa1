"""Shared test helpers: the length optima, expensive enough to compute once,
and the environment of a subprocess that imports kerrshift."""

import os
from functools import lru_cache
from pathlib import Path

import pytest

import kerrshift
from kerrshift.optimize import optimize_length


def checkout_env() -> dict:
    """The environment of a subprocess that imports kerrshift: PYTHONPATH
    starts at the directory this run imported kerrshift from, so the child
    runs the same code and not an installed copy."""
    src = str(Path(kerrshift.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@lru_cache(maxsize=None)
def length_optimum(alpha: float):
    return optimize_length(alpha)


@pytest.fixture(scope="session")
def table1_optima():
    return {a: length_optimum(float(a)) for a in (10, 30, 50, 100)}


@pytest.fixture(scope="session")
def scaling_optima():
    return {a: length_optimum(float(a)) for a in (10, 20, 30, 50, 70, 100)}
