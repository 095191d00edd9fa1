"""Shared fixtures: the length optima are expensive enough to compute once."""

from functools import lru_cache

import pytest

from kerrshift.optimize import optimize_length


@lru_cache(maxsize=None)
def length_optimum(alpha: float):
    return optimize_length(alpha)


@pytest.fixture(scope="session")
def table1_optima():
    return {a: length_optimum(float(a)) for a in (10, 30, 50, 100)}


@pytest.fixture(scope="session")
def scaling_optima():
    return {a: length_optimum(float(a)) for a in (10, 20, 30, 50, 70, 100)}
