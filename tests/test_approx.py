"""Approximation formulas: values, calculus, regime switching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from kerrshift.approx import (
    f1_short,
    f2_near_opt,
    f_min_approx,
    f_piecewise,
    kz_app,
    kz_opt_approx,
)
from kerrshift.errors import OutOfValidityRange


def db(value):
    return 10.0 * np.log10(value)


def test_f1_at_zero():
    assert f1_short(25.0, 0.0) == 1.0


def test_f1_published_suppression_levels():
    # x = |a|^2 kz = 0.31 -> -5 dB, x = 0.70 -> -10 dB
    assert db(f1_short(1.0, 0.31)) == pytest.approx(-5.0, abs=0.05)
    assert db(f1_short(1.0, 0.70)) == pytest.approx(-10.0, abs=0.05)
    assert f1_short(1.0, 0.31) == pytest.approx(np.exp(-1.24 + 0.0961), rel=1e-12)


def test_f2_at_crossover_alpha50():
    value = f2_near_opt(2500.0, kz_app(2500.0))
    assert value == pytest.approx(0.0688, abs=2e-4)
    assert db(value) == pytest.approx(-11.6, abs=0.05)


def test_f2_near_published_minimum():
    assert f2_near_opt(2500.0, 0.00257) == pytest.approx(0.00226, rel=0.10)


def test_f2_rejects_zero_length():
    with pytest.raises(ZeroDivisionError):
        f2_near_opt(100.0, 0.0)


def test_kz_app_values():
    assert kz_app(2500.0) == pytest.approx(3.81e-4, rel=1e-3)
    assert kz_app(1.0) == pytest.approx((np.sqrt(3.0) / 2.0) ** (1.0 / 3.0), rel=1e-15)


def test_branch_gap_at_crossover():
    boundary = kz_app(2500.0)
    gap = abs(db(f1_short(2500.0, boundary)) - db(f2_near_opt(2500.0, boundary)))
    assert gap < 1.1


def test_kz_opt_approx_values():
    assert kz_opt_approx(10.0) == pytest.approx(0.0222, abs=2e-4)
    assert kz_opt_approx(10.0) == pytest.approx(0.0218, rel=0.03)
    assert kz_opt_approx(1.0) == pytest.approx(0.477, abs=5e-4)


def test_f_min_approx_values():
    # exact radical oracle: (1/4) (3 / (sqrt(2) |a|^2))^(2/3)
    exact = 0.25 * (3.0 / (np.sqrt(2.0) * 1e4)) ** (2.0 / 3.0)
    assert f_min_approx(100.0) == pytest.approx(exact, rel=1e-14)
    assert f_min_approx(100.0) == pytest.approx(8.90e-4, rel=2e-3)
    assert f_min_approx(100.0) == pytest.approx(0.000892, rel=0.01)


def test_minimizer_constants_from_calculus():
    # independent oracle: root of dF2/dkz written out directly, located by
    # brentq at full precision
    for alpha in (1.0, 7.0, 50.0):
        a4 = alpha ** 4

        def derivative(kz):
            return (32.0 / 3.0) * a4 * kz ** 3 - 1.0 / (8.0 * a4 * kz ** 3)

        guess = kz_opt_approx(alpha)
        root = brentq(derivative, 0.2 * guess, 5.0 * guess, xtol=1e-300, rtol=8.9e-16)
        assert root == pytest.approx(guess, rel=1e-12)
        assert f2_near_opt(alpha * alpha, guess) == pytest.approx(
            f_min_approx(alpha), rel=1e-12)


@given(x1=st.floats(0.0, 1.999), step=st.floats(1e-6, 0.5))
@settings(max_examples=50, deadline=None)
def test_f1_strictly_decreasing_below_two(x1, step):
    x2 = min(x1 + step, 1.9999)
    if x2 <= x1:
        return
    alpha_sq = 36.0
    assert f1_short(alpha_sq, x2 / alpha_sq) < f1_short(alpha_sq, x1 / alpha_sq)


@given(frac=st.floats(0.05, 2.5))
@settings(max_examples=50, deadline=None)
def test_f2_convex_in_length(frac):
    alpha = 20.0
    kz = frac * kz_opt_approx(alpha)
    h = 1e-3 * kz
    a2 = alpha * alpha
    second = (f2_near_opt(a2, kz + h) - 2 * f2_near_opt(a2, kz)
              + f2_near_opt(a2, kz - h)) / (h * h)
    assert second > 0.0


def test_f2_minimum_at_kz_opt():
    alpha = 13.0
    kz0 = kz_opt_approx(alpha)
    f0 = f2_near_opt(alpha * alpha, kz0)
    for eps in (1e-5, 1e-3):
        assert f2_near_opt(alpha * alpha, kz0 * (1 + eps)) >= f0
        assert f2_near_opt(alpha * alpha, kz0 * (1 - eps)) >= f0


def test_piecewise_regimes_and_ranges():
    alpha = 50.0
    assert f_piecewise(alpha, 0.0) == (1.0, "short_length")

    boundary = kz_app(2500.0)
    below, below_regime = f_piecewise(alpha, boundary)
    above, above_regime = f_piecewise(alpha, np.nextafter(boundary, 1.0))
    assert below_regime == "short_length"
    assert above_regime == "near_optimum"
    assert below == f1_short(2500.0, boundary)
    assert abs(db(below) - db(above)) <= 1.1

    top = 2.0 * kz_opt_approx(alpha)
    assert f_piecewise(alpha, top) == (f2_near_opt(2500.0, top), "near_optimum")
    with pytest.raises(OutOfValidityRange):
        f_piecewise(alpha, np.nextafter(top, 1.0))


def test_piecewise_out_of_range():
    with pytest.raises(OutOfValidityRange):
        f_piecewise(50.0, 2.1 * kz_opt_approx(50.0))
    with pytest.raises(OutOfValidityRange):
        f_piecewise(50.0, -1e-9)


def test_input_validation():
    with pytest.raises(ValueError):
        f1_short(-1.0, 0.1)
    with pytest.raises(ValueError):
        f1_short(1.0, -0.1)
    with pytest.raises(ValueError):
        kz_app(0.0)
    with pytest.raises(ValueError):
        kz_opt_approx(0.0)
    with pytest.raises(ValueError):
        f_min_approx(-2.0)
