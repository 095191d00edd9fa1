"""Closed-form Fano factor vs its invariants and the Fock oracle."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrshift.errors import DegenerateDenominator
from kerrshift.fock import (
    KerrScenario,
    coherent_state,
    displace,
    kerr_evolve,
    photon_statistics,
)
from kerrshift.moments import (
    DisplacementSetting,
    fano_displaced,
    fano_forms,
    fano_values,
    g_factors,
    shift_amplitude,
)


def test_g_factors_at_zero_length():
    g1, g2 = g_factors(KerrScenario(3.0, 0.0))
    assert g1 == 1.0 + 0j
    assert g2 == 1.0 + 0j


@given(alpha=st.floats(0.1, 30.0), kz=st.floats(0.0, 0.3))
@settings(max_examples=60, deadline=None)
def test_g1_modulus_identity(alpha, kz):
    g1, g2 = g_factors(KerrScenario(alpha, kz))
    expected = np.exp(alpha ** 2 * (np.cos(2 * kz) - 1.0))
    assert abs(g1) == pytest.approx(expected, rel=1e-12)
    assert abs(g1) <= 1.0 + 1e-15
    assert abs(g2) <= 1.0 + 1e-15


def test_g1_small_kz_accuracy():
    # arg(g1) = |a|^2 (sin 2kz - 2kz) is a cubic-order residue that a naive
    # evaluation loses to cancellation at small kz; the series path keeps it
    # to full relative precision
    alpha, kz = 100.0, 1e-6
    g1, _ = g_factors(KerrScenario(alpha, kz))
    y = 2.0 * kz
    expected_phase = alpha ** 2 * (-(y ** 3) / 6.0 + y ** 5 / 120.0)
    assert np.angle(g1) == pytest.approx(expected_phase, rel=1e-12)
    assert abs(g1) == pytest.approx(np.exp(-2.0 * alpha ** 2 * np.sin(kz) ** 2), rel=1e-13)


def test_fano_is_one_without_kerr_phase():
    for beta in (0j, 0.3 + 0.1j, -1.5j):
        report = fano_displaced(KerrScenario(7.0, 0.0), DisplacementSetting(beta=beta))
        assert report.fano == 1.0
        assert report.suppression_db == 0.0


def test_fano_is_one_without_shift():
    report = fano_displaced(KerrScenario(7.0, 0.01), DisplacementSetting(beta=0j))
    assert report.fano == 1.0


def test_report_consistency_fields():
    report = fano_displaced(KerrScenario(10.0, 0.0218),
                            DisplacementSetting(beta=-0.02 - 0.12j))
    assert report.fano == pytest.approx(report.variance / report.mean, rel=1e-12)
    assert report.mandel_q == pytest.approx(report.fano - 1.0, abs=1e-15)
    assert report.suppression_db == pytest.approx(10 * np.log10(report.fano), abs=1e-12)


@given(phase=st.floats(0.0, 2 * np.pi), beta_re=st.floats(-0.2, 0.2),
       beta_im=st.floats(-0.2, 0.2))
@settings(max_examples=40, deadline=None)
def test_fano_depends_on_alpha_modulus_only(phase, beta_re, beta_im):
    beta = complex(beta_re, beta_im)
    base = fano_displaced(KerrScenario(10.0, 0.002), DisplacementSetting(beta=beta))
    rotated = fano_displaced(KerrScenario(10.0 * np.exp(1j * phase), 0.002),
                             DisplacementSetting(beta=beta))
    assert rotated.fano == pytest.approx(base.fano, rel=1e-12)
    assert rotated.mean == pytest.approx(base.mean, rel=1e-12)


@given(alpha=st.floats(2.0, 20.0), kz_frac=st.floats(0.001, 2.0),
       beta_scale=st.floats(0.0, 4.0), beta_angle=st.floats(0.0, 2 * np.pi))
@settings(max_examples=60, deadline=None)
def test_mean_and_variance_nonnegative(alpha, kz_frac, beta_scale, beta_angle):
    from kerrshift.approx import f_min_approx, kz_opt_approx

    kz = kz_frac * kz_opt_approx(alpha)
    beta = beta_scale * np.sqrt(f_min_approx(alpha)) * np.exp(1j * beta_angle)
    report = fano_displaced(KerrScenario(alpha, kz), DisplacementSetting(beta=beta))
    assert report.mean >= 0.0
    assert report.variance >= -1e-12 * report.mean


def test_fano_finite_where_the_dephasing_underflows():
    # at |a| = 200, kz = 1 both g1 and g2 underflow to 0, while the expm1 of
    # the w exponent overflows; the forms reduce to F = 1 + 2|a|^2|b|^2 / (1 + |b|^2)
    scenario = KerrScenario(200.0, 1.0)
    assert float(fano_values(scenario, 0.1)) == pytest.approx(1.0 + 800.0 / 1.01, rel=1e-12)


@pytest.mark.parametrize("beta", [1.0, 0.1 - 0.3j, -0.5 + 0.2j, 2j, -1.5 - 0.7j])
def test_fano_where_sin_squared_underflows(beta):
    # sin^2(1e-200) underflows to 0; F depends on |a|^2 kz and beta alone at
    # such small kz, so it must match F at the same |a|^2 kz = 1 with normal sin^2
    setting = DisplacementSetting(beta=beta)
    tiny = fano_displaced(KerrScenario(1e100, 1e-200), setting)
    normal = fano_displaced(KerrScenario(1e20, 1e-40), setting)
    assert tiny.fano == pytest.approx(normal.fano, rel=1e-12)


@pytest.mark.parametrize("alpha, beta, kz", [(1e-154, 1e200, 0.1),
                                             (2.2250738585e-313, 1e300j, 0.0),
                                             (5e-324, 1.7976931348623157e308j, 1.087)])
def test_statistics_past_the_double_range(alpha, beta, kz):
    # |beta|^2 overflows (and |alpha|^2 underflows in the last two) while the
    # mean is a double: the forms are taken in units of a power of two of beta
    report = fano_displaced(KerrScenario(alpha, kz), DisplacementSetting(beta=beta))
    forms = fano_forms(KerrScenario(alpha, kz))
    exact = mpmath.mpf(alpha) ** 2 * (forms.s + abs(mpmath.mpc(beta) + forms.g1) ** 2)
    assert report.mean == pytest.approx(float(exact), rel=1e-15)
    assert report.fano == 1.0


def test_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        fano_displaced(KerrScenario(2.0, 0.0), DisplacementSetting(beta=-1.0 + 0j))


def test_displacement_setting_validation():
    with pytest.raises(ValueError):
        DisplacementSetting(tau=0.0)
    with pytest.raises(ValueError):
        DisplacementSetting(tau=1.2)


def test_tau_scaling_of_mean():
    scenario = KerrScenario(5.0, 0.01)
    full = fano_displaced(scenario, DisplacementSetting(tau=1.0, beta=0.05j))
    dimmed = fano_displaced(scenario, DisplacementSetting(tau=0.9, beta=0.05j))
    assert dimmed.mean == pytest.approx(0.81 * full.mean, rel=1e-12)


def test_fano_values_vectorized_matches_scalar():
    scenario = KerrScenario(8.0, 0.01)
    betas = np.array([0.0 + 0j, 0.1j, -0.05 + 0.02j])
    vec = fano_values(scenario, betas)
    for beta, value in zip(betas, vec):
        assert fano_displaced(scenario, DisplacementSetting(beta=complex(beta))).fano \
            == pytest.approx(float(value), rel=1e-14)


@pytest.mark.parametrize("alpha,kz,beta", [
    (2.5, 0.05, 0.3 - 0.4j),
    (6.0 + 2.0j, 0.02, -0.1 + 0.2j),
    (10.0, 0.0218, -0.019 - 0.122j),
    (14.0, 0.004, 0.1j),
    (22.0 - 8.0j, 0.0015, 0.05 - 0.02j),
])
def test_closed_form_matches_fock_engine(alpha, kz, beta):
    # the dual route: explicit displacement in the truncated basis
    scenario = KerrScenario(alpha, kz)
    setting = DisplacementSetting(beta=beta)
    report = fano_displaced(scenario, setting)
    state = displace(kerr_evolve(coherent_state(alpha), kz),
                     shift_amplitude(scenario, setting))
    stats = photon_statistics(state)
    assert type(stats) is type(report)
    assert abs(stats.fano - report.fano) < 1e-6
    assert stats.mean == pytest.approx(report.mean, rel=1e-9)
    assert stats.variance == pytest.approx(report.variance, rel=1e-7)
