"""Fock engine: construction, evolution, displacement, moments."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln
from scipy.stats import poisson

import kerrshift.fock as fock
from kerrshift.errors import (
    AmplitudeTooLarge,
    OrderTooHigh,
    TruncationUnachievable,
    ZeroMeanPhoton,
)
from kerrshift.fock import (
    _BAND_TOL,
    FockState,
    _band,
    _columns,
    _edge_band,
    coherent_state,
    displace,
    displacement_matrix,
    field_moment,
    kerr_evolve,
    photon_distribution,
    photon_statistics,
)
from kerrshift.moments import (
    DisplacementSetting,
    KerrScenario,
    fano_displaced,
    g_factors,
    shift_amplitude,
)
from kerrshift.optimize import optimize_beta, optimize_length


def test_vacuum_state():
    state = coherent_state(0)
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0)
    assert state.n_trunc >= 1
    assert state.tail_mass == 0.0


def test_coherent_alpha2_is_poissonian():
    stats = photon_statistics(coherent_state(2.0))
    assert stats.mean == pytest.approx(4.0, abs=1e-10)
    assert stats.variance == pytest.approx(4.0, abs=1e-9)
    assert stats.fano == pytest.approx(1.0, abs=1e-10)


def test_coherent_alpha10_mass_against_poisson_tail():
    # oracle: direct Poisson tail summation. The raw tail above n=160 for
    # lambda=100 is 1.26e-8, so the mass below 160 sits at 1 - 2e-8 level,
    # while the full truncated state carries everything but < 1e-12.
    state = coherent_state(10.0)
    mass_160 = float(np.sum(photon_distribution(state)[:161]))
    assert mass_160 == pytest.approx(float(poisson.cdf(160, 100.0)), abs=1e-10)
    assert mass_160 >= 1.0 - 2e-8
    assert float(np.sum(photon_distribution(state))) == pytest.approx(1.0, abs=1e-12)
    assert state.tail_mass < 1e-12
    assert state.n_trunc >= 220


@pytest.mark.parametrize("alpha", [1e-6, 0.5, 10.0, 72.0, 80.0, 150.0, 200.0])
def test_coherent_state_reaches_the_amplitude_cap(alpha):
    # the truncation is ceil(a^2 + 10a + 20) at every amplitude; at large |a|
    # 1 - sum(p_n) is lost to rounding, and the exact Poisson tail is ~5e-24
    state = coherent_state(alpha)
    assert state.n_trunc == int(np.ceil(alpha * alpha + 10.0 * alpha + 20.0))
    assert state.tail_mass == pytest.approx(poisson.sf(state.n_trunc, alpha * alpha), rel=1e-6)
    assert state.tail_mass < 1e-12


def test_displace_runs_in_o_n_memory_at_alpha_150():
    # 24 020 levels: a dense matrix would need ~9.2 GB. D(d)|a> = |a + d> for real a, d
    displaced = displace(coherent_state(150.0), 0.01)
    target = coherent_state(150.01)
    n = min(displaced.n_trunc, target.n_trunc) + 1
    assert displaced.tail_mass <= 1e-10
    assert np.max(np.abs(displaced.amplitudes[:n] - target.amplitudes[:n])) < 1e-10


@pytest.mark.parametrize("alpha", [10.0, 60.0j, -200.0])
def test_coherent_magnitudes_match_50_digit_values(alpha):
    # |c_n| = e^{-|a|^2/2} |a|^n / sqrt(n!) to 1e-14 on every cell above 1e-15;
    # the double-precision exponent only picks the cells near the peak
    state = coherent_state(alpha)
    a = abs(alpha)
    n = np.arange(state.n_trunc + 1)
    near = np.flatnonzero(-0.5 * a * a + n * np.log(a) - 0.5 * gammaln(n + 1.0)
                          > np.log(1e-16))
    with mpmath.workdps(50):
        exact = np.array([float(mpmath.exp(-mpmath.mpf(a) ** 2 / 2 + k * mpmath.log(a)
                                           - mpmath.loggamma(k + 1) / 2))
                          for k in near.tolist()])
    cells = exact > 1e-15
    assert cells.sum() > 20
    magnitudes = np.abs(state.amplitudes[near][cells])
    assert np.max(np.abs(magnitudes / exact[cells] - 1.0)) <= 1e-14


@pytest.mark.parametrize("alpha", [1e-200, 0.5, 3.0, 10.0, 45.0, 60.0, 100.0, 150.0, 200.0])
def test_coherent_tail_matches_the_poisson_tail(alpha):
    # at 1e-200 the Poisson mean |alpha|^2 underflows to 0, and so does the tail
    state = coherent_state(alpha)
    assert state.tail_mass == pytest.approx(poisson.sf(state.n_trunc, alpha * alpha),
                                            rel=1e-9)


def test_coherent_validation():
    with pytest.raises(AmplitudeTooLarge):
        coherent_state(201.0)


def test_scenario_refuses_an_alpha_whose_square_overflows():
    # |alpha|^2 is taken as abs(alpha) ** 2, which overflows past sqrt(max double)
    largest = np.sqrt(np.finfo(float).max)
    assert np.isfinite(KerrScenario(complex(0.0, largest), 0.1).abs_alpha_sq)
    with pytest.raises(ValueError, match="alpha must have a finite"):
        KerrScenario(np.nextafter(largest, np.inf), 0.1)


def test_kerr_identity_at_zero():
    state = coherent_state(2.0)
    out = kerr_evolve(state, 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


@given(kz=st.floats(-2.0, 2.0), alpha=st.floats(0.3, 6.0))
@settings(max_examples=30, deadline=None)
def test_kerr_preserves_photon_distribution(kz, alpha):
    # diagonal phases: probabilities move by at most one rounding of the
    # complex multiply
    state = coherent_state(alpha)
    before = photon_distribution(state)
    after = photon_distribution(kerr_evolve(state, kz))
    assert np.max(np.abs(after - before)) < 1e-15


def test_displaced_vacuum_is_coherent():
    delta = 1.3 - 0.4j
    displaced = displace(coherent_state(0), delta)
    target = coherent_state(delta)
    n = min(displaced.n_trunc, target.n_trunc) + 1
    assert np.max(np.abs(displaced.amplitudes[:n] - target.amplitudes[:n])) < 1e-10


def _expm_ket(ket, delta, levels):
    """D(delta) ket in `levels` states by expm_multiply of delta a^dag - delta* a."""
    padded = np.zeros(levels, dtype=complex)
    padded[: len(ket)] = ket
    root = np.sqrt(np.arange(1, levels, dtype=float))
    gen = diags([delta * root, -np.conj(delta) * root], [-1, 1],
                shape=(levels, levels), format="csr", dtype=complex)
    return expm_multiply(gen, padded)


def test_dense_view_matches_expm_of_the_generator():
    # the truncated generator's exponential differs from the truncated
    # matrix only near its edge, so compare a block far inside it
    delta, n_max, big = 1.2 - 0.7j, 40, 160
    root = np.sqrt(np.arange(1, big))
    gen = np.diag(delta * root, -1) - np.diag(np.conj(delta) * root, 1)
    exact = expm(gen)[: n_max + 1, : n_max + 1]
    assert np.max(np.abs(displacement_matrix(delta, n_max) - exact)) < 1e-12
    assert np.array_equal(displacement_matrix(0, 3), np.eye(4))


def test_displace_reaches_diagonals_past_450():
    # |n = 10^4> under |delta| = 2.5 spreads up to k ~ (100 + 2.5)^2 - 10^4 = 506
    # diagonals; seeded as exp(log T_0^k), every T_0^k with k >= 450 underflowed
    n_trunc, delta = 10_000, 2.5 * np.exp(0.7j)
    amps = np.zeros(n_trunc + 1, dtype=complex)
    amps[n_trunc] = 1.0
    out = displace(FockState(amps, n_trunc, 0.0), delta)
    ref = _expm_ket(amps, delta, out.n_trunc + 1)
    assert float(np.sum(np.abs(ref[n_trunc + 450:]) ** 2)) > 1e-3
    assert out.tail_mass <= 1e-10
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-10


@given(delta_abs=st.floats(1e-3, 10.0), n_trunc=st.integers(1, 2000))
@settings(max_examples=25, deadline=None)
@example(delta_abs=2.12, n_trunc=2000)
@example(delta_abs=1e-3, n_trunc=2000)
def test_band_drops_only_elements_below_its_tolerance(delta_abs, n_trunc):
    # every column displace() generates, over the classical-edge band: the
    # diagonals past the Szego band carry no element at or above _BAND_TOL
    n_max = n_trunc + int(np.ceil(10.0 * (delta_abs + 1.0)))
    edge, band = _edge_band(delta_abs, n_max), _band(delta_abs, n_max, n_trunc)
    assert 1 <= band <= edge
    for _, block in _columns(delta_abs, n_trunc + 1, edge):
        assert np.all(np.abs(block[:, band:]) < _BAND_TOL)


def _column_run(delta_abs, n_cols, band, start=0):
    """The columns _columns() yields from `start`, and the first column it yields."""
    blocks = list(_columns(delta_abs, n_cols, band, start))
    return np.concatenate([block for _, block in blocks]), blocks[0][0]


@given(delta_abs=st.floats(1e-3, 10.0), start=st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
@example(delta_abs=2.116, start=2415)
@example(delta_abs=10.0, start=100)
@example(delta_abs=1e-3, start=5000)
def test_seeded_columns_match_the_run_from_column_0(delta_abs, start):
    # 200 columns from the start column against the same columns run up
    # from column 0, over a band sized as displace() sizes it
    n_cols = start + 200
    band = _band(delta_abs, n_cols - 1 + int(np.ceil(10.0 * (delta_abs + 1.0))), n_cols - 1)
    full, _ = _column_run(delta_abs, n_cols, band)
    seeded, first = _column_run(delta_abs, n_cols, band, start)
    assert first == (start if start >= delta_abs ** 2 else 0)
    assert np.max(np.abs(seeded - full[first:])) <= 1e-13


def test_seed_below_x_starts_at_column_0():
    # n_s >= x keeps the column's lower turning point in the order k, below
    # which the seed's downward run may stop, at or below k = -x
    band = _band(10.0, 300, 190)
    for start in (1, 10, 99):
        _, first = _column_run(10.0, 191, band, start)
        assert first == 0
    _, first = _column_run(10.0, 191, band, 100)
    assert first == 100


def _element_mp(delta_abs, n, k):
    """T_n^k = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x), x = |delta|^2, in mpmath."""
    x = mpmath.mpf(delta_abs) ** 2
    return (mpmath.exp((mpmath.loggamma(n + 1) - mpmath.loggamma(n + k + 1)
                        + k * mpmath.log(x) - x) / 2) * mpmath.laguerre(n, k, x))


@pytest.mark.parametrize("delta_abs, start, tol", [
    (2.116, 2415, 1e-14), (1e-3, 5000, 1e-14), (10.0, 100, 1e-14),
    # here Miller's run through the oscillating part of the column is off by
    # up to 1.8e-13 of the column's largest element, measured
    (31.6, 3942, 5e-13),
    # a tiny shift, where the run up from column 0 has drifted by 1.1e-13
    # at column 3208
    (9.113078658931141e-07, 3208, 1e-14),
    # the m = 0 end of the column sits at its lower turning point
    (5.0, 30, 1e-14),
    # x = s = 3: <1|D|3> = 0 lies one step above the turning point at m = 0,
    # and <0|D|3> = -0.47 one step below it
    (3.0 ** 0.5, 3, 1e-14),
], ids=["alpha-60-seed", "small-shift", "x-equals-start", "wide-shift", "tiny-shift",
        "turning-point-at-0", "zero-above-the-turning-point"])
def test_seed_matches_50_digit_laguerre_values(delta_abs, start, tol):
    # T_s and d_s = T_s - T_{s-1} of _seed(), at the weights _columns()
    # applies, at k = 0, 1, the largest element and band - 1
    n_cols = start + 200
    band = _band(delta_abs, n_cols - 1 + int(np.ceil(10.0 * (delta_abs + 1.0))), n_cols - 1)
    now, diff, expo = fock._seed(delta_abs, start, band)
    now, diff = np.ldexp(now, expo), np.ldexp(diff, expo)
    scale = np.max(np.abs(now))
    with mpmath.workdps(50):
        for k in {0, 1, int(np.argmax(np.abs(now))), band - 1}:
            exact = _element_mp(delta_abs, start, k)
            assert abs(now[k] - float(exact)) <= tol * scale
            assert abs(diff[k] - float(exact - _element_mp(delta_abs, start - 1, k))) \
                <= tol * scale


def _per_block_steps(delta_abs, n, ks):
    """b and a - 1 - b of the column recurrence, formed whole for each row n
    and diagonal k as the blocks of _columns() formed them before the tables."""
    x = delta_abs * delta_abs
    i = n + ks
    inv_root = 1.0 / np.sqrt(i + 1.0)
    inv_den = inv_root * (1.0 / np.sqrt(n + 1.0))
    b = np.sqrt(i) * inv_root * np.sqrt(n / (n + 1.0))
    outer = ks / (np.sqrt(n + 1.0) + np.sqrt(i + 1.0))
    inner = ks / np.maximum(np.sqrt(n) + np.sqrt(i), 1.0)
    return b, (0.5 * (outer * outer + inner * inner) - x) * inv_den


@given(delta_abs=st.floats(1e-3, 10.0), start=st.integers(0, 5000))
@settings(max_examples=10, deadline=None)
@example(delta_abs=2.116, start=0)
@example(delta_abs=6.5, start=0)
@example(delta_abs=2.116, start=2415)
@example(delta_abs=1e-3, start=5000)
def test_table_coefficients_match_the_per_block_formula(delta_abs, start):
    # every _steps() call of a run: the blocks from the start column, the
    # first one at n0 = 0 (with the n = k = 0 cell) where the run starts at
    # column 0
    n_cols = start + 3 * fock._BLOCK
    band = _band(delta_abs, n_cols - 1 + int(np.ceil(10.0 * (delta_abs + 1.0))), n_cols - 1)
    steps, calls = fock._steps, []

    def recorded(x, tables, n0, b, c, squares):
        steps(x, tables, n0, b, c, squares)
        calls.append((n0, b.copy(), c.copy()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_steps", recorded)
        _, first = _column_run(delta_abs, n_cols, band, start)
    assert [n0 for n0, *_ in calls] == list(range(first, n_cols, fock._BLOCK))
    for n0, b, c in calls:
        n = np.arange(n0, n0 + fock._BLOCK, dtype=float)[:, None]
        want = _per_block_steps(delta_abs, n, np.arange(band, dtype=float))
        assert np.array_equal(b, want[0]) and np.array_equal(c, want[1])


def _length_optimum_state(alpha):
    opt = optimize_length(alpha)
    scenario = KerrScenario(alpha, opt.kz)
    delta = shift_amplitude(scenario, DisplacementSetting(beta=opt.beta_opt))
    return kerr_evolve(coherent_state(alpha), opt.kz), delta


@pytest.mark.parametrize("case", ["alpha-60-optimum", "alpha-150-by-0.01"])
def test_band_matches_the_edge_band(case, monkeypatch):
    # the Szego band carries 423 of 714 diagonals at the alpha = 60 optimum
    # and 25 of 944 at alpha = 150 displaced by 0.01. The start column and
    # the seed depend on the band, so both runs start at column 0
    columns = fock._columns
    monkeypatch.setattr(fock, "_columns", lambda d, n_cols, band, start: columns(d, n_cols, band))
    state, delta = (_length_optimum_state(60.0) if case == "alpha-60-optimum"
                    else (coherent_state(150.0), 0.01))
    narrow = displace(state, delta)
    monkeypatch.setattr(fock, "_band", lambda d, n_max, n_trunc: _edge_band(d, n_max))
    wide = displace(state, delta)
    assert narrow.n_trunc == wide.n_trunc
    assert np.max(np.abs(narrow.amplitudes - wide.amplitudes)) <= 1e-18


@pytest.mark.parametrize("alpha, skipped", [(60.0, 0.59), (200.0, 0.85)])
def test_seeded_displace_matches_the_run_from_column_0(alpha, skipped, monkeypatch):
    # displace() starts K columns below the first column carrying more than
    # 1e-30 of the mass: it skips 59% of the columns at the alpha = 60 optimum
    # and 85% of 42 020 at the alpha = 200 optimum
    state, delta = _length_optimum_state(alpha)
    columns, starts = fock._columns, []

    def recorded(d, n_cols, band, start):
        blocks = columns(d, n_cols, band, start)
        n0, block = next(blocks)
        starts.append(n0 / n_cols)
        yield n0, block
        yield from blocks

    monkeypatch.setattr(fock, "_columns", recorded)
    seeded = displace(state, delta)
    monkeypatch.setattr(fock, "_columns", lambda d, n_cols, band, start: columns(d, n_cols, band))
    full = displace(state, delta)
    assert starts[0] == pytest.approx(skipped, abs=0.01)
    assert seeded.n_trunc == full.n_trunc
    assert np.max(np.abs(seeded.amplitudes - full.amplitudes)) <= 1e-12


def test_vacuum_displaced_by_200i_keeps_its_norm():
    # 42 020 diagonals from column 0: seeded as exp(k log|delta| - x/2 -
    # log(k!)/2), the exponent's rounding showed as a norm defect of 3.0e-11
    assert displace(coherent_state(0), 200j).tail_mass <= 1e-12


def test_alpha_200_length_optimum_displaces():
    # the MAX_AMPLITUDE state: 43 306 levels, O(N) memory
    opt = optimize_length(200.0)
    scenario = KerrScenario(200.0, opt.kz)
    delta = shift_amplitude(scenario, DisplacementSetting(beta=opt.beta_opt))
    state = displace(kerr_evolve(coherent_state(200.0), opt.kz), delta)
    assert state.tail_mass <= 1e-10
    assert photon_statistics(state).fano == pytest.approx(opt.fano_min, rel=1e-8)


@given(abs_alpha=st.floats(0.5, 100.0), phase=st.floats(0.0, 2 * np.pi),
       kz_scale=st.floats(0.3, 3.0), beta_scale=st.floats(0.0, 5.0),
       beta_turn=st.floats(0.0, 2 * np.pi))
@settings(max_examples=20, deadline=None)
@example(abs_alpha=100.0, phase=0.0, kz_scale=1.0, beta_scale=1.0, beta_turn=0.0)
@example(abs_alpha=200.0, phase=0.0, kz_scale=1.0, beta_scale=1.0, beta_turn=0.0)
@example(abs_alpha=200.0, phase=0.0, kz_scale=3.0, beta_scale=5.0, beta_turn=0.0)
@example(abs_alpha=9.0, phase=0.0, kz_scale=1.0, beta_scale=1e-32, beta_turn=0.0)
def test_fock_fano_matches_closed_form(abs_alpha, phase, kz_scale, beta_scale, beta_turn):
    # F of the displaced Fock state against the closed form, with beta up to
    # five times the optimal shift in any direction
    alpha = abs_alpha * np.exp(1j * phase)
    kz = kz_scale * (3.0 / 256.0) ** (1.0 / 6.0) * abs_alpha ** (-4.0 / 3.0)
    scenario = KerrScenario(alpha, kz)
    beta = beta_scale * np.exp(1j * beta_turn) * optimize_beta(scenario).beta_opt
    setting = DisplacementSetting(beta=beta)
    state = kerr_evolve(coherent_state(alpha), kz)
    if beta != 0:
        state = displace(state, shift_amplitude(scenario, setting))
    assert photon_statistics(state).fano == pytest.approx(
        fano_displaced(scenario, setting).fano, rel=1e-8)


def test_displace_zero_is_identity():
    state = kerr_evolve(coherent_state(3.0), 0.07)
    assert displace(state, 0) is state


@given(re=st.floats(-1.4, 1.4), im=st.floats(-1.4, 1.4))
@settings(max_examples=15, deadline=None)
@example(re=0.0, im=5.198130770254799e-254)  # |delta|^2 underflows to 0
def test_displacement_round_trip(re, im):
    delta = complex(re, im)  # |delta| <= 2
    state = kerr_evolve(coherent_state(3.0), 0.05)
    back = displace(displace(state, delta), -delta)
    overlap = np.vdot(back.amplitudes[: state.n_trunc + 1], state.amplitudes)
    assert abs(overlap) ** 2 >= 1.0 - 1e-9


def test_displace_raises_when_basis_cannot_hold_the_state():
    # mean photon number 0.3 sizes the basis for a near-vacuum state, but the
    # 1e-3 weight at n = 300 spreads ~3 sqrt(2 * 300) levels past it under
    # |delta| = 3: the lost mass must raise, not be renormalized away
    n_trunc = 300
    amps = np.zeros(n_trunc + 1, dtype=complex)
    amps[0] = np.sqrt(1.0 - 1e-3)
    amps[n_trunc] = np.sqrt(1e-3)
    state = FockState(amps, n_trunc, 0.0)
    with pytest.raises(TruncationUnachievable, match="norm defect"):
        displace(state, 3.0)


def test_norm_preserved_through_pipeline():
    state = displace(kerr_evolve(coherent_state(4.0 + 1.0j), 0.03), 0.8 - 0.2j)
    assert float(np.sum(photon_distribution(state))) == pytest.approx(1.0, abs=1e-12)


def test_field_moment_coherent():
    alpha = 1.7 - 0.6j
    state = coherent_state(alpha)
    assert field_moment(state, 1, 1) == pytest.approx(abs(alpha) ** 2, rel=1e-12)
    assert field_moment(state, 0, 1) == pytest.approx(alpha, rel=1e-12)
    assert field_moment(state, 1, 0) == pytest.approx(np.conj(alpha), rel=1e-12)


def test_field_moment_order_cap():
    state = coherent_state(1.0)
    with pytest.raises(OrderTooHigh):
        field_moment(state, 3, 2)


def _kerr_moment_oracles(alpha, kz):
    scenario = KerrScenario(alpha, kz)
    g1, g2 = g_factors(scenario)
    a2 = abs(alpha) ** 2
    first = alpha * np.exp(1j * kz) * np.exp(2j * a2 * kz) * g1
    second = alpha ** 2 * np.exp(4j * kz) * np.exp(4j * a2 * kz) * g2
    dag_sq = alpha * a2 * np.exp(3j * kz) * np.exp(2j * a2 * kz) * g1
    return first, second, dag_sq


def test_kerr_moments_match_closed_forms():
    alpha, kz = 2.0, 0.1
    state = kerr_evolve(coherent_state(alpha), kz)
    first, second, dag_sq = _kerr_moment_oracles(alpha, kz)
    assert field_moment(state, 0, 1) == pytest.approx(first, rel=1e-10)
    assert field_moment(state, 1, 0) == pytest.approx(np.conj(first), rel=1e-10)
    assert field_moment(state, 0, 2) == pytest.approx(second, rel=1e-10)
    assert field_moment(state, 1, 2) == pytest.approx(dag_sq, rel=1e-10)


@pytest.mark.parametrize("alpha,kz_frac", [
    (2.0, 0.5), (8.5 + 3.0j, 1.0), (17.0, 2.0), (-21.0 + 21.0j, 3.0), (30.0, 3.0),
])
def test_moment_oracle_equivalence_to_large_alpha(alpha, kz_frac):
    # closed forms vs direct summation, up to |alpha| = 30 and kz = 3 (Kz)_app
    a = abs(alpha)
    kz = kz_frac * (np.sqrt(3) / 2) ** (1 / 3) / a ** 2
    state = kerr_evolve(coherent_state(alpha), kz)
    first, second, dag_sq = _kerr_moment_oracles(alpha, kz)
    assert abs(field_moment(state, 0, 1) - first) <= 1e-8 * abs(first)
    assert abs(field_moment(state, 0, 2) - second) <= 1e-8 * abs(second)
    assert abs(field_moment(state, 1, 2) - dag_sq) <= 1e-8 * abs(dag_sq)


def test_photon_statistics_vacuum_raises():
    state = coherent_state(0)
    assert photon_distribution(state)[0] == 1.0
    with pytest.raises(ZeroMeanPhoton):
        photon_statistics(state)


def test_photon_distribution_is_poisson_for_coherent():
    alpha = 3.0
    probs = photon_distribution(coherent_state(alpha))
    n = np.arange(len(probs))
    expected = np.exp(-alpha ** 2 + 2 * n * np.log(alpha) - gammaln(n + 1))
    assert np.max(np.abs(probs - expected)) < 1e-12


def test_displaced_kerr_spotlight_alpha10():
    # variance ~ 1.99 and mean slightly below 100 at the published optimum
    from kerrshift.optimize import optimize_beta

    scenario = KerrScenario(10.0, 0.0218)
    opt = optimize_beta(scenario)
    delta = shift_amplitude(scenario, DisplacementSetting(beta=opt.beta_opt))
    state = displace(kerr_evolve(coherent_state(10.0), 0.0218), delta)
    stats = photon_statistics(state)
    assert stats.variance == pytest.approx(1.99, abs=0.05)
    assert abs(stats.mean - 98.6) < 0.7
    assert stats.fano == pytest.approx(opt.fano_min, abs=1e-9)
