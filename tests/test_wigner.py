"""Wigner maps: closed forms, parity formula, normalization, bound, symmetries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from conftest import length_optimum
import kerrshift.wigner as wigner_module
from kerrshift.errors import StateTooLarge
from kerrshift.fock import (
    FockState,
    coherent_state,
    displace,
    field_moment,
    kerr_evolve,
    photon_distribution,
)
from kerrshift.moments import DisplacementSetting, KerrScenario, shift_amplitude
from kerrshift.wigner import (
    MAX_WIGNER_BYTES,
    W_FLOOR,
    auto_window,
    narrowest_width,
    wigner,
    wigner_at,
)

TWO_OVER_PI = 2.0 / np.pi


def test_vacuum_wigner_profile():
    state = coherent_state(0)
    points = np.array([0.0 + 0j, 1.0 + 0j, 0.5 - 1.5j])
    values = wigner_at(state, points)
    expected = TWO_OVER_PI * np.exp(-2.0 * np.abs(points) ** 2)
    assert np.allclose(values, expected, rtol=1e-12)


def test_coherent_wigner_is_displaced_gaussian():
    alpha = 2.0 - 1.0j
    state = coherent_state(alpha)
    points = np.array([alpha, alpha + 0.7, alpha - 0.3j, 0j])
    values = wigner_at(state, points)
    expected = TWO_OVER_PI * np.exp(-2.0 * np.abs(points - alpha) ** 2)
    assert np.allclose(values, expected, rtol=1e-9, atol=1e-13)
    assert values[0] == pytest.approx(TWO_OVER_PI, rel=1e-10)


def test_default_window_normalization_compact_states():
    # a window about the mean field <a> with half-width 6 is adequate for
    # states whose support is compact: coherent, weakly wrapped Kerr
    for state in (coherent_state(3.0),
                  kerr_evolve(coherent_state(3.0), 0.25 * 0.1103)):
        grid = wigner(state, complex(field_moment(state, 0, 1)), 6.0, 201)
        assert grid.values.shape == (201, 201)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)
        assert grid.values.max() <= TWO_OVER_PI + 1e-9


def test_pure_state_bound_displaced_kerr():
    scenario = KerrScenario(4.0, 0.05)
    state = displace(kerr_evolve(coherent_state(4.0), 0.05), 0.3 - 0.2j)
    center, half = auto_window(state)
    grid = wigner(state, center=center, half_width=half, resolution=241)
    assert grid.values.max() <= TWO_OVER_PI + 1e-9
    assert grid.integral() == pytest.approx(1.0, abs=1e-3)


def test_marginal_total_mass():
    state = kerr_evolve(coherent_state(3.0), 0.02)
    grid = wigner(state, complex(field_moment(state, 0, 1)), 6.0, 201)
    dy = grid.ys[1] - grid.ys[0]
    dx = grid.xs[1] - grid.xs[0]
    marginal = grid.values.sum(axis=1) * dy
    assert float(marginal.sum() * dx) == pytest.approx(1.0, abs=1e-3)


def test_rotation_invariance_of_kerr_state():
    # rotating the state and counter-rotating the evaluation points is exact
    state = kerr_evolve(coherent_state(3.0), 0.1)
    theta = -np.angle(field_moment(state, 0, 1))
    n = np.arange(state.n_trunc + 1)
    rotated = FockState(state.amplitudes * np.exp(1j * n * theta),
                        state.n_trunc, state.tail_mass)
    rng = np.random.default_rng(7)
    pts = rng.normal(0, 2, 40) + 1j * rng.normal(0, 2, 40) + 3.0
    assert np.allclose(wigner_at(rotated, pts),
                       wigner_at(state, pts * np.exp(-1j * theta)),
                       rtol=0, atol=1e-6)


def test_wigner_rejects_large_states():
    # the check runs before the phase matrix and the lattice are allocated:
    # 3001 columns of a 2020-level state need a phase matrix well above
    # MAX_WIGNER_BYTES, while the 3001^2 grid of W itself fits
    with pytest.raises(StateTooLarge) as info:
        wigner(coherent_state(40.0), center=0j, half_width=50.0, resolution=3001)
    message = str(info.value)
    assert "n_trunc = 2020" in message
    assert "3001x3001" in message
    assert str(MAX_WIGNER_BYTES) in message


def test_wigner_bounds_the_grid():
    # the res x res grid of W, counted at 16 B a cell, is checked first,
    # before the window is laid out: 4096^2 fills MAX_WIGNER_BYTES and passes
    # on to the phase matrix check, 4097^2 is refused for its grid
    state = coherent_state(1.0)
    with pytest.raises(StateTooLarge, match="its phase matrix needs"):
        wigner(state, 1.0 + 0j, 6.0, 4096)
    with pytest.raises(StateTooLarge) as info:
        wigner(state, 1.0 + 0j, 6.0, 4097)
    assert str(info.value) == ("resolution 4097x4097: its grid needs 2.686e+08 B, "
                               f"above the limit MAX_WIGNER_BYTES = {MAX_WIGNER_BYTES} B")


def test_wigner_bounds_the_lattice(monkeypatch):
    # a window far wider than the state at 3 x 3: the phase matrix (87 kB)
    # fits the limit, the psi lattice it steps over (257 kB) does not
    monkeypatch.setattr(wigner_module, "MAX_WIGNER_BYTES", 2 ** 17)
    with pytest.raises(StateTooLarge, match="its lattice needs"):
        wigner(coherent_state(1.0), center=0j, half_width=100.0, resolution=3)


def parity_wigner(state, w):
    """(2/pi) sum_n (-1)^n |<n|D(-w) psi>|^2 with D from expm on a basis padded
    by the coherent-state rule at radius |w| + sqrt(n_trunc)."""
    r = abs(w) + np.sqrt(state.n_trunc)
    levels = state.n_trunc + 1 + int(np.ceil(r * r + 10.0 * r + 20.0))
    ket = np.zeros(levels, dtype=complex)
    ket[: state.n_trunc + 1] = state.amplitudes
    a = np.diag(np.sqrt(np.arange(1, levels, dtype=float)), 1)
    shifted = expm(-w * a.conj().T + np.conj(w) * a) @ ket
    signs = np.where(np.arange(levels) % 2 == 0, 1.0, -1.0)
    return TWO_OVER_PI * float(signs @ np.abs(shifted) ** 2)


@pytest.mark.parametrize("n", [0, 1, 5, 30])
def test_fock_state_wigner_closed_form(n):
    amplitudes = np.zeros(max(n, 1) + 1, dtype=complex)
    amplitudes[n] = 1.0
    state = FockState(amplitudes, max(n, 1), 0.0)
    rng = np.random.default_rng(n)
    points = np.concatenate([[0j, 0.3 + 0.1j],
                             rng.normal(0, 2, 12) + 1j * rng.normal(0, 2, 12)])
    x = 4.0 * np.abs(points) ** 2
    expected = TWO_OVER_PI * (-1) ** n * np.exp(-x / 2.0) * eval_laguerre(n, x)
    assert np.allclose(wigner_at(state, points), expected, rtol=0, atol=1e-13)


def test_coherent_wigner_where_the_ground_state_underflows():
    # |alpha| = 40 needs ~2000 levels; at |q| = sqrt(2)|Re w| > 38 the seed
    # e^{-q^2/2} underflows unless it is carried in the log domain
    alpha = 40.0 - 3.0j
    state = coherent_state(alpha)
    assert state.n_trunc > 2000
    points = alpha + np.array([0j, 0.4, -0.3j, 0.5 + 0.5j, -0.8 - 0.2j])
    assert np.all(np.sqrt(2.0) * np.abs(points.real) > 38.0)
    expected = TWO_OVER_PI * np.exp(-2.0 * np.abs(points - alpha) ** 2)
    assert np.allclose(wigner_at(state, points), expected, rtol=0, atol=1e-12)


def test_grid_equals_pointwise_values():
    state = displace(kerr_evolve(coherent_state(3.0), 0.07), 0.4 - 0.9j)
    grid = wigner(state, center=0.2 + 0.1j, half_width=4.0, resolution=31)
    rng = np.random.default_rng(5)
    i, j = rng.integers(0, 31, 10), rng.integers(0, 31, 10)
    points = grid.xs[i] + 1j * grid.ys[j]
    assert np.allclose(wigner_at(state, points), grid.values[i, j], rtol=0, atol=1e-13)


def unfolded_wigner(state, xs, ys):
    """W on the grid by the complex sum over every shift -K..K, from psi on
    the same lattice as the folded sum, with the largest |Im W| it leaves."""
    radius = np.sqrt(2.0 * state.n_trunc + 1.0) + wigner_module.SUPPORT_MARGIN
    q, p = np.sqrt(2.0) * xs, np.sqrt(2.0) * ys
    dq = (q[-1] - q[0]) / (len(q) - 1)
    m = np.floor(dq / (np.pi / (np.max(np.abs(p)) + radius))) + 1.0
    h = dq / m
    m, k_max = int(m), int(np.ceil(radius / h))
    ks = np.arange(-k_max, k_max + 1)
    lattice = q[0] + h * np.arange(-k_max, (len(q) - 1) * m + k_max + 1)
    inside = np.abs(lattice) <= radius
    psi = np.zeros(len(lattice), dtype=complex)
    psi[inside] = wigner_module._wavefunction(state.amplitudes, lattice[inside])
    at = m * np.arange(len(q))[:, None] + k_max
    total = (np.conj(psi[at + ks]) * psi[at - ks]) @ np.exp(2j * np.outer(h * ks, p))
    return 2.0 * h / np.pi * total.real, float(np.max(np.abs(total.imag)))


@pytest.mark.parametrize("state, center, half_width", [
    # an off-centre window on a displaced Kerr state
    (displace(kerr_evolve(coherent_state(3.0), 0.07), 0.4 - 0.9j), 0.3 - 1.1j, 3.0),
    # |q| > 38, where psi's log-scale rescaling runs
    (coherent_state(40.0 - 3.0j), 40.0 - 3.0j, 1.5),
])
def test_folded_sum_equals_the_unfolded_sum(state, center, half_width):
    grid = wigner(state, center=center, half_width=half_width, resolution=21)
    expected, imag_residue = unfolded_wigner(state, grid.xs, grid.ys)
    scale = np.max(np.abs(expected))
    assert imag_residue < 1e-14 * scale
    assert np.max(np.abs(grid.values - expected)) <= 1e-14 * scale


def long_double_rows(state, xs, ys, rows):
    """W on the given rows of the grid xs x ys: the folded sum of
    _wigner_grid on its lattice (the same m and K), with psi, the phases and
    the sum in long double. No rescaling: long double holds e^{-q^2/2} at
    every |q| <= radius."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    radius = np.sqrt(2.0 * state.n_trunc + 1.0) + wigner_module.SUPPORT_MARGIN
    q, p = np.sqrt(2.0) * xs, np.sqrt(2.0) * ys
    dq = (q[-1] - q[0]) / (len(q) - 1)
    m = int(np.floor(dq / (np.pi / (np.max(np.abs(p)) + radius)))) + 1
    k_max = int(np.ceil(radius / (dq / m)))
    q, p = np.sqrt(ld(2)) * xs.astype(ld), np.sqrt(ld(2)) * ys.astype(ld)
    h = (q[-1] - q[0]) / (len(q) - 1) / m
    lattice = q[0] + h * np.arange(-k_max, (len(q) - 1) * m + k_max + 1).astype(ld)
    inside = np.abs(lattice) <= radius
    x = lattice[inside]
    prev, cur = np.zeros_like(x), pi ** ld(-0.25) * np.exp(-x * x / 2)
    re, im = ld(state.amplitudes[0].real) * cur, ld(state.amplitudes[0].imag) * cur
    for n, c in enumerate(state.amplitudes[1:].tolist()):
        prev, cur = cur, np.sqrt(ld(2) / (n + 1)) * x * cur - np.sqrt(ld(n) / (n + 1)) * prev
        re += ld(c.real) * cur
        im += ld(c.imag) * cur
    psi = np.zeros(len(lattice), dtype=np.clongdouble)
    psi[inside] = re + 1j * im
    phase = np.multiply.outer(-2 * h * np.arange(1, k_max + 1).astype(ld), p)
    at = m * np.asarray(rows)[:, None] + k_max
    ks = np.arange(1, k_max + 1)
    kern = np.conj(psi[at + ks]) * psi[at - ks]
    total = kern.real @ np.cos(phase) + kern.imag @ np.sin(phase)
    return 4 * h / pi * (np.abs(psi[at]) ** 2 / 2 + total)


def _displaced_optimum(alpha):
    opt = length_optimum(alpha)
    return displace(kerr_evolve(coherent_state(alpha), opt.kz),
                    shift_amplitude(KerrScenario(alpha, opt.kz),
                                    DisplacementSetting(beta=opt.beta_opt)))


@pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18,
                    reason="np.longdouble is no wider than a double here, so it "
                           "cannot measure a double's rounding error")
@pytest.mark.parametrize("make, resolution", [
    (lambda: _displaced_optimum(10.0), 201),
    (lambda: kerr_evolve(coherent_state(5.0), 0.12), 201),
    (lambda: coherent_state(3.0 - 4.0j), 201),
    (lambda: _displaced_optimum(30.0), 21),
], ids=["alpha-10-optimum", "kerr-alpha-5", "coherent-alpha-5", "alpha-30-optimum"])
def test_rounding_error_is_below_a_quarter_of_the_floor(make, resolution):
    # the floor a wigner artifact writes 0 below sits 4x above the grid's
    # rounding error, here measured on 21 rows against long double
    state = make()
    center, half_width = auto_window(state)
    grid = wigner(state, center=center, half_width=half_width, resolution=resolution)
    rows = np.linspace(0, resolution - 1, 21).round().astype(int)
    expected = long_double_rows(state, grid.xs, grid.ys, rows)
    assert np.max(np.abs(grid.values[rows] - expected)) <= W_FLOOR / 4


def test_wide_window_does_not_alias():
    # |p| reaches 20 here, past the support radius sqrt(2N + 1) + 10 ~ 18.6:
    # the s-step must shrink with max|p| or images of the peak fold back in
    alpha = 1.0 + 1.0j
    grid = wigner(coherent_state(alpha), center=0j, half_width=14.0, resolution=57)
    w = grid.xs[:, None] + 1j * grid.ys[None, :]
    expected = TWO_OVER_PI * np.exp(-2.0 * np.abs(w - alpha) ** 2)
    assert np.allclose(grid.values, expected, rtol=0, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1))
def test_random_kets_match_the_parity_formula(n_trunc, seed):
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=n_trunc + 1) + 1j * rng.normal(size=n_trunc + 1)
    state = FockState(amplitudes / np.linalg.norm(amplitudes), n_trunc, 0.0)
    points = rng.normal(0, 2.5, 3) + 1j * rng.normal(0, 2.5, 3)
    expected = [parity_wigner(state, w) for w in points]
    assert np.allclose(wigner_at(state, points), expected, rtol=0, atol=1e-12)


def test_alpha_30_optimum_runs_at_401():
    # N ~ 1343: a 401^2 map of the alpha = 30 optimum fits MAX_WIGNER_BYTES
    opt = length_optimum(30.0)
    scenario = KerrScenario(30.0, opt.kz)
    state = displace(kerr_evolve(coherent_state(30.0), opt.kz),
                     shift_amplitude(scenario, DisplacementSetting(beta=opt.beta_opt)))
    assert state.n_trunc > 1300
    center, half = auto_window(state)
    grid = wigner(state, center=center, half_width=half, resolution=401)
    assert grid.values.max() <= TWO_OVER_PI + 1e-9
    peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    for i, j in (peak, (150, 260)):
        # parity formula through the Fock engine's own displacement
        shifted = displace(state, -(grid.xs[i] + 1j * grid.ys[j]))
        signs = np.where(np.arange(shifted.n_trunc + 1) % 2 == 0, 1.0, -1.0)
        expected = TWO_OVER_PI * float(signs @ photon_distribution(shifted))
        assert grid.values[i, j] == pytest.approx(expected, abs=1e-12)


def test_auto_window_covers_support():
    state = kerr_evolve(coherent_state(10.0), 0.0218)
    center, half = auto_window(state)
    assert center == 0j
    n_hi = half - 3.0
    probs = np.abs(state.amplitudes) ** 2
    assert probs[int(n_hi ** 2):].sum() < 1e-8


def test_narrowest_width():
    # sqrt(Var n) / (2 sqrt<n>): 1/2 for any coherent state and its vacuum
    # limit, and the amplitude-squeezed alpha = 10 optimum is 7 times narrower
    assert narrowest_width(coherent_state(5.0 - 1.0j)) == pytest.approx(0.5, rel=1e-12)
    assert narrowest_width(coherent_state(0.0)) == 0.5
    opt = length_optimum(10.0)
    state = displace(kerr_evolve(coherent_state(10.0), opt.kz),
                     shift_amplitude(KerrScenario(10.0, opt.kz),
                                     DisplacementSetting(beta=opt.beta_opt)))
    assert narrowest_width(state) == pytest.approx(0.0712, abs=1e-4)


def test_grid_metadata():
    # the grid holds exactly the points W was evaluated at; a linspace over
    # (xs[0], xs[-1]) would put -1.7 where W was evaluated at -1.7000000000000002
    center, half_width = 1.0 + 1.0j, 3.0
    grid = wigner(coherent_state(1.0), center=center, half_width=half_width,
                  resolution=21)
    offsets = np.linspace(-half_width, half_width, 21)
    assert np.array_equal(grid.xs, center.real + offsets)
    assert np.array_equal(grid.ys, center.imag + offsets)
    assert grid.values.shape == (21, 21)
