"""Shift and length optimization against published optima, a brute search and the eigenvalue bound."""

import ast
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import checkout_env
import kerrshift.optimize as optimize_mod
from kerrshift.approx import kz_app, kz_opt_approx
from kerrshift.cli import main
from kerrshift.errors import NonConvergence, UnboundedOptimum
from kerrshift.moments import FanoForms, KerrScenario, fano_forms, fano_values, g_factors
from kerrshift.optimize import (
    optimize_beta,
    optimize_length,
    rayleigh_lower_bound,
    sweep_length,
)


def test_zero_length_shortcut():
    opt = optimize_beta(KerrScenario(5.0, 0.0))
    assert opt.fano_min == 1.0
    assert opt.beta_opt == 0j
    assert opt.mean_photon == pytest.approx(25.0, rel=1e-12)


def test_optimize_beta_published_alpha10():
    opt = optimize_beta(KerrScenario(10.0, 0.0218))
    assert opt.fano_min == pytest.approx(0.0203, rel=0.02)
    assert opt.beta_magnitude == pytest.approx(0.123, rel=0.05)


def test_optimize_beta_published_alpha50():
    opt = optimize_beta(KerrScenario(50.0, 0.00257))
    assert opt.fano_min == pytest.approx(0.00226, rel=0.02)
    assert opt.beta_magnitude == pytest.approx(0.0401, rel=0.05)


def test_optimize_length_published(table1_optima):
    published = {10: (0.0203, 0.0218, 98.6), 30: (0.00449, 0.00511, 894.0),
                 50: (0.00226, 0.00257, 2490.0), 100: (0.000892, 0.00102, 9980.0)}
    for alpha, (fano_ref, kz_ref, mean_ref) in published.items():
        opt = table1_optima[alpha]
        assert opt.fano_min == pytest.approx(fano_ref, rel=0.02)
        assert opt.kz == pytest.approx(kz_ref, rel=0.02)
        assert opt.mean_photon == pytest.approx(mean_ref, rel=0.01)


def test_optimize_length_requires_alpha_two():
    with pytest.raises(ValueError):
        optimize_length(1.5)


def test_fano_below_one_on_operating_range(table1_optima):
    kz_opt = table1_optima[10].kz
    for frac in (0.05, 0.3, 1.0, 2.0):
        opt = optimize_beta(KerrScenario(10.0, frac * kz_opt))
        assert opt.fano_min < 1.0
        assert opt.fano_min > 0.0


def test_sweep_zero_gives_unity():
    (opt,) = sweep_length(4.0, [0.0])
    assert opt.fano_min == 1.0
    assert opt.beta_opt == 0j


def test_sweep_validation():
    with pytest.raises(ValueError, match="kz must be finite and >= 0"):
        sweep_length(4.0, [0.2, -0.1])


def test_sweep_unsorted_grid_keeps_input_order():
    grid = [0.03, 0.0, 0.01, 0.02]
    optima = sweep_length(10.0, grid)
    by_kz = dict(zip(sorted(grid), sweep_length(10.0, sorted(grid))))
    assert [o.kz for o in optima] == grid
    assert optima == [by_kz[kz] for kz in grid]


def test_sweep_through_crossover_alpha50():
    boundary = kz_app(2500.0)
    grid = [0.5 * boundary, boundary, 2.0 * boundary]
    optima = sweep_length(50.0, grid)
    db_at_boundary = optima[1].suppression_db
    assert -12.6 <= db_at_boundary <= -11.6


def test_sweep_minimum_location_alpha50(table1_optima):
    grid = list(np.linspace(0.0015, 0.0040, 11))
    optima = sweep_length(50.0, grid)
    best = min(optima, key=lambda o: o.fano_min)
    assert abs(best.kz - table1_optima[50].kz) <= (grid[1] - grid[0])


def test_rayleigh_bound_trivial_at_zero():
    assert rayleigh_lower_bound(KerrScenario(4.0, 0.0)) == 1.0


def test_rayleigh_bound_vs_search(table1_optima):
    for alpha in (10, 50):
        kz = table1_optima[alpha].kz
        bound = rayleigh_lower_bound(KerrScenario(float(alpha), kz))
        direct = table1_optima[alpha].fano_min
        assert bound <= direct + 1e-9
        assert bound == pytest.approx(direct, rel=0.05)


def test_rayleigh_bound_everywhere_probed():
    for alpha, kz in ((5.0, 0.01), (10.0, 0.0218), (10.0, 0.005),
                      (30.0, 0.00511), (50.0, 0.0005), (100.0, 0.00102)):
        bound = rayleigh_lower_bound(KerrScenario(alpha, kz))
        direct = optimize_beta(KerrScenario(alpha, kz)).fano_min
        assert bound <= direct + 1e-9


def test_shift_direction_roughly_perpendicular(table1_optima):
    # the physical angle between the shift vector and the mean-field
    # direction is arg(beta) - arg(g1)
    for alpha, opt in table1_optima.items():
        g1, _ = g_factors(KerrScenario(float(alpha), opt.kz))
        cosine = np.cos(np.angle(opt.beta_opt) - np.angle(g1))
        assert abs(cosine) < 0.35


def test_scaling_law_bands(scaling_optima):
    for alpha, opt in scaling_optima.items():
        scale = float(alpha) ** (4.0 / 3.0)
        assert 0.43 <= opt.kz * scale <= 0.53
        assert 0.37 <= opt.fano_min * scale <= 0.46


def test_nonconvergence_raises(monkeypatch):
    # a bracket of width 0 is never reached: the search stops at MAX_ITER
    monkeypatch.setattr(optimize_mod, "LENGTH_REL_TOL", 0.0)
    with pytest.raises(NonConvergence):
        optimize_length(10.0)


def _fano_min_mp(alpha: float, kz):
    """The pencil minimum of F over every shift at (|alpha|, kz), in mpmath at
    the working precision: the smallest eigenvalue of the bracket form K
    against the denominator form B = [[1, Re g1, Im g1], [Re g1, 1, 0],
    [Im g1, 0, 1]] over v = (1, Re beta, Im beta), by a Cholesky factor of B."""
    a2 = mpmath.mpf(alpha) ** 2
    g1 = mpmath.exp(a2 * (mpmath.expj(2 * kz) - 1) - 2j * a2 * kz)
    g2 = mpmath.exp(a2 * (mpmath.expj(4 * kz) - 1) - 4j * a2 * kz)
    c = (mpmath.expj(-2 * kz) - 1) * mpmath.conj(g1)
    w = mpmath.expj(-2 * kz) * mpmath.conj(g2) - mpmath.conj(g1) ** 2
    s = 1 - abs(g1) ** 2
    k = mpmath.matrix([[0, 2 * c.real, -2 * c.imag],
                       [2 * c.real, 2 * (w.real + s), -2 * w.imag],
                       [-2 * c.imag, -2 * w.imag, 2 * (s - w.real)]])
    b = mpmath.matrix([[1, g1.real, g1.imag], [g1.real, 1, 0], [g1.imag, 0, 1]])
    l_inv = mpmath.cholesky(b) ** -1
    a = l_inv * k * l_inv.T
    return 1 + a2 * min(mpmath.eigsy((a + a.T) / 2, eigvals_only=True))


def _slope_mp(alpha: float, kz):
    """dF_min/dkz at 60 digits, by mpmath's numerical derivative."""
    with mpmath.workdps(60):
        return mpmath.diff(lambda k: _fano_min_mp(alpha, k), mpmath.mpf(kz))


def test_length_slope_matches_60_digits():
    # the envelope slope, dF/dkz at the pencil's shift held fixed, against the
    # derivative of the 60-digit pencil minimum, across [0.2, 2.5] times the
    # length estimate. Its error, in units of F_min / kz, grows with |alpha|
    # as the pencil's conditioning does: 2e-15 at 2, 3e-14 at 10, 4e-13 at
    # 100 and 1.1e-11 at 1e3
    for alpha in (2.0, 10.0, 100.0, 1e3):
        for frac in (0.2, 0.9, 1.0, 1.1, 2.5):
            kz = frac * kz_opt_approx(alpha)
            slope = optimize_mod._length_slope(alpha, kz)
            exact = _slope_mp(alpha, kz)
            scale = rayleigh_lower_bound(KerrScenario(alpha, kz)) / kz
            assert abs(slope - float(exact)) <= 1e-10 * scale, (alpha, frac)


@pytest.mark.parametrize("alpha, rel_tol", [(2.0, 1e-9), (10.0, 1e-9), (100.0, 1e-9),
                                            (1e3, 1e-9), (1e4, optimize_mod.LENGTH_REL_TOL),
                                            (1e5, optimize_mod.LENGTH_REL_TOL)])
def test_length_optimum_matches_60_digit_root(alpha, rel_tol):
    # the root of the 60-digit slope, against optimize_length at its default
    # tolerance. The golden section this search replaced was off by 4.1e-8,
    # 1.3e-7, 7.0e-7, 2.0e-7, 1.1e-4 and 1.0e-3 at these amplitudes
    kz = optimize_length(alpha).kz
    with mpmath.workdps(60):
        root = mpmath.findroot(lambda k: _slope_mp(alpha, k),
                               (mpmath.mpf(kz), mpmath.mpf(kz) * (1 + mpmath.mpf(1e-6))),
                               tol=mpmath.mpf(10) ** -40, verify=False)
        assert abs(kz - root) <= rel_tol * root


def test_slope_root_bisects_where_the_secant_overflows(monkeypatch):
    # slopes of +-1e308 overflow the secant's denominator: each step bisects
    monkeypatch.setattr(optimize_mod, "LENGTH_REL_TOL", 1e-9)
    root = optimize_mod._slope_root(lambda kz: math.copysign(1e308, kz - 1.01), 1.0)
    assert root == pytest.approx(1.01, rel=1e-9)


def test_slope_root_refuses_a_slope_that_keeps_its_sign():
    with pytest.raises(NonConvergence, match="keeps its sign"):
        optimize_mod._slope_root(lambda kz: kz - 3.0, 1.0)


def test_optimum_tie_break_prefers_small_shift():
    # at vanishing kz the landscape is flat at F = 1; the zero shift wins
    opt = optimize_beta(KerrScenario(6.0, 1e-15))
    assert opt.fano_min <= 1.0 + 1e-12
    assert opt.beta_magnitude == 0.0


def _brute_minimum(scenario):
    """Smallest F on a log-polar beta grid (|beta| from 1e-3 to 1e13), refined
    by zooming a local grid around the best point."""
    log_r = np.linspace(-3.0, 13.0, 161)
    theta = np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False)
    best = (1.0, -3.0, 0.0)  # F = 1 at beta = 0
    d_log_r, d_theta = log_r[1] - log_r[0], theta[1] - theta[0]
    for _ in range(8):
        grid_r, grid_t = np.meshgrid(log_r, theta)
        values = fano_values(scenario, 10.0 ** grid_r * np.exp(1j * grid_t))
        i = np.unravel_index(np.argmin(values), values.shape)
        if values[i] < best[0]:
            best = (float(values[i]), float(grid_r[i]), float(grid_t[i]))
        log_r = best[1] + np.linspace(-d_log_r, d_log_r, 21)
        theta = best[2] + np.linspace(-d_theta, d_theta, 21)
        d_log_r, d_theta = d_log_r / 5.0, d_theta / 5.0
    return best[0]


@given(alpha=st.floats(0.5, 200.0), kz_exponent=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_pencil_solve_beats_brute_search(alpha, kz_exponent):
    # kz from 1e-12 to 3 kz_app, log-uniformly
    kz = 1e-12 * (3.0 * kz_app(alpha * alpha) / 1e-12) ** kz_exponent
    scenario = KerrScenario(alpha, kz)
    opt = optimize_beta(scenario)
    assert np.isfinite(opt.beta_magnitude)
    assert 0.0 < opt.fano_min <= 1.0
    assert float(fano_values(scenario, opt.beta_opt)) == opt.fano_min
    assert opt.fano_min <= _brute_minimum(scenario) + 1e-12


def test_optimum_off_the_axis_alpha50():
    # a grid point on the imaginary axis once trapped the search at F = 0.0037653;
    # the minimum, from a 60-digit evaluation of the same forms, is 0.00363447...
    opt = optimize_beta(KerrScenario(50.0, 0.0036125))
    assert opt.fano_min == pytest.approx(0.0036344707341240203, rel=1e-10)
    assert opt.beta_opt.real == pytest.approx(-0.001319179647, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 5.0, 10.0])
def test_revival_at_pi_gives_unity(alpha):
    # e^{i pi n^2} maps |alpha> to |-alpha>: F = 1 for every shift
    opt = optimize_beta(KerrScenario(alpha, np.pi))
    assert opt.fano_min == 1.0
    assert opt.beta_opt == 0j
    assert rayleigh_lower_bound(KerrScenario(alpha, np.pi)) >= 1.0 - 1e-12


def test_underflowing_dephasing_gives_unity():
    scenario = KerrScenario(3.0, 1e-170)
    assert fano_forms(scenario).s == 0.0
    opt = optimize_beta(scenario)
    assert opt.fano_min == 1.0
    assert opt.beta_opt == 0j
    assert rayleigh_lower_bound(scenario) == 1.0


@pytest.mark.parametrize("alpha", [77.0, 100.0])
def test_subnormal_dephasing_gives_unity(alpha):
    # s = 4 |a|^2 sin^2 kz is subnormal here (5.5e-321, 9.2e-321): the scaled
    # pencil's entries are quotients of rounding residues, and the gain
    # 4 |a|^2 kz is far below GAIN_TOL
    scenario = KerrScenario(alpha, 4.8e-163)
    assert 0.0 < fano_forms(scenario).s < sys.float_info.min
    opt = optimize_beta(scenario)
    assert opt.fano_min == 1.0
    assert opt.beta_opt == 0j
    assert rayleigh_lower_bound(scenario) == 1.0


def test_far_optimum_near_revival_is_finite():
    # just short of the revival the optimum lies at |beta| ~ 1e8 or more
    scenario = KerrScenario(0.5, np.pi - 1e-9)
    opt = optimize_beta(scenario)
    assert np.isfinite(opt.beta_magnitude) and opt.beta_magnitude > 1e6
    assert opt.fano_min == pytest.approx(rayleigh_lower_bound(scenario), abs=1e-15)
    assert opt.fano_min < 1.0 - 1e-12


def test_unbounded_optimum_is_a_named_error(monkeypatch, capsys):
    # F = 1 + |a|^2 (Im^2 beta - Re^2 beta) / (1 + |beta|^2): the infimum
    # 1 - |a|^2 is approached along the real axis and never reached
    forms = FanoForms(0j, 1.0, np.diag([0.0, -1.0, 1.0]))
    monkeypatch.setattr(optimize_mod, "fano_forms", lambda scenario: forms)
    with pytest.raises(UnboundedOptimum):
        optimize_beta(KerrScenario(0.5, 0.1))
    assert main(["optimize", "0.5", "--kz", "0.1"]) == 2
    assert "without bound" in capsys.readouterr().err


def test_pencil_eigenvalue_matches_50_digits():
    # the scalar solve on the double matrix S K' S, against mpmath's
    # symmetric eigensolver on the same matrix at 50 digits; numpy's eigh
    # reaches 1.24 eps max|A_ij| on this grid. The optimal shift
    # gamma* = sqrt(s) (u1 + i u2) / u0 read from the eigenvector is checked
    # the same way, relative to |gamma*|
    eps = sys.float_info.epsilon
    for alpha in (2.5, 10.0, 50.0, 150.0, 1e3, 1e4, 1e5):
        for frac in (1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0):
            forms = fano_forms(KerrScenario(alpha, frac * kz_opt_approx(alpha)))
            matrix = optimize_mod._pencil_matrix(forms)
            lam, (u0, u1, u2) = optimize_mod._smallest_eigenpair(matrix)
            root = math.sqrt(forms.s)
            gamma = complex(root * (u1 / u0), root * (u2 / u0))
            with mpmath.workdps(50):
                values, vectors = mpmath.eigsy(mpmath.matrix(matrix))
                i = min(range(3), key=lambda j: values[j])
                scale = mpmath.sqrt(forms.s) / vectors[0, i]
                exact = mpmath.mpc(vectors[1, i] * scale, vectors[2, i] * scale)
                gamma_error = float(abs(gamma - exact) / abs(exact))
            top = max(abs(v) for row in matrix for v in row)
            assert abs(lam - values[i]) <= 2.0 * eps * top, (alpha, frac)
            assert gamma_error <= 8.0 * eps, (alpha, frac)
    # the zero matrix: every vector is an eigenvector of its one eigenvalue 0
    zero = ((0.0, 0.0, 0.0),) * 3
    assert optimize_mod._smallest_eigenpair(zero) == (0.0, (0.0, 1.0, 0.0))


@pytest.mark.parametrize("alpha, kz", [(1e10, 1e-20), (1e75, 1e-150), (1e150, 1e-300)])
def test_optimum_at_extreme_scales(alpha, kz):
    # at |alpha|^2 kz = 1 and kz -> 0 the minimum is 9 - 4 sqrt(5). At
    # (1e150, 1e-300) the scaled pencil is graded: its 2 x 2 block (~1e-299)
    # sits beside a rounding residue of 3.3e-16 in K'00
    opt = optimize_beta(KerrScenario(alpha, kz))
    assert opt.fano_min == pytest.approx(9.0 - 4.0 * math.sqrt(5.0), rel=1e-10)


def test_closed_form_commands_never_reach_numpy_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg reached")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for argv in (["optimize", "30"], ["optimize", "30", "--kz", "0.005"],
                 ["sweep-length", "30", "--kz-min", "0.001", "--kz-max", "0.01",
                  "--kz-points", "7"],
                 ["reproduce", "fig5"]):
        assert main(argv) == 0, argv


def test_closed_form_path_loads_no_numpy():
    # the records, the closed forms and the optimizer are Python floats
    # throughout; numpy stays out of a process that uses only them
    script = (
        "import sys\n"
        "from kerrshift.moments import DisplacementSetting, KerrScenario, fano_displaced\n"
        "from kerrshift.optimize import optimize_length\n"
        "opt = optimize_length(10.0)\n"
        "stats = fano_displaced(KerrScenario(10.0, opt.kz),\n"
        "                       DisplacementSetting(beta=opt.beta_opt))\n"
        "values = (opt.kz, opt.fano_min, opt.suppression_db, stats.fano,\n"
        "          stats.suppression_db)\n"
        "print('numpy' in sys.modules, [type(v).__name__ for v in values])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=checkout_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False " + str(["float"] * 5)
    for name in ("moments", "approx", "optimize", "waveguide"):
        tree = ast.parse(Path(optimize_mod.__file__).with_name(f"{name}.py").read_text())
        top = [alias.name for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names]
        top += [node.module or "" for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert not [m for m in top if m.split(".")[0] == "numpy"], name
