"""The optimal shift and the optimal medium length, by an exact pencil solve.

moments.fano_forms writes the Fano factor as a ratio of real quadratic forms
over v = (1, Re beta, Im beta):

    F(beta) = 1 + m (v^T K v) / (s + |beta + g1|^2),    m = tau^2 |alpha|^2.

In gamma = beta + g1 the denominator form is exactly diag(s, 1, 1) and the
bracket form is K' = T^T K T, so the minimum of F over every complex shift is
1 + m lambda_min, the smallest eigenvalue of the symmetric matrix S K' S with
S = diag(1/sqrt(s), 1, 1) (the symmetric-definite pencil of Golub & Van Loan,
Matrix Computations, section 8.7). optimize_beta reads the optimal shift from
the eigenvector u: beta* = gamma* - g1 with gamma* along (u1, u2). When the
optimum lies far out (|gamma*| grows like 1/kz), u0 loses its relative
accuracy, so the distance along that direction is taken from the 2 x 2 pencil
on the line through gamma = 0, whose stationary points solve a quadratic.
F, the mean photon number and the suppression are then reported from the
closed form at beta*.

optimize_length golden-sections kz over the pencil minimum, and sweep_length
solves at every kz of a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import MIN_ALPHA, kz_opt_approx
from .errors import NonConvergence, UnboundedOptimum
from .fock import KerrScenario
from .moments import DisplacementSetting, fano_displaced, fano_forms

# The one tolerance of the solve: a gain 1 - F_min at or below it counts as
# none, and the zero shift (the cheapest displacement) is returned.
GAIN_TOL = 1e-12
# Iteration cap of the golden-section length search; NonConvergence past it.
MAX_ITER = 200
# Default relative kz tolerance of the length search (the CLI's tol_kz default).
LENGTH_REL_TOL = 1e-6


@dataclass(frozen=True)
class Optimum:
    beta_opt: complex
    kz: float
    fano_min: float
    suppression_db: float
    mean_photon: float
    beta_magnitude: float


def _report(alpha: complex, kz: float, beta: complex) -> Optimum:
    rep = fano_displaced(KerrScenario(alpha, kz), DisplacementSetting(beta=beta))
    return Optimum(beta_opt=beta, kz=kz, fano_min=rep.fano,
                   suppression_db=rep.suppression_db, mean_photon=rep.mean,
                   beta_magnitude=abs(beta))


def _pencil(scenario: KerrScenario):
    """(F_min, u, K', forms) at tau = 1: the pencil minimum 1 + m lambda_min,
    the (Re gamma, Im gamma) part of its eigenvector, and the bracket form in gamma.
    With s == 0 (kz = 0, or 4 |alpha|^2 sin^2 kz underflowing) F == 1 for
    every shift, and u and K' are None."""
    forms = fano_forms(scenario)
    if forms.s == 0.0:
        return 1.0, None, None, forms
    g1 = forms.g1
    t = np.array([[1.0, 0.0, 0.0], [-g1.real, 1.0, 0.0], [-g1.imag, 0.0, 1.0]])
    k = t.T @ forms.bracket @ t
    scale = np.array([1.0 / np.sqrt(forms.s), 1.0, 1.0])
    lam, vecs = np.linalg.eigh(k * np.outer(scale, scale))
    f_min = 1.0 + scenario.abs_alpha_sq * float(lam[0])
    return f_min, vecs[1:, 0], k, forms


def optimize_beta(scenario: KerrScenario) -> Optimum:
    """Global minimum of the Fano factor over the complex shift coordinate.

    Returns the zero shift, at F = 1, when the gain is at most GAIN_TOL.
    Raises UnboundedOptimum when the minimum is approached only as |beta|
    grows without bound.
    """
    alpha, kz = scenario.alpha, scenario.kz
    if abs(alpha) <= 0:
        raise ValueError("optimization requires |alpha| > 0")
    f_min, u, k, forms = _pencil(scenario)
    if not 1.0 - f_min > GAIN_TOL:
        return _report(alpha, kz, 0j)
    s = forms.s
    norm = float(np.hypot(u[0], u[1]))
    # u = (0, 0) puts the optimum at gamma = 0
    e = u / norm if norm > 0.0 else np.array([1.0, 0.0])
    b = float(k[0, 1:] @ e) if norm > 0.0 else 0.0
    if b == 0.0:
        rhos = np.array([0.0])
    else:
        # F along gamma = rho e is stationary where b rho^2 + (a - c s) rho - b s = 0,
        # with a = K'00, c = e^T K'_22 e. The roots multiply to -s, so the small
        # one is taken from the large one.
        q = float(e @ k[1:, 1:] @ e) * s - k[0, 0]
        big = (q + np.copysign(np.hypot(q, 2.0 * b * np.sqrt(s)), q)) / (2.0 * b)
        rhos = np.array([big, -s / big])
    betas = rhos * complex(e[0], e[1]) - forms.g1
    with np.errstate(over="ignore", invalid="ignore"):
        fano, _ = forms.evaluate(betas, scenario.abs_alpha_sq)
    fano = np.where(np.isfinite(fano), fano, np.inf)
    best = int(np.argmin(fano))
    if not fano[best] < 1.0:
        raise UnboundedOptimum(
            f"alpha = {alpha}, kz = {kz}: the pencil minimum F = {f_min!r} is "
            f"approached only as |beta| grows without bound")
    return _report(alpha, kz, complex(betas[best]))


def _golden_section(func, lo: float, hi: float, rel_tol: float) -> float:
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = func(c), func(d)
    for _ in range(MAX_ITER):
        if (hi - lo) <= rel_tol * (abs(lo) + abs(hi)) / 2.0:
            return (lo + hi) / 2.0
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = func(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = func(d)
    raise NonConvergence(f"golden section exceeded {MAX_ITER} iterations")


def optimize_length(alpha: complex, rel_tol: float = LENGTH_REL_TOL) -> Optimum:
    """Minimize over the medium length: kz -> the pencil minimum at (alpha, kz).

    Golden-section search on [0.2, 2.5] times the analytic length estimate,
    to a relative kz tolerance of rel_tol within MAX_ITER iterations; the
    shift is then solved at the best length.
    """
    if abs(alpha) < MIN_ALPHA:
        raise ValueError(f"optimize_length requires |alpha| >= {MIN_ALPHA:g}")
    kz_scale = kz_opt_approx(abs(alpha))
    kz_best = _golden_section(lambda kz: _pencil(KerrScenario(alpha, kz))[0],
                              0.2 * kz_scale, 2.5 * kz_scale, rel_tol)
    return optimize_beta(KerrScenario(alpha, kz_best))


def sweep_length(alpha: complex, kz_values) -> list[Optimum]:
    """optimize_beta at every kz of a grid, in grid order, for F(Kz) curves."""
    return [optimize_beta(KerrScenario(alpha, float(kz))) for kz in kz_values]


def rayleigh_lower_bound(scenario: KerrScenario) -> float:
    """The pencil minimum of F over every complex shift: the smallest
    generalized eigenvalue that optimize_beta solves for."""
    return _pencil(scenario)[0]
