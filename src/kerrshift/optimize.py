"""The optimal shift and the optimal medium length, by an exact pencil solve.

moments.fano_forms writes the Fano factor as a ratio of real quadratic forms
over v = (1, Re beta, Im beta):

    F(beta) = 1 + m (v^T K v) / (s + |beta + g1|^2),    m = tau^2 |alpha|^2.

In gamma = beta + g1 the denominator form is exactly diag(s, 1, 1) and the
bracket form is K' = T^T K T, so the minimum of F over every complex shift is
1 + m lambda_min, the smallest eigenvalue of the symmetric matrix S K' S with
S = diag(1/sqrt(s), 1, 1) (the symmetric-definite pencil of Golub & Van Loan,
Matrix Computations, section 8.7). That 3 x 3 eigenvalue is solved in Python
floats by _smallest_eigenpair: one rotation of the lower 2 x 2 block, then
Newton's method on the characteristic polynomial of the resulting arrowhead
matrix, measured from the block's smaller eigenvalue. optimize_beta reads the
optimal shift from the eigenvector u of that solve alone: S u is (1, gamma*)
up to scale, so gamma* = sqrt(s) (u1 + i u2) / u0 and beta* = gamma* - g1.
u0 is the Newton variable t = d1 - lambda_min, which the solve carries to its
relative digits, so the ratio keeps them also where the optimum lies far out
(|gamma*| grows like 1/kz) and u0 is small beside u1 and u2. F, the mean
photon number and the suppression are then reported from the same forms at
beta*; each optimum builds them once.

optimize_length finds the optimal length as the root of dF_min/dkz. By the
envelope theorem (Hellmann-Feynman for the pencil) that slope is dF/dkz at
beta* with beta* held fixed, so each step is one pencil solve and
FanoForms.slope on the forms' kz-derivatives. The root search starts at the
analytic length estimate kz_opt_approx, brackets the sign change of the
slope, and closes the bracket by Illinois regula falsi to the fixed width
LENGTH_REL_TOL kz; see _slope_root. sweep_length solves at every kz of a
grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .approx import MIN_ALPHA, kz_opt_approx
from .errors import BelowResolution, NonConvergence, UnboundedOptimum
from .fock import KerrScenario
from .moments import FanoForms, fano_forms

# The one tolerance of the solve: a gain 1 - F_min at or below it counts as
# none, and the zero shift (the cheapest displacement) is returned.
GAIN_TOL = 1e-12
# Iteration cap of the length search's root iteration and of the Newton
# steps of the pencil's eigenvalue; NonConvergence past it.
MAX_ITER = 200
# kz ratio of the length search's first step from the length estimate, which
# lies above the optimum by 9% at |alpha| = 2, 1.8% at 10 and 0.1% at 100;
# each later step squares the ratio
BRACKET_RATIO = 1.02
# Relative kz bracket of the length search; fixed, see optimize_length.
LENGTH_REL_TOL = 1e-6


@dataclass(frozen=True)
class Optimum:
    beta_opt: complex
    kz: float
    fano_min: float
    suppression_db: float
    mean_photon: float
    beta_magnitude: float


def _report(scenario: KerrScenario, forms: FanoForms, beta: complex) -> Optimum:
    rep = forms.statistics(beta, scenario.abs_alpha_sq, abs(scenario.alpha))
    return Optimum(beta_opt=beta, kz=scenario.kz, fano_min=rep.fano,
                   suppression_db=rep.suppression_db, mean_photon=rep.mean,
                   beta_magnitude=abs(beta))


def _largest_root(c: float, z: float) -> float:
    """The larger root of t (c + t) = z^2, without cancellation."""
    root = math.hypot(c, 2.0 * z)
    if c < 0.0:
        return (root - c) / 2.0
    return 2.0 * abs(z) * (abs(z) / (c + root)) if z else 0.0


def _smallest_eigenpair(a) -> tuple[float, tuple[float, float, float]]:
    """Smallest eigenvalue lam of a symmetric 3 x 3 matrix A (nested rows),
    and an eigenvector (u0, u1, u2) for it, up to scale.

    A is first multiplied by an exact power of two that brings its largest
    entry into [0.5, 1), so that products of three entries neither overflow
    nor underflow. One rotation diagonalizes the block A[1:, 1:] to
    d1 <= d2 = d1 + D (D from a hypot, without cancellation) and turns the
    border into (z1, z2): an arrowhead matrix, whose characteristic
    polynomial in the distance t = d1 - lam below d1 is

        P(t) = (c + t) t (D + t) - z1^2 (D + t) - z2^2 t,    c = A00 - d1.

    Its roots are d1 - lam_i, so t* = d1 - lam_min is its largest root, at
    or above 0 by interlacing. Above t*, P is positive, increasing and
    convex, so Newton's method from an upper bound falls to it
    monotonically; it stops where a step no longer lowers t. Two upper
    bounds come from the secular equation c + t = z1^2 / t + z2^2 / (D + t):
    replacing the second pole's term by z2^2 / t, or by z2^2 / D, only
    raises the right side, and so the root. The first is close when
    t* >> D, the second when t* << D, and the start is the smaller. Working
    in t keeps lam's digits when lam is far smaller than A's largest entry,
    as in the graded matrices of the pencil at extreme |alpha| and kz
    (Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978), solve the same
    secular equation). The eigenvector is (t, -z1, -z2 t / (D + t)) in the
    rotated frame, so u0 = t keeps t's relative digits; with z1 = 0 and
    t* = 0 it is the block's (0, 1, 0).
    """
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    top = max(abs(a00), abs(a01), abs(a02), abs(a11), abs(a12), abs(a22))
    if top == 0.0:
        return 0.0, (1.0, 0.0, 0.0)
    scale = -math.frexp(top)[1]
    a00, a01, a02, a11, a12, a22 = (math.ldexp(v, scale) for v in (a00, a01, a02, a11, a12, a22))
    # the block's smaller eigenvalue d1, its eigenvector (vx, vy), and D = d2 - d1
    half_diff, mid = (a11 - a22) / 2.0, (a11 + a22) / 2.0
    rad = math.hypot(half_diff, a12)
    vx, vy = (a12, -(half_diff + rad)) if half_diff >= 0.0 else (rad - half_diff, -a12)
    norm = math.hypot(vx, vy)
    vx, vy = (vx / norm, vy / norm) if norm > 0.0 else (1.0, 0.0)
    if mid > 0.0:
        d2 = mid + rad
        d1 = (a11 / d2) * a22 - (a12 / d2) * a12
    else:
        d1 = mid - rad
    gap = 2.0 * rad
    z1, z2 = vx * a01 + vy * a02, vx * a02 - vy * a01
    c = a00 - d1
    zz1, zz2 = z1 * z1, z2 * z2
    if z1 == 0.0 and c >= 0.0 and c * gap >= zz2:
        return math.ldexp(d1, -scale), (0.0, vx, vy)
    t = _largest_root(c, math.hypot(z1, z2))
    if gap > 0.0:
        t = min(t, _largest_root(c - zz2 / gap, z1))
    for _ in range(MAX_ITER):
        ct, gt = c + t, gap + t
        p = ct * t * gt - zz1 * gt - zz2 * t
        slope = ct * gt + t * gt + t * ct - zz1 - zz2
        if not (p > 0.0 and slope > 0.0):
            break
        step = t - p / slope
        if not step < t:
            break
        t = step
    else:
        raise NonConvergence(f"pencil eigenvalue: Newton exceeded {MAX_ITER} iterations")
    w = z2 * t / (gap + t) if t else 0.0
    return math.ldexp(d1 - t, -scale), (t, -z1 * vx + w * vy, -z1 * vy - w * vx)


def _pencil_matrix(forms: FanoForms) -> tuple:
    """S K' S as nested rows, for forms with s > 0: the bracket form in
    gamma, K' = T^T K T with T the map from (1, gamma) to (1, beta), scaled
    by S = diag(1/sqrt(s), 1, 1); its smallest eigenvalue is the pencil
    minimum. Rows 1 and 2 of K' are K's."""
    gr, gi = forms.g1.real, forms.g1.imag
    k = forms.bracket
    # row 0 of T^T K, then K'00
    t0 = [k[0][j] - gr * k[1][j] - gi * k[2][j] for j in range(3)]
    k00 = t0[0] - gr * t0[1] - gi * t0[2]
    root = math.sqrt(forms.s)
    a01, a02 = t0[1] / root, t0[2] / root
    return ((k00 / forms.s, a01, a02), (a01, k[1][1], k[1][2]), (a02, k[2][1], k[2][2]))


def _pencil(forms: FanoForms, m: float):
    """(F_min, u) at tau = 1, with m = |alpha|^2: the pencil minimum
    1 + m lambda_min and its eigenvector u of S K' S (up to scale). With
    s == 0 (kz = 0, or 4 |alpha|^2 sin^2 kz underflowing) F == 1 for every
    shift, and u is None. So it is taken for an s below the smallest normal
    double, where K'00 / s and K'0j / sqrt(s) are quotients of subnormal
    rounding residues. There |alpha|^2 kz, about |alpha| sqrt(s) / 2, is
    below 7.5e-155 |alpha|, and the gain 1 - F_min, about 4 |alpha|^2 kz
    while small, stays below GAIN_TOL up to |alpha| of about 3e141; past
    that the gain is lost."""
    if forms.s < sys.float_info.min:
        return 1.0, None
    lam, u = _smallest_eigenpair(_pencil_matrix(forms))
    return 1.0 + m * lam, u


def _shift(forms: FanoForms, u) -> complex | None:
    """beta* = gamma* - g1, with gamma* = sqrt(s) (u1 + i u2) / u0 read from
    the eigenvector u: S u = (u0 / sqrt(s), u1, u2) is (1, gamma*) up to
    scale. None where u0 = 0 puts gamma* at infinity; a ratio that overflows
    puts it past 1e154, where F evaluates to nan."""
    u0, u1, u2 = u
    if not u0:
        return None
    root = math.sqrt(forms.s)
    return complex(root * (u1 / u0), root * (u2 / u0)) - forms.g1


def optimize_beta(scenario: KerrScenario) -> Optimum:
    """Global minimum of the Fano factor over the complex shift coordinate.

    Returns the zero shift, at F = 1, when the gain is at most GAIN_TOL.
    Raises UnboundedOptimum when the minimum is approached only as |beta|
    grows without bound.
    """
    alpha, kz = scenario.alpha, scenario.kz
    if abs(alpha) <= 0:
        raise ValueError("optimization requires |alpha| > 0")
    m = scenario.abs_alpha_sq
    forms = fano_forms(scenario)
    f_min, u = _pencil(forms, m)
    if not 1.0 - f_min > GAIN_TOL:
        return _report(scenario, forms, 0j)
    beta = _shift(forms, u)
    if beta is None or not forms.evaluate(beta, m) < 1.0:
        raise UnboundedOptimum(
            f"alpha = {alpha}, kz = {kz}: the pencil minimum F = {f_min!r} is "
            f"approached only as |beta| grows without bound")
    return _report(scenario, forms, beta)


def _length_slope(alpha: complex, kz: float) -> float:
    """dF_min/dkz at kz: the kz-derivative of F at the pencil's optimal shift
    beta*, with beta* held fixed (FanoForms.slope). Refused by name where the
    pencil gives no finite beta* (no gain above GAIN_TOL, or u0 = 0) or the
    slope is not finite."""
    scenario = KerrScenario(alpha, kz)
    m = scenario.abs_alpha_sq
    forms = fano_forms(scenario, rate=True)
    f_min, u = _pencil(forms, m)
    beta = _shift(forms, u) if 1.0 - f_min > GAIN_TOL else None
    slope = forms.slope(beta, m) if beta is not None else math.nan
    if not math.isfinite(slope):
        raise BelowResolution(
            f"alpha = {alpha}, kz = {kz!r}: the pencil minimum F = {f_min!r} gives no "
            f"finite dF_min/dkz; doubles do not resolve the length optimum here")
    return slope


def _slope_root(slope, kz0: float, rel_tol: float) -> float:
    """A root of slope(kz) near kz0, to a bracket of rel_tol kz; a slope of 0
    counts as positive.

    A sign bracket comes first: steps from kz0 toward descent (to the right
    where slope(kz0) < 0), each ratio the square of the last, stopping at
    [0.2, 2.5] kz0. Then Illinois regula falsi (Dowell & Jarratt, BIT 11,
    168 (1971)) keeps the bracket, and bisects where the secant point is not
    strictly inside it, as the zero finder of Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 4, is guarded."""
    f0 = slope(kz0)
    limit = 2.5 * kz0 if f0 < 0.0 else 0.2 * kz0
    near, f_near, ratio = kz0, f0, BRACKET_RATIO
    while True:
        far = min(near * ratio, limit) if f0 < 0.0 else max(near / ratio, limit)
        f_far = slope(far)
        if (f_far < 0.0) != (f0 < 0.0):
            break
        if far == limit:
            raise NonConvergence(
                f"dF_min/dkz keeps its sign from kz = {kz0!r} to {limit!r}, the end "
                f"of [0.2, 2.5] times the length estimate")
        near, f_near, ratio = far, f_far, ratio * ratio
    (lo, f_lo), (hi, f_hi) = sorted(((near, f_near), (far, f_far)))
    # Illinois: the slope of an end kept twice in a row is halved in the
    # secant, so that both ends close in. The last secant, on the bracket
    # within tolerance, takes the slopes themselves; its error is of the
    # order of the square of the bracket's width.
    weight_lo = weight_hi = 1.0
    side = 0
    for _ in range(MAX_ITER):
        done = hi - lo <= rel_tol * lo
        a, b = (f_lo, f_hi) if done else (f_lo * weight_lo, f_hi * weight_hi)
        kz = (lo * b - hi * a) / (b - a)
        if not lo < kz < hi:
            kz = lo + (hi - lo) / 2.0
        if done:
            return kz
        f = slope(kz)
        if f < 0.0:
            lo, f_lo, weight_lo = kz, f, 1.0
            weight_hi = weight_hi / 2.0 if side < 0 else 1.0
            side = -1
        else:
            hi, f_hi, weight_hi = kz, f, 1.0
            weight_lo = weight_lo / 2.0 if side > 0 else 1.0
            side = 1
    raise NonConvergence(f"length search: the dF_min/dkz bracket [{lo!r}, {hi!r}] is "
                         f"not within rel_tol = {rel_tol!r} after {MAX_ITER} iterations")


def optimize_length(alpha: complex) -> Optimum:
    """Minimize over the medium length: the root of dF_min/dkz near the
    analytic length estimate, to a kz bracket of LENGTH_REL_TOL kz
    (_slope_root); the shift is then solved at that length. The bracket is
    fixed, since the last secant's error is of the order of its width
    squared: at 36 of 41 log-spaced |alpha| from 2 to 1e6, a bracket of
    1e-3 gives the same kz and F bits, and at the other five moves kz by
    at most 1.8e-10 relative."""
    if abs(alpha) < MIN_ALPHA:
        raise ValueError(f"optimize_length requires |alpha| >= {MIN_ALPHA:g}")
    # KerrScenario's checks on alpha first: kz_opt_approx overflows past
    # |alpha| ~ 1.5e231, where |alpha|^2 is long past finite
    KerrScenario(alpha, 0.0)
    kz = _slope_root(lambda kz: _length_slope(alpha, kz), kz_opt_approx(abs(alpha)),
                     LENGTH_REL_TOL)
    return optimize_beta(KerrScenario(alpha, kz))


def sweep_length(alpha: complex, kz_values) -> list[Optimum]:
    """optimize_beta at every kz of a grid, in grid order, for F(Kz) curves."""
    return [optimize_beta(KerrScenario(alpha, float(kz))) for kz in kz_values]


def rayleigh_lower_bound(scenario: KerrScenario) -> float:
    """The pencil minimum of F over every complex shift: the smallest
    generalized eigenvalue that optimize_beta solves for."""
    return _pencil(fano_forms(scenario), scenario.abs_alpha_sq)[0]
