"""Closed-form photon statistics of the displaced Kerr state.

The Kerr-evolved coherent state has field moments
    <a>       = alpha e^{i kz} e^{2i|a|^2 kz} g1
    <a^2>     = alpha^2 e^{4i kz} e^{4i|a|^2 kz} g2
    <a^dag a^2> = alpha |a|^2 e^{3i kz} e^{2i|a|^2 kz} g1
with the dephasing factors
    g1 = e^{-2i|a|^2 kz} e^{|a|^2 (e^{2i kz} - 1)}
    g2 = e^{-4i|a|^2 kz} e^{|a|^2 (e^{4i kz} - 1)}.
Mixing with a weak coherent beam (amplitude transmission tau, shift alpha_S)
and writing beta = alpha_S e^{-2i|a|^2 kz} / (tau alpha e^{i kz}) gives an
exact rational expression for the Fano factor, quadratic over quadratic in
beta. These closed forms hold at any amplitude, far beyond Fock-engine reach.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import BelowResolution, DegenerateDenominator, NumericalOverflow

# The largest |alpha| whose square abs_alpha_sq is finite.
_MAX_ABS_ALPHA = math.sqrt(sys.float_info.max)
# Largest Kerr phase 4 kz and 4 |alpha|^2 kz of a KerrScenario. The closed
# forms take the sine of 4 kz and |alpha|^2 (sin 4kz - 4kz), which is at most
# |alpha|^2 (4 kz + 1) in size; below half the largest double both are finite.
MAX_KERR_PHASE = sys.float_info.max / 2
# F is refused where its denominator s + |beta + g1|^2 is at or below this
DENOM_FLOOR = 1e-15
# Largest |beta| tau |alpha| of shift_amplitude(): no part of its product overflows
MAX_SHIFT = sys.float_info.max / 2
_TINY = sys.float_info.min  # the smallest normal double


@dataclass(frozen=True)
class KerrScenario:
    """Dimensionless problem instance: input amplitude and accumulated Kerr phase K*z."""

    alpha: complex
    kz: float

    def __post_init__(self):
        if not math.isfinite(self.kz) or self.kz < 0:
            raise ValueError(f"kz must be finite and >= 0, got {self.kz}")
        if not cmath.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if abs(self.alpha) > _MAX_ABS_ALPHA:
            raise ValueError(
                f"alpha must have a finite |alpha|^2, got |alpha| = {abs(self.alpha):g}")
        four_kz = 4.0 * self.kz
        for name, phase in (("4 kz", four_kz), ("4 |alpha|^2 kz", self.abs_alpha_sq * four_kz)):
            if phase > MAX_KERR_PHASE:
                raise ValueError(f"kz = {self.kz!r}: the Kerr phase {name} = {phase:g} is "
                                 f"above MAX_KERR_PHASE = {MAX_KERR_PHASE:g}")

    @property
    def abs_alpha_sq(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number mean, variance and Fano factor F = variance / mean, as
    both engines report them: fano_displaced() from the closed form and
    fock.photon_statistics() from a Fock state."""

    mean: float
    variance: float
    fano: float

    @property
    def mandel_q(self) -> float:
        return self.fano - 1.0

    @property
    def suppression_db(self) -> float:
        return 10.0 * math.log10(self.fano)


def _sin_minus_arg(t: float) -> float:
    """sin(t) - t without cancellation for small |t|."""
    if abs(t) < 1e-3:
        t2 = t * t
        return -t * t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0))
    return math.sin(t) - t


def _sin_sq_term(factor: float, scenario: KerrScenario, t: float) -> float:
    """factor |a|^2 sin^2 t. Below the smallest normal double (|t| below about
    1.5e-154) sin^2 t loses bits or underflows to 0 while the product can be
    of order 1 (|a| = 1e100, t = 1e-200), so there |a| goes in before squaring."""
    sin_t = math.sin(t)
    sin_sq = sin_t * sin_t
    if sin_sq < _TINY:
        scaled = abs(scenario.alpha) * sin_t
        return factor * (scaled * scaled)
    return factor * scenario.abs_alpha_sq * sin_sq


def g_factors(scenario: KerrScenario) -> tuple[complex, complex]:
    """Dephasing factors (g1, g2) of the Kerr-evolved field moments.

    The exponents |a|^2 (e^{2ikz} - 1 - 2ikz) and |a|^2 (e^{4ikz} - 1 - 4ikz)
    are assembled from expm1-style pieces so g - 1 stays accurate near kz = 0.
    """
    a2 = scenario.abs_alpha_sq
    kz = scenario.kz
    e1 = complex(_sin_sq_term(-2.0, scenario, kz), a2 * _sin_minus_arg(2.0 * kz))
    e2 = complex(_sin_sq_term(-2.0, scenario, 2.0 * kz), a2 * _sin_minus_arg(4.0 * kz))
    return cmath.exp(e1), cmath.exp(e2)


@dataclass(frozen=True)
class DisplacementSetting:
    """Beam-splitter transmission and normalized shift coordinate beta."""

    tau: float = 1.0
    beta: complex = 0j

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if not (math.isfinite(self.beta.real) and math.isfinite(self.beta.imag)):
            raise ValueError(f"beta must be finite, got {self.beta}")


def shift_amplitude(scenario: KerrScenario, setting: DisplacementSetting) -> complex:
    """Physical shift alpha_S = beta tau alpha e^{i kz} e^{2i|a|^2 kz}.

    At tau = 1 this is exactly the displacement D(alpha_S) applied to the
    Kerr-evolved state, which is how the Fock engine realizes the mixing.
    The phase 2 (|a|^2 kz) takes the product first, so it stays finite
    wherever |a|^2 kz is, and the factor 2 is exact. A size |beta| tau |alpha|
    above MAX_SHIFT is refused before the product turns inf into nan.
    """
    beta = setting.beta
    size = math.hypot(beta.real, beta.imag) * setting.tau * abs(scenario.alpha)
    if not size <= MAX_SHIFT:
        raise NumericalOverflow(f"shift size |beta| tau |alpha| = {size:g} is above "
                                f"MAX_SHIFT = {MAX_SHIFT:g}")
    return complex(beta * setting.tau * scenario.alpha
                   * cmath.exp(1j * scenario.kz)
                   * cmath.exp(2j * (scenario.abs_alpha_sq * scenario.kz)))


@dataclass(frozen=True)
class FanoForms:
    """The Fano factor as a ratio of real quadratic forms over v = (1, Re b, Im b):

        F(beta) = 1 + tau^2 |a|^2 (v^T K v) / (s + |beta + g1|^2).

    The denominator form is diag(s, 1, 1) in gamma = beta + g1, so it is kept
    as (g1, s). The bracket form K is built from cancellation-free pieces:
        u = e^{-2ikz} - 1 = -2i sin(kz) e^{-ikz}
        c = u g1*
        w = e^{-2ikz} g2* - g1*^2 = g1*^2 expm1(x),  x = |a|^2 u^2 - 2ikz
        s = 1 - |g1|^2 = -expm1(-4 |a|^2 sin^2 kz)
    with v^T K v = 4 Re(beta c) + 2 Re(beta^2 w) + 2 |beta|^2 s, so K[0][0] = 0
    and F(0) = 1 exactly. Once Re x > 1, w is taken from the difference
    instead: there g1*^2 may underflow while expm1(x) overflows.

    Every field is a Python number, and K a nested tuple of rows read as
    K[i][j]. evaluate(), numerator() and denominator() take beta as a Python
    complex or as a complex array, with the same bits from both.

    rate, when fano_forms is asked for it, holds the kz-derivatives of the
    fields, (g1', s', K'), as forms of the same shape; slope() reads them.
    """

    g1: complex
    s: float
    bracket: tuple
    rate: FanoForms | None = None

    def denominator(self, beta):
        """s + |beta + g1|^2 at beta. |z|^2 is summed from the squares of
        its parts: abs() of a Python complex and of a numpy array round
        differently, and a Python complex raises OverflowError where its
        abs() passes the largest double."""
        z = beta + self.g1
        return self.s + (z.real * z.real + z.imag * z.imag)

    def numerator(self, beta):
        """v^T K v at beta."""
        x, y = beta.real, beta.imag
        k = self.bracket
        return (2.0 * (k[0][1] * x + k[0][2] * y)
                + k[1][1] * x * x + 2.0 * k[1][2] * x * y + k[2][2] * y * y)

    def evaluate(self, beta, m: float):
        """F at beta, with m = tau^2 |a|^2. A large beta overflows to inf or
        nan; callers check. A zero denominator raises ZeroDivisionError on a
        Python complex, so statistics() tests it first."""
        return 1.0 + m * self.numerator(beta) / self.denominator(beta)

    def slope(self, beta: complex, m: float) -> float:
        """dF/dkz at a fixed beta, with m = tau^2 |a|^2, from rate:
        m (N' D - N D') / D^2 with N = v^T K v, D = s + |beta + g1|^2,
        N' = v^T K' v and D' = s' + 2 Re((beta + g1)* g1'). At the optimal
        shift it is dF_min/dkz, since there dF/dbeta = 0 (the envelope
        theorem). D >= s > 0 wherever the pencil is solved, and N / D is
        taken first, so that D^2 cannot underflow to 0."""
        r = self.rate
        z = beta + self.g1
        denom = self.denominator(beta)
        denom_rate = r.s + 2.0 * (z.real * r.g1.real + z.imag * r.g1.imag)
        return m * (r.numerator(beta) - self.numerator(beta) / denom * denom_rate) / denom

    def _scaled(self, scale: float) -> FanoForms:
        """The forms in the variable beta scale, for a power of two scale: at
        beta scale they give scale^2 times these forms' numerator and
        denominator at beta, and so the same F."""
        (_, k01, k02), (_, k11, k12), (_, _, k22) = self.bracket
        k01, k02 = k01 * scale, k02 * scale
        return FanoForms(self.g1 * scale, self.s * scale * scale,
                         ((0.0, k01, k02), (k01, k11, k12), (k02, k12, k22)))

    def statistics(self, beta: complex, m: float, amplitude: float) -> PhotonStatistics:
        """Photon statistics at beta, with m = tau^2 |a|^2 and amplitude =
        tau |a|: the mean is m times the denominator of F, the variance F
        times the mean. A mean of 0 or inf, where m underflows or |beta|^2
        overflows, is taken instead as (amplitude / scale)^2 times the
        denominator of the forms in beta scale (_scaled), for the power of two
        scale whose exponent is halfway between those of amplitude and
        1 / |beta|. A denominator at or below DENOM_FLOOR, or a mean at or
        below 0, raises DegenerateDenominator;
        a mean, variance or F that is not finite raises NumericalOverflow,
        and an F at or below 0, which only rounding gives, BelowResolution."""
        denom = self.denominator(beta)
        if denom <= DENOM_FLOOR:
            raise DegenerateDenominator(
                f"denominator s + |beta + g1|^2 = {denom} of F is at or below its floor "
                f"DENOM_FLOOR = {DENOM_FLOOR} at beta = {beta}")
        forms, at, mean = self, beta, m * denom
        if not 0.0 < mean < math.inf:
            size = max(abs(beta.real), abs(beta.imag), 1.0)
            scale = 2.0 ** ((math.frexp(amplitude)[1] - math.frexp(size)[1]) // 2)
            forms, at, scaled = self._scaled(scale), beta * scale, amplitude / scale
            mean = scaled * scaled * forms.denominator(at)
        if mean <= 0.0:
            raise DegenerateDenominator(
                f"mean photon number {mean} is not positive at beta = {beta}")
        fano = forms.evaluate(at, m)
        variance = fano * mean
        for name, value in (("mean photon number", mean), ("variance", variance), ("F", fano)):
            if not math.isfinite(value):
                raise NumericalOverflow(f"{name} = {value} is not finite at beta = {beta}")
        if not fano > 0.0:
            raise BelowResolution(
                f"F = {fano!r} is not positive at beta = {beta}: doubles do not resolve "
                f"F_min at this |alpha| and kz")
        return PhotonStatistics(mean, variance, fano)


def _expm1(z: complex) -> complex:
    """e^z - 1 by numpy's formula for the complex expm1, with the same bits:
    expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    x, y = z.real, z.imag
    h = math.sin(y / 2.0)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * h * h, math.exp(x) * math.sin(y))


def _bracket(c: complex, w: complex, s: float) -> tuple:
    """The rows of K with v^T K v = 4 Re(beta c) + 2 Re(beta^2 w) + 2 |beta|^2 s."""
    c_re, c_im = 2.0 * c.real, -2.0 * c.imag
    return ((0.0, c_re, c_im),
            (c_re, 2.0 * (w.real + s), -2.0 * w.imag),
            (c_im, -2.0 * w.imag, 2.0 * (s - w.real)))


def fano_forms(scenario: KerrScenario, rate: bool = False) -> FanoForms:
    """The denominator and bracket forms of the Fano factor at (|alpha|, kz),
    and with rate=True their kz-derivatives, from the same pieces:
        g1' = 2i |a|^2 u* g1,    u' = -2i (u + 1),    s' = -2 Re(g1* g1'),
        c'  = u' g1* + u g1'* = -2i g1* (u + 1 + |a|^2 u^2),
        w'  = -2i w (1 + 2 |a|^2 u (u + 2)) - 2i g1*^2 (1 + 2 |a|^2 u (u + 1)),
    where u* = e^{2ikz} - 1, and w' is that of w = e^{-2ikz} g2* - g1*^2
    with g2' = 4i |a|^2 u* (u* + 2) g2 and e^{-2ikz} g2* = w + g1*^2."""
    a2, kz = scenario.abs_alpha_sq, scenario.kz
    g1, g2 = g_factors(scenario)
    g1c = g1.conjugate()
    u = -2j * math.sin(kz) * cmath.exp(-1j * kz)
    c = u * g1c
    x = a2 * u * u - 2j * kz
    if x.real <= 1.0:
        w = g1c * g1c * _expm1(x)
    else:
        w = cmath.exp(-2j * kz) * g2.conjugate() - g1c * g1c
    s = -math.expm1(_sin_sq_term(-4.0, scenario, kz))
    rates = None
    if rate:
        g1_rate = 2j * a2 * u.conjugate() * g1
        s_rate = -2.0 * (g1c * g1_rate).real
        c_rate = -2j * g1c * (u + 1.0 + a2 * u * u)
        w_rate = -2j * (w * (1.0 + 2.0 * a2 * u * (u + 2.0))
                        + g1c * g1c * (1.0 + 2.0 * a2 * u * (u + 1.0)))
        rates = FanoForms(g1_rate, s_rate, _bracket(c_rate, w_rate, s_rate))
    return FanoForms(g1, s, _bracket(c, w, s), rates)


def fano_values(scenario: KerrScenario, betas):
    """Vectorized Fano factor over an array of shift coordinates beta, at tau = 1.
    A large beta overflows to inf or nan without a warning. The one use of
    numpy in this module, imported here, so the scalar closed forms load none."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return fano_forms(scenario).evaluate(np.asarray(betas, dtype=complex),
                                             scenario.abs_alpha_sq)


def fano_displaced(scenario: KerrScenario,
                   setting: DisplacementSetting) -> PhotonStatistics:
    """Exact photon statistics of the displaced Kerr state from the closed
    form, refused by name as FanoForms.statistics() says. The Fock engine's
    photon_statistics() returns the same record."""
    return fano_forms(scenario).statistics(setting.beta,
                                           setting.tau ** 2 * scenario.abs_alpha_sq,
                                           setting.tau * abs(scenario.alpha))
