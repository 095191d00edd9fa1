"""Analytic approximations of the optimally displaced Fano factor.

Two regimes joined at the crossover length (Kz)_app:
    short lengths:   F1 = exp(-4 |a|^2 Kz + |a|^4 (Kz)^2)
    near optimum:    F2 = (8/3) |a|^4 (Kz)^4 + 1 / (16 |a|^4 (Kz)^2)
All radical constants are evaluated at runtime, not hard-coded decimals.
"""

from __future__ import annotations

import math

from .errors import OutOfValidityRange

# (sqrt(3)/2)^(1/3) ~ 0.953: crossover coefficient
KZ_APP_COEFF = (math.sqrt(3.0) / 2.0) ** (1.0 / 3.0)
# 3^(1/6) / 2^(4/3) ~ 0.477: optimal-length coefficient (argmin of F2)
KZ_OPT_COEFF = 3.0 ** (1.0 / 6.0) / 2.0 ** (4.0 / 3.0)
# 3^(2/3) / 2^(7/3) ~ 0.413: minimal-Fano coefficient (F2 at its argmin)
F_MIN_COEFF = 3.0 ** (2.0 / 3.0) / 2.0 ** (7.0 / 3.0)
# The smallest |a| at which the large-|a| laws for the optimal length and the
# minimal Fano factor are used: at |a| = 2 f_min_approx gives 0.164 against the
# exact optimum 0.192, and below it the laws run away (F above 1 at |a| < 0.5).
MIN_ALPHA = 2.0


def f1_short(alpha_sq: float, kz: float) -> float:
    """Short-length approximation exp(-4 |a|^2 kz + |a|^4 kz^2). Past the
    largest double (|a|^2 kz above about 28.7) it raises OverflowError."""
    if alpha_sq <= 0:
        raise ValueError("alpha_sq must be positive")
    if kz < 0:
        raise ValueError("kz must be non-negative")
    return math.exp(-4.0 * alpha_sq * kz + (alpha_sq * kz) ** 2)


def f2_near_opt(alpha_sq: float, kz: float) -> float:
    """Near-optimum approximation (8/3)|a|^4 kz^4 + 1/(16 |a|^4 kz^2)."""
    if alpha_sq <= 0:
        raise ValueError("alpha_sq must be positive")
    if kz == 0:
        raise ZeroDivisionError("f2_near_opt diverges at kz = 0")
    if kz < 0:
        raise ValueError("kz must be positive")
    a4 = alpha_sq * alpha_sq
    return float((8.0 / 3.0) * a4 * kz ** 4 + 1.0 / (16.0 * a4 * kz * kz))


def kz_app(alpha_sq: float) -> float:
    """Crossover length between the two regimes: (sqrt(3)/2)^(1/3) / |a|^2."""
    if alpha_sq <= 0:
        raise ValueError("alpha_sq must be positive")
    return KZ_APP_COEFF / alpha_sq


def kz_opt_approx(alpha: float) -> float:
    """Estimated optimal length ~ 0.477 / |a|^(4/3)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return KZ_OPT_COEFF / alpha ** (4.0 / 3.0)


def f_min_approx(alpha: float) -> float:
    """Estimated minimal Fano factor ~ 0.413 / |a|^(4/3)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return F_MIN_COEFF / alpha ** (4.0 / 3.0)


def f_piecewise(alpha: float, kz: float) -> tuple[float, str]:
    """(F, regime): F1 on [0, (Kz)_app], regime "short_length", and F2 above
    it up to 2 (Kz)_opt, regime "near_optimum".

    The switch sits exactly at (Kz)_app; the two branches disagree there by
    about 1 dB, which is the documented seam of the approximation. Outside
    [0, 2 (Kz)_opt] OutOfValidityRange is raised.
    """
    top = 2.0 * kz_opt_approx(alpha)
    if kz < 0 or kz > top:
        raise OutOfValidityRange(f"kz = {kz} outside [0, {top}] for alpha = {alpha}")
    a2 = alpha * alpha
    if kz <= kz_app(a2):
        return f1_short(a2, kz), "short_length"
    return f2_near_opt(a2, kz), "near_optimum"
