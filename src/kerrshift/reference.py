"""Published benchmark values the reproduction targets are checked against."""

from __future__ import annotations

from math import floor, log10
from typing import NamedTuple


class OptimumRow(NamedTuple):
    fano_min: float
    suppression_db: float
    kz_opt: float
    beta_abs: float
    mean_photon: float


# optimal noise suppression vs input amplitude
TABLE1: dict[int, OptimumRow] = {
    10: OptimumRow(0.0203, -16.9, 0.0218, 0.123, 98.6),
    30: OptimumRow(0.00449, -23.5, 0.00511, 0.0569, 894.0),
    50: OptimumRow(0.00226, -26.5, 0.00257, 0.0401, 2490.0),
    100: OptimumRow(0.000892, -30.5, 0.00102, 0.0253, 9980.0),
}


class DesignCell(NamedTuple):
    alpha: float
    fano_db: float
    z_opt_m: float


# minimal Fano factor and optimal length vs (spectral width Hz, power W)
TABLE2: dict[tuple[float, float], DesignCell] = {
    (1e6, 1e-3): DesignCell(88e3, -70.0, 560e3),
    (1e6, 1e-2): DesignCell(280e3, -76.0, 120e3),
    (1e6, 1e-1): DesignCell(880e3, -83.0, 26e3),
    (1e7, 1e-3): DesignCell(28e3, -63.0, 260e3),
    (1e7, 1e-2): DesignCell(88e3, -70.0, 56e3),
    (1e7, 1e-1): DesignCell(280e3, -76.0, 12e3),
    (1e8, 1e-3): DesignCell(8.8e3, -56.0, 121e3),
    (1e8, 1e-2): DesignCell(28e3, -63.0, 26e3),
    (1e8, 1e-1): DesignCell(88e3, -70.0, 5.6e3),
}


class LengthRow(NamedTuple):
    x: float         # |a|^2 Kz as printed
    z_10mw_m: float
    z_100mw_m: float


# medium lengths for fixed suppression targets (Si3N4 preset)
TABLE3: dict[float, LengthRow] = {
    -5.0: LengthRow(0.31, 18.0, 1.8),
    -10.0: LengthRow(0.70, 41.0, 4.1),
    -15.0: LengthRow(1.80, 82.0, 8.2),
}

SCALING_EXPONENT = -4.0 / 3.0


def round_sig(value: float, digits: int = 2) -> float:
    """Round to a number of significant figures (for printed-precision checks)."""
    if value == 0:
        return 0.0
    return round(value, -int(floor(log10(abs(value)))) + digits - 1)
