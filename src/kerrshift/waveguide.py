"""Mapping between physical waveguide/beam parameters and the dimensionless model.

Conventions: SI units throughout (m, W, Hz). The photon number per mode is set
by the power within one coherence time, |a|^2 = P tau_coh / (hbar omega), and
the per-meter Kerr coupling is K = n2 hbar omega^2 / (2 c tau_coh sigma). The
two are tied to the fiber-optics nonlinear parameter gamma = 2 pi n2 / (lambda
sigma_eff) through the exact identity 2 |a|^2 K = gamma P. Finite inputs
can overflow these products; a result that is not finite raises
NumericalOverflow naming the quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .approx import KZ_APP_COEFF, MIN_ALPHA, f_min_approx
from .errors import NumericalOverflow, TargetBelowFloor
from .serialize import read_key_values

SPEED_OF_LIGHT = 299_792_458.0          # m/s
HBAR = 1.054_571_817e-34                # J s

# published numeric Fano factor at the crossover length (Kz)_app; regime rule:
# targets at or above it are inverted through F1, deeper ones through F2
CROSSOVER_DB = -12.1


def _check_positive(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive")


def _finite(name: str, value: float) -> float:
    """A computed quantity, refused by name if it overflowed to inf or nan."""
    if not math.isfinite(value):
        raise NumericalOverflow(f"{name} = {value} is not finite at these inputs")
    return value


def _quotient(name: str, numerator: float, denominator: float) -> float:
    """numerator / denominator through _finite(). In numpy a denominator
    that underflowed to 0 gives inf, where a Python float would raise
    ZeroDivisionError."""
    with np.errstate(divide="ignore", over="ignore"):
        return _finite(name, float(np.float64(numerator) / denominator))


@dataclass(frozen=True)
class WaveguideSpec:
    """Material and geometry: Kerr index n2 (m^2/W), effective mode area
    sigma_eff (m^2), vacuum wavelength (m)."""

    n2: float
    sigma_eff: float
    wavelength: float

    def __post_init__(self):
        for name in ("n2", "sigma_eff", "wavelength"):
            _check_positive(name, getattr(self, name))
        if not (0.1e-6 <= self.wavelength <= 10e-6):
            raise ValueError(f"wavelength {self.wavelength} m outside the "
                             "sanity window [0.1e-6, 10e-6]")

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * SPEED_OF_LIGHT / self.wavelength


@dataclass(frozen=True)
class BeamSpec:
    """Beam power (W) and spectral width (Hz); coherence time is 1/spectral_width."""

    power: float
    spectral_width: float

    def __post_init__(self):
        _check_positive("power", self.power)
        _check_positive("spectral_width", self.spectral_width)

    @property
    def coherence_time(self) -> float:
        return 1.0 / self.spectral_width


def kerr_coupling(wg: WaveguideSpec, beam: BeamSpec) -> float:
    """Kerr coupling K in 1/m: n2 hbar omega^2 / (2 c tau_coh sigma_eff)."""
    return _quotient("kerr_coupling", wg.n2 * HBAR * wg.omega ** 2,
                     2.0 * SPEED_OF_LIGHT * beam.coherence_time * wg.sigma_eff)


def _photon_number(beam: BeamSpec, wg: WaveguideSpec) -> float:
    """|a|^2 = P tau_coh / (hbar omega), the photons in one coherence time."""
    return beam.power * beam.coherence_time / (HBAR * wg.omega)


def _law_range(alpha: float) -> None:
    """Refuse |a| < MIN_ALPHA: z_opt and the floor are large-|a| laws."""
    if alpha < MIN_ALPHA:
        raise ValueError(f"alpha = {alpha:.6g} is below {MIN_ALPHA:g}, where the large-"
                         "|alpha| laws for z_opt and the Fano floor stop holding")


def alpha_from_power(beam: BeamSpec, wg: WaveguideSpec) -> float:
    """Dimensionless amplitude |a| = sqrt(P tau_coh / hbar omega)."""
    return _finite("alpha", float(np.sqrt(_photon_number(beam, wg))))


def gamma(wg: WaveguideSpec) -> float:
    """Fiber-optics nonlinear parameter 2 pi n2 / (lambda sigma_eff), in 1/(W m)."""
    return _finite("gamma", 2.0 * np.pi * wg.n2 / (wg.wavelength * wg.sigma_eff))


def z_opt_physical(wg: WaveguideSpec, beam: BeamSpec) -> float:
    """Optimal medium length in meters.

    z_opt = lambda * (sqrt(3)/2)^(1/3) / (2 pi n2 I) * (P tau_coh / hbar omega)^(1/3)
    with intensity I = P / sigma_eff. Refused for |a| < MIN_ALPHA.
    """
    intensity = beam.power / wg.sigma_eff
    photon_number = _photon_number(beam, wg)
    _law_range(np.sqrt(photon_number))
    # numpy arithmetic (KZ_APP_COEFF): _finite names an n2 I that underflowed to 0
    with np.errstate(all="ignore"):
        z_opt = (wg.wavelength * KZ_APP_COEFF / (2.0 * np.pi)
                 / (wg.n2 * intensity) * photon_number ** (1.0 / 3.0))
    return _finite("z_opt", z_opt)


def fano_floor_physical(wg: WaveguideSpec, beam: BeamSpec) -> float:
    """Minimal reachable Fano factor in dB at these physical parameters.
    Refused for |a| < MIN_ALPHA."""
    alpha = alpha_from_power(beam, wg)
    _law_range(alpha)
    return _finite("fano_floor", float(10.0 * np.log10(f_min_approx(alpha))))


def length_for_suppression(target_db: float, power: float, wg: WaveguideSpec,
                           spectral_width: float | None = None) -> tuple[float, float]:
    """(z, x): the medium length in m that reaches a suppression target, via
    the regime rule, and its nonlinear coordinate x = |a|^2 Kz.

    Targets at or above CROSSOVER_DB = -12.1 dB invert the short-length law
    exp(-4x + x^2) = F through its smaller root, which is real there, since
    16 + 4 ln F >= 16 + 4 ln 10^-1.21 > 4.8. Deeper targets invert the
    dominant near-optimum term 1/(16 x^2) = F. The length z = 2x / (gamma P)
    does not depend on the spectral width; when one is supplied it is used
    only to guard against targets below the physical floor, whose law
    refuses |a| < MIN_ALPHA.
    """
    if not math.isfinite(target_db):
        raise ValueError(f"target_db must be finite, got {target_db}")
    if target_db >= 0:
        raise ValueError("target_db must be negative (suppression)")
    _check_positive("power", power)
    if spectral_width is not None:
        floor = fano_floor_physical(wg, BeamSpec(power, spectral_width))
        if target_db <= floor:
            raise TargetBelowFloor(
                f"target {target_db} dB is below the physical floor {floor:.1f} dB")
    fano = 10.0 ** (target_db / 10.0)
    if fano < np.finfo(float).tiny:
        raise ValueError(f"target_db = {target_db!r}: F = 10^(target_db/10) = {fano:g} is "
                         f"below the smallest normal double")
    if target_db >= CROSSOVER_DB:
        # x^2 - 4x - ln(F) = 0, smaller root
        x = (4.0 - np.sqrt(16.0 + 4.0 * np.log(fano))) / 2.0
    else:
        x = 1.0 / (4.0 * np.sqrt(fano))
    return _quotient("z", 2.0 * float(x), gamma(wg) * power), float(x)


_PRESET_KEYS = {"n2_m2_per_W": "n2", "sigma_eff_m2": "sigma_eff", "lambda_m": "wavelength"}


def parse_preset(text: str) -> WaveguideSpec:
    """Parse the key-value preset format (keys n2_m2_per_W, sigma_eff_m2, lambda_m)."""
    values = read_key_values(text, "preset", dict.fromkeys(_PRESET_KEYS, float))
    fields = {_PRESET_KEYS[k]: v for k, v in values.items()}
    missing = set(_PRESET_KEYS.values()) - set(fields)
    if missing:
        raise ValueError(f"preset missing keys for: {sorted(missing)}")
    return WaveguideSpec(**fields)


def load_preset(name_or_path: str) -> WaveguideSpec:
    """Load a bundled preset by name (e.g. 'si3n4') or any preset file by path."""
    bundled = resources.files("kerrshift").joinpath("presets", f"{name_or_path}.txt")
    if bundled.is_file():
        return parse_preset(bundled.read_text())
    path = Path(name_or_path)
    if path.is_file():
        return parse_preset(path.read_text())
    raise FileNotFoundError(f"no bundled preset or file named {name_or_path!r}")
