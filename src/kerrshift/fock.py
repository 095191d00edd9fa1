"""Exact single-mode quantum optics in a truncated photon-number basis.

This is the brute-force engine the closed-form results are validated against.
States are plain amplitude vectors c_n over n = 0..n_trunc; every operation is
a pure function returning a fresh, normalized state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import (
    AmplitudeTooLarge,
    OrderTooHigh,
    TruncationUnachievable,
    ZeroMeanPhoton,
)

# Past this amplitude the basis would need >~4.5e4 levels; analytic formulas only.
MAX_AMPLITUDE = 200.0
# Hard cap on basis size (n_trunc), comfortably above the MAX_AMPLITUDE need.
MAX_FOCK_DIM = 60_000

NORM_TOL = 1e-12
# Largest norm defect of a truncated displacement that displace() accepts;
# above it the displaced state does not fit the basis and an error is raised.
DISPLACE_DEFECT_TOL = 1e-10
# Byte limit on the dense displacement matrix, 16 (n_max + 1)^2: 16384 levels,
# enough for |alpha| ~ 120. MAX_AMPLITUDE states need ~42k levels, 28 GB dense.
MAX_DISPLACE_BYTES = 2 ** 32


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated photon-number expansion of a pure single-mode state.

    amplitudes: c_n for n = 0..n_trunc (length n_trunc + 1), unit norm.
    tail_mass: probability mass lost to truncation at construction time
        (for displacements: the renormalization defect of the truncated unitary).
    """

    amplitudes: np.ndarray
    n_trunc: int
    tail_mass: float

    def __post_init__(self):
        if self.n_trunc < 1:
            raise ValueError(f"n_trunc must be >= 1, got {self.n_trunc}")
        if self.amplitudes.shape != (self.n_trunc + 1,):
            raise ValueError("amplitudes must have length n_trunc + 1")
        norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {norm_sq!r}")
        self.amplitudes.setflags(write=False)


@dataclass(frozen=True)
class KerrScenario:
    """Dimensionless problem instance: input amplitude and accumulated Kerr phase K*z."""

    alpha: complex
    kz: float

    def __post_init__(self):
        if not np.isfinite(self.kz) or self.kz < 0:
            raise ValueError(f"kz must be finite and >= 0, got {self.kz}")
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def abs_alpha_sq(self) -> float:
        return abs(self.alpha) ** 2


def _normalized(amplitudes: np.ndarray, tail_mass: float) -> FockState:
    amplitudes = np.asarray(amplitudes, dtype=complex)
    amplitudes = amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2))
    return FockState(amplitudes, len(amplitudes) - 1, float(tail_mass))


def coherent_state(alpha: complex, tol: float = 1e-12,
                   max_amplitude: float = MAX_AMPLITUDE) -> FockState:
    """Coherent state |alpha>, c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Amplitudes are computed in log domain (log-gamma) so that large |alpha|
    does not underflow term by term. The truncation starts at
    ceil(|a|^2 + 10|a| + 20) and is extended until the Poisson tail
    P(n > n_trunc), the regularized incomplete gamma P(n_trunc + 1, |a|^2), is
    below tol.
    """
    if not (0.0 < tol <= 1e-6):
        raise ValueError(f"tol must be in (0, 1e-6], got {tol}")
    a = abs(alpha)
    if a > max_amplitude:
        raise AmplitudeTooLarge(
            f"|alpha| = {a} exceeds the Fock engine cap {max_amplitude}")
    n_trunc = int(np.ceil(a * a + 10.0 * a + 20.0))
    while True:
        n = np.arange(n_trunc + 1)
        if a == 0.0:
            amps = np.zeros(n_trunc + 1, dtype=complex)
            amps[0] = 1.0
            return FockState(amps, n_trunc, 0.0)
        log_mag = -0.5 * a * a + n * np.log(a) - 0.5 * gammaln(n + 1.0)
        # exact Poisson tail P(n > n_trunc); 1 - sum(probs) is lost to rounding
        tail = float(gammainc(n_trunc + 1.0, a * a))
        if tail < tol:
            amps = np.exp(log_mag + 1j * n * np.angle(alpha))
            return _normalized(amps, tail)
        if n_trunc >= MAX_FOCK_DIM:
            raise TruncationUnachievable(
                f"tail {tail} still above tol {tol} at n_trunc = {n_trunc}")
        n_trunc = min(int(n_trunc * 1.25) + 64, MAX_FOCK_DIM)


def kerr_evolve(state: FockState, kz: float, variant: str = "n_squared") -> FockState:
    """Apply the Kerr phase e^{i kz n^2} (or the n(n-1) Hamiltonian variant).

    Diagonal in photon number: |c_n|^2 is untouched.
    """
    if not np.isfinite(kz):
        raise ValueError("kz must be finite")
    n = np.arange(state.n_trunc + 1, dtype=float)
    if variant == "n_squared":
        phase = kz * n * n
    elif variant == "n_n_minus_1":
        phase = kz * n * (n - 1.0)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return FockState(state.amplitudes * np.exp(1j * phase), state.n_trunc,
                     state.tail_mass)


def displacement_matrix(delta: complex, n_max: int) -> np.ndarray:
    """Matrix <m|D(delta)|n> for m, n = 0..n_max, from closed-form elements.

    For m = n + k (k >= 0) the element is (delta/|delta|)^k T_n^k with
    x = |delta|^2 and the scaled associated-Laguerre combination

        T_n^k = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x),

    the magnitude of a unitary matrix element (bounded by 1), so its
    three-term recurrence in n never overflows; factorials enter only through
    the log-domain seed at n = 0. The recurrence is run for all diagonals k at
    once, one n step per iteration, writing column n (lower triangle) and row
    n (upper triangle, phase (-delta*/|delta|)^k instead).
    """
    if delta == 0:
        return np.eye(n_max + 1, dtype=complex)
    # |delta|^2 underflows to 0 for |delta| below ~1e-162, so the seed takes
    # log x = 2 log|delta|, finite for every nonzero double
    x = abs(delta) ** 2
    log_x = 2.0 * np.log(abs(delta))
    unit = np.exp(1j * np.angle(delta))
    ks = np.arange(n_max + 1, dtype=float)
    phase_lower = unit ** ks.astype(int)
    phase_upper = (-np.conj(unit)) ** ks.astype(int)
    # T_0^k over all k, seeded in log domain
    t_prev = np.exp(0.5 * ks * log_x - 0.5 * x - 0.5 * gammaln(ks + 1.0))
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)

    def write(n: int, t_vec: np.ndarray) -> None:
        valid = np.arange(n_max - n + 1)
        rows = valid + n
        out[rows, n] = phase_lower[valid] * t_vec[valid]
        out[n, rows] = phase_upper[valid] * t_vec[valid]
        out[n, n] = t_vec[0]

    write(0, t_prev)
    if n_max >= 1:
        t_cur = t_prev * (ks + 1.0 - x) / np.sqrt(ks + 1.0)
        write(1, t_cur)
        for n in range(1, n_max):
            t_next = ((2.0 * n + ks + 1.0 - x) / np.sqrt((n + 1.0) * (n + ks + 1.0))) * t_cur \
                - np.sqrt(n * (n + ks) / ((n + 1.0) * (n + ks + 1.0))) * t_prev
            t_prev, t_cur = t_cur, t_next
            write(n + 1, t_cur)
    return out


def displace(state: FockState, delta: complex) -> FockState:
    """Apply the displacement operator D(delta) in the truncated basis.

    The target basis is sized from the state's support grown by |delta|:
    with displaced amplitude radius r = sqrt(<n>) + |delta| it reaches
    n_max = max(n_trunc + ceil(10 (|delta| + 1)), ceil(r^2 + 10 r + 20)),
    the coherent-state rule at that radius. The truncated unitary loses the
    mass the displaced state carries above n_max; if that norm defect exceeds
    DISPLACE_DEFECT_TOL, TruncationUnachievable is raised. Otherwise the
    result is renormalized and the defect reported as tail_mass.
    """
    if delta == 0:
        return state
    mean = float(photon_distribution(state) @ np.arange(state.n_trunc + 1))
    r = np.sqrt(mean) + abs(delta)
    n_max = max(state.n_trunc + int(np.ceil(10.0 * (abs(delta) + 1.0))),
                int(np.ceil(r * r + 10.0 * r + 20.0)))
    if n_max + 1 > MAX_FOCK_DIM:
        raise TruncationUnachievable(
            f"displacement needs {n_max + 1} levels, cap is {MAX_FOCK_DIM}")
    matrix_bytes = 16 * (n_max + 1) ** 2
    if matrix_bytes > MAX_DISPLACE_BYTES:
        raise TruncationUnachievable(
            f"displacement at n_max = {n_max} needs a {matrix_bytes} B matrix, above "
            f"the limit MAX_DISPLACE_BYTES = {MAX_DISPLACE_BYTES} B")
    padded = np.zeros(n_max + 1, dtype=complex)
    padded[: state.n_trunc + 1] = state.amplitudes
    out = displacement_matrix(delta, n_max) @ padded
    defect = abs(1.0 - float(np.sum(np.abs(out) ** 2)))
    if defect > DISPLACE_DEFECT_TOL:
        raise TruncationUnachievable(
            f"displacement by |delta| = {abs(delta):.6g} leaves norm defect "
            f"{defect:.3g} above tolerance {DISPLACE_DEFECT_TOL:g} at "
            f"n_max = {n_max}")
    return _normalized(out, defect)


def field_moment(state: FockState, k: int, l: int) -> complex:
    """Normally ordered moment <a^dag^k a^l> by direct summation over the basis."""
    if k < 0 or l < 0:
        raise ValueError("moment orders must be non-negative")
    if k + l > 4:
        raise OrderTooHigh(f"k + l = {k + l} exceeds the supported order 4")
    c = state.amplitudes
    n_top = state.n_trunc
    d = k - l
    n = np.arange(l, n_top - max(d, 0) + 1)
    if len(n) == 0:
        return 0j
    # sqrt((n-l+k)!/(n-l)!) * sqrt(n!/(n-l)!): short falling products, exact in doubles
    factor = np.ones_like(n, dtype=float)
    for j in range(1, k + 1):
        factor *= n - l + j
    for j in range(0, l):
        factor *= n - j
    factor = np.sqrt(factor)
    return complex(np.sum(np.conj(c[n + d]) * c[n] * factor))


class PhotonStatistics(NamedTuple):
    mean: float
    variance: float
    fano: float
    mandel_q: float


def photon_statistics(state: FockState) -> PhotonStatistics:
    """Mean, variance, Fano factor and Mandel Q of the photon number."""
    p = photon_distribution(state)
    n = np.arange(len(p), dtype=float)
    mean = float(p @ n)
    variance = float(p @ (n * n)) - mean * mean
    if mean <= 0.0:
        raise ZeroMeanPhoton("Fano factor undefined at zero mean photon number")
    fano = variance / mean
    return PhotonStatistics(mean, variance, fano, fano - 1.0)


def photon_distribution(state: FockState) -> np.ndarray:
    """|c_n|^2 for n = 0..n_trunc; sums to 1 within 1e-12."""
    return np.abs(state.amplitudes) ** 2
