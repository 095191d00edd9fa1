"""Exact single-mode quantum optics in a truncated photon-number basis.

This is the brute-force engine the closed-form results are validated against.
States are plain amplitude vectors c_n over n = 0..n_trunc; every operation is
a pure function returning a fresh, normalized state. It needs only numpy and
the standard library.

The displacement D(delta) is applied without forming its matrix: the
Cahill-Glauber three-term recurrence for the matrix elements (Phys. Rev. 177,
1857 (1969)) runs column by column over the state's support, on a band of
diagonals sized from Szegő's bound on the Laguerre polynomials, each
diagonal carrying its own log scale. Memory is O(n_max), so states up to
|alpha| = MAX_AMPLITUDE = 200 (about 4.3e4 levels) displace within
DISPLACE_DEFECT_TOL.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# The largest |alpha| whose square abs_alpha_sq is finite.
_MAX_ABS_ALPHA = math.sqrt(sys.float_info.max)

NORM_TOL = 1e-12
# Largest norm defect of a truncated displacement that displace() accepts;
# above it the displaced state does not fit the basis and an error is raised.
DISPLACE_DEFECT_TOL = 1e-10
# A recurrence mantissa past this is rescaled into its diagonal's log scale.
_RESCALE = 1e150
# Columns of D(delta) generated and applied per step of the displacement loop.
_BLOCK = 32
# displace() drops the diagonals whose elements are all bounded below this.
_BAND_TOL = 1e-20


def log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! elementwise for whole n >= 0, from math.lgamma."""
    n = np.asarray(n, dtype=float)
    return np.fromiter((math.lgamma(v + 1.0) for v in n.ravel().tolist()),
                       float, n.size).reshape(n.shape)


def _poisson_tail(lam: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(lam) and n + 2 > lam, summed in log domain.

    Past n the terms fall at least by the ratio lam / (n + 2) per step, so
    the sum stops where that ratio has taken them below 1e-17 of the first.
    """
    if lam == 0.0:
        return 0.0
    steps = 1 + math.ceil(math.log(1e-17) / math.log(lam / (n + 2.0)))
    j = np.arange(n + 1, n + 1 + steps, dtype=float)
    log_terms = -lam + j * math.log(lam) - log_factorial(j)
    return float(np.exp(log_terms[0]) * np.sum(np.exp(log_terms - log_terms[0])))


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
        if abs(self.alpha) > _MAX_ABS_ALPHA:
            raise ValueError(
                f"alpha must have a finite |alpha|^2, got |alpha| = {abs(self.alpha):g}")

    @property
    def abs_alpha_sq(self) -> float:
        return abs(self.alpha) ** 2


def _normalized(amplitudes: np.ndarray, tail_mass: float) -> FockState:
    amplitudes = np.asarray(amplitudes, dtype=complex)
    amplitudes = amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2))
    return FockState(amplitudes, len(amplitudes) - 1, float(tail_mass))


def coherent_state(alpha: complex) -> FockState:
    """Coherent state |alpha>, c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Amplitudes are computed in log domain (log-gamma) so that large |alpha|
    does not underflow term by term. The basis ends at
    n_trunc = ceil(|a|^2 + 10|a| + 20), ten standard deviations and 20 levels
    above the mean. There the Poisson tail P(n > n_trunc) is at most 6.2e-24
    for every 0 < |a| <= MAX_AMPLITUDE, largest at |a| = 200; that tail,
    summed term by term in log domain, is reported as tail_mass.
    """
    a = abs(alpha)
    if a > MAX_AMPLITUDE:
        raise AmplitudeTooLarge(
            f"|alpha| = {a} exceeds the Fock engine cap {MAX_AMPLITUDE}")
    n_trunc = int(np.ceil(a * a + 10.0 * a + 20.0))
    n = np.arange(n_trunc + 1)
    if a == 0.0:
        amps = np.zeros(n_trunc + 1, dtype=complex)
        amps[0] = 1.0
        return FockState(amps, n_trunc, 0.0)
    log_mag = -0.5 * a * a + n * np.log(a) - 0.5 * log_factorial(n)
    amps = np.exp(log_mag + 1j * n * np.angle(alpha))
    return _normalized(amps, _poisson_tail(a * a, n_trunc))


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


def _edge_band(delta_abs: float, n_max: int) -> int:
    """Diagonals up to the classical edge: column n of D(delta) lives on the
    ring sqrt(m) <= sqrt(n) + |delta|, taken at n = n_max plus a margin of 3
    in sqrt(m)."""
    edge = (np.sqrt(n_max) + delta_abs + 3.0) ** 2 - n_max
    return min(int(np.ceil(edge)) + 1, n_max + 1)


def _band(delta_abs: float, n_max: int, n_trunc: int) -> int:
    """Number K of diagonals k = m - n that displace() carries.

    Szegő's inequality |L_n^k(x)| <= C(n + k, n) e^{x/2} for x, k >= 0
    (DLMF 18.14.8) bounds the elements of _columns() by

        |T_n^k| <= B_n^k = sqrt((n + k)!/n!) x^{k/2} / k!,   x = |delta|^2.

    B_n^k grows with n, so B at n = n_trunc, the last column generated,
    bounds every element in use. log B is concave in k and B_n^0 = 1, so
    once B falls below _BAND_TOL it stays below: the first such k, found by
    bisection, is a band that drops no element above _BAND_TOL. For a small
    state under a large shift (the vacuum displaced by 6.5) the bound is
    loose and the classical edge of _edge_band() is tighter, so K is the
    smaller of the two; no input gets a wider band than the edge alone
    gives. At the alpha = 60 optimum (|delta| = 2.12, n_trunc = 4220) the
    bound gives K = 423 and the edge 714. A band too narrow would show as a
    norm defect.
    """
    def below_tol(k: int) -> bool:
        # log |delta| stays finite where x underflows to 0
        log_bound = (0.5 * (math.lgamma(n_trunc + k + 1.0) - math.lgamma(n_trunc + 1.0))
                     + k * math.log(delta_abs) - math.lgamma(k + 1.0))
        return log_bound < math.log(_BAND_TOL)

    # bisect for the first k below _BAND_TOL, keeping B^lo >= _BAND_TOL
    lo, hi = 0, _edge_band(delta_abs, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below_tol(mid) else (mid, hi)
    return hi


def _columns(delta_abs: float, n_cols: int, band: int):
    """Yield (n0, T) with T[j, k] = T_{n0+j}^k, k < band, for n0 + j < n_cols.

    T_n^k = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x), x = |delta|^2, is the
    magnitude of <n+k|D(delta)|n>, bounded by 1. With p = n + 1 and
    q = n + k + 1 it obeys T_{n+1} = a T_n - b T_{n-1},

        a = (p + q - 1 - x) / sqrt(pq),   b = sqrt((p - 1)(q - 1) / pq),

    seeded at n = 0 in log domain and run _BLOCK columns at a time. Where T
    oscillates slowly (small |delta|, large n) a is close to 2 and b to 1,
    and the plain recurrence amplifies every rounding of a and of T_{n+1};
    at |delta| = 0.01 its column norms drift by 1e-10 over 2.4e4 columns. So
    it runs in difference form (Reinsch): with d_n = T_n - T_{n-1},

        d_{n+1} = d_n + (a - 2) T_n + (1 - b) T_{n-1},   T_{n+1} = T_n + d_{n+1},

    where a - 2 = ((sqrt q - sqrt p)^2 - 1 - x) / sqrt(pq) and
    1 - b = (p + q - 1) / (pq (1 + b)) are formed without cancellation.

    Each diagonal is held as mantissa times exp(scale): the seed sets
    mantissa 1 and scale log T_0^k, and after a block any diagonal whose
    mantissa has passed _RESCALE is divided by _RESCALE and its scale raised
    by log _RESCALE. A diagonal below the smallest double yields 0 until its
    mantissa has grown into range; none underflows for good. For
    band <= MAX_FOCK_DIM one block grows a mantissa by less than 1e60, so
    none overflows.

    The tables of sqrt(n + k), 1/sqrt(q), their ratio and p + q - 1, and
    the (row n) x (band) windows over them, are built once per call; each
    block slices its _BLOCK rows out of the windows.
    """
    ks = np.arange(band, dtype=float)
    x = delta_abs * delta_abs
    # x underflows to 0 for |delta| below ~1e-162; log|delta| stays finite
    scale = ks * math.log(delta_abs) - 0.5 * x - 0.5 * log_factorial(ks)
    weight = np.exp(scale)
    # row n of each window: sqrt(n + k + 1), 1/sqrt(q), sqrt(n + k)/sqrt(q)
    # and, at row 2n, p + q - 1 = 2n + 1 + k
    span = -(-n_cols // _BLOCK) * _BLOCK + band
    root = np.sqrt(np.arange(span, dtype=float))
    inv_root = 1.0 / root[1:]
    root_win = sliding_window_view(root[1:], band)
    inv_root_win = sliding_window_view(inv_root, band)
    ratio_win = sliding_window_view(root[:-1] * inv_root, band)
    odd_win = sliding_window_view(np.arange(1, 2 * span - band, dtype=float), band)
    # mantissas of T_{n0-1} .. T_{n0+_BLOCK}, and of d_{n0}
    rows = np.zeros((_BLOCK + 2, band))
    rows[1] = 1.0
    diff = np.ones(band)
    for n0 in range(0, n_cols, _BLOCK):
        n = np.arange(n0, n0 + _BLOCK, dtype=float)[:, None]
        at = slice(n0, n0 + _BLOCK)
        inv_den = inv_root_win[at] * (1.0 / np.sqrt(n + 1.0))
        b = ratio_win[at] * np.sqrt(n / (n + 1.0))
        # sqrt q - sqrt p = k / (sqrt p + sqrt q)
        gap = ks / (np.sqrt(n + 1.0) + root_win[at])
        a_minus_2 = (gap * gap - (1.0 + x)) * inv_den
        one_minus_b = odd_win[2 * n0: 2 * n0 + 2 * _BLOCK: 2] * inv_den * inv_den \
            / (1.0 + b)
        for j in range(_BLOCK):
            diff += a_minus_2[j] * rows[j + 1]
            diff += one_minus_b[j] * rows[j]
            np.add(rows[j + 1], diff, out=rows[j + 2])
        yield n0, rows[1: 1 + min(_BLOCK, n_cols - n0)] * weight
        rows[:2] = rows[_BLOCK:]
        big = np.maximum(np.abs(rows[0]), np.abs(rows[1])) > _RESCALE
        if big.any():
            rows[:2, big] /= _RESCALE
            diff[big] /= _RESCALE
            scale[big] += math.log(_RESCALE)
            weight[big] = np.exp(scale[big])


def displacement_matrix(delta: complex, n_max: int) -> np.ndarray:
    """Dense <m|D(delta)|n> for m, n = 0..n_max, for small n_max.

    Built from the same columns as displace(), over the full band: with
    u = delta/|delta|, <n+k|D|n> = u^k T_n^k and <n|D|n+k> = (-u*)^k T_n^k.
    """
    size = n_max + 1
    if delta == 0:
        return np.eye(size, dtype=complex)
    real = np.zeros((size, size))
    signs = (-1.0) ** np.arange(size)
    for n0, block in _columns(abs(delta), size, size):
        for n, t in enumerate(block, start=n0):
            real[n:, n] = t[: size - n]
            real[n, n:] = signs[: size - n] * t[: size - n]
    phase = np.exp(1j * np.angle(delta) * np.arange(size))
    return phase[:, None] * real * np.conj(phase)[None, :]


def displace(state: FockState, delta: complex) -> FockState:
    """Apply the displacement operator D(delta) in the truncated basis.

    The target basis is sized from the state's support grown by |delta|:
    with displaced amplitude radius r = sqrt(<n>) + |delta| it reaches
    n_max = max(n_trunc + ceil(10 (|delta| + 1)), ceil(r^2 + 10 r + 20)),
    the coherent-state rule at that radius.

    D is applied matrix-free in O(n_max) memory; no (n_max + 1)^2 array is
    formed. The phase u = delta/|delta| is factored out, c~_n = u^-n c_n and
    y_m = u^m y~_m, so the columns T_n^k of _columns() are real. Only the
    columns n <= n_trunc are generated, since the others meet zero
    amplitudes, and only the diagonals k < _band(|delta|, n_max, n_trunc).
    Column n adds c~_n T_n^k to y~_{n+k} (lower triangle) and
    sum_{k>0} (-1)^k T_n^k c~_{n+k} to y~_n (upper triangle). A block of
    columns does both as two products with one skewed (block x band) matrix.
    The per-diagonal log scale of _columns() keeps every diagonal out of
    underflow, so states up to |alpha| = MAX_AMPLITUDE displace: the
    alpha = 200 length optimum takes 43306 levels and a band of 1792
    diagonals (2581 to the edge), with a norm defect of 1e-14. On a 2-core
    Xeon host that displace() call takes 1.3 s, and the process peaks at
    43 MB RSS.

    The truncated unitary loses the mass the displaced state carries above
    n_max, and a band too narrow would lose the mass outside it; if that norm
    defect exceeds DISPLACE_DEFECT_TOL, TruncationUnachievable is raised.
    Otherwise the result is renormalized and the defect reported as tail_mass.
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
    band = _band(abs(delta), n_max, state.n_trunc)
    size = max(n_max + 1, state.n_trunc + band + 1)
    phase = np.exp(1j * np.angle(delta) * np.arange(size))
    signs = (-1.0) ** np.arange(size)
    c = np.zeros(size, dtype=complex)
    c[: state.n_trunc + 1] = state.amplitudes * np.conj(phase[: state.n_trunc + 1])
    y = np.zeros(size, dtype=complex)
    # complex vectors viewed as (re, im) columns, so every product below is real
    c_pairs = c.view(float).reshape(size, 2)
    c_alt = (signs * c).view(float).reshape(size, 2)
    y_pairs = y.view(float).reshape(size, 2)
    # skew[j, j + k] = T_{n0+j}^k: `placed` views the same buffer one row stride longer
    flat = np.zeros(_BLOCK * (band + _BLOCK + 1))
    skew = flat[: _BLOCK * (band + _BLOCK)].reshape(_BLOCK, band + _BLOCK)
    placed = flat.reshape(_BLOCK, band + _BLOCK + 1)[:, :band]
    for n0, block in _columns(abs(delta), state.n_trunc + 1, band):
        cols = slice(n0, n0 + len(block))
        placed[: len(block)] = block
        window = skew[: len(block), : band + len(block)]
        y_pairs[n0: n0 + band + len(block)] += window.T @ c_pairs[cols]
        # the diagonal k = 0 is in the lower triangle already
        y_pairs[cols] += signs[cols, None] * (window @ c_alt[n0: n0 + band + len(block)]) \
            - block[:, :1] * c_pairs[cols]
    out = y[: n_max + 1] * phase[: n_max + 1]
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


@dataclass(frozen=True)
class PhotonStatistics:
    """Photon-number mean, variance and Fano factor F = variance / mean, as
    both engines report them: photon_statistics() from a Fock state and
    moments.fano_displaced() from the closed form."""

    mean: float
    variance: float
    fano: float

    @property
    def mandel_q(self) -> float:
        return self.fano - 1.0

    @property
    def suppression_db(self) -> float:
        return 10.0 * np.log10(self.fano)


def photon_statistics(state: FockState) -> PhotonStatistics:
    """Mean, variance and Fano factor of the photon number of a state."""
    p = photon_distribution(state)
    n = np.arange(len(p), dtype=float)
    mean = float(p @ n)
    # centered: <n^2> - <n>^2 would cancel the digits of <n>^2 / Var(n)
    variance = float(p @ (n - mean) ** 2)
    if mean <= 0.0:
        raise ZeroMeanPhoton("Fano factor undefined at zero mean photon number")
    fano = variance / mean
    return PhotonStatistics(mean, variance, fano)


def photon_distribution(state: FockState) -> np.ndarray:
    """|c_n|^2 for n = 0..n_trunc; sums to 1 within 1e-12."""
    return np.abs(state.amplitudes) ** 2
