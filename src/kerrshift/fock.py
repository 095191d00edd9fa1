"""Exact single-mode quantum optics in a truncated photon-number basis.

This is the brute-force engine the closed-form results are validated against.
States are plain amplitude vectors c_n over n = 0..n_trunc; every operation is
a pure function returning a fresh, normalized state. It needs only numpy and
the standard library, and takes from the closed form only the record
photon_statistics() returns, moments.PhotonStatistics.

The coherent state and its tail past the basis, column 0 of the
displacement and poisson_probabilities() all scale one ratio product,
_column_zero(): the amplitudes by its 2-norm, the probabilities by its 1-norm.

The displacement D(delta) is applied without forming its matrix: the
Cahill-Glauber three-term recurrence for the matrix elements (Phys. Rev. 177,
1857 (1969)) runs column by column over the state's support, on a band of
diagonals sized from Szegő's bound on the Laguerre polynomials, each
diagonal carrying its own binary exponent. The run starts a band below the
state's support, seeded there by Miller's downward recurrence in the order
over that column, scaled to its unit norm. Memory is O(n_max), so a state
displaces within DISPLACE_DEFECT_TOL wherever its target basis fits
MAX_FOCK_DIM levels: for sqrt(<n>) + |delta| up to about 240, which takes
in the length optimum at |alpha| = MAX_AMPLITUDE = 200 (about 4.3e4
levels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AmplitudeTooLarge,
    OrderTooHigh,
    TruncationUnachievable,
    ZeroMeanPhoton,
)
from .moments import PhotonStatistics

# Largest |alpha| of the Fock engine; past it, analytic formulas only. The
# coherent basis at 200 has n_trunc = 42 020. This caps time, not memory:
# memory is O(n_max), and displacing the alpha = 200 length optimum
# (|delta| = 3.1) peaks at 41 MB RSS, but takes 0.14-0.20 s (fastest to
# median of 7 calls in one process, on a shared 2-core Intel Xeon host).
MAX_AMPLITUDE = 200.0
# Largest basis, n_max + 1 levels. Also a time cap, not a memory cap: a
# displace() that starts at column 0 costs levels x band (|alpha| = 150
# shifted by 5x its optimal beta: 40 532 levels, a band of 22 300, 11-14 s
# in three single calls on that host).
# displace() needs n_max ~ (sqrt(<n>) + |delta|)^2, so the cap holds every
# shift with sqrt(<n>) + |delta| below about 240: |delta| up to about 40 at
# |alpha| = 200, which covers its length optimum, and up to about 240 on
# the vacuum.
MAX_FOCK_DIM = 60_000

# Largest Kerr phase kz n^2 that kerr_evolve() forms, rounded by up to
# 2^-20 rad: F then moves by up to 2e-8 relative (300 random states), and
# far above it (kz = 1e300 at |alpha| = 1) nothing of F is left. It holds
# every kz < pi up to n_trunc = 52 000, past the |alpha| = 200 basis.
MAX_FOCK_KERR_PHASE = 2.0 ** 33

NORM_TOL = 1e-12
# Largest norm defect of a truncated displacement that displace() accepts;
# above it the displaced state does not fit the basis and an error is raised.
DISPLACE_DEFECT_TOL = 1e-10
# A recurrence mantissa past _RESCALE = 2^_RESCALE_BITS (about 3e150) is
# divided by it and _RESCALE_BITS added to its diagonal's binary exponent;
# both steps are exact.
_RESCALE_BITS = 500
_RESCALE = 2.0 ** _RESCALE_BITS
# Columns of D(delta) generated and applied per step of the displacement loop.
_BLOCK = 32
# displace() drops the diagonals whose elements are all bounded below this.
_BAND_TOL = 1e-20
# displace() starts a band below the last n where the state's mass below n
# is at most this.
_SUPPORT_TOL = 1e-30


@dataclass(frozen=True, eq=False)
class FockState:
    """Truncated photon-number expansion of a pure single-mode state.

    amplitudes: c_n for n = 0..n_trunc = len - 1 >= 1; 1-D, unit norm.
    tail_mass: probability mass lost to truncation at construction time
        (for displacements: the renormalization defect of the truncated unitary).
    """

    amplitudes: np.ndarray
    tail_mass: float

    def __post_init__(self):
        if self.amplitudes.ndim != 1 or len(self.amplitudes) < 2:
            raise ValueError(f"amplitudes must be 1-D of length >= 2, got {self.amplitudes.shape}")
        norm_sq = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |c_n|^2 = {norm_sq!r}")
        self.amplitudes.setflags(write=False)

    @property
    def n_trunc(self) -> int:
        return len(self.amplitudes) - 1


def _normalized(amplitudes: np.ndarray, tail_mass: float) -> FockState:
    return FockState(amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2)), float(tail_mass))


def _levels(r: float) -> float:
    """ceil(r^2 + 10 r + 20): the top level of a coherent state's basis at
    amplitude r, ten standard deviations and 20 levels above the mean. A
    float, inf where r^2 overflows; r is a Python float, which overflows
    without a warning."""
    return float(np.ceil(r * r + 10.0 * r + 20.0))


def coherent_state(alpha: complex) -> FockState:
    """Coherent state |alpha>, c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    The magnitudes, _column_zero() over |a| / sqrt(n + 1) at unit 2-norm, are
    within 1e-14 relative of their exact values above 1e-15. The basis ends
    at n_trunc = _levels(|a|). There the Poisson tail P(n > n_trunc) is at
    most 6.2e-24 for every |a| <= MAX_AMPLITUDE, largest at |a| = 200; it is
    reported as tail_mass, the sum of the squares of the same column run on
    to _levels(|a| + 2), past which the rest of the tail is below 1e-21 of it.
    """
    a = abs(alpha)
    if a > MAX_AMPLITUDE:
        raise AmplitudeTooLarge(
            f"|alpha| = {a} exceeds the Fock engine cap {MAX_AMPLITUDE}")
    n_trunc = int(_levels(a))
    ratios = a / np.sqrt(np.arange(1.0, int(_levels(a + 2.0)) + 1))
    weights = np.ldexp(*_unit_column(*_column_zero(ratios)))
    phase = np.exp(1j * np.angle(alpha) * np.arange(n_trunc + 1))
    return _normalized(weights[:n_trunc + 1] * phase,
                       math.fsum((weights[n_trunc + 1:] ** 2).tolist()))


def kerr_evolve(state: FockState, kz: float) -> FockState:
    """Apply the Kerr phase e^{i kz n^2}.

    Diagonal in photon number: |c_n|^2 is untouched.
    """
    if not np.isfinite(kz):
        raise ValueError("kz must be finite")
    top = float(state.n_trunc)
    phase = abs(kz) * top * top
    if not phase <= MAX_FOCK_KERR_PHASE:
        raise ValueError(f"kz = {kz!r}: the Kerr phase kz n^2 = {phase:g} at n = n_trunc = "
                         f"{state.n_trunc} is above MAX_FOCK_KERR_PHASE = 2^33")
    n = np.arange(state.n_trunc + 1, dtype=float)
    return FockState(state.amplitudes * np.exp(1j * (kz * n * n)), state.tail_mass)


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
    gives, and none narrower than 2, whose k = 1 diagonal carries the mean's
    shift at any |delta|. At the alpha = 60 optimum (|delta| = 2.12,
    n_trunc = 4220) the bound gives K = 423 and the edge 714. A band too
    narrow would show as a norm defect.
    """
    def below_tol(k: int) -> bool:
        # log |delta| stays finite where x underflows to 0
        log_bound = (0.5 * (math.lgamma(n_trunc + k + 1.0) - math.lgamma(n_trunc + 1.0))
                     + k * math.log(delta_abs) - math.lgamma(k + 1.0))
        return log_bound < math.log(_BAND_TOL)

    # bisect for the first k >= 2 below _BAND_TOL, keeping B^lo >= _BAND_TOL or lo = 1
    lo, hi = 1, _edge_band(delta_abs, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below_tol(mid) else (mid, hi)
    return hi


def _column_zero(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_0 = 1, w_{k+1} = w_k ratios[k], as mantissa in [0.5, 1) times
    2^exponent; each caller scales it by the norm it needs.

    The product runs over the ratios' frexp mantissas, with their exponents
    summed apart. Each w_k then carries about sqrt(k) roundings, where
    exp(sum of log ratios) carried about 1e-16 times the size of that sum
    (2e-11 at k = 4e4). Over |delta| / sqrt(k + 1), at unit 2-norm, it is
    the coherent state |delta>, column 0 of D(delta).
    """
    ratio, step = np.frexp(ratios)
    mant = np.ones(len(ratios) + 1)
    expo = np.concatenate(([0], np.cumsum(step)))
    # runs of 1000 mantissas in [0.5, 1) multiply to no less than 2^-1000
    lift = 0
    for at in range(1, len(mant), 1000):
        carry, shift = math.frexp(mant[at - 1])
        lift += shift
        stop = min(at + 1000, len(mant))
        mant[at:stop] = carry * np.cumprod(ratio[at - 1: stop - 1])
        expo[at:stop] += lift
    mant, shift = np.frexp(mant)
    return mant, expo + shift


def _unit_column(mant: np.ndarray, expo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column mant 2^expo, mantissas in [0.5, 1), divided by its norm,
    with the exponents counted from the largest. fsum rounds the norm once,
    over the squares above 1e-32; the others are too small to move it."""
    top = int(expo.max())
    squares = np.ldexp(mant, expo - top) ** 2
    norm = math.sqrt(math.fsum(squares[squares > 1e-32].tolist()))
    return mant / norm, expo - top


def poisson_probabilities(mean: float, size: int) -> np.ndarray:
    """e^{-mean} mean^n / n! for n < size, size past the support (as
    _levels(sqrt(mean)) + 1 is): _column_zero() over the ratios
    mean / (n + 1), divided by the fsum of its cells above 1e-32 of the
    largest (fsum over the subnormal tail would take most of the time).
    Each p_n above 1e-30 is within 5.0e-15 relative of its 40-digit value
    at 88 means below 5000, and 1.1e-14 at 45 means from 5000 to 60 000.
    """
    mant, expo = _column_zero(mean / np.arange(1.0, size))
    weights = np.ldexp(mant, expo - expo.max())
    return weights / math.fsum(weights[weights > 1e-32].tolist())


def _tables(span: int, band: int) -> tuple[np.ndarray, ...]:
    """The tables _steps() reads: the diagonals k < band; sqrt m for
    m <= span, and 1/sqrt(m + 1) and sqrt(m/(m + 1)) for m < span; then the
    (row n) x (band) windows w[n, k] = t[n + k] over sqrt m,
    sqrt m (1/sqrt(m + 1)) and 1/sqrt(m + 1)."""
    root = np.sqrt(np.arange(span + 1, dtype=float))
    inv_root = 1.0 / root[1:]
    m = np.arange(span, dtype=float)
    return (np.arange(band, dtype=float), root, inv_root, np.sqrt(m / (m + 1.0)),
            *(sliding_window_view(t, band) for t in (root, root[:-1] * inv_root, inv_root)))


def _steps(x: float, tables: tuple[np.ndarray, ...], n0: int,
           b: np.ndarray, c: np.ndarray, squares: np.ndarray) -> None:
    """Write b and a - 1 - b of the recurrence of _columns() from column n
    to n + 1 into b and c, for the rows n0 <= n < n0 + len(b) and every
    diagonal of the tables of _tables(); squares, one row longer than b, is
    their work space.

    b = sqrt(n + k) (1/sqrt(n + k + 1)) sqrt(n/(n + 1)) is one product of
    two tables. In a - 1 - b, (sqrt q - sqrt p)^2 is formed as
    (k / (sqrt p + sqrt q))^2, and (sqrt(q - 1) - sqrt(p - 1))^2 of row n is
    that square of row n - 1, so it is formed once for the rows n0 - 1 to
    n0 + len(b) - 1.
    """
    ks, root, inv_root, shrink, root_win, ratio_win, inv_root_win = tables
    rows, edge = slice(n0, n0 + len(b)), slice(n0, n0 + len(squares))
    np.multiply(ratio_win[rows], shrink[rows, None], out=b)
    np.add(root[edge, None], root_win[edge], out=squares)
    if n0 == 0:
        # sqrt p + sqrt q is 0 only at n = -1, k = 0, where k / 1 is the 0 wanted
        np.maximum(squares[0], 1.0, out=squares[0])
    np.divide(ks, squares, out=squares)
    np.multiply(squares, squares, out=squares)
    np.add(squares[1:], squares[:-1], out=c)
    c *= 0.5
    c -= x
    # 1/sqrt(pq) is rounded once, as one product, before it scales c;
    # applying its two factors in turn would round c twice
    np.multiply(inv_root_win[rows], inv_root[rows, None], out=squares[1:])
    c *= squares[1:]


def _seed(delta_abs: float, start: int, band: int):
    """Mantissas of T_s and d_s = T_s - T_{s-1} for k < band, s = start, and
    the binary exponent of each diagonal: that of the larger of |T_s^k| and
    |d_s^k|, so every mantissa is at most 1 and none underflows.

    With the phase u^k taken out, t^k = <s+k|D(delta)|s> is T_s^k for k >= 0
    and (-1)^k T_{s+k}^{-k} for k < 0. By (a - delta)(a^dag - delta*) D|s>
    = (s + 1) D|s> the whole column, k >= -s, obeys one recurrence in the
    order (DLMF 18.9.13-14 for k >= 0),

        |delta| sqrt(s+k+2) t^{k+2} = (k+1+x) t^{k+1} - |delta| sqrt(s+k+1) t^k,

    of which t is the minimal solution as k grows. So it runs downward
    (Miller's algorithm: Gautschi, SIAM Rev. 9, 24 (1967), section 3; DLMF
    3.6(iii)) from t^{2 band - 1} = 0 and t^{2 band - 2} = 1, whose error
    shrinks with the ratio of the two solutions over the band - 1 diagonals
    above the band. Below the lower turning point x - 2 |delta| sqrt s,
    where t has no zeros, the other solution grows: the run stops at the
    first rise of |t| from a value there below 2^-20 of its largest so far,
    drops the value that rose and takes the ones below as 0. D is unitary,
    so the run divided by its norm is t (both are positive above the band).

    d_s follows from t without cancellation: L_s^k - L_{s-1}^k = L_s^{k-1}
    (DLMF 18.9.13) gives T_{s-1}^k = sqrt((s+k)/s) t^k - sqrt(x/s) t^{k-1},
    so for every k >= 0, with t^{-1} from the run,

        d_s^k = |delta| t^{k-1} / sqrt s - k t^k / (sqrt s (sqrt s + sqrt(s+k))).

    Where T changes slowly in n, T_s - T_{s-1} would keep only the last
    digits of each column, and every later column would inherit that
    rounding as a drift.
    """
    x = delta_abs * delta_abs
    lower = x - 2.0 * delta_abs * math.sqrt(start)
    # |delta| sqrt(s + k + 2) at the first k
    top = delta_abs * math.sqrt(start + 2 * band - 1.0)
    mant, expo = [0.0, 1.0], [0, 0]
    up, t, e, peak = 0.0, 1.0, 0, 1.0
    for k in range(2 * band - 3, -start - 1, -1):
        low = delta_abs * math.sqrt(start + k + 1.0)
        up, t = t, ((k + 1.0 + x) * t - top * up) / low
        if k + 1 < lower and abs(t) > abs(up) and abs(up) < peak * 2.0 ** -20:
            break
        if abs(t) > peak:
            peak = abs(t)
            if peak > _RESCALE:
                up, t, peak = up / _RESCALE, t / _RESCALE, peak / _RESCALE
                e += _RESCALE_BITS
        mant.append(t)
        expo.append(e)
        top = low
    mant, shift = np.frexp(mant)
    mant, expo = _unit_column(mant, shift + np.array(expo))
    # the values were appended from k = 2 band - 1 down: t^k for -1 <= k < band
    mant, lift = np.frexp(mant[2 * band: band - 1: -1])
    expo = expo[2 * band: band - 1: -1] + lift
    # d^k reads t^k and t^{k-1}, both taken in the exponent of the larger,
    # so neither overflows
    frame = np.maximum(expo[1:], expo[:-1])
    t, t_below = np.ldexp(mant[1:], expo[1:] - frame), np.ldexp(mant[:-1], expo[:-1] - frame)
    root = math.sqrt(start)
    k = np.arange(band, dtype=float)
    diff = delta_abs / root * t_below - k / (root * (root + np.sqrt(start + k))) * t
    diff, size = np.frexp(diff)
    size += frame
    top = np.maximum(expo[1:], size)
    return np.ldexp(mant[1:], expo[1:] - top), np.ldexp(diff, size - top), top


def _columns(delta_abs: float, n_cols: int, band: int, start: int = 0):
    """Yield (n0, T) with T[j, k] = T_{n0+j}^k, k < band, for
    n_s <= n0 + j < n_cols, where the start column n_s is `start`, or 0
    when start < x = |delta|^2 or band < 3.

    T_n^k = sqrt(n!/(n+k)!) x^{k/2} e^{-x/2} L_n^k(x) is the
    magnitude of <n+k|D(delta)|n>, bounded by 1. With p = n + 1 and
    q = n + k + 1 it obeys T_{n+1} = a T_n - b T_{n-1},

        a = (p + q - 1 - x) / sqrt(pq),   b = sqrt((p - 1)(q - 1) / pq),

    run _BLOCK columns at a time. Where T oscillates slowly (small |delta|,
    large n) a is close to 2 and b to 1, and the plain recurrence amplifies
    every rounding of a and of T_{n+1}; at |delta| = 0.01 its column norms
    drift by 1e-10 over 2.4e4 columns. So it runs in difference form
    (Reinsch): with d_n = T_n - T_{n-1},

        d_{n+1} = b d_n + (a - 1 - b) T_n,   T_{n+1} = T_n + d_{n+1},

    where a - 1 - b = ((sqrt q - sqrt p)^2 / 2
    + (sqrt(q - 1) - sqrt(p - 1))^2 / 2 - x) / sqrt(pq) is formed without
    cancellation. Written as d_n + (a - 2) T_n + (1 - b) T_{n-1}, the update
    adds two terms of size T/n that cancel to one of size x T/n, and the
    roundings of a - 2 and 1 - b come back amplified by about 1/x: at
    |delta| = 0.0186 that drifted the columns by 1.8e-13 over 5000 columns,
    where this form stays within 2e-15 of the exact values.

    From n_s = 0 it starts at T_0^k, _column_zero() at unit 2-norm, with
    d_0 = T_0. From n_s > 0 it starts at T_{n_s} and d_{n_s} of _seed(),
    which costs O(band + 2 |delta| sqrt(n_s)) scalar steps in place of
    n_s x band vector ones. n_s >= x puts the column's lower turning point
    below 0, so the seed's run reaches the t^{-1} that d_{n_s} reads; below
    it the run starts at column 0, as it does on a band of 2, whose tiny
    |delta| could overflow a seed step (about 1/(|delta| sqrt n_s)). For
    |delta| in [1e-3, 40] and n_s up to x + 8000 the seeded columns agree
    with those run from column 0 to 6.8e-15 (worst of 150 random cases).

    Each diagonal is held as mantissa times 2^exponent: the start sets both,
    and after a block any diagonal whose mantissa has passed _RESCALE is
    divided by it and its exponent raised by _RESCALE_BITS. A diagonal below
    the smallest double yields 0 until its mantissa has grown into range;
    none underflows for good. For band <= MAX_FOCK_DIM one block grows a
    mantissa by less than 1e60, so none overflows.

    The coefficients of a block come from _steps(), on tables of
    _tables() built once per call: sqrt(n + k) (1/sqrt(n + k + 1)) depends
    on n + k alone, so b is one product of a window row and a column
    factor, and each square in a - 1 - b is formed once for two rows. A
    block writes into buffers allocated once per call, in about nine passes
    over (_BLOCK x band) arrays.
    """
    x = delta_abs * delta_abs
    if start < x or band < 3:
        start = 0
    # rows n of the windows reach the last block's n0 + _BLOCK
    tables = _tables(start + -(-(n_cols - start) // _BLOCK) * _BLOCK + band, band)
    # mantissas of T_{n0} .. T_{n0+_BLOCK}, and of d_{n0}
    rows = np.zeros((_BLOCK + 1, band))
    if start == 0:
        rows[0], expo = _unit_column(*_column_zero(delta_abs / np.sqrt(np.arange(1.0, band))))
        diff = rows[0].copy()
    else:
        rows[0], diff, expo = _seed(delta_abs, start, band)
    weight = np.ldexp(1.0, expo)
    # b, c, the squares of _steps() and c T_{n0+j}, rewritten every block
    b, c = np.empty((_BLOCK, band)), np.empty((_BLOCK, band))
    squares, term = np.empty((_BLOCK + 1, band)), np.empty(band)
    for n0 in range(start, n_cols, _BLOCK):
        _steps(x, tables, n0, b, c, squares)
        for j in range(_BLOCK):
            diff *= b[j]
            np.multiply(c[j], rows[j], out=term)
            diff += term
            np.add(rows[j], diff, out=rows[j + 1])
        yield n0, rows[: min(_BLOCK, n_cols - n0)] * weight
        rows[0] = rows[_BLOCK]
        big = np.maximum(np.abs(rows[0]), np.abs(diff)) > _RESCALE
        if big.any():
            rows[0, big] /= _RESCALE
            diff[big] /= _RESCALE
            expo[big] += _RESCALE_BITS
            weight[big] = np.ldexp(1.0, expo[big])


def displacement_matrix(delta: complex, n_max: int) -> np.ndarray:
    """Dense <m|D(delta)|n> for m, n = 0..n_max, for small n_max.

    Built from the same columns as displace(), over the full band: with
    u = delta/|delta|, <n+k|D|n> = u^k T_n^k and <n|D|n+k> = (-u*)^k T_n^k.
    """
    size = n_max + 1
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
    n_max = max(n_trunc + ceil(10 (|delta| + 1)), _levels(r)), the
    coherent-state rule at that radius.

    D is applied matrix-free in O(n_max) memory; no (n_max + 1)^2 array is
    formed. The phase u = delta/|delta| is factored out, c~_n = u^-n c_n and
    y_m = u^m y~_m, so the columns T_n^k of _columns() are real. Only the
    diagonals k < K = _band(|delta|, n_max, n_trunc) are generated, and only
    the columns n_s <= n <= n_trunc, since the others meet amplitudes zero
    in double precision. Column n adds c~_n T_n^k to y~_{n+k} (lower
    triangle) and sum_{k>0} (-1)^k T_n^k c~_{n+k} to y~_n (upper triangle),
    so the columns n < n_s touch only the amplitudes below n_s + K. With
    n_lo the last n where the mass below n is at most _SUPPORT_TOL = 1e-30,
    n_s = max(0, n_lo - K) therefore drops a part of norm at most
    2 sqrt(1e-30), D being unitary; _columns() starts at 0 where n_s < |delta|^2.
    A block of columns does both products with one skewed (block x band)
    matrix. The per-diagonal exponents of _columns() keep every diagonal out
    of underflow, so a state displaces wherever n_max + 1 fits MAX_FOCK_DIM,
    for sqrt(<n>) + |delta| up to about 240; past it TruncationUnachievable
    is raised before any column is run. The alpha = 200 length optimum
    (|alpha| = MAX_AMPLITUDE) takes 43306 levels and a band of 1792
    diagonals (2581 to the edge), starts at column 35 937 of 42 020, and
    leaves a norm defect of 4.4e-15. On a shared 2-core Intel Xeon host
    that displace() call takes 0.14-0.20 s (1.0-1.5 s from column 0),
    fastest to median of 7 calls in one process over three processes, and
    the process peaks at 41 MB RSS.

    The truncated unitary loses the mass the displaced state carries above
    n_max, and a band too narrow would lose the mass outside it; if that norm
    defect exceeds DISPLACE_DEFECT_TOL, TruncationUnachievable is raised.
    Otherwise the result is renormalized and the defect reported as tail_mass.
    """
    if delta == 0:
        return state
    probs = photon_distribution(state)
    mean = float(probs @ np.arange(state.n_trunc + 1))
    # sized in floating point first: a huge shift makes r^2 inf
    shift = float(abs(delta))
    r = math.sqrt(mean) + shift
    n_max = max(state.n_trunc + float(np.ceil(10.0 * (shift + 1.0))), _levels(r))
    if not n_max + 1 <= MAX_FOCK_DIM:
        raise TruncationUnachievable(
            f"displacement by |delta| = {shift:.6g} needs {n_max + 1:.6g} levels, "
            f"above the limit MAX_FOCK_DIM = {MAX_FOCK_DIM}")
    n_max = int(n_max)
    band = _band(abs(delta), n_max, state.n_trunc)
    # the columns below n_lo carry at most 1e-30 of the state's mass
    n_lo = int(np.searchsorted(np.cumsum(probs), _SUPPORT_TOL, side="right"))
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
    for n0, block in _columns(abs(delta), state.n_trunc + 1, band, max(0, n_lo - band)):
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
    d = k - l
    n = np.arange(l, state.n_trunc - max(d, 0) + 1)
    # sqrt((n-l+k)!/(n-l)!) * sqrt(n!/(n-l)!): short falling products, exact in doubles
    factor = np.ones_like(n, dtype=float)
    for j in range(1, k + 1):
        factor *= n - l + j
    for j in range(0, l):
        factor *= n - j
    factor = np.sqrt(factor)
    return complex(np.sum(np.conj(c[n + d]) * c[n] * factor))


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
