"""Wigner quasiprobability of truncated Fock states, computed in position space.

Phase-space points are w = x + iy with a = (q + ip)/sqrt(2), so

    q = sqrt(2) Re w,   p = sqrt(2) Im w,

W integrates to 1 over dx dy, and a coherent state |alpha> has
W(w) = (2/pi) e^{-2|w - alpha|^2}. For a pure state with wavefunction
psi(q) = sum_n c_n phi_n(q), phi_n the Hermite functions,

    W(w) = (2/pi) int psi*(q + s) psi(q - s) e^{2ips} ds
         ~ (2/pi) h sum_k psi*(q + s_k) psi(q - s_k) e^{2ip s_k},   s_k = k h.

A state with at most N photons lives in the phase-space disk of radius
sqrt(2N + 1) up to Gaussian tails, so R = sqrt(2N + 1) + SUPPORT_MARGIN
bounds its support in q and in p, and the sum runs over |s_k| <= R. By
Poisson summation the trapezoid sum equals sum_j W(q, p + j pi/h); a step
h < pi / (max|p| + R) pushes every image j != 0 outside the support, where W
is negligible. Without that rule the sum aliases.

The kernel K_k = psi*(q + s_k) psi(q - s_k) is Hermitian in k, K_{-k} =
conj(K_k), so W is real by construction and the sum folds onto k >= 1:

    W ~ (4h/pi) [|psi(q)|^2 / 2 + sum_{k>=1} (Re K_k cos 2p s_k - Im K_k sin 2p s_k)].

Lattice rule: a grid with q_i = q_0 + i dq takes h = dq/m with the smallest
whole m meeting the aliasing bound, so every q_i +- s_k is a point of one
lattice q_0 + l h. psi is evaluated once on that lattice. The folded sum on
the grid is one real matrix product per block of rows: the K_k of a row,
viewed as interleaved (Re, Im) floats, times the (2K x res) matrix of
interleaved rows (cos 2p s_k, -sin 2p s_k). A scattered point is a 1 x 1
grid.

psi comes from the upward Hermite-function recurrence

    phi_0 = pi^{-1/4} e^{-q^2/2},   phi_1 = sqrt(2) q phi_0,
    phi_{n+1} = sqrt(2/(n+1)) q phi_n - sqrt(n/(n+1)) phi_{n-1},

adding c_n phi_n into psi as it runs. phi_0 underflows for |q| >~ 38, so
each lattice point carries a log scale: the recurrence starts from the
mantissa pi^{-1/4} at scale -q^2/2, and whenever a mantissa passes _RESCALE
the mantissas and the running sum of that point are divided by _RESCALE and
its scale raised by log _RESCALE.

Rounding floor. Re-evaluated in long double at the written coordinates (the
lattice through each q_i, with the same h and K), the double grid is off by
at most 233 eps 2/pi (eps = 2.2e-16) over 70 random states with n_trunc up to
6700: 22-26 eps 2/pi on alpha ~ 10 length optima at 201^2, 10-22 on alpha =
5 Kerr maps, up to 233 on states of n_trunc above 1000. Most of it comes from
psi's recurrence, and it grows with n_trunc. The unit is eps 2/pi, not eps
max|W|: the terms of the folded sum add up in size to at most about 2/pi
(Cauchy-Schwarz on int |psi(q + s) psi(q - s)| ds <= 1) however far the Kerr
phase spreads the state, while max|W| falls as it spreads (0.04 at alpha =
45), so the same errors span 0.1 to over 4000 eps max|W|. A wigner artifact
writes a cell as 0 where |W| < W_FLOOR = 1024 eps 2/pi, 4.4 times the
largest error measured, and every other cell as wigner() returns it;
wigner() itself returns unfloored values.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalOverflow, StateTooLarge, ZeroMeanPhoton
from .fock import FockState, photon_distribution, photon_statistics
from .serialize import Grid

# Beyond sqrt(2N + 1) + 10 every Hermite function phi_n, n <= N, is below 1e-20.
SUPPORT_MARGIN = 10.0
# Byte limit on each large array of a map, each counted at 16 B a cell over
# S = 2K + 1 shifts: the "phase matrix" of S x resolution cells holds the
# 2K x resolution floats (cos, -sin) of the folded sum; the complex psi over
# the lattice outgrows it when the window is far wider than the state; the
# "grid" of resolution x resolution cells holds the real W, which outgrows
# both once resolution > S. Each count bounds its array from above. A 401^2
# map of the alpha = 30 optimum (N = 1343) counts 29 MB of phase matrix; a
# 4096^2 grid fills the limit.
MAX_WIGNER_BYTES = 2 ** 28
# Rows of the psi*(q+s) psi(q-s) kernel are built in blocks of at most this many bytes.
BLOCK_BYTES = 2 ** 24
_RESCALE = 1e150
# auto_window: the photon-number mass left above its level n_hi, and the
# margin added to the radius sqrt(n_hi)
AUTO_QUANTILE = 1e-9
AUTO_MARGIN = 3.0
# The rounding floor of a map, 1024 eps 2/pi = 1.4e-13: 4.4 times the
# largest error measured (module docstring).
W_FLOOR = 1024 * 2.0 ** -52 * 2.0 / math.pi


def _wavefunction(amplitudes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """psi(q) = sum_n c_n phi_n(q) by the rescaled Hermite-function recurrence."""
    scale = -0.5 * q * q
    prev = np.zeros_like(q)
    cur = np.full_like(q, np.pi ** -0.25)
    psi = amplitudes[0] * cur
    for n in range(len(amplitudes) - 1):
        prev, cur = cur, np.sqrt(2.0 / (n + 1.0)) * q * cur - np.sqrt(n / (n + 1.0)) * prev
        psi += amplitudes[n + 1] * cur
        big = np.abs(cur) > _RESCALE
        if big.any():
            shrink = np.where(big, 1.0 / _RESCALE, 1.0)
            prev *= shrink
            cur *= shrink
            psi *= shrink
            scale[big] += np.log(_RESCALE)
    return psi * np.exp(scale)


def _wigner_grid(state: FockState, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """W on the grid xs x ys (each uniform), values[i, j] at xs[i] + i ys[j]."""
    radius = np.sqrt(2.0 * state.n_trunc + 1.0) + SUPPORT_MARGIN
    q = np.sqrt(2.0) * xs
    p = np.sqrt(2.0) * ys
    h_max = np.pi / (np.max(np.abs(p)) + radius)
    dq = (q[-1] - q[0]) / (len(q) - 1) if len(q) > 1 else h_max
    # sizes in floating point first: a wide or far window makes them inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = np.floor(dq / h_max) + 1.0
        h = dq / m
        k_max = np.ceil(radius / h)
    for what, cells in (("phase matrix", (2.0 * k_max + 1.0) * len(p)),
                        ("lattice", (len(q) - 1) * m + 2.0 * k_max + 1.0)):
        if not 16.0 * cells <= MAX_WIGNER_BYTES:
            raise StateTooLarge(
                f"n_trunc = {state.n_trunc} at resolution {len(xs)}x{len(ys)} over "
                f"x in [{xs[0]:.6g}, {xs[-1]:.6g}], y in [{ys[0]:.6g}, {ys[-1]:.6g}]: "
                f"its {what} needs {16.0 * cells:.4g} B, above the limit "
                f"MAX_WIGNER_BYTES = {MAX_WIGNER_BYTES} B")
    m, k_max = int(m), int(k_max)
    ks = np.arange(1, k_max + 1)

    lattice = q[0] + h * np.arange(-k_max, (len(q) - 1) * m + k_max + 1)
    inside = np.abs(lattice) <= radius
    psi = np.zeros(len(lattice), dtype=complex)
    psi[inside] = _wavefunction(state.amplitudes, lattice[inside])

    # rows (cos 2p s_k, -sin 2p s_k), written in place from -2p s_k
    trig = np.empty((k_max, 2, len(p)))
    np.multiply.outer(-2.0 * h * ks, p, out=trig[:, 1])
    np.cos(trig[:, 1], out=trig[:, 0])
    np.sin(trig[:, 1], out=trig[:, 1])
    trig = trig.reshape(2 * k_max, len(p))
    # q_i sits at lattice index m i + K: row i of psi(q_i + s_k) and of
    # psi(q_i - s_k), k = 1..K, are strided views of psi's windows of K
    windows = sliding_window_view(psi, k_max)
    plus, minus = windows[k_max + 1::m], windows[::m][:len(q), ::-1]
    rows = max(1, BLOCK_BYTES // (16 * k_max))
    kern = np.empty((min(rows, len(q)), k_max), dtype=complex)
    total = np.empty((len(q), len(p)))
    for start in range(0, len(q), rows):
        stop = min(start + rows, len(q))
        block = np.conjugate(plus[start:stop], out=kern[:stop - start])
        block *= minus[start:stop]
        np.matmul(block.view(float), trig, out=total[start:stop])
    total += 0.5 * np.abs(psi[k_max::m][:len(q), None]) ** 2
    total *= 4.0 * h / np.pi

    if not np.all(np.isfinite(total)):
        raise NumericalOverflow("non-finite Wigner values; scaling exhausted")
    return total


def wigner_at(state: FockState, points: np.ndarray) -> np.ndarray:
    """W at arbitrary complex phase-space points, each evaluated as a 1 x 1 grid."""
    w = np.asarray(points, dtype=complex)
    values = np.empty(w.shape)
    for index, point in np.ndenumerate(w):
        values[index] = _wigner_grid(state, np.array([point.real]),
                                     np.array([point.imag]))[0, 0]
    return values


def wigner(state: FockState, center: complex, half_width: float,
           resolution: int) -> Grid:
    """Wigner function on the resolution x resolution grid of the square of
    half-width half_width about center, as the Grid its artifact writes:
    values[i, j] at xs[i] + i ys[j]. auto_window gives a window that holds
    the state's support however far the Kerr phase wraps it.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    grid_bytes = 16.0 * resolution * resolution
    if not grid_bytes <= MAX_WIGNER_BYTES:
        raise StateTooLarge(
            f"resolution {resolution}x{resolution}: its grid needs {grid_bytes:.4g} B, "
            f"above the limit MAX_WIGNER_BYTES = {MAX_WIGNER_BYTES} B")
    if not (np.isfinite(half_width) and half_width > 0.0):
        raise ValueError(f"half_width must be finite and positive, got {half_width}")
    if not np.isfinite(center):
        raise ValueError(f"center must be finite, got {center}")
    # the window's edges, their lattice coordinates sqrt(2) x and the span
    # 2 sqrt(2) half_width must be finite; 4 bounds both factors
    if not math.isfinite(4.0 * (half_width + max(abs(center.real), abs(center.imag)))):
        raise ValueError(f"half_width = {half_width:g} about center {center}: the window "
                         f"reaches past the largest double")
    xs = center.real + np.linspace(-half_width, half_width, resolution)
    ys = center.imag + np.linspace(-half_width, half_width, resolution)
    return Grid(xs, ys, _wigner_grid(state, xs, ys))


def auto_window(state: FockState) -> tuple[complex, float]:
    """Origin-centered window guaranteed to contain the state's support.

    A state with photon content up to n_hi lives within the disk of radius
    sqrt(n_hi) no matter how far the Kerr phase wraps it around; n_hi leaves
    AUTO_QUANTILE of the mass above it, and the returned half-width is
    sqrt(n_hi) + AUTO_MARGIN.
    """
    cum = np.cumsum(photon_distribution(state))
    n_hi = int(np.searchsorted(cum, 1.0 - AUTO_QUANTILE)) + 1
    return 0j, float(np.sqrt(n_hi) + AUTO_MARGIN)


def narrowest_width(state: FockState) -> float:
    """The radial width sqrt(Var n) / (2 sqrt<n>) of the state's ring in phase
    space: at radius r = sqrt(n) a spread dn in n is a spread dn / (2 sqrt n)
    in r. A coherent state gives 1/2 at every amplitude, and the vacuum, where
    <n> = 0, takes that limit. A grid step above it leaves the map unresolved.
    """
    try:
        stats = photon_statistics(state)
    except ZeroMeanPhoton:
        return 0.5
    return float(np.sqrt(stats.variance) / (2.0 * np.sqrt(stats.mean)))
