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

Lattice rule: a grid with q_i = q_0 + i dq takes h = dq/m with the smallest
whole m meeting the aliasing bound, so every q_i +- s_k is a point of one
lattice q_0 + l h. psi is evaluated once on that lattice, and W on the grid is
one (res x S) . (S x res) matrix product, done in row blocks. A scattered
point is a 1 x 1 grid.

psi comes from the upward Hermite-function recurrence

    phi_0 = pi^{-1/4} e^{-q^2/2},   phi_1 = sqrt(2) q phi_0,
    phi_{n+1} = sqrt(2/(n+1)) q phi_n - sqrt(n/(n+1)) phi_{n-1},

adding c_n phi_n into psi as it runs. phi_0 underflows for |q| >~ 38, so
each lattice point carries a log scale: the recurrence starts from the
mantissa pi^{-1/4} at scale -q^2/2, and whenever a mantissa passes _RESCALE
the mantissas and the running sum of that point are divided by _RESCALE and
its scale raised by log _RESCALE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow, StateTooLarge
from .fock import FockState, photon_distribution

# Beyond sqrt(2N + 1) + 10 every Hermite function phi_n, n <= N, is below 1e-20.
SUPPORT_MARGIN = 10.0
# Byte limit on each complex array of a map: the (S x resolution) phase
# matrix e^{2i p_j s_k}, psi over the lattice, which outgrows it when the
# window is far wider than the state, and the (resolution x resolution) grid
# of W, which outgrows both once resolution > S. A 401^2 map of the alpha = 30
# optimum (N = 1343) needs 29 MB of phase matrix; a 4096^2 grid fills the limit.
MAX_WIGNER_BYTES = 2 ** 28
# Rows of the psi*(q+s) psi(q-s) kernel are built in blocks of at most this many bytes.
BLOCK_BYTES = 2 ** 24
_RESCALE = 1e150
# auto_window: the photon-number mass left above its level n_hi, and the
# margin added to the radius sqrt(n_hi)
AUTO_QUANTILE = 1e-9
AUTO_MARGIN = 3.0


@dataclass(frozen=True)
class WignerGrid:
    """W on the grid xs x ys, values[i, j] at xs[i] + i ys[j]."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    imag_residue: float

    def integral(self) -> float:
        dx = (self.xs[-1] - self.xs[0]) / (len(self.xs) - 1)
        dy = (self.ys[-1] - self.ys[0]) / (len(self.ys) - 1)
        return float(self.values.sum() * dx * dy)


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


def _wigner_grid(state: FockState, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, float]:
    """W on the grid xs x ys (each uniform, values[i, j] at xs[i] + i ys[j]),
    and the largest |Im W| before the real part is taken."""
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
    ks = np.arange(-k_max, k_max + 1)

    lattice = q[0] + h * np.arange(-k_max, (len(q) - 1) * m + k_max + 1)
    inside = np.abs(lattice) <= radius
    psi = np.zeros(len(lattice), dtype=complex)
    psi[inside] = _wavefunction(state.amplitudes, lattice[inside])

    phase = np.exp(2j * np.outer(h * ks, p))
    centre = m * np.arange(len(q)) + k_max
    rows = max(1, BLOCK_BYTES // (16 * len(ks)))
    total = np.empty((len(q), len(p)), dtype=complex)
    for start in range(0, len(q), rows):
        at = centre[start:start + rows, None]
        total[start:start + rows] = (np.conj(psi[at + ks]) * psi[at - ks]) @ phase
    total *= 2.0 * h / np.pi

    if not np.all(np.isfinite(total)):
        raise NumericalOverflow("non-finite Wigner values; scaling exhausted")
    residue = float(np.max(np.abs(total.imag)))
    if residue > 1e-10:
        raise NumericalOverflow(f"imaginary residue {residue} above 1e-10")
    return total.real, residue


def wigner_at(state: FockState, points: np.ndarray) -> np.ndarray:
    """W at arbitrary complex phase-space points, each evaluated as a 1 x 1 grid."""
    w = np.asarray(points, dtype=complex)
    values = np.empty(w.shape)
    for index, point in np.ndenumerate(w):
        grid, _ = _wigner_grid(state, np.array([point.real]), np.array([point.imag]))
        values[index] = grid[0, 0]
    return values


def wigner(state: FockState, center: complex, half_width: float,
           resolution: int) -> WignerGrid:
    """Wigner function on the resolution x resolution grid of the square of
    half-width half_width about center. auto_window gives a window that holds
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
    xs = center.real + np.linspace(-half_width, half_width, resolution)
    ys = center.imag + np.linspace(-half_width, half_width, resolution)
    values, residue = _wigner_grid(state, xs, ys)
    return WignerGrid(xs, ys, values, residue)


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
