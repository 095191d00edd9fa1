"""Independent references for the benchmark's output checks.

Nothing here imports kerrshift. Every quantity is derived again from first
principles, in a different parametrization from the program's:

* The closed-form Fano factor of the displaced Kerr state D(delta) e^{i kz n^2}|alpha>
  is written in the physical shift delta (not the program's normalized beta)
  from the generic displaced-moment identity
      Var(n_b) = <b^2 b^2> + <b b> - <b b>^2 ... with b = a + delta,
  in which the cubic and quartic terms in delta cancel. That leaves
  F = (v^T V v) / (v^T M v) over v = (1, Re delta, Im delta), and the global
  minimum over delta is the smallest eigenvalue of the 3x3 pencil (V, M).
* The Fock ket is built in log domain, phased, and displaced by
  scipy.sparse.linalg.expm_multiply on the tridiagonal generator
  delta a^dag - delta* a (Al-Mohy & Higham 2011), not by matrix elements.
* W(w) comes from the displaced-parity formula
  (2/pi) sum_n (-1)^n |<n|D(-w) psi>|^2 (Royer 1977), not from Laguerre sums.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

# Extra amplitude radius (in units of the vacuum width) a reference basis
# carries beyond the state's own radius: the Gaussian tail past it is ~e^{-2 PAD^2}.
PAD = 7.0


# ---------------------------------------------------------------- closed form

def _expm1i(t: float) -> complex:
    """e^{it} - 1 without cancellation: 2i sin(t/2) e^{it/2}."""
    return 2j * np.sin(t / 2.0) * np.exp(0.5j * t)


def fano_forms(alpha: complex, kz: float) -> tuple[np.ndarray, np.ndarray]:
    """Variance and mean of the displaced Kerr state as 3x3 forms over (1, Re d, Im d).

    Kerr-state moments (e = e^{i kz}, G_k = exp(|a|^2 (e^{2ik kz} - 1))):
        <a> = a e G_1,  <a^2> = a^2 e^4 G_2,  <a^dag a^2> = a |a|^2 e^3 G_1,
        <a^dag a> = |a|^2,  <a^dag^2 a^2> = |a|^4.
    The combinations entering the variance are assembled so that nothing
    cancels at small kz:
        4<a^dag a^2> - 4|a|^2 <a> = 4 |a|^2 <a> (e^{2ikz} - 1)
        <a^2> - <a>^2 = a^2 e^2 G_1^2 expm1(2ikz + |a|^2 (e^{2ikz} - 1)^2)
        1 - |G_1|^2 = -expm1(-4 |a|^2 sin^2 kz)
    """
    n1 = abs(alpha) ** 2
    e1 = np.exp(1j * kz)
    d2 = _expm1i(2.0 * kz)                      # e^{2ikz} - 1
    g1 = np.exp(n1 * d2)
    a1 = alpha * e1 * g1                        # <a>
    c = 4.0 * n1 * a1 * d2 + 2.0 * a1           # coefficient of conj(delta)
    cov = alpha ** 2 * e1 ** 2 * g1 ** 2 * np.expm1(2j * kz + n1 * d2 * d2)
    dephase = -np.expm1(-4.0 * n1 * np.sin(kz) ** 2)
    diag = 2.0 * n1 * dephase + 1.0             # 2|a|^2 + 1 - 2|<a>|^2
    var = np.array([
        [n1, 0.5 * c.real, 0.5 * c.imag],
        [0.5 * c.real, diag + 2.0 * cov.real, 2.0 * cov.imag],
        [0.5 * c.imag, 2.0 * cov.imag, diag - 2.0 * cov.real],
    ])
    mean = np.array([
        [n1, a1.real, a1.imag],
        [a1.real, 1.0, 0.0],
        [a1.imag, 0.0, 1.0],
    ])
    return var, mean


def _vec(delta: complex) -> np.ndarray:
    return np.array([1.0, delta.real, delta.imag])


def fano(alpha: complex, kz: float, delta: complex) -> tuple[float, float]:
    """(Fano factor, mean photon number) of D(delta) e^{i kz n^2}|alpha>."""
    var, mean = fano_forms(alpha, kz)
    v = _vec(delta)
    m = float(v @ mean @ v)
    return float(v @ var @ v) / m, m


def shift_from_beta(alpha: complex, kz: float, beta: complex) -> complex:
    """Physical shift of the program's normalized coordinate beta (tau = 1):
    delta = beta alpha e^{i kz} e^{2i |alpha|^2 kz}."""
    return complex(beta * alpha * np.exp(1j * kz * (1.0 + 2.0 * abs(alpha) ** 2)))


def beta_from_shift(alpha: complex, kz: float, delta: complex) -> complex:
    return complex(delta / (alpha * np.exp(1j * kz * (1.0 + 2.0 * abs(alpha) ** 2))))


def pencil_minimum(alpha: complex, kz: float) -> tuple[float, complex]:
    """Global minimum of F over every complex shift, and the shift that reaches it.

    The smallest generalized eigenvalue of (V, M); M is positive definite for
    kz > 0 (its determinant is |a|^2 (1 - |G_1|^2)). The eigenvector is scaled
    to v_0 = 1 to read off the shift.
    """
    var, mean = fano_forms(alpha, kz)
    vals, vecs = eigh(var, mean)
    v = vecs[:, 0]
    return float(vals[0]), complex(v[1] / v[0], v[2] / v[0])


def length_scale(abs_alpha: float) -> float:
    """Argmin over kz of the near-optimum law (8/3)|a|^4 kz^4 + 1/(16 |a|^4 kz^2):
    (3/256)^{1/6} |a|^{-4/3}. Used only to place search brackets and sweep grids."""
    return (3.0 / 256.0) ** (1.0 / 6.0) * abs_alpha ** (-4.0 / 3.0)


def length_optimum(alpha: complex) -> tuple[float, float, complex]:
    """(kz_opt, F_min, delta_opt): the pencil minimum minimized over kz."""
    scale = length_scale(abs(alpha))
    res = minimize_scalar(lambda t: pencil_minimum(alpha, t * scale)[0],
                          bounds=(0.2, 2.5), method="bounded",
                          options={"xatol": 1e-9})
    kz = float(res.x) * scale
    f_min, delta = pencil_minimum(alpha, kz)
    return kz, f_min, delta


def near_optimum_floor(abs_alpha: float) -> float:
    """min over kz of (8/3)|a|^4 kz^4 + 1/(16 |a|^4 kz^2), found numerically."""
    a4 = abs_alpha ** 4
    scale = length_scale(abs_alpha)
    res = minimize_scalar(lambda t: (8.0 / 3.0) * a4 * (t * scale) ** 4
                          + 1.0 / (16.0 * a4 * (t * scale) ** 2),
                          bounds=(0.1, 10.0), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.fun)


# ----------------------------------------------------------------- Fock ket

def levels_for_radius(radius: float) -> int:
    """Basis size that holds a state of amplitude radius `radius` plus PAD."""
    return int(np.ceil((radius + PAD) ** 2)) + 1


def kerr_ket(alpha: complex, kz: float, levels: int) -> np.ndarray:
    """c_n = e^{-|a|^2/2} a^n / sqrt(n!) e^{i kz n^2}, n < levels, from log magnitudes."""
    n = np.arange(levels, dtype=float)
    a = abs(alpha)
    if a == 0.0:
        ket = np.zeros(levels, dtype=complex)
        ket[0] = 1.0
        return ket
    log_mag = -0.5 * a * a + n * np.log(a) - 0.5 * gammaln(n + 1.0)
    # kz n^2 reduced mod 2 pi in integer-exact steps would matter only past n ~ 1e8
    return np.exp(log_mag + 1j * (n * np.angle(alpha) + kz * n * n))


def displace_ket(ket: np.ndarray, delta: complex, levels: int) -> np.ndarray:
    """D(delta) ket in a basis of `levels` states (ket zero-padded or as is)."""
    padded = np.zeros(levels, dtype=complex)
    padded[: len(ket)] = ket
    if delta == 0:
        return padded
    root = np.sqrt(np.arange(1, levels, dtype=float))
    # (delta a^dag - delta* a): a^dag on the subdiagonal, a on the superdiagonal
    gen = diags([delta * root, -np.conj(delta) * root], [-1, 1],
                shape=(levels, levels), format="csr", dtype=complex)
    return expm_multiply(gen, padded)


def displaced_kerr_ket(alpha: complex, kz: float, delta: complex) -> np.ndarray:
    """D(delta) e^{i kz n^2}|alpha> in a basis padded to radius |alpha| + |delta|."""
    levels = levels_for_radius(abs(alpha) + abs(delta))
    return displace_ket(kerr_ket(alpha, kz, levels), delta, levels)


def parity_wigner(ket: np.ndarray, w: complex) -> float:
    """W(w) = (2/pi) sum_n (-1)^n |<n|D(-w) psi>|^2, basis padded to |w| + sqrt(<n>)."""
    probs = np.abs(ket) ** 2
    mean = float(probs @ np.arange(len(ket)))
    levels = max(len(ket), levels_for_radius(abs(w) + np.sqrt(mean)))
    shifted = displace_ket(ket, -w, levels)
    signs = np.where(np.arange(levels) % 2 == 0, 1.0, -1.0)
    return float((2.0 / np.pi) * (signs @ np.abs(shifted) ** 2))
