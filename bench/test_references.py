"""Known-answer tests of the benchmark's independent references.

    python3 -m pytest bench/test_references.py
"""

import numpy as np
import pytest

import references as ref


@pytest.mark.parametrize("alpha,kz", [(3.0, 0.1), (10.0, 0.0218), (50 * np.exp(1j), 0.0026)])
def test_undisplaced_kerr_state_is_poissonian(alpha, kz):
    f, mean = ref.fano(alpha, kz, 0j)
    assert f == 1.0
    assert mean == pytest.approx(abs(alpha) ** 2, rel=1e-15)


@pytest.mark.parametrize("delta", [0.3 - 0.2j, 2.0j, -4.0 + 1.0j])
def test_displaced_coherent_state_is_poissonian(delta):
    f, mean = ref.fano(7.0, 0.0, delta)
    assert f == pytest.approx(1.0, abs=1e-13)
    assert mean == pytest.approx(abs(7.0 + delta) ** 2, rel=1e-13)


def test_closed_form_matches_the_reference_ket():
    alpha, kz, delta = 6.0 * np.exp(0.4j), 0.05, 0.3 - 0.7j
    probs = np.abs(ref.displaced_kerr_ket(alpha, kz, delta)) ** 2
    n = np.arange(len(probs))
    mean = probs @ n
    f, mean_ref = ref.fano(alpha, kz, delta)
    assert mean == pytest.approx(mean_ref, rel=1e-12)
    assert probs @ (n - mean) ** 2 / mean == pytest.approx(f, rel=1e-10)


def test_pencil_minimum_is_attained_and_global():
    alpha, kz = 20.0 * np.exp(-2.0j), 0.01
    f_min, delta = ref.pencil_minimum(alpha, kz)
    assert ref.fano(alpha, kz, delta)[0] == pytest.approx(f_min, rel=1e-12)
    rng = np.random.default_rng(0)
    trial = delta + 0.5 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    assert min(ref.fano(alpha, kz, d)[0] for d in trial) > f_min
    assert f_min < 1.0


def test_length_optimum_follows_the_four_thirds_law():
    kz, f_min, _ = ref.length_optimum(100.0)
    assert kz == pytest.approx(ref.length_scale(100.0), rel=0.05)
    assert f_min == pytest.approx(ref.near_optimum_floor(100.0), rel=0.05)


def test_displaced_vacuum_is_coherent():
    delta = 2.5 - 1.5j
    vacuum = np.zeros(1, dtype=complex)
    vacuum[0] = 1.0
    levels = ref.levels_for_radius(abs(delta))
    ket = ref.displace_ket(vacuum, delta, levels)
    np.testing.assert_allclose(ket, ref.kerr_ket(delta, 0.0, levels), atol=1e-14)


def test_vacuum_parity_is_one():
    vacuum = np.zeros(1, dtype=complex)
    vacuum[0] = 1.0
    assert ref.parity_wigner(vacuum, 0j) * np.pi / 2.0 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("w", [0j, 3.0 + 4.0j, 3.4 + 3.7j, 1.0 - 2.0j])
def test_coherent_state_wigner_is_gaussian(w):
    alpha = 3.0 + 4.0j
    ket = ref.kerr_ket(alpha, 0.0, ref.levels_for_radius(abs(alpha)))
    expected = (2.0 / np.pi) * np.exp(-2.0 * abs(w - alpha) ** 2)
    assert ref.parity_wigner(ket, w) == pytest.approx(expected, abs=1e-13)
