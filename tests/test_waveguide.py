"""Physical-unit mapping: couplings, design lengths, presets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrshift.approx import f_min_approx
from kerrshift.errors import NumericalOverflow, TargetBelowFloor
from kerrshift.reference import TABLE2, TABLE3, round_sig
from kerrshift.waveguide import (
    HBAR,
    SPEED_OF_LIGHT,
    BeamSpec,
    WaveguideSpec,
    alpha_from_power,
    fano_floor_physical,
    gamma,
    kerr_coupling,
    length_for_suppression,
    load_preset,
    parse_preset,
    z_opt_physical,
)

SI3N4 = load_preset("si3n4")


def test_si3n4_preset_fields():
    assert SI3N4.n2 == 2.5e-19
    assert SI3N4.sigma_eff == 0.3e-12
    assert SI3N4.wavelength == 1.55e-6


def test_gamma_value():
    # direct evaluation: 2 pi n2 / (lambda sigma_eff)
    expected = 2 * np.pi * 2.5e-19 / (1.55e-6 * 0.3e-12)
    assert gamma(SI3N4) == pytest.approx(expected, rel=1e-14)
    assert gamma(SI3N4) == pytest.approx(3.38, abs=0.005)


def test_gamma_scales_with_n2():
    doubled = WaveguideSpec(n2=2 * SI3N4.n2, n0=SI3N4.n0,
                            sigma_eff=SI3N4.sigma_eff, wavelength=SI3N4.wavelength)
    assert gamma(doubled) == pytest.approx(2 * gamma(SI3N4), rel=1e-14)


def test_alpha_from_power_published():
    beam = BeamSpec(power=1e-3, spectral_width=1e6)
    alpha = alpha_from_power(beam, SI3N4)
    omega = 2 * np.pi * SPEED_OF_LIGHT / 1.55e-6
    assert alpha == pytest.approx(np.sqrt(1e-3 * 1e-6 / (HBAR * omega)), rel=1e-14)
    assert alpha == pytest.approx(8.8e4, rel=0.01)


def test_alpha_square_root_power_law():
    base = alpha_from_power(BeamSpec(2e-3, 5e6), SI3N4)
    scaled = alpha_from_power(BeamSpec(2e-1, 5e6), SI3N4)
    assert scaled == pytest.approx(10.0 * base, rel=1e-12)


def test_coherence_time_inverse_width():
    beam = BeamSpec(power=1e-3, spectral_width=7.3e7)
    assert beam.coherence_time * beam.spectral_width == pytest.approx(1.0, abs=1e-12)


def test_kerr_coupling_inverse_coherence_time():
    k1 = kerr_coupling(SI3N4, BeamSpec(1e-3, 1e6))
    k2 = kerr_coupling(SI3N4, BeamSpec(1e-3, 5e5))  # doubled coherence time
    assert k2 == pytest.approx(0.5 * k1, rel=1e-12)


@given(n2=st.floats(1e-20, 1e-17), sigma=st.floats(1e-14, 1e-11),
       lam=st.floats(0.4e-6, 4e-6), power=st.floats(1e-6, 10.0),
       df=st.floats(1e3, 1e10))
@settings(max_examples=60, deadline=None)
def test_coupling_identity(n2, sigma, lam, power, df):
    # 2 |a|^2 K = gamma P, exactly
    wg = WaveguideSpec(n2=n2, n0=1.9, sigma_eff=sigma, wavelength=lam)
    beam = BeamSpec(power=power, spectral_width=df)
    lhs = 2.0 * alpha_from_power(beam, wg) ** 2 * kerr_coupling(wg, beam)
    rhs = gamma(wg) * beam.power
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_z_opt_published_values():
    assert z_opt_physical(SI3N4, BeamSpec(1e-3, 1e6)) == pytest.approx(560e3, rel=0.01)
    assert z_opt_physical(SI3N4, BeamSpec(1e-1, 1e8)) == pytest.approx(5.6e3, rel=0.01)


def test_z_opt_power_scaling():
    z1 = z_opt_physical(SI3N4, BeamSpec(1e-3, 1e6))
    z2 = z_opt_physical(SI3N4, BeamSpec(1.0, 1e6))
    assert z2 == pytest.approx(z1 * 1e-2, rel=1e-10)


def test_fano_floor_values():
    assert fano_floor_physical(SI3N4, BeamSpec(1e-3, 1e6)) == pytest.approx(-70.0, abs=0.5)
    assert fano_floor_physical(SI3N4, BeamSpec(1e-1, 1e6)) == pytest.approx(-83.0, abs=0.5)
    assert fano_floor_physical(SI3N4, BeamSpec(1e-3, 1e8)) == pytest.approx(-56.0, abs=0.5)


def test_fano_floor_round_trip():
    beam = BeamSpec(3.7e-3, 2e7)
    direct = 10 * np.log10(f_min_approx(alpha_from_power(beam, SI3N4)))
    assert fano_floor_physical(SI3N4, beam) == pytest.approx(direct, rel=1e-12)


def test_table2_cells_at_printed_precision():
    for (df, power), cell in TABLE2.items():
        beam = BeamSpec(power=power, spectral_width=df)
        assert round_sig(alpha_from_power(beam, SI3N4)) == round_sig(cell.alpha)
        assert round_sig(fano_floor_physical(SI3N4, beam)) == round_sig(cell.fano_db)
        assert round_sig(z_opt_physical(SI3N4, beam)) == round_sig(cell.z_opt_m)


def test_length_for_suppression_shallow_rows():
    for target, row in TABLE3.items():
        if target <= -12.1:
            continue
        z10, x = length_for_suppression(target, 1e-2, SI3N4)
        z100, _ = length_for_suppression(target, 1e-1, SI3N4)
        assert x == pytest.approx(row.x, rel=0.03)
        assert z10 == pytest.approx(row.z_10mw_m, rel=0.03)
        assert z100 == pytest.approx(row.z_100mw_m, rel=0.03)


def test_length_for_suppression_deep_row():
    # the -15 dB inversion: x = 1/(4 sqrt(F)) = 1.406, not the printed 1.80;
    # the z values nevertheless land within 3% of the printed lengths
    z10, x = length_for_suppression(-15.0, 1e-2, SI3N4)
    z100, _ = length_for_suppression(-15.0, 1e-1, SI3N4)
    assert x == pytest.approx(1.0 / (4.0 * np.sqrt(10 ** -1.5)), rel=1e-12)
    assert x == pytest.approx(1.406, abs=5e-3)
    assert z10 == pytest.approx(TABLE3[-15.0].z_10mw_m, rel=0.03)
    assert z100 == pytest.approx(TABLE3[-15.0].z_100mw_m, rel=0.03)


def test_length_solution_x_is_width_independent():
    # z depends on gamma and P only; the identity z = 2x/(gamma P) pins it
    z, x = length_for_suppression(-7.0, 5e-2, SI3N4)
    assert z == pytest.approx(2.0 * x / (gamma(SI3N4) * 5e-2), rel=1e-14)


def test_target_below_floor_guard():
    with pytest.raises(TargetBelowFloor):
        length_for_suppression(-80.0, 1e-3, SI3N4, spectral_width=1e8)
    # without a spectral width the guard cannot fire
    z, x = length_for_suppression(-80.0, 1e-3, SI3N4)
    assert z > 0


def test_target_validation():
    with pytest.raises(ValueError):
        length_for_suppression(1.0, 1e-2, SI3N4)
    with pytest.raises(ValueError):
        length_for_suppression(-5.0, 0.0, SI3N4)


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveguideSpec(n2=-1e-19, n0=2.0, sigma_eff=1e-13, wavelength=1.55e-6)
    with pytest.raises(ValueError):
        WaveguideSpec(n2=1e-19, n0=2.0, sigma_eff=1e-13, wavelength=50e-6)
    with pytest.raises(ValueError):
        BeamSpec(power=0.0, spectral_width=1e6)


def test_parse_preset_errors():
    with pytest.raises(ValueError):
        parse_preset("n2_m2_per_W = 1e-19\n")  # incomplete
    with pytest.raises(ValueError):
        parse_preset("bogus_key = 1\n")
    with pytest.raises(ValueError, match="preset line 3: lambda_m: could not parse '1.55um'"):
        parse_preset("n2_m2_per_W = 1e-19\n# geometry\nlambda_m = 1.55um\n")
    with pytest.raises(FileNotFoundError):
        load_preset("unobtainium")


def test_overflowing_results_are_named():
    # finite inputs whose results overflow: refused, not returned as inf
    # (the design command's cases are in test_cli)
    strong = WaveguideSpec(n2=1e300, n0=2.0, sigma_eff=1e-13, wavelength=1.55e-6)
    with pytest.raises(NumericalOverflow, match="gamma = inf"):
        gamma(strong)
    with pytest.raises(NumericalOverflow, match="z_opt = inf"):
        z_opt_physical(SI3N4, BeamSpec(power=1e-2, spectral_width=1e-300))


def test_load_preset_from_path(tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text("n2_m2_per_W = 1e-19\nn0 = 1.7\n"
                    "sigma_eff_m2 = 1e-13\nlambda_m = 1.0e-6\n")
    wg = load_preset(str(path))
    assert wg.n2 == 1e-19
    assert wg.wavelength == 1.0e-6
