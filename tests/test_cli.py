"""CLI surface: artifacts, exit codes, determinism, config round trips."""

import argparse
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kerrshift import (
    DisplacementSetting,
    KerrScenario,
    auto_window,
    coherent_state,
    displace,
    fano_displaced,
    kerr_evolve,
    optimize_beta,
    photon_distribution,
    photon_statistics,
    shift_amplitude,
    wigner,
)
import kerrshift.cli as cli
from kerrshift.cli import build_parser, main
from kerrshift.fock import log_factorial
from kerrshift.serialize import Artifact, to_json_text


def run(args, tmp_path=None, out_name=None):
    argv = list(args)
    out = None
    if out_name is not None:
        out = tmp_path / out_name
        argv += ["--out", str(out)]
    code = main(argv)
    return code, out


def read_json(path):
    return json.loads(path.read_text())


def test_fano_known_value(tmp_path):
    code, out = run(["fano", "10", "0.0218", "(-0.019-0.122j)"], tmp_path, "fano.json")
    assert code == 0
    payload = read_json(out)
    report = fano_displaced(KerrScenario(10.0, 0.0218),
                            DisplacementSetting(beta=-0.019 - 0.122j))
    row = dict(zip(payload["data"]["columns"], payload["data"]["rows"][0]))
    assert row["fano"] == pytest.approx(report.fano, rel=1e-15)
    assert row["mean_photon"] == pytest.approx(report.mean, rel=1e-15)


def test_fano_trivial_cases(capsys):
    assert main(["fano", "7", "0", "0.3+0.1j"]) == 0
    assert "fano            = 1" in capsys.readouterr().out
    assert main(["fano", "10", "0.0218", "0"]) == 0
    assert "fano            = 1" in capsys.readouterr().out


def test_fano_validation_exit_2(capsys):
    assert main(["fano", "bogus", "0.1", "0"]) == 2
    assert "alpha" in capsys.readouterr().err
    assert main(["fano", "2", "-0.5", "0"]) == 2
    assert "kz" in capsys.readouterr().err


def test_optimize_with_kz(tmp_path):
    code, out = run(["optimize", "10", "--kz", "0.0218"], tmp_path, "opt.json")
    assert code == 0
    payload = read_json(out)
    row = dict(zip(payload["data"]["columns"], payload["data"]["rows"][0]))
    direct = optimize_beta(KerrScenario(10.0, 0.0218))
    assert row["fano_min"] == pytest.approx(direct.fano_min, rel=1e-12)
    assert row["beta_abs"] == pytest.approx(direct.beta_magnitude, rel=1e-9)


def test_optimize_zero_kz(capsys):
    assert main(["optimize", "2", "--kz", "0"]) == 0
    out = capsys.readouterr().out
    assert "fano            = 1" in out
    assert "|beta| = 0" in out


def test_optimize_full_length(tmp_path):
    code, out = run(["optimize", "10"], tmp_path, "len.json")
    assert code == 0
    payload = read_json(out)
    row = dict(zip(payload["data"]["columns"], payload["data"]["rows"][0]))
    assert row["kz"] == pytest.approx(0.0218, rel=0.02)
    assert row["fano_min"] == pytest.approx(0.0203, rel=0.02)


def test_nonconvergence_exit_3(monkeypatch, capsys):
    from kerrshift import NonConvergence
    import kerrshift.cli as cli_mod

    def boom(*args, **kwargs):
        raise NonConvergence("forced")

    monkeypatch.setattr(cli_mod, "optimize_beta", boom)
    assert main(["optimize", "10", "--kz", "0.01"]) == 3
    assert "non-convergence" in capsys.readouterr().err


def test_sweep_length_values(tmp_path):
    code, out = run(["sweep-length", "4", "--kz-values", "0"], tmp_path, "sweep.json")
    assert code == 0
    payload = read_json(out)
    assert payload["data"]["rows"][0][payload["data"]["columns"].index("fano_min")] == 1.0


def test_sweep_length_grid(tmp_path):
    code, out = run(["sweep-length", "10", "--kz-min", "0.01", "--kz-max", "0.03",
                     "--kz-points", "4"], tmp_path, "sweep2.json")
    assert code == 0
    assert len(read_json(out)["data"]["rows"]) == 4


def test_wigner_artifact_and_normalization(tmp_path):
    code, out = run(["wigner", "2", "0.05", "--resolution", "161"],
                    tmp_path, "wig.json")
    assert code == 0
    payload = read_json(out)
    assert abs(payload["meta"]["integral"] - 1.0) < 1e-3
    assert payload["meta"]["w_max"] <= 2 / np.pi + 1e-9
    values = payload["data"]["values"]
    assert len(values) == 161 and len(values[0]) == 161
    assert payload["meta"]["n_trunc"] == 44
    assert 0.0 <= payload["meta"]["imag_residue"] < 1e-12


def test_wigner_rejects_an_empty_window(tmp_path, capsys):
    code, _ = run(["wigner", "2", "0.05", "--half-width", "0"], tmp_path, "wig0.json")
    assert code == 2
    assert "half_width" in capsys.readouterr().err


def test_wigner_csv_rows(tmp_path):
    code, out = run(["wigner", "1", "0.0", "--resolution", "21", "--half-width", "4",
                     "--center", "1", "--format", "csv"], tmp_path, "wig.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_at] == "x,y,w"
    assert len(lines) - header_at - 1 == 21 * 21
    # peak of the coherent state sits at the center sample
    xs, ys, ws = np.loadtxt(out.as_posix(), delimiter=",", skiprows=header_at + 1,
                            unpack=True)
    peak = np.argmax(ws)
    assert xs[peak] == pytest.approx(1.0, abs=0.2)
    assert ys[peak] == pytest.approx(0.0, abs=0.2)


def test_photon_dist(tmp_path):
    code, out = run(["photon-dist", "3", "0.05", "0.1-0.05j"], tmp_path, "pd.json")
    assert code == 0
    payload = read_json(out)
    cols = payload["data"]["columns"]
    rows = np.array(payload["data"]["rows"], dtype=float)
    assert cols == ["n", "probability", "poisson_same_mean"]
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(rows[:, 2].sum() - 1.0) < 1e-6


def test_photon_dist_at_alpha_100_past_the_old_seed_underflow(tmp_path):
    # 11 549 levels at |delta| ~ 2.5: the diagonals k >= 450 carry the band
    args = ["photon-dist", "100", "0.0010268", "(-0.00113-0.02482j)"]
    code, out = run(args, tmp_path, "pd100.json")
    assert code == 0
    meta = read_json(out)["meta"]
    report = fano_displaced(KerrScenario(100.0, 0.0010268),
                            DisplacementSetting(beta=-0.00113 - 0.02482j))
    assert meta["fano"] == pytest.approx(report.fano, rel=1e-8)
    assert meta["mean"] == pytest.approx(report.mean, rel=1e-12)


def test_photon_dist_of_the_vacuum_is_a_named_error(capsys):
    # F = Var(n) / <n> is undefined at <n> = 0: exit 2, not a NaN artifact
    assert main(["photon-dist", "0", "0", "0"]) == 2
    assert "zero mean photon number" in capsys.readouterr().err


def test_photon_dist_at_alpha_80(tmp_path):
    code, out = run(["photon-dist", "80", "0.001", "0"], tmp_path, "pd80.json")
    assert code == 0
    rows = np.array(read_json(out)["data"]["rows"], dtype=float)
    assert rows[:, 1].sum() == pytest.approx(1.0, abs=1e-12)


def _displaced_kerr(alpha, kz, beta):
    scenario = KerrScenario(alpha, kz)
    state = kerr_evolve(coherent_state(scenario.alpha), kz)
    return displace(state, shift_amplitude(scenario, DisplacementSetting(beta=beta)))


def _json_and_csv(args, tmp_path, stem):
    code_json, out_json = run(args, tmp_path, f"{stem}.json")
    code_csv, out_csv = run(args + ["--format", "csv"], tmp_path, f"{stem}.csv")
    assert code_json == code_csv == 0
    return read_json(out_json)["meta"], out_json.read_text(), out_csv.read_text()


def test_wigner_artifacts_match_a_per_cell_rendering(tmp_path):
    meta, json_text, csv_text = _json_and_csv(
        ["wigner", "3", "0.05", "--beta", "0.2-0.1j", "--resolution", "21"], tmp_path, "w")
    state = _displaced_kerr(3.0, 0.05, 0.2 - 0.1j)
    center, half_width = auto_window(state)
    grid = wigner(state, center=center, half_width=half_width, resolution=21)
    xs, ys = [float(v) for v in grid.xs], [float(v) for v in grid.ys]
    values = [[float(v) for v in row] for row in grid.values]
    assert json_text == to_json_text(
        {"meta": meta, "data": {"xs": xs, "ys": ys, "values": values}})
    rows = [[x, y, values[i][j]] for i, x in enumerate(xs) for j, y in enumerate(ys)]
    assert csv_text == Artifact(meta, ["x", "y", "w"], rows).to_csv_text()


def test_photon_dist_artifacts_match_a_per_cell_rendering(tmp_path):
    meta, json_text, csv_text = _json_and_csv(
        ["photon-dist", "3", "0.05", "(0.1-0.2j)"], tmp_path, "pd")
    state = _displaced_kerr(3.0, 0.05, 0.1 - 0.2j)
    probs, stats = photon_distribution(state), photon_statistics(state)
    n = np.arange(len(probs))
    pois = np.exp(-stats.mean + n * np.log(stats.mean) - log_factorial(n))
    rows = [[int(i), float(p), float(q)] for i, p, q in zip(n, probs, pois)]
    artifact = Artifact(meta, ["n", "probability", "poisson_same_mean"], rows)
    assert json_text == artifact.to_json_text()
    assert csv_text == artifact.to_csv_text()
    counts = [line.split(",")[0] for line in csv_text.splitlines()
              if line and not line.startswith("#")][1:]
    assert counts == [str(i) for i in range(len(probs))]


def test_design_full(tmp_path):
    code, out = run(["design", "0.1", "1e8", "--preset", "si3n4"],
                    tmp_path, "design.json")
    assert code == 0
    row = dict(zip(read_json(out)["data"]["columns"], read_json(out)["data"]["rows"][0]))
    assert row["z_opt_m"] == pytest.approx(5.6e3, rel=0.01)
    assert row["fano_floor_db"] == pytest.approx(-70.0, abs=0.5)


def test_design_target(tmp_path):
    code, out = run(["design", "0.1", "--target-db", "-5", "--preset", "si3n4"],
                    tmp_path, "target.json")
    assert code == 0
    row = dict(zip(read_json(out)["data"]["columns"], read_json(out)["data"]["rows"][0]))
    assert row["z_m"] == pytest.approx(1.8, rel=0.03)
    assert row["x"] == pytest.approx(0.31, rel=0.03)


def test_design_positional_power_with_target(tmp_path):
    code, out = run(["design", "0.1", "--target-db", "-5", "--preset", "si3n4"],
                    tmp_path, "t2.json")
    assert code == 0
    config = read_json(out)["meta"]["config"]
    assert config["power"] == 0.1
    assert config["target_db"] == -5


def test_design_requires_waveguide(capsys):
    assert main(["design", "0.1", "1e8"]) == 2
    assert "preset" in capsys.readouterr().err


def test_design_rejects_preset_and_inline(capsys):
    assert main(["design", "0.1", "1e8", "--preset", "si3n4", "--n2", "1e-19",
                 "--n0", "2", "--sigma-eff", "1e-13", "--wavelength", "1.55e-6"]) == 2
    assert "preset" in capsys.readouterr().err


def test_design_inline_waveguide(tmp_path):
    code, out = run(["design", "0.1", "1e8", "--n2", "2.5e-19", "--n0", "2.0",
                     "--sigma-eff", "0.3e-12", "--wavelength", "1.55e-6"],
                    tmp_path, "inline.json")
    assert code == 0
    row = dict(zip(read_json(out)["data"]["columns"], read_json(out)["data"]["rows"][0]))
    assert row["z_opt_m"] == pytest.approx(5.6e3, rel=0.01)


def test_reproduce_table2_clean(tmp_path):
    code, out = run(["reproduce", "table2"], tmp_path, "t2.json")
    assert code == 0
    payload = read_json(out)
    assert "failures" not in payload
    assert len(payload["data"]["rows"]) == 9


def test_reproduce_table3_clean(tmp_path):
    code, out = run(["reproduce", "table3", "--format", "csv"], tmp_path, "t3.csv")
    assert code == 0
    text = out.read_text()
    assert text.endswith("\n")
    assert "\r" not in text
    assert text.splitlines()[-4].startswith("target_db") or "target_db" in text


def test_reproduce_table1_flags_known_mean_cell(tmp_path):
    # the published mean photon number at alpha=10 sits 0.51% from the exact
    # optimum, just outside the 0.5% gate; the command reports it and exits 4
    code, out = run(["reproduce", "table1"], tmp_path, "t1.json")
    assert code == 4
    payload = read_json(out)
    failures = payload.get("failures", [])
    assert len(failures) == 1
    assert "alpha=10" in failures[0] and "mean_photon" in failures[0]


def test_artifact_determinism(tmp_path):
    _, first = run(["reproduce", "table2"], tmp_path, "a.json")
    _, second = run(["reproduce", "table2"], tmp_path, "b.json")
    assert first.read_bytes() == second.read_bytes()
    _, w1 = run(["wigner", "1.5", "0.02", "--resolution", "41"], tmp_path, "w1.json")
    _, w2 = run(["wigner", "1.5", "0.02", "--resolution", "41"], tmp_path, "w2.json")
    assert w1.read_bytes() == w2.read_bytes()


def test_embedded_config_reproduces_artifact(tmp_path):
    _, first = run(["fano", "4", "0.01", "0.05+0.02j"], tmp_path, "f1.json")
    config = read_json(first)["meta"]["config"]
    alpha = f"{config['alpha_re']}{config['alpha_im']:+}j"
    beta = f"{config['beta_re']}{config['beta_im']:+}j"
    _, second = run(["fano", alpha, str(config["kz"]), beta, "--tau",
                     str(config["tau"])], tmp_path, "f2.json")
    assert first.read_bytes() == second.read_bytes()


def test_config_file_supplies_inputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 7\nkz = 0.0\nbeta = 0.3+0.1j\n")
    assert main(["fano", "--config", str(cfg)]) == 0


def test_config_parses_each_key_to_its_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 7  # photons\n\nkz = 0.25\ntol_kz = 1e-05\npreset = si3n4\n"
                   "kz = 0.5\nbeta = (0.1-0.2j)\n")
    config = cli._load_config(str(cfg))
    assert config == {"alpha": 7 + 0j, "kz": 0.5, "tol_kz": 1e-5, "preset": "si3n4",
                      "beta": 0.1 - 0.2j}
    assert [type(config[k]) for k in ("alpha", "kz", "preset")] == [complex, float, str]


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    for line in ("warp_factor = 9", "parallel = 2", "tol_fano = 1e-12",
                 "format = csv", "out = run.json"):
        cfg.write_text(line + "\n")
        assert main(["fano", "2", "0.1", "0", "--config", str(cfg)]) == 2


# (flag form, the same inputs as a config file, the flags that have no config
# key): every input in cli.INPUTS comes from the config file alone
CONFIG_CASES = [
    (["fano", "4", "0.01", "0.05+0.02j", "--tau", "0.7"],
     "alpha = 4\nkz = 0.01\nbeta = 0.05+0.02j\ntau = 0.7\n", []),
    (["optimize", "10", "--kz", "0.0218", "--tol-kz", "1e-05"],
     "alpha = 10\nkz = 0.0218\ntol_kz = 1e-05\n", []),
    (["optimize", "(3+4j)", "--tol-kz", "1e-5"], "alpha = 3+4j\ntol_kz = 1e-5\n", []),
    (["wigner", "3", "0.05", "--beta", "0.2-0.1j", "--resolution", "21"],
     "alpha = 3\nkz = 0.05\nbeta = 0.2-0.1j\n", ["--resolution", "21"]),
    (["photon-dist", "3", "0.05", "(0.1-0.2j)"],
     "alpha = 3\nkz = 0.05\nbeta = (0.1-0.2j)\n", []),
    (["design", "0.1", "1e8", "--preset", "si3n4"],
     "power = 0.1\nspectral_width = 1e8\npreset = si3n4\n", []),
    (["design", "0.1", "--target-db", "-5", "--preset", "si3n4"],
     "power = 0.1\ntarget_db = -5\npreset = si3n4\n", []),
    (["design", "0.1", "1e8", "--n2", "2.5e-19", "--n0", "2.0", "--sigma-eff",
      "0.3e-12", "--wavelength", "1.55e-6"],
     "power = 0.1\nspectral_width = 1e8\nn2 = 2.5e-19\nn0 = 2.0\n"
     "sigma_eff = 0.3e-12\nwavelength = 1.55e-6\n", []),
]


def _run_with_config(case, tmp_path, stem):
    flags, text, extra = case
    cfg = tmp_path / f"{stem}.cfg"
    cfg.write_text(text)
    return run([flags[0], "--config", str(cfg)] + extra, tmp_path, f"{stem}.json")


@pytest.mark.parametrize("case", CONFIG_CASES, ids=lambda c: " ".join(c[0][:2]))
def test_config_file_writes_the_flag_form_artifact(case, tmp_path):
    code_flags, from_flags = run(case[0], tmp_path, "flags.json")
    code_config, from_config = _run_with_config(case, tmp_path, "config")
    assert code_flags == code_config == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_every_config_field_is_read(tmp_path, monkeypatch):
    # an INPUTS key that no command reads would be a config key that is
    # accepted and silently ignored
    read = set()

    class Recording(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda path: Recording(load(path)))
    for i, case in enumerate(CONFIG_CASES):
        assert _run_with_config(case, tmp_path, f"c{i}")[0] == 0
    assert set(cli.INPUTS) <= read


def test_every_subcommand_has_help(capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"fano", "optimize", "sweep-length", "wigner",
                                "photon-dist", "design", "reproduce"}
    for name in sub.choices:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"usage: kerrshift {name}" in capsys.readouterr().out


INLINE_WAVEGUIDE = ["--n0", "2.0", "--sigma-eff", "0.3e-12", "--wavelength", "1.55e-6"]


@pytest.mark.parametrize("argv, text, message", [
    (["design", "0.1", "1e8", "--n2", "-1"] + INLINE_WAVEGUIDE, None, "n2 must be positive"),
    (["design", "-0.1", "1e8", "--preset", "si3n4"], None, "power must be positive"),
    (["design", "0.1", "1e8", "--preset", "FILE"], "n2_m2_per_W 2.5e-19\n", "preset line 1"),
    (["sweep-length", "10", "--kz-min", "0.01", "--kz-max", "0.02", "--kz-points", "0"],
     None, "kz-points"),
    (["sweep-length", "10", "--kz-min", "0", "--kz-max", "0.02", "--kz-log"], None, "kz-min"),
    (["sweep-length", "10", "--kz-values", ","], None, "kz-values"),
    (["wigner", "3", "0.05", "--half-width", "x"], None, "half_width"),
    (["fano", "--config", "FILE"], "alpha = 0\nkz = 0.01\nbeta = 0.1\n",
     "mean photon number"),
    (["fano", "2", "0.1", "nan"], None, "beta must be finite"),
    (["fano", "2", "0.1", "(inf+0j)"], None, "beta must be finite"),
    (["photon-dist", "3", "0.05", "nan"], None, "beta must be finite"),
    (["optimize", "10", "--tol-kz", "0"], None, "tol_kz"),
    (["optimize", "10", "--tol-kz", "-1"], None, "tol_kz"),
    (["optimize", "--config", "FILE"], "alpha = 10\ntol_kz = 0\n", "tol_kz"),
    (["design", "nan", "1e7", "--preset", "si3n4"], None, "power must be finite"),
    (["design", "0.01", "inf", "--preset", "si3n4"], None, "spectral_width must be finite"),
    (["design", "0.01", "--preset", "si3n4", "--target-db", "nan"], None,
     "target_db must be finite"),
    (["design", "0.01", "--preset", "si3n4", "--target-db=-inf"], None,
     "target_db must be finite"),
    (["design", "0.01", "1e7", "--n2", "nan"] + INLINE_WAVEGUIDE, None, "n2 must be finite"),
    (["wigner", "3", "0.05", "--center", "nan"], None, "center must be finite"),
    (["wigner", "3", "0.05", "--center", "(1+nanj)"], None, "center must be finite"),
    (["wigner", "3", "0.05", "--half-width", "inf"], None, "half_width must be finite"),
    (["fano", "1e200", "0.001", "0.1"], None, "alpha must have a finite |alpha|^2"),
    (["optimize", "1e200"], None, "alpha must have a finite |alpha|^2"),
    (["sweep-length", "1e200", "--kz-values", "0.01"], None,
     "alpha must have a finite |alpha|^2"),
    (["design", "1e300", "1e7", "--preset", "si3n4"], None, "alpha = inf is not finite"),
    (["design", "0.01", "1e-300", "--preset", "si3n4"], None, "alpha = inf is not finite"),
    (["design", "1e-320", "--target-db", "-5", "--preset", "si3n4"], None,
     "z = inf is not finite"),
    (["design", "0.01", "1e9", "--n2", "1e300"] + INLINE_WAVEGUIDE, None,
     "kerr_coupling = inf is not finite"),
    (["wigner", "3", "0.05", "--resolution", "3", "--half-width", "1e300"], None,
     "resolution 3x3 over x in [-1e+300, 1e+300]"),
    (["wigner", "3", "0.05", "--resolution", "3", "--half-width", "1e200"], None,
     "resolution 3x3 over x in [-1e+200, 1e+200]"),
    (["wigner", "3", "0.05", "--resolution", "3", "--center", "1e300+0j",
      "--half-width", "1"], None, "resolution 3x3 over x in [1e+300, 1e+300], y in [-1, 1]"),
    (["design", "0.1", "1e8", "--preset", "FILE"],
     "n0 = 2.0\nn2_m2_per_W = x\n", "preset line 2: n2_m2_per_W: could not parse 'x'"),
    (["fano", "--config", "FILE"], "alpha = 3\n# shift\nkz = x\n",
     "config line 3: kz: could not parse 'x'"),
    (["design", "1e-300", "1e7", "--preset", "si3n4"], None,
     "alpha = 8.83339e-145 is below 2, where the large-|alpha| laws"),
    (["design", "1e-12", "1e8", "--target-db", "-5", "--preset", "si3n4"], None,
     "alpha = 0.279336 is below 2"),
    (["design", "1e-22", "1e-10", "--n2", "1e-320", "--n0", "2", "--sigma-eff", "1e-12",
      "--wavelength", "1.55e-6"], None, "z_opt = inf is not finite"),
    (["fano", "--config", "FILE"], "alpha = 3\nkz = 0.05\nbeta_re = 0.1\n",
     "config line 3: unknown key 'beta_re'"),
], ids=["n2", "power", "preset-file", "kz-points", "kz-min", "kz-values", "half_width",
        "config-alpha-0", "fano-beta-nan", "fano-beta-inf", "photon-dist-beta-nan",
        "tol-kz-0", "tol-kz-negative", "config-tol-kz-0", "design-power-nan",
        "design-width-inf", "design-target-nan", "design-target-minus-inf",
        "design-n2-nan", "wigner-center-nan", "wigner-center-nanj", "wigner-half-width-inf",
        "fano-alpha-1e200", "optimize-alpha-1e200", "sweep-alpha-1e200",
        "design-alpha-overflow", "design-width-underflow", "design-z-overflow",
        "design-kerr-coupling-overflow", "wigner-half-width-1e300",
        "wigner-half-width-1e200", "wigner-center-1e300", "preset-value", "config-value",
        "design-alpha-below-laws", "design-floor-alpha-below-laws", "design-z-opt-underflow",
        "config-beta-re"])
def test_bad_input_exits_2_naming_it(argv, text, message, tmp_path, capsys):
    # each of these once ended in a traceback (exit 1), wrote nan or inf
    # (exit 0), ran the length search to its iteration cap (exit 3) or
    # exited 2 without naming the field, the line or the key. The error is
    # the one line on stderr: a warning (pytest would capture it) fails too
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


def test_module_entry_smoke():
    result = subprocess.run([sys.executable, "-m", "kerrshift.cli", "fano",
                             "2", "0", "0"], capture_output=True, text=True)
    assert result.returncode == 0
    assert "fano" in result.stdout


def test_version_flag():
    result = subprocess.run([sys.executable, "-m", "kerrshift.cli", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0


def test_cli_loads_no_scipy(tmp_path):
    # kerrshift needs only numpy: neither the import nor the Fock and
    # closed-form paths may load any scipy module
    script = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "from kerrshift.cli import main\n"
        "print(scipy_modules())\n"
        f"main(['photon-dist', '3', '0.05', '0.1-0.05j', '--out', {str(tmp_path / 'pd.json')!r}])\n"
        f"main(['reproduce', 'table1', '--out', {str(tmp_path / 't1.json')!r}])\n"
        "print(scipy_modules())\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "pd.json").is_file()
    assert (tmp_path / "t1.json").is_file()
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
