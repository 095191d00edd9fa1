"""CLI surface: artifacts, exit codes, determinism, config round trips."""

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import checkout_env, length_optimum
import kerrshift.cli as cli
from kerrshift.cli import build_parser, main
from kerrshift.fock import (
    KerrScenario,
    coherent_state,
    displace,
    kerr_evolve,
    photon_distribution,
    photon_statistics,
    poisson_probabilities,
)
from kerrshift.moments import DisplacementSetting, fano_displaced, shift_amplitude
from kerrshift.optimize import optimize_beta
from kerrshift.serialize import Artifact, to_json_text
from kerrshift.wigner import W_FLOOR, auto_window, wigner


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


def test_largest_finite_kerr_phase_still_answers(capsys):
    # 4 |alpha|^2 kz = 3.6e307 is below MAX_KERR_PHASE, and every phase of
    # the closed forms stays finite there
    assert main(["fano", "3", "1e306", "0.1"]) == 0
    assert "fano            = 1.32487" in capsys.readouterr().out


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


@pytest.mark.parametrize("alpha", ["1e7", "1e10", "1e20", "1e50", "1e100", "1e150"])
def test_optimize_length_at_huge_amplitudes(alpha, tmp_path, capsys):
    # F_min, about 0.413 |alpha|^(-4/3), sinks below what doubles resolve
    # from |alpha| of about 1e12 on. The length optimum then ends with a
    # positive F or a named refusal: never in a traceback, a warning or an
    # F at or below 0 (1e20 and 1e50 once printed F = -2.2e-16, "nan dB")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(["optimize", alpha], tmp_path, "opt.json")
    err = capsys.readouterr().err
    if code == 0:
        payload = read_json(out)
        row = dict(zip(payload["data"]["columns"], payload["data"]["rows"][0]))
        assert row["fano_min"] > 0.0
        assert err == ""
    else:
        assert code in (2, 3)
        assert err.startswith("error: ") and err.count("\n") == 1


def test_nonconvergence_exit_3(monkeypatch, capsys):
    from kerrshift.errors import NonConvergence
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


def test_wigner_says_when_the_map_is_not_resolved(tmp_path, capsys):
    # the grid step 2 half_width / (resolution - 1) against the radial width
    # sqrt(Var n) / (2 sqrt<n>): 0.108 against 1/2 for an undisplaced Kerr
    # state, 0.158 against 0.071 for the amplitude-squeezed alpha = 10 optimum
    opt = length_optimum(10.0)
    cases = ((["5", "0.08"], True),
             (["10", repr(opt.kz), "--beta", repr(opt.beta_opt)], False))
    for args, resolved in cases:
        code, out = run(["wigner", *args], tmp_path, "wig.json")
        assert code == 0
        meta = read_json(out)["meta"]
        assert meta["resolved"] is resolved
        assert meta["grid_step"] == 2.0 * meta["config"]["half_width"] / 200
        assert (meta["grid_step"] <= meta["narrowest_width"]) is resolved
        err = capsys.readouterr().err
        assert ("warning: grid step" in err) is not resolved


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


@pytest.mark.parametrize("alpha", [3.0, 10.0, 60.0])
def test_photon_dist_poisson_column_matches_50_digit_values(tmp_path, alpha):
    # poisson_same_mean = e^{-mean} mean^n / n! at the artifact's mean, to
    # 1e-14 on every cell above 1e-30, at the length optimum
    opt = length_optimum(alpha)
    args = [str(alpha), str(float(opt.kz)), str(complex(opt.beta_opt))]
    code, out = run(["photon-dist", *args], tmp_path, "pd.json")
    assert code == 0
    payload = read_json(out)
    pois = np.array(payload["data"]["rows"], dtype=float)[:, 2]
    with mpmath.workdps(50):
        mean = mpmath.mpf(payload["meta"]["mean"])
        exact = np.array([float(mpmath.exp(-mean + k * mpmath.log(mean)
                                           - mpmath.loggamma(k + 1)))
                          for k in range(len(pois))])
    cells = exact > 1e-30
    assert np.max(np.abs(pois[cells] / exact[cells] - 1.0)) <= 1e-14


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
    # the artifact writes the cells below its floor as 0
    w_floor = meta["w_floor"]
    assert w_floor == W_FLOOR
    assert meta["w_max"] == float(grid.values.max())
    values = [[0.0 if abs(v) < w_floor else float(v) for v in row] for row in grid.values]
    assert json_text == to_json_text(
        {"meta": meta, "data": {"xs": xs, "ys": ys, "values": values}})
    rows = [[x, y, values[i][j]] for i, x in enumerate(xs) for j, y in enumerate(ys)]
    assert csv_text == Artifact(meta, ["x", "y", "w"], rows).render("csv")
    # every cell written 0 is below the floor; every other one is the
    # unfloored '%.17g'
    cells = [line.rsplit(",", 1)[1] for line in csv_text.splitlines()
             if not line.startswith("#")][1:]
    unfloored = grid.values.ravel().tolist()
    zeros = [w for text, w in zip(cells, unfloored) if text == "0"]
    assert 0 < len(zeros) < len(cells) and all(abs(w) < w_floor for w in zeros)
    assert all(text == "%.17g" % w for text, w in zip(cells, unfloored) if text != "0")


def test_wigner_csv_and_json_carry_the_same_values(tmp_path):
    _, json_text, csv_text = _json_and_csv(
        ["wigner", "2", "0.1", "--beta", "0.3+0.1j", "--resolution", "7"], tmp_path, "wx")
    data = json.loads(json_text)["data"]
    lines = [line for line in csv_text.splitlines() if not line.startswith("#")]
    assert lines[0] == "x,y,w"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert rows == [[x, y, data["values"][i][j]] for i, x in enumerate(data["xs"])
                    for j, y in enumerate(data["ys"])]


def test_photon_dist_artifacts_match_a_per_cell_rendering(tmp_path):
    meta, json_text, csv_text = _json_and_csv(
        ["photon-dist", "3", "0.05", "(0.1-0.2j)"], tmp_path, "pd")
    state = _displaced_kerr(3.0, 0.05, 0.1 - 0.2j)
    probs, stats = photon_distribution(state), photon_statistics(state)
    n = np.arange(len(probs))
    pois = poisson_probabilities(stats.mean, len(probs))
    rows = [[int(i), float(p), float(q)] for i, p, q in zip(n, probs, pois)]
    artifact = Artifact(meta, ["n", "probability", "poisson_same_mean"], rows)
    assert json_text == artifact.render("json")
    assert csv_text == artifact.render("csv")
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
                 "--sigma-eff", "1e-13", "--wavelength", "1.55e-6"]) == 2
    assert "preset" in capsys.readouterr().err


def test_design_inline_waveguide(tmp_path):
    code, out = run(["design", "0.1", "1e8", "--n2", "2.5e-19",
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
    cfg.write_text("alpha = 7  # photons\n\nkz = 0.25\ntau = 1e-05\npreset = si3n4\n"
                   "kz = 0.5\nbeta = (0.1-0.2j)\n")
    config = cli._load_config(str(cfg))
    assert config == {"alpha": 7 + 0j, "kz": 0.5, "tau": 1e-5, "preset": "si3n4",
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
    (["optimize", "10", "--kz", "0.0218"], "alpha = 10\nkz = 0.0218\n", []),
    (["optimize", "(3+4j)"], "alpha = 3+4j\n", []),
    (["wigner", "3", "0.05", "--beta", "0.2-0.1j", "--resolution", "21"],
     "alpha = 3\nkz = 0.05\nbeta = 0.2-0.1j\n", ["--resolution", "21"]),
    (["photon-dist", "3", "0.05", "(0.1-0.2j)"],
     "alpha = 3\nkz = 0.05\nbeta = (0.1-0.2j)\n", []),
    (["design", "0.1", "1e8", "--preset", "si3n4"],
     "power = 0.1\nspectral_width = 1e8\npreset = si3n4\n", []),
    (["design", "0.1", "--target-db", "-5", "--preset", "si3n4"],
     "power = 0.1\ntarget_db = -5\npreset = si3n4\n", []),
    (["design", "0.1", "1e8", "--n2", "2.5e-19", "--sigma-eff", "0.3e-12",
      "--wavelength", "1.55e-6"],
     "power = 0.1\nspectral_width = 1e8\nn2 = 2.5e-19\n"
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


PARITY_ARGV = [[], ["-h"], ["--version"], ["bogus"], ["-"],
               ["fano", "1", "0.1", "0", "--bogus"], ["fano", "--format", "xml"],
               ["reproduce", "fig9"], ["wigner", "--resolution", "x"],
               ["optimize", "3", "--kz"], ["fano", "--", "1"]] + [
    [name, "--help"] for name in cli.COMMANDS]


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr, parsed inputs) of parse(argv)."""
    try:
        parsed, code = vars(parse(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, parsed


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
def test_parser_for_argv_reads_as_the_full_parser(argv, columns, monkeypatch, capsys):
    # main's parse path gives the full parser's usage, help, choice list and
    # errors, at any terminal width
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert (_parse_outcome(cli.parse_args, argv, capsys)
            == _parse_outcome(build_parser().parse_args, argv, capsys))


FULL_PARSER = build_parser()
EDGE_TOKENS = ["-1", "-0.5", "--", "-h", "--form", "--out=x", "nan", "", "fig9"]
VALUES = ["1", "0.25", "(1,-2)", "1e-3", "7", "nan", "", "x", "csv", "json", "auto",
          "table3"]


@st.composite
def command_lines(draw):
    """A command, some of its positionals (at most one too many), some of its
    flags and the COMMON ones (repeats allowed, a store_true flag sometimes
    given a value, an edge token sometimes given as a value), and edge tokens
    or values put in anywhere."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[name]
    flags = {**options, **cli.COMMON}
    argv = draw(st.lists(st.sampled_from(VALUES), max_size=len(positionals) + 1))
    for dest in draw(st.lists(st.sampled_from(list(flags)), max_size=4)):
        argv.append("--" + dest.replace("_", "-"))
        if flags[dest].get("action") != "store_true" or draw(st.booleans()):
            argv.append(draw(st.sampled_from(VALUES + EDGE_TOKENS)))
    for token in draw(st.lists(st.sampled_from(EDGE_TOKENS + VALUES), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return [name] + argv


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


@settings(max_examples=400, deadline=None)
@example(["reproduce"])
@example(["reproduce", "--format", "csv"])
@example(["sweep-length", "4", "--kz-min", "nan", "--kz-max", "nan"])
@given(command_lines())
def test_plain_parse_reads_as_argparse(argv):
    # whenever the table parse accepts an argv, argparse accepts it too and
    # parses the same values (nan read as nan)
    plain = cli._parse_plain(argv)
    if plain is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = vars(FULL_PARSER.parse_args(argv))
        except SystemExit as exc:
            raise AssertionError(f"argparse refuses {argv}, exit {exc.code}") from None
    plain = vars(plain)
    assert plain.keys() == full.keys()
    assert all(_same(plain[k], full[k]) for k in full), (plain, full)


INLINE_WAVEGUIDE = ["--sigma-eff", "0.3e-12", "--wavelength", "1.55e-6"]


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
     "lambda_m = 1.55e-6\nn2_m2_per_W = x\n",
     "preset line 2: n2_m2_per_W: could not parse 'x'"),
    (["fano", "--config", "FILE"], "alpha = 3\n# shift\nkz = x\n",
     "config line 3: kz: could not parse 'x'"),
    (["design", "1e-300", "1e7", "--preset", "si3n4"], None,
     "alpha = 8.83339e-145 is below 2, where the large-|alpha| laws"),
    (["design", "1e-12", "1e8", "--target-db", "-5", "--preset", "si3n4"], None,
     "alpha = 0.279336 is below 2"),
    (["design", "1e-22", "1e-10", "--n2", "1e-320", "--sigma-eff", "1e-12",
      "--wavelength", "1.55e-6"], None, "z_opt = inf is not finite"),
    (["fano", "--config", "FILE"], "alpha = 3\nkz = 0.05\nbeta_re = 0.1\n",
     "config line 3: unknown key 'beta_re'"),
    (["design", "1e-30", "--target-db", "-5", "--n2", "1e-320",
      "--sigma-eff", "1e-12", "--wavelength", "1.55e-6"], None, "z = inf is not finite"),
    (["design", "1e6", "1e24", "--n2", "2.5e-19", "--sigma-eff", "1e-320",
      "--wavelength", "1.55e-6"], None, "kerr_coupling = inf is not finite"),
    (["wigner", "3", "0.05", "--resolution", "1000000000000"], None,
     "resolution 1000000000000x1000000000000: its grid needs 1.6e+25 B, above the "
     "limit MAX_WIGNER_BYTES = 268435456 B"),
    (["sweep-length", "10", "--kz-min", "0.01", "--kz-max", "0.03", "--kz-points",
      "1000000000000"], None, "kz-points: 1000000000000 is above the limit "
     "MAX_KZ_POINTS = 100000"),
    (["sweep-length", "10", "--kz-min", "0.01", "--kz-max", "0.03", "--kz-points",
      "1000000000000", "--kz-log"], None, "kz-points: 1000000000000 is above the limit "
     "MAX_KZ_POINTS = 100000"),
    (["fano", "3", "0.05", "1e300"], None,
     "mean photon number = inf is not finite at beta = (1e+300+0j)"),
    (["fano", "3", "0.05", "1e154"], None,
     "mean photon number = inf is not finite at beta = (1e+154+0j)"),
    (["fano", "1e10", "0.3", "(1e-5+1e140j)"], None,
     "variance = inf is not finite at beta = (1e-05+1e+140j)"),
    (["optimize", "1e20", "--kz", "1e-40"], None,
     "denominator s + |beta + g1|^2 = 3.999999999999999e-40 of F is at or below its "
     "floor DENOM_FLOOR = 1e-15"),
    (["fano", "1", "1e308", "0.1"], None,
     "kz = 1e+308: the Kerr phase 4 kz = inf is above MAX_KERR_PHASE"),
    (["optimize", "3", "--kz", "1e308"], None,
     "kz = 1e+308: the Kerr phase 4 kz = inf is above MAX_KERR_PHASE"),
    (["optimize", "1", "--kz", "1e308"], None,
     "kz = 1e+308: the Kerr phase 4 kz = inf is above MAX_KERR_PHASE"),
    (["photon-dist", "3", "1e306", "0.1"], None,
     "kz = 1e+306: the Kerr phase kz n^2 = inf at n = n_trunc = 59 is above "
     "MAX_FOCK_KERR_PHASE = 2^33"),
    (["wigner", "3", "1e308", "--resolution", "5"], None,
     "kz = 1e+308: the Kerr phase 4 kz = inf is above MAX_KERR_PHASE"),
    (["fano", "1e10", "1e290", "0.1"], None,
     "kz = 1e+290: the Kerr phase 4 |alpha|^2 kz = inf is above MAX_KERR_PHASE"),
    (["photon-dist", "1", "0", "250"], None,
     "displacement by |delta| = 250 needs 65532 levels, above the limit "
     "MAX_FOCK_DIM = 60000"),
    (["optimize", "1e20"], None, "is not positive at beta = "),
    (["optimize", "1e50"], None, "gives no finite dF_min/dkz; doubles do not resolve"),
    (["photon-dist", "1", "0.01", "1e160"], None,
     "displacement by |delta| = 1e+160 needs inf levels, above the limit MAX_FOCK_DIM"),
    (["wigner", "1", "0.01", "--beta", "1e200", "--resolution", "11"], None,
     "displacement by |delta| = 1e+200 needs inf levels, above the limit MAX_FOCK_DIM"),
    (["photon-dist", "1", "0.01", "1e154"], None,
     "displacement by |delta| = 1e+154 needs 1e+308 levels, above the limit MAX_FOCK_DIM"),
    (["optimize", "1.6e231"], None,
     "alpha must have a finite |alpha|^2, got |alpha| = 1.6e+231"),
    (["wigner", "1e154", "1e-308", "--resolution", "11"], None,
     "|alpha| = 1e+154 exceeds the Fock engine cap"),
    (["photon-dist", "200", "0.001", "1e308"], None,
     "shift size |beta| tau |alpha| = inf is above MAX_SHIFT = 8.98847e+307"),
    (["wigner", "200", "0.001", "--beta", "1e308", "--resolution", "11"], None,
     "shift size |beta| tau |alpha| = inf is above MAX_SHIFT"),
    (["photon-dist", "(1.83697019872103e-15,30.0)", "0.00023344087187089074",
      "(1.5163903251693752e+308,-9.655366325851218e+307)"], None,
     "shift size |beta| tau |alpha| = inf is above MAX_SHIFT"),
    (["design", "4.97", "--preset", "si3n4", "--target-db", "-3300"], None,
     "target_db = -3300.0: F = 10^(target_db/10) = 0 is below the smallest normal double"),
    (["design", "4.97", "--preset", "si3n4", "--target-db", "-3080"], None,
     "F = 10^(target_db/10) = 1e-308 is below the smallest normal double"),
], ids=["n2", "power", "preset-file", "kz-points", "kz-min", "kz-values", "half_width",
        "config-alpha-0", "fano-beta-nan", "fano-beta-inf", "photon-dist-beta-nan",
        "design-power-nan",
        "design-width-inf", "design-target-nan", "design-target-minus-inf",
        "design-n2-nan", "wigner-center-nan", "wigner-center-nanj", "wigner-half-width-inf",
        "fano-alpha-1e200", "optimize-alpha-1e200", "sweep-alpha-1e200",
        "design-alpha-overflow", "design-width-underflow", "design-z-overflow",
        "design-kerr-coupling-overflow", "wigner-half-width-1e300",
        "wigner-half-width-1e200", "wigner-center-1e300", "preset-value", "config-value",
        "design-alpha-below-laws", "design-floor-alpha-below-laws", "design-z-opt-underflow",
        "config-beta-re", "design-gamma-power-underflow", "design-tau-sigma-underflow",
        "wigner-resolution-1e12", "sweep-kz-points-1e12", "sweep-log-kz-points-1e12",
        "fano-beta-1e300", "fano-mean-overflow", "fano-variance-overflow",
        "optimize-denominator-floor", "fano-kz-1e308", "optimize-kz-1e308",
        "optimize-alpha-1-kz-1e308", "photon-dist-kz-n-squared", "wigner-kz-1e308",
        "fano-alpha-sq-kz", "photon-dist-fock-dim", "optimize-alpha-1e20",
        "optimize-alpha-1e50", "photon-dist-shift-1e160",
        "wigner-shift-1e200", "photon-dist-levels-g", "optimize-alpha-1.6e231",
        "wigner-phase-overflow", "photon-dist-shift-1e308", "wigner-shift-1e308",
        "photon-dist-shift-complex-1e308", "design-target-underflow",
        "design-target-subnormal"])
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


@pytest.mark.parametrize("argv, text, message", [
    (["optimize", "10", "--tol-kz", "1e-5"], None, "unrecognized arguments: --tol-kz 1e-5"),
    (["optimize", "--config", "FILE"], "alpha = 10\ntol_kz = 1e-5\n",
     "config line 2: unknown key 'tol_kz'"),
    (["design", "0.1", "1e8", "--n2", "2.5e-19", "--n0", "2"] + INLINE_WAVEGUIDE, None,
     "unrecognized arguments: --n0 2"),
    (["design", "0.1", "1e8", "--preset", "FILE"],
     "n2_m2_per_W = 2.5e-19\nn0 = 2.0\nsigma_eff_m2 = 0.3e-12\nlambda_m = 1.55e-6\n",
     "preset line 2: unknown key 'n0'"),
], ids=["tol-kz-flag", "tol-kz-config", "n0-flag", "n0-preset"])
def test_removed_inputs_are_refused_by_name(argv, text, message, tmp_path, capsys):
    # the length search's tolerance and the refractive index moved no
    # computed number and are no longer inputs: naming one is an error
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["(2.2250738585e-313,0.0)", "0.0", "(1e+300,0.0)"],
    ["(0.0,5e-324)", "1.087", "(0.0,1.7976931348623157e+308)"],
])
def test_fano_matches_photon_dist_past_the_double_range(argv, tmp_path):
    # |alpha|^2 underflows and |beta|^2 overflows, while the shift |beta|
    # |alpha| the Fock engine takes is in range: the closed form scales beta
    # by a power of two rather than refusing a nan mean
    results = []
    for command in ("fano", "photon-dist"):
        code, out = run([command, *argv], tmp_path, f"{command}.json")
        assert code == 0
        results.append(read_json(out))
    fano, dist = results
    (row,) = fano["data"]["rows"]
    stats = dict(zip(fano["data"]["columns"], row))
    assert math.isclose(stats["fano"], dist["meta"]["fano"], rel_tol=1e-8)
    assert math.isclose(stats["mean_photon"], dist["meta"]["mean"], rel_tol=1e-8)


def test_module_entry_smoke():
    result = subprocess.run([sys.executable, "-m", "kerrshift.cli", "fano",
                             "2", "0", "0"], capture_output=True, text=True,
                            env=checkout_env())
    assert result.returncode == 0
    assert "fano" in result.stdout


def test_version_flag():
    result = subprocess.run([sys.executable, "-m", "kerrshift.cli", "--version"],
                            capture_output=True, text=True, env=checkout_env())
    assert result.returncode == 0


def test_plain_command_lines_load_no_argparse(tmp_path):
    # a plain argv is read from the COMMANDS table, so argparse, and the
    # gettext and locale modules it loads, stay out of the process
    script = (
        "import sys\n"
        "from kerrshift.cli import main\n"
        "for argv in (['fano', '10', '0.0218', '0.1'], ['optimize', '10', '--kz', '0.0218'],\n"
        "             ['photon-dist', '3', '0.05', '0.1'], ['reproduce', 'table3']):\n"
        f"    assert main(argv + ['--out', {str(tmp_path / 'a.json')!r}]) == 0, argv\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=checkout_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_argv_argparse_refuses_still_exits_2():
    result = subprocess.run([sys.executable, "-m", "kerrshift.cli", "fano", "1", "0.1",
                             "0", "--bogus"], capture_output=True, text=True,
                            env=checkout_env())
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        "kerrshift: error: unrecognized arguments: --bogus")


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
                            text=True, env=checkout_env())
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "pd.json").is_file()
    assert (tmp_path / "t1.json").is_file()
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
