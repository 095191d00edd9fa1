"""Builders for the benchmark-reproduction artifacts.

Each builder recomputes a published table or figure dataset, attaches the
published values and relative deltas, and collects tolerance misses in
Artifact.failures (the CLI maps a non-empty list to exit code 4, still
writing the artifact for inspection).
"""

from __future__ import annotations

import numpy as np

from . import __version__, reference
from .approx import f1_short, f2_near_opt, f_min_approx, f_piecewise, kz_app, kz_opt_approx
from .optimize import optimize_length, sweep_length
from .reference import round_sig
from .serialize import Artifact
from .waveguide import (
    CROSSOVER_DB,
    BeamSpec,
    alpha_from_power,
    fano_floor_physical,
    gamma,
    length_for_suppression,
    load_preset,
    z_opt_physical,
)

TABLE1_TOL = {"fano_min": 0.02, "kz_opt": 0.02, "beta_abs": 0.05, "mean_photon": 0.005}
TABLE3_Z_TOL = 0.03
TABLE3_X_TOL = 0.03
FIG4_DB_TOL = 1.0
FIG5_EXPONENT_TOL = 0.05

# the inputs of the published tables and figures
PRESET = "si3n4"
FIG3_ALPHAS = (50.0, 100.0)
FIG3_POINTS = 45
FIG4_ALPHA = 50.0
FIG4_POINTS = 50
FIG5_ALPHAS = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0)


def _meta(target: str, config: dict, **results) -> dict:
    """Artifact meta: the inputs that reproduce the run under "config",
    computed values and notes at the top level (the CLI command convention)."""
    return {"command": "reproduce", "target": target, "package": "kerrshift",
            "version": __version__, "config": config, **results}


def build_table1() -> Artifact:
    columns = ["alpha", "fano_min", "fano_ref", "fano_rel_err",
               "kz_opt", "kz_ref", "kz_rel_err",
               "beta_abs", "beta_ref", "beta_rel_err",
               "mean_photon", "mean_ref", "mean_rel_err", "suppression_db"]
    rows, failures = [], []
    for alpha, ref in reference.TABLE1.items():
        opt = optimize_length(float(alpha))
        computed = {"fano_min": opt.fano_min, "kz_opt": opt.kz,
                    "beta_abs": opt.beta_magnitude, "mean_photon": opt.mean_photon}
        published = {"fano_min": ref.fano_min, "kz_opt": ref.kz_opt,
                     "beta_abs": ref.beta_abs, "mean_photon": ref.mean_photon}
        errs = {k: computed[k] / published[k] - 1.0 for k in computed}
        for key, tol in TABLE1_TOL.items():
            if abs(errs[key]) > tol:
                failures.append(f"alpha={alpha}: {key} off by {100 * errs[key]:+.3f}% "
                                f"(tolerance {100 * tol:g}%)")
        rows.append([alpha,
                     computed["fano_min"], published["fano_min"], errs["fano_min"],
                     computed["kz_opt"], published["kz_opt"], errs["kz_opt"],
                     computed["beta_abs"], published["beta_abs"], errs["beta_abs"],
                     computed["mean_photon"], published["mean_photon"], errs["mean_photon"],
                     opt.suppression_db])
    meta = _meta("table1", {"alphas": sorted(reference.TABLE1),
                            "tolerances": dict(TABLE1_TOL)})
    return Artifact(meta, columns, rows, failures)


def build_table2() -> Artifact:
    wg = load_preset(PRESET)
    columns = ["spectral_width_hz", "power_w",
               "alpha", "alpha_ref", "alpha_match",
               "fano_db", "fano_db_ref", "fano_db_match",
               "z_opt_m", "z_opt_ref_m", "z_opt_match"]
    rows, failures = [], []
    for (df, power), cell in reference.TABLE2.items():
        beam = BeamSpec(power=power, spectral_width=df)
        alpha = alpha_from_power(beam, wg)
        fano_db = fano_floor_physical(wg, beam)
        z_opt = z_opt_physical(wg, beam)
        checks = {"alpha": (alpha, cell.alpha), "fano_db": (fano_db, cell.fano_db),
                  "z_opt": (z_opt, cell.z_opt_m)}
        matches = {}
        for key, (got, ref) in checks.items():
            matches[key] = round_sig(got, 2) == round_sig(ref, 2)
            if not matches[key]:
                failures.append(f"df={df:g} P={power:g}: {key} = {got:.4g} vs "
                                f"published {ref:.4g} (2 significant figures)")
        rows.append([df, power, alpha, cell.alpha, matches["alpha"],
                     fano_db, cell.fano_db, matches["fano_db"],
                     z_opt, cell.z_opt_m, matches["z_opt"]])
    meta = _meta("table2", {"preset": PRESET, "comparison": "2 significant figures"})
    return Artifact(meta, columns, rows, failures)


def build_table3() -> Artifact:
    wg = load_preset(PRESET)
    columns = ["target_db", "x_ref", "x_inverted", "x_rel_err", "x_asserted",
               "z_10mw_m", "z_10mw_ref_m", "z_10mw_rel_err",
               "z_100mw_m", "z_100mw_ref_m", "z_100mw_rel_err",
               "z_from_x_ref_10mw_m", "z_from_x_ref_100mw_m"]
    rows, failures = [], []
    for target_db, ref in reference.TABLE3.items():
        z10, x = length_for_suppression(target_db, 1e-2, wg)
        z100, _ = length_for_suppression(target_db, 1e-1, wg)
        x_err = x / ref.x - 1.0
        # the -15 dB published x is inconsistent with its own z values; it is
        # reported here but not held to the tolerance
        x_asserted = target_db > CROSSOVER_DB
        if x_asserted and abs(x_err) > TABLE3_X_TOL:
            failures.append(f"{target_db} dB: inverted x = {x:.4f} vs published "
                            f"{ref.x} ({100 * x_err:+.2f}%)")
        z10_err = z10 / ref.z_10mw_m - 1.0
        z100_err = z100 / ref.z_100mw_m - 1.0
        for label, err in (("10 mW", z10_err), ("100 mW", z100_err)):
            if abs(err) > TABLE3_Z_TOL:
                failures.append(f"{target_db} dB @ {label}: z off by {100 * err:+.2f}%")
        g = gamma(wg)
        rows.append([target_db, ref.x, x, x_err, x_asserted,
                     z10, ref.z_10mw_m, z10_err,
                     z100, ref.z_100mw_m, z100_err,
                     2.0 * ref.x / (g * 1e-2), 2.0 * ref.x / (g * 1e-1)])
    meta = _meta("table3", {"preset": PRESET,
                            "tolerances": {"z": TABLE3_Z_TOL, "x": TABLE3_X_TOL}},
                 note="published x at -15 dB disagrees with its own z values; "
                      "reported, not asserted")
    return Artifact(meta, columns, rows, failures)


def build_fig3() -> Artifact:
    columns = ["alpha", "kz", "fano", "suppression_db",
               "beta_re", "beta_im", "beta_abs", "mean_photon", "is_optimum"]
    rows, failures = [], []
    for alpha in FIG3_ALPHAS:
        scale = kz_opt_approx(alpha)
        grid = np.linspace(0.1 * scale, 2.2 * scale, FIG3_POINTS)
        for opt in sweep_length(alpha, grid):
            rows.append([alpha, opt.kz, opt.fano_min, opt.suppression_db,
                         opt.beta_opt.real, opt.beta_opt.imag,
                         opt.beta_magnitude, opt.mean_photon, False])
        best = optimize_length(alpha)
        rows.append([alpha, best.kz, best.fano_min, best.suppression_db,
                     best.beta_opt.real, best.beta_opt.imag,
                     best.beta_magnitude, best.mean_photon, True])
        ref = reference.TABLE1.get(int(alpha))
        if ref is not None and abs(best.fano_min / ref.fano_min - 1.0) > TABLE1_TOL["fano_min"]:
            failures.append(f"alpha={alpha:g}: curve minimum {best.fano_min:.4g} "
                            f"vs published {ref.fano_min}")
    meta = _meta("fig3", {"alphas": list(FIG3_ALPHAS), "points": FIG3_POINTS})
    return Artifact(meta, columns, rows, failures)


def build_fig4() -> Artifact:
    alpha = FIG4_ALPHA
    kz_opt = optimize_length(alpha).kz
    grid = np.linspace(0.05 * kz_opt, 2.0 * kz_opt, FIG4_POINTS)
    columns = ["kz", "fano_numeric", "db_numeric", "f1", "f2",
               "f_piecewise", "regime", "db_piecewise", "db_delta"]
    rows, failures = [], []
    a2 = alpha * alpha
    worst = 0.0
    for kz, opt in zip(grid, sweep_length(alpha, grid)):
        piece, regime = f_piecewise(alpha, kz)
        db_num = opt.suppression_db
        db_piece = 10.0 * np.log10(piece)
        delta = db_piece - db_num
        worst = max(worst, abs(delta))
        rows.append([kz, opt.fano_min, db_num,
                     f1_short(a2, kz), f2_near_opt(a2, kz) if kz > 0 else float("inf"),
                     piece, regime, db_piece, delta])
    if worst >= FIG4_DB_TOL:
        failures.append(f"max |approximation - numeric| = {worst:.3f} dB "
                        f"(tolerance {FIG4_DB_TOL} dB)")
    meta = _meta("fig4", {"alpha": alpha, "points": FIG4_POINTS,
                          "tolerances": {"db": FIG4_DB_TOL}},
                 kz_opt=kz_opt, kz_app=kz_app(a2), max_db_delta=worst)
    return Artifact(meta, columns, rows, failures)


def build_fig5() -> Artifact:
    alphas = FIG5_ALPHAS
    columns = ["alpha", "kz_opt", "kz_opt_approx", "f_min", "f_min_approx",
               "suppression_db", "kz_to_fano_ratio"]
    rows, failures = [], []
    optima = [optimize_length(a) for a in alphas]
    for alpha, opt in zip(alphas, optima):
        rows.append([alpha, opt.kz, kz_opt_approx(alpha),
                     opt.fano_min, f_min_approx(alpha),
                     opt.suppression_db, opt.kz / opt.fano_min])
    log_a = np.log(alphas)
    exp_f = float(np.polyfit(log_a, np.log([o.fano_min for o in optima]), 1)[0])
    exp_kz = float(np.polyfit(log_a, np.log([o.kz for o in optima]), 1)[0])
    for name, got in (("f_min", exp_f), ("kz_opt", exp_kz)):
        if abs(got - reference.SCALING_EXPONENT) > FIG5_EXPONENT_TOL:
            failures.append(f"{name} scaling exponent {got:.4f} vs -4/3 "
                            f"(tolerance {FIG5_EXPONENT_TOL})")
    meta = _meta("fig5", {"alphas": list(alphas),
                          "tolerances": {"exponent": FIG5_EXPONENT_TOL}},
                 fitted_exponent_f_min=exp_f, fitted_exponent_kz_opt=exp_kz,
                 reference_exponent=reference.SCALING_EXPONENT,
                 kz_to_fano_ratio_analytic=2.0 / np.sqrt(3.0),
                 note="analytic ratio of the two scaling constants is 2/sqrt(3); "
                      "the claimed sqrt(3)/2 relation between them is inconsistent "
                      "with the constants themselves")
    return Artifact(meta, columns, rows, failures)


BUILDERS = {"table1": build_table1, "table2": build_table2,
            "table3": build_table3, "fig3": build_fig3,
            "fig4": build_fig4, "fig5": build_fig5}
TARGETS = tuple(BUILDERS)


def build(target: str) -> Artifact:
    if target not in BUILDERS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    return BUILDERS[target]()
