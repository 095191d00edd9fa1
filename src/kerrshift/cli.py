"""Command-line surface: every computation, plus the reproduction recipes.

Exit codes are a stable contract: 0 success, 2 validation failure, 3 search
non-convergence, 4 reproduction tolerance miss (artifact still written).
Artifacts are deterministic for fixed inputs: no timestamps, fixed key order,
17 significant digits.
"""

from __future__ import annotations

import argparse
import locale  # argparse's gettext loads it at the first parser build; load it at start-up
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import KerrshiftError, NonConvergence
from .fock import (
    KerrScenario,
    coherent_state,
    displace,
    kerr_evolve,
    log_factorial,
    photon_distribution,
    photon_statistics,
)
from .moments import DisplacementSetting, fano_displaced, shift_amplitude
from .optimize import optimize_beta, optimize_length, sweep_length
from .reproduce import TARGETS, build
from .serialize import Artifact, RunConfig, parse_config, to_json_text
from .waveguide import (
    BeamSpec,
    WaveguideSpec,
    alpha_from_power,
    fano_floor_physical,
    gamma,
    kerr_coupling,
    length_for_suppression,
    load_preset,
    z_opt_physical,
)
from .wigner import auto_window, wigner


class CliError(Exception):
    """Validation failure; message names the offending field."""


def _parse_complex(field: str, text: str) -> complex:
    # accepts 1+2j, (1+2j), and re,im forms; wrap negative values in
    # parentheses so the shell parser does not read them as options
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    try:
        if "," in inner:
            re_part, im_part = inner.split(",", 1)
            return complex(float(re_part), float(im_part))
        return complex(inner.replace(" ", ""))
    except ValueError as exc:
        raise CliError(f"{field}: could not parse {text!r} as a complex number") from exc


def _require(field: str, value):
    if value is None:
        raise CliError(f"{field}: required (flag or config file)")
    return value


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return parse_config(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CliError(f"config: {exc}") from exc


def _pick(flag_value, config_value):
    return flag_value if flag_value is not None else config_value


def _waveguide_from(args, config: RunConfig) -> WaveguideSpec:
    preset = _pick(args.preset, config.preset)
    inline = [_pick(args.n2, config.n2), _pick(args.n0, config.n0),
              _pick(args.sigma_eff, config.sigma_eff),
              _pick(args.wavelength, config.wavelength)]
    have_inline = all(v is not None for v in inline)
    any_inline = any(v is not None for v in inline)
    if preset is not None and any_inline:
        raise CliError("preset: give either --preset or the inline waveguide "
                       "fields, not both")
    if preset is not None:
        try:
            return load_preset(preset)
        except FileNotFoundError as exc:
            raise CliError(f"preset: {exc}") from exc
    if have_inline:
        return WaveguideSpec(n2=inline[0], n0=inline[1], sigma_eff=inline[2],
                             wavelength=inline[3])
    raise CliError("preset: a physical command needs --preset or all of "
                   "--n2/--n0/--sigma-eff/--wavelength")


def _emit(artifact: Artifact, fmt: str, out: str | None,
          human_lines: list[str]) -> None:
    for line in human_lines:
        print(line)
    if out is not None:
        Path(out).write_text(artifact.render(fmt))
        print(f"wrote {out}")


def _scenario_meta(scenario: KerrScenario, setting: DisplacementSetting | None = None) -> dict:
    meta = {"alpha_re": scenario.alpha.real, "alpha_im": scenario.alpha.imag,
            "kz": scenario.kz}
    if setting is not None:
        meta.update({"beta_re": setting.beta.real, "beta_im": setting.beta.imag,
                     "tau": setting.tau})
    return meta


def cmd_fano(args, config: RunConfig) -> int:
    alpha = _parse_complex("alpha", _require("alpha", _pick(args.alpha, config.alpha and str(config.alpha))))
    kz = float(_require("kz", _pick(args.kz, config.kz)))
    beta_text = _pick(args.beta, None)
    if beta_text is None and config.beta_re is not None:
        beta = complex(config.beta_re, config.beta_im or 0.0)
    else:
        beta = _parse_complex("beta", _require("beta", beta_text))
    tau = float(_pick(args.tau, config.tau))
    try:
        scenario = KerrScenario(alpha, kz)
        setting = DisplacementSetting(tau=tau, beta=beta)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = fano_displaced(scenario, setting)
    meta = {"command": "fano", "version": __version__,
            "config": _scenario_meta(scenario, setting)}
    artifact = Artifact(meta, ["mean_photon", "variance", "fano", "mandel_q",
                               "suppression_db"],
                        [[report.mean_photon, report.variance, report.fano,
                          report.mandel_q, report.suppression_db]])
    _emit(artifact, args.format, args.out, [
        f"mean photon     = {report.mean_photon:.6g}",
        f"variance        = {report.variance:.6g}",
        f"fano            = {report.fano:.6g}",
        f"mandel Q        = {report.mandel_q:.6g}",
        f"suppression     = {report.suppression_db:.6g} dB",
    ])
    return 0


def _optimum_rows(opt) -> list:
    return [opt.kz, opt.beta_opt.real, opt.beta_opt.imag, opt.beta_magnitude,
            opt.fano_min, opt.suppression_db, opt.mean_photon]


_OPTIMUM_COLUMNS = ["kz", "beta_re", "beta_im", "beta_abs", "fano_min",
                    "suppression_db", "mean_photon"]


def cmd_optimize(args, config: RunConfig) -> int:
    alpha = _parse_complex("alpha", _require("alpha", _pick(args.alpha, config.alpha and str(config.alpha))))
    kz = _pick(args.kz, config.kz)
    tol_kz = float(_pick(args.tol_kz, config.tol_kz))
    try:
        if kz is not None:
            opt = optimize_beta(KerrScenario(alpha, float(kz)))
        else:
            opt = optimize_length(alpha, rel_tol=tol_kz)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    meta = {"command": "optimize", "version": __version__,
            "config": {"alpha_re": alpha.real, "alpha_im": alpha.imag,
                       "kz": float(kz) if kz is not None else "optimized",
                       "tol_kz": tol_kz}}
    artifact = Artifact(meta, _OPTIMUM_COLUMNS, [_optimum_rows(opt)])
    _emit(artifact, args.format, args.out, [
        f"beta_opt        = {opt.beta_opt.real:.6g} {opt.beta_opt.imag:+.6g}j "
        f"(|beta| = {opt.beta_magnitude:.6g})",
        f"kz              = {opt.kz:.6g}",
        f"fano            = {opt.fano_min:.6g} ({opt.suppression_db:.6g} dB)",
        f"mean photon     = {opt.mean_photon:.6g}",
    ])
    return 0


def cmd_sweep_length(args, config: RunConfig) -> int:
    alpha = _parse_complex("alpha", _require("alpha", _pick(args.alpha, config.alpha and str(config.alpha))))
    if args.kz_values is not None:
        try:
            kz_values = [float(v) for v in args.kz_values.split(",") if v.strip()]
        except ValueError as exc:
            raise CliError(f"kz-values: {exc}") from exc
    else:
        if args.kz_min is None or args.kz_max is None:
            raise CliError("kz-values: give --kz-values or both --kz-min and --kz-max")
        if args.kz_log:
            kz_values = list(np.geomspace(args.kz_min, args.kz_max, args.kz_points))
        else:
            kz_values = list(np.linspace(args.kz_min, args.kz_max, args.kz_points))
    try:
        optima = sweep_length(alpha, kz_values)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    meta = {"command": "sweep-length", "version": __version__,
            "config": {"alpha_re": alpha.real, "alpha_im": alpha.imag,
                       "kz_values": [float(k) for k in kz_values]}}
    artifact = Artifact(meta, _OPTIMUM_COLUMNS, [_optimum_rows(o) for o in optima])
    best = min(optima, key=lambda o: o.fano_min)
    _emit(artifact, args.format, args.out, [
        f"{len(optima)} points; best F = {best.fano_min:.6g} "
        f"({best.suppression_db:.6g} dB) at kz = {best.kz:.6g}",
    ])
    return 0


def _displaced_state(scenario: KerrScenario, beta: complex):
    state = kerr_evolve(coherent_state(scenario.alpha), scenario.kz)
    if beta != 0:
        setting = DisplacementSetting(beta=beta)
        state = displace(state, shift_amplitude(scenario, setting))
    return state


def cmd_wigner(args, config: RunConfig) -> int:
    alpha = _parse_complex("alpha", _require("alpha", _pick(args.alpha, config.alpha and str(config.alpha))))
    kz = float(_require("kz", _pick(args.kz, config.kz)))
    beta = _parse_complex("beta", args.beta) if args.beta is not None else 0j
    try:
        scenario = KerrScenario(alpha, kz)
        state = _displaced_state(scenario, beta)
    except (ValueError, KerrshiftError) as exc:
        raise CliError(str(exc)) from exc

    if args.center == "auto" or args.half_width == "auto":
        center, half_width = auto_window(state)
        if args.center != "auto":
            center = _parse_complex("center", args.center)
        if args.half_width != "auto":
            half_width = float(args.half_width)
    else:
        center = _parse_complex("center", args.center)
        half_width = float(args.half_width)
    resolution = int(args.resolution)
    try:
        grid = wigner(state, center=center, half_width=half_width, resolution=resolution)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    shift = shift_amplitude(scenario, DisplacementSetting(beta=beta))
    integral, w_max = grid.integral(), float(grid.values.max())
    meta = {"command": "wigner", "version": __version__,
            "config": {"alpha_re": alpha.real, "alpha_im": alpha.imag, "kz": kz,
                       "beta_re": beta.real, "beta_im": beta.imag,
                       "center_re": center.real, "center_im": center.imag,
                       "half_width": half_width, "resolution": resolution},
            "shift_re": shift.real, "shift_im": shift.imag,
            "integral": integral, "w_max": w_max,
            "n_trunc": state.n_trunc, "imag_residue": grid.imag_residue}
    human = [f"grid {resolution}x{resolution}, window half-width {half_width:.6g}",
             f"integral = {integral:.6g}, max W = {w_max:.6g}"]
    xs, ys = grid.xs, grid.ys
    if args.out is not None and args.format == "json":
        payload = {"meta": meta,
                   "data": {"xs": xs, "ys": ys, "values": grid.values}}
        Path(args.out).write_text(to_json_text(payload))
        for line in human:
            print(line)
        print(f"wrote {args.out}")
        return 0
    # values[i, j] sits at xs[i] + i ys[j]: rows run over y fastest
    rows = np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs)),
                            grid.values.ravel()])
    artifact = Artifact(meta, ["x", "y", "w"], rows)
    _emit(artifact, args.format, args.out, human)
    return 0


def cmd_photon_dist(args, config: RunConfig) -> int:
    alpha = _parse_complex("alpha", _require("alpha", _pick(args.alpha, config.alpha and str(config.alpha))))
    kz = float(_require("kz", _pick(args.kz, config.kz)))
    beta = _parse_complex("beta", _require("beta", args.beta))
    try:
        scenario = KerrScenario(alpha, kz)
        state = _displaced_state(scenario, beta)
    except (ValueError, KerrshiftError) as exc:
        raise CliError(str(exc)) from exc
    probs = photon_distribution(state)
    stats = photon_statistics(state)
    # Poissonian comparison at the same mean, in log domain
    n = np.arange(len(probs))
    pois = np.exp(-stats.mean + n * np.log(stats.mean) - log_factorial(n))
    meta = {"command": "photon-dist", "version": __version__,
            "config": {"alpha_re": alpha.real, "alpha_im": alpha.imag, "kz": kz,
                       "beta_re": beta.real, "beta_im": beta.imag},
            "mean": stats.mean, "variance": stats.variance, "fano": stats.fano}
    artifact = Artifact(meta, ["n", "probability", "poisson_same_mean"],
                        np.column_stack([n, probs, pois]))
    _emit(artifact, args.format, args.out, [
        f"mean = {stats.mean:.6g}, variance = {stats.variance:.6g}, "
        f"fano = {stats.fano:.6g} ({10 * np.log10(stats.fano):.6g} dB)",
    ])
    return 0


def cmd_design(args, config: RunConfig) -> int:
    power = _pick(args.power, _pick(args.power_opt, config.power))
    power = float(_require("power", power))
    if args.spectral_width is None and args.spectral_width_opt is not None:
        args.spectral_width = args.spectral_width_opt
    wg = _waveguide_from(args, config)
    target_db = _pick(args.target_db, config.target_db)
    spectral_width = _pick(args.spectral_width, config.spectral_width)
    wg_config = {"power": power, "n2": wg.n2, "n0": wg.n0,
                 "sigma_eff": wg.sigma_eff, "wavelength": wg.wavelength}
    if target_db is not None:
        try:
            z, x = length_for_suppression(float(target_db), power, wg,
                                          spectral_width=spectral_width)
        except (ValueError, KerrshiftError) as exc:
            raise CliError(str(exc)) from exc
        meta = {"command": "design", "version": __version__,
                "config": dict(wg_config, target_db=float(target_db),
                               spectral_width=spectral_width or "unset")}
        artifact = Artifact(meta, ["target_db", "x", "z_m", "gamma_per_w_m"],
                            [[float(target_db), x, z, gamma(wg)]])
        _emit(artifact, args.format, args.out, [
            f"target          = {float(target_db):.6g} dB",
            f"|alpha|^2 Kz    = {x:.6g}",
            f"length          = {z:.6g} m",
        ])
        return 0
    spectral_width = float(_require("spectral_width", spectral_width))
    beam = BeamSpec(power=power, spectral_width=spectral_width)
    alpha = alpha_from_power(beam, wg)
    meta = {"command": "design", "version": __version__,
            "config": dict(wg_config, spectral_width=spectral_width)}
    artifact = Artifact(meta, ["alpha", "kerr_coupling_per_m", "gamma_per_w_m",
                               "z_opt_m", "fano_floor_db"],
                        [[alpha, kerr_coupling(wg, beam), gamma(wg),
                          z_opt_physical(wg, beam), fano_floor_physical(wg, beam)]])
    _emit(artifact, args.format, args.out, [
        f"|alpha|         = {alpha:.6g}",
        f"K               = {kerr_coupling(wg, beam):.6g} 1/m",
        f"gamma           = {gamma(wg):.6g} 1/(W m)",
        f"z_opt           = {z_opt_physical(wg, beam):.6g} m",
        f"fano floor      = {fano_floor_physical(wg, beam):.6g} dB",
    ])
    return 0


def cmd_reproduce(args, config: RunConfig) -> int:
    target = args.target
    try:
        artifact = build(target)
    except ValueError as exc:
        raise CliError(f"target: {exc}") from exc
    human = [f"target {target}: {len(artifact.rows)} rows"]
    if artifact.failures:
        human.append(f"{len(artifact.failures)} cell(s) out of tolerance:")
        human.extend(f"  {f}" for f in artifact.failures)
    else:
        human.append("all cells within tolerance")
    _emit(artifact, args.format, args.out, human)
    return 4 if artifact.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrshift",
        description="Photon-noise suppression with displaced Kerr states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="write the artifact here")
        p.add_argument("--config", default=None, help="key=value config file")

    p = sub.add_parser("fano", help="Fano factor of a displaced Kerr state")
    p.add_argument("alpha", nargs="?")
    p.add_argument("kz", nargs="?", type=float)
    p.add_argument("beta", nargs="?")
    p.add_argument("--tau", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_fano)

    p = sub.add_parser("optimize", help="optimal shift (and length, without --kz)")
    p.add_argument("alpha", nargs="?")
    p.add_argument("--kz", type=float, default=None)
    p.add_argument("--tol-kz", type=float, default=None, dest="tol_kz")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep-length", help="optimally displaced F over a kz grid")
    p.add_argument("alpha", nargs="?")
    p.add_argument("--kz-values", default=None, help="comma-separated kz list")
    p.add_argument("--kz-min", type=float, default=None)
    p.add_argument("--kz-max", type=float, default=None)
    p.add_argument("--kz-points", type=int, default=25)
    p.add_argument("--kz-log", action="store_true")
    common(p)
    p.set_defaults(func=cmd_sweep_length)

    p = sub.add_parser("wigner", help="Wigner function grid")
    p.add_argument("alpha", nargs="?")
    p.add_argument("kz", nargs="?", type=float)
    p.add_argument("--beta", default=None)
    p.add_argument("--center", default="auto", help="complex center or 'auto'")
    p.add_argument("--half-width", default="auto", dest="half_width")
    p.add_argument("--resolution", type=int, default=201)
    common(p)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("photon-dist", help="photon number distribution")
    p.add_argument("alpha", nargs="?")
    p.add_argument("kz", nargs="?", type=float)
    p.add_argument("beta", nargs="?")
    common(p)
    p.set_defaults(func=cmd_photon_dist)

    p = sub.add_parser("design", help="physical design numbers for a waveguide")
    p.add_argument("power", nargs="?", type=float)
    p.add_argument("spectral_width", nargs="?", type=float)
    p.add_argument("--power", type=float, default=None, dest="power_opt")
    p.add_argument("--spectral-width", type=float, default=None,
                   dest="spectral_width_opt")
    p.add_argument("--preset", default=None)
    p.add_argument("--target-db", type=float, default=None, dest="target_db")
    p.add_argument("--n2", type=float, default=None)
    p.add_argument("--n0", type=float, default=None)
    p.add_argument("--sigma-eff", type=float, default=None, dest="sigma_eff")
    p.add_argument("--wavelength", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("reproduce", help="rebuild a published table or figure dataset")
    p.add_argument("target", choices=TARGETS)
    common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except KerrshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
