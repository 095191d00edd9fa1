"""Command-line surface: every computation, plus the reproduction recipes.

Exit codes are a stable contract: 0 success, 2 validation failure, 3 search
non-convergence, 4 reproduction tolerance miss (artifact still written).
Artifacts are deterministic for fixed inputs: no timestamps, fixed key order,
17 significant digits.

Every input in the INPUTS table has one parser, which reads its flag or
positional and its --config key alike, and resolves by one precedence: the
flag or positional, then the --config file, then its INPUTS default. Which
command reads which input is listed at INPUTS. The remaining flags (the
sweep-length kz grid, the wigner window and resolution, the reproduce
target) have no config key. A --config file and a preset file are read by
the one `key = value` reader, serialize.read_key_values; a bad line in
either exits 2 naming the file kind, the line and the key. fano and
photon-dist report the same PhotonStatistics record, from the closed form
and from the Fock engine. Each command returns its artifact and its
human-readable lines; main writes both and maps errors to exit codes.
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
from .optimize import LENGTH_REL_TOL, optimize_beta, optimize_length, sweep_length
from .reproduce import TARGETS, build
from .serialize import Artifact, read_key_values, to_json_text
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


class CliError(ValueError):
    """Validation failure; message names the offending field."""


def _complex(text: str) -> complex:
    """A complex number in the 1+2j, (1+2j) or re,im form. Wrap a negative
    value in parentheses so the shell parser does not read it as an option."""
    inner = text.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    if "," in inner:
        re_part, im_part = inner.split(",", 1)
        return complex(float(re_part), float(im_part))
    return complex(inner.replace(" ", ""))


def _parse(field: str, text: str, parse=float):
    try:
        return parse(text)
    except ValueError as exc:
        raise CliError(f"{field}: could not parse {text!r} as a number") from exc


# Every input that has a --config key: (parser, default). The parser reads
# the flag or positional and the config value alike. Readers: alpha (fano,
# optimize, sweep-length, wigner, photon-dist), kz (fano, optimize, wigner,
# photon-dist), beta (fano, wigner, photon-dist), tau (fano), tol_kz
# (optimize), and power, spectral_width, target_db, preset, n2, n0,
# sigma_eff and wavelength (design).
INPUTS = {
    "alpha": (_complex, None), "kz": (float, None), "beta": (_complex, None),
    "tau": (float, DisplacementSetting.tau), "tol_kz": (float, LENGTH_REL_TOL),
    "power": (float, None), "spectral_width": (float, None), "target_db": (float, None),
    "preset": (str, None), "n2": (float, None), "n0": (float, None),
    "sigma_eff": (float, None), "wavelength": (float, None),
}


def _inputs(args, config: dict, *required: str, optional=()) -> list:
    """The named inputs in order, each from its flag or positional, else the
    config file, else its INPUTS default; a required one may not be None."""
    values = []
    for field in required + tuple(optional):
        parse, default = INPUTS[field]
        text = getattr(args, field)
        value = config.get(field, default) if text is None else _parse(field, text, parse)
        if value is None and field in required:
            raise CliError(f"{field}: required (flag or config file)")
        values.append(value)
    return values


def _load_config(path: str | None) -> dict:
    """The inputs a --config file sets, each read by its INPUTS parser."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"config: {exc}") from exc
    return read_key_values(text, "config",
                           {name: parse for name, (parse, _) in INPUTS.items()})


def _waveguide(preset: str | None, inline: list) -> WaveguideSpec:
    """The waveguide of a preset, or of the inline (n2, n0, sigma_eff, wavelength)."""
    if preset is not None and any(v is not None for v in inline):
        raise CliError("preset: give either --preset or the inline waveguide "
                       "fields, not both")
    if preset is not None:
        try:
            return load_preset(preset)
        except FileNotFoundError as exc:
            raise CliError(f"preset: {exc}") from exc
    if any(v is None for v in inline):
        raise CliError("preset: a physical command needs --preset or all of "
                       "--n2/--n0/--sigma-eff/--wavelength")
    return WaveguideSpec(*inline)


def _emit(args, artifact: Artifact | dict, human_lines: list[str]) -> None:
    """Print the human lines; with --out, write the artifact (a dict: JSON only)."""
    for line in human_lines:
        print(line)
    if args.out is not None:
        text = (to_json_text(artifact) if isinstance(artifact, dict)
                else artifact.render(args.format))
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")


def _meta(command: str, config: dict, **results) -> dict:
    """Artifact meta: the inputs under "config", computed values at the top level."""
    return {"command": command, "version": __version__, "config": config, **results}


def cmd_fano(args, config: dict):
    alpha, kz, beta, tau = _inputs(args, config, "alpha", "kz", "beta",
                                   optional=("tau",))
    report = fano_displaced(KerrScenario(alpha, kz),
                            DisplacementSetting(tau=tau, beta=beta))
    meta = _meta("fano", {"alpha_re": alpha.real, "alpha_im": alpha.imag, "kz": kz,
                          "beta_re": beta.real, "beta_im": beta.imag, "tau": tau})
    artifact = Artifact(meta, ["mean_photon", "variance", "fano", "mandel_q",
                               "suppression_db"],
                        [[report.mean, report.variance, report.fano,
                          report.mandel_q, report.suppression_db]])
    return artifact, [
        f"mean photon     = {report.mean:.6g}",
        f"variance        = {report.variance:.6g}",
        f"fano            = {report.fano:.6g}",
        f"mandel Q        = {report.mandel_q:.6g}",
        f"suppression     = {report.suppression_db:.6g} dB",
    ]


def _optimum_rows(opt) -> list:
    return [opt.kz, opt.beta_opt.real, opt.beta_opt.imag, opt.beta_magnitude,
            opt.fano_min, opt.suppression_db, opt.mean_photon]


_OPTIMUM_COLUMNS = ["kz", "beta_re", "beta_im", "beta_abs", "fano_min",
                    "suppression_db", "mean_photon"]


def cmd_optimize(args, config: dict):
    alpha, kz, tol_kz = _inputs(args, config, "alpha", optional=("kz", "tol_kz"))
    if not (np.isfinite(tol_kz) and tol_kz > 0):
        raise CliError(f"tol_kz: must be finite and positive, got {tol_kz!r}")
    if kz is not None:
        opt = optimize_beta(KerrScenario(alpha, kz))
    else:
        opt = optimize_length(alpha, rel_tol=tol_kz)
    meta = _meta("optimize", {"alpha_re": alpha.real, "alpha_im": alpha.imag,
                              "kz": kz if kz is not None else "optimized",
                              "tol_kz": tol_kz})
    artifact = Artifact(meta, _OPTIMUM_COLUMNS, [_optimum_rows(opt)])
    return artifact, [
        f"beta_opt        = {opt.beta_opt.real:.6g} {opt.beta_opt.imag:+.6g}j "
        f"(|beta| = {opt.beta_magnitude:.6g})",
        f"kz              = {opt.kz:.6g}",
        f"fano            = {opt.fano_min:.6g} ({opt.suppression_db:.6g} dB)",
        f"mean photon     = {opt.mean_photon:.6g}",
    ]


def _kz_grid(args) -> list[float]:
    """The kz values of --kz-values, or of the --kz-min/--kz-max grid."""
    if args.kz_values is not None:
        kz_values = [_parse("kz-values", v)
                     for v in args.kz_values.split(",") if v.strip()]
        if not kz_values:
            raise CliError(f"kz-values: no value in {args.kz_values!r}")
        return kz_values
    if args.kz_min is None or args.kz_max is None:
        raise CliError("kz-values: give --kz-values or both --kz-min and --kz-max")
    if args.kz_points < 1:
        raise CliError(f"kz-points: must be at least 1, got {args.kz_points}")
    if not args.kz_log:
        return list(np.linspace(args.kz_min, args.kz_max, args.kz_points))
    for field, value in (("kz-min", args.kz_min), ("kz-max", args.kz_max)):
        if not value > 0:
            raise CliError(f"{field}: must be positive with --kz-log, got {value}")
    return list(np.geomspace(args.kz_min, args.kz_max, args.kz_points))


def cmd_sweep_length(args, config: dict):
    (alpha,) = _inputs(args, config, "alpha")
    kz_values = _kz_grid(args)
    optima = sweep_length(alpha, kz_values)
    meta = _meta("sweep-length", {"alpha_re": alpha.real, "alpha_im": alpha.imag,
                                  "kz_values": [float(k) for k in kz_values]})
    artifact = Artifact(meta, _OPTIMUM_COLUMNS, [_optimum_rows(o) for o in optima])
    best = min(optima, key=lambda o: o.fano_min)
    return artifact, [
        f"{len(optima)} points; best F = {best.fano_min:.6g} "
        f"({best.suppression_db:.6g} dB) at kz = {best.kz:.6g}",
    ]


def _displaced_state(scenario: KerrScenario, beta: complex):
    """The Kerr-evolved coherent state, displaced by the physical shift of beta,
    and that shift."""
    shift = shift_amplitude(scenario, DisplacementSetting(beta=beta))
    state = kerr_evolve(coherent_state(scenario.alpha), scenario.kz)
    if beta != 0:
        state = displace(state, shift)
    return state, shift


def cmd_wigner(args, config: dict):
    alpha, kz, beta = _inputs(args, config, "alpha", "kz", optional=("beta",))
    beta = 0j if beta is None else beta
    state, shift = _displaced_state(KerrScenario(alpha, kz), beta)
    if "auto" in (args.center, args.half_width):
        center, half_width = auto_window(state)
    if args.center != "auto":
        center = _parse("center", args.center, _complex)
    if args.half_width != "auto":
        half_width = _parse("half_width", args.half_width)
    grid = wigner(state, center=center, half_width=half_width, resolution=args.resolution)

    integral, w_max = grid.integral(), float(grid.values.max())
    meta = _meta("wigner", {"alpha_re": alpha.real, "alpha_im": alpha.imag, "kz": kz,
                            "beta_re": beta.real, "beta_im": beta.imag,
                            "center_re": center.real, "center_im": center.imag,
                            "half_width": half_width, "resolution": args.resolution},
                 shift_re=shift.real, shift_im=shift.imag, integral=integral,
                 w_max=w_max, n_trunc=state.n_trunc, imag_residue=grid.imag_residue)
    human = [f"grid {args.resolution}x{args.resolution}, window half-width {half_width:.6g}",
             f"integral = {integral:.6g}, max W = {w_max:.6g}"]
    xs, ys = grid.xs, grid.ys
    if args.format == "json":
        # the JSON form keeps the grid's shape instead of (x, y, w) rows
        return {"meta": meta, "data": {"xs": xs, "ys": ys, "values": grid.values}}, human
    # values[i, j] sits at xs[i] + i ys[j]: rows run over y fastest
    rows = np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs)),
                            grid.values.ravel()])
    return Artifact(meta, ["x", "y", "w"], rows), human


def cmd_photon_dist(args, config: dict):
    alpha, kz, beta = _inputs(args, config, "alpha", "kz", "beta")
    state, _ = _displaced_state(KerrScenario(alpha, kz), beta)
    probs = photon_distribution(state)
    stats = photon_statistics(state)
    # Poissonian comparison at the same mean, in log domain
    n = np.arange(len(probs))
    pois = np.exp(-stats.mean + n * np.log(stats.mean) - log_factorial(n))
    meta = _meta("photon-dist", {"alpha_re": alpha.real, "alpha_im": alpha.imag,
                                 "kz": kz, "beta_re": beta.real, "beta_im": beta.imag},
                 mean=stats.mean, variance=stats.variance, fano=stats.fano)
    artifact = Artifact(meta, ["n", "probability", "poisson_same_mean"],
                        np.column_stack([n, probs, pois]))
    return artifact, [
        f"mean = {stats.mean:.6g}, variance = {stats.variance:.6g}, "
        f"fano = {stats.fano:.6g} ({stats.suppression_db:.6g} dB)",
    ]


def cmd_design(args, config: dict):
    power, spectral_width, target_db, preset, *inline = _inputs(
        args, config, "power", optional=("spectral_width", "target_db", "preset",
                                         "n2", "n0", "sigma_eff", "wavelength"))
    wg = _waveguide(preset, inline)
    wg_config = {"power": power, "n2": wg.n2, "n0": wg.n0,
                 "sigma_eff": wg.sigma_eff, "wavelength": wg.wavelength}
    if target_db is not None:
        z, x = length_for_suppression(target_db, power, wg,
                                      spectral_width=spectral_width)
        meta = _meta("design", dict(wg_config, target_db=target_db,
                                    spectral_width=spectral_width or "unset"))
        artifact = Artifact(meta, ["target_db", "x", "z_m", "gamma_per_w_m"],
                            [[target_db, x, z, gamma(wg)]])
        return artifact, [
            f"target          = {target_db:.6g} dB",
            f"|alpha|^2 Kz    = {x:.6g}",
            f"length          = {z:.6g} m",
        ]
    (spectral_width,) = _inputs(args, config, "spectral_width")
    beam = BeamSpec(power=power, spectral_width=spectral_width)
    alpha = alpha_from_power(beam, wg)
    meta = _meta("design", dict(wg_config, spectral_width=spectral_width))
    artifact = Artifact(meta, ["alpha", "kerr_coupling_per_m", "gamma_per_w_m",
                               "z_opt_m", "fano_floor_db"],
                        [[alpha, kerr_coupling(wg, beam), gamma(wg),
                          z_opt_physical(wg, beam), fano_floor_physical(wg, beam)]])
    return artifact, [
        f"|alpha|         = {alpha:.6g}",
        f"K               = {kerr_coupling(wg, beam):.6g} 1/m",
        f"gamma           = {gamma(wg):.6g} 1/(W m)",
        f"z_opt           = {z_opt_physical(wg, beam):.6g} m",
        f"fano floor      = {fano_floor_physical(wg, beam):.6g} dB",
    ]


def cmd_reproduce(args, config: dict):
    artifact = build(args.target)
    human = [f"target {args.target}: {len(artifact.rows)} rows"]
    if artifact.failures:
        human.append(f"{len(artifact.failures)} cell(s) out of tolerance:")
        human.extend(f"  {f}" for f in artifact.failures)
    else:
        human.append("all cells within tolerance")
    return artifact, human


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrshift",
        description="Photon-noise suppression with displaced Kerr states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, positionals=(), **options):
        """One subcommand: optional positionals, one --flag per option (its
        add_argument keywords; {} for an input that _inputs parses), and the
        --format/--out/--config flags every command takes."""
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional, nargs="?")
        for dest, kwargs in options.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kwargs)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", help="write the artifact here")
        p.add_argument("--config", help="key=value config file")
        p.set_defaults(func=func)
        return p

    command("fano", cmd_fano, "Fano factor of a displaced Kerr state",
            ("alpha", "kz", "beta"), tau={})
    command("optimize", cmd_optimize, "optimal shift (and length, without --kz)",
            ("alpha",), kz={}, tol_kz={})
    command("sweep-length", cmd_sweep_length, "optimally displaced F over a kz grid",
            ("alpha",), kz_values={"help": "comma-separated kz list"},
            kz_min={"type": float}, kz_max={"type": float},
            kz_points={"type": int, "default": 25},
            kz_log={"action": "store_true"})
    command("wigner", cmd_wigner, "Wigner function grid", ("alpha", "kz"),
            beta={}, center={"default": "auto", "help": "complex center or 'auto'"},
            half_width={"default": "auto"},
            resolution={"type": int, "default": 201})
    command("photon-dist", cmd_photon_dist, "photon number distribution",
            ("alpha", "kz", "beta"))
    command("design", cmd_design, "physical design numbers for a waveguide",
            ("power", "spectral_width"), preset={}, target_db={}, n2={}, n0={},
            sigma_eff={}, wavelength={})
    reproduce = command("reproduce", cmd_reproduce,
                        "rebuild a published table or figure dataset")
    reproduce.add_argument("target", choices=TARGETS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        artifact, human_lines = args.func(args, _load_config(args.config))
        _emit(args, artifact, human_lines)
    except NonConvergence as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KerrshiftError) as exc:
        # CliError, the range checks of the library's constructors, and the
        # library's named failures
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 4 if getattr(artifact, "failures", None) else 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
