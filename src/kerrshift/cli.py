"""Command-line surface: every computation, plus the reproduction recipes.

Exit codes are a stable contract: 0 success, 2 validation failure, 3 search
non-convergence, 4 reproduction tolerance miss (artifact still written).
Artifacts are deterministic for fixed inputs: no timestamps, fixed key order,
17 significant digits (a wigner map writes the cells below its meta w_floor
as 0).

Every input in the INPUTS table has one parser, which reads its flag or
positional and its --config key alike, and resolves by one precedence: the
flag or positional, then the --config file, then its INPUTS default. Which
command reads which input is listed at INPUTS. The remaining flags (the
sweep-length kz grid, the wigner window and resolution, the reproduce
target) have no config key. A --config file and a preset file are read by
the one `key = value` reader, serialize.read_key_values; a bad line in
either exits 2 naming the file kind, the line and the key. Meta "config"
echoes the inputs, a complex one as <name>_re, <name>_im (_meta). The
length search's tolerance is fixed (optimize.optimize_length). fano and
photon-dist report the same PhotonStatistics record, from the closed form
and from the Fock engine. Each command returns its artifact and its
human-readable lines; main writes both and maps errors to exit codes.

The COMMANDS table maps each subcommand to its handler, help, positionals
and options, and COMMON holds the flags every command takes. main reads a
plain argv (a command, its positionals, then flags spelled in full as
--name value) from those tables alone (_parse_plain), without argparse. Any
other argv goes to the argparse parser build_parser makes from the same
tables, so every help text, usage line, error and exit code is argparse's.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import KerrshiftError, NonConvergence
from .fock import (
    coherent_state,
    displace,
    kerr_evolve,
    photon_distribution,
    photon_statistics,
    poisson_probabilities,
)
from .moments import DisplacementSetting, KerrScenario, fano_displaced, shift_amplitude
from .optimize import optimize_beta, optimize_length, sweep_length
from .reproduce import TARGETS, build
from .serialize import Artifact, Grid, read_key_values
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
from .wigner import W_FLOOR, auto_window, narrowest_width, wigner


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
# photon-dist), beta (fano, wigner, photon-dist), tau (fano), and power,
# spectral_width, target_db, preset, n2, sigma_eff and wavelength (design).
INPUTS = {
    "alpha": (_complex, None), "kz": (float, None), "beta": (_complex, None),
    "tau": (float, DisplacementSetting.tau), "power": (float, None),
    "spectral_width": (float, None), "target_db": (float, None), "preset": (str, None),
    "n2": (float, None), "sigma_eff": (float, None), "wavelength": (float, None),
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
    """The waveguide of a preset, or of the inline (n2, sigma_eff, wavelength)."""
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
                       "--n2/--sigma-eff/--wavelength")
    return WaveguideSpec(*inline)


def _emit(args, artifact: Artifact, human_lines: list[str]) -> None:
    """Print the human lines; with --out, write the artifact in --format to
    that file, block by block (Artifact.write), so the file's text is never
    held whole."""
    for line in human_lines:
        print(line)
    if args.out is not None:
        with open(args.out, "w") as stream:
            artifact.write(stream, args.format)
        print(f"wrote {args.out}")


def _meta(command: str, inputs: dict, **results) -> dict:
    """Artifact meta: the inputs under "config", a complex one as <name>_re
    and <name>_im, and the computed values at the top level."""
    config = {}
    for name, value in inputs.items():
        if isinstance(value, complex):
            config[f"{name}_re"], config[f"{name}_im"] = value.real, value.imag
        else:
            config[name] = value
    return {"command": command, "version": __version__, "config": config, **results}


def cmd_fano(args, config: dict):
    alpha, kz, beta, tau = _inputs(args, config, "alpha", "kz", "beta",
                                   optional=("tau",))
    report = fano_displaced(KerrScenario(alpha, kz),
                            DisplacementSetting(tau=tau, beta=beta))
    meta = _meta("fano", {"alpha": alpha, "kz": kz, "beta": beta, "tau": tau})
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
    alpha, kz = _inputs(args, config, "alpha", optional=("kz",))
    opt = optimize_length(alpha) if kz is None else optimize_beta(KerrScenario(alpha, kz))
    meta = _meta("optimize", {"alpha": alpha, "kz": "optimized" if kz is None else kz})
    artifact = Artifact(meta, _OPTIMUM_COLUMNS, [_optimum_rows(opt)])
    return artifact, [
        f"beta_opt        = {opt.beta_opt.real:.6g} {opt.beta_opt.imag:+.6g}j "
        f"(|beta| = {opt.beta_magnitude:.6g})",
        f"kz              = {opt.kz:.6g}",
        f"fano            = {opt.fano_min:.6g} ({opt.suppression_db:.6g} dB)",
        f"mean photon     = {opt.mean_photon:.6g}",
    ]


# Largest --kz-points. Each point is one shift optimum, about 0.2-0.3 ms on a
# 2-core host (the 45-point `sweep-length 40` takes 10-13 ms), so the cap
# bounds a sweep to about 30 s, and the kz_values list its meta carries (in
# JSON and on one CSV comment line) to about 2.5 MB of text.
MAX_KZ_POINTS = 100_000


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
    if args.kz_points > MAX_KZ_POINTS:
        raise CliError(f"kz-points: {args.kz_points} is above the limit "
                       f"MAX_KZ_POINTS = {MAX_KZ_POINTS}")
    # a grid reaching past the largest double gets inf or nan points, which
    # KerrScenario refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
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
    meta = _meta("sweep-length", {"alpha": alpha, "kz_values": [float(k) for k in kz_values]})
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
    return displace(state, shift), shift


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
    # cells below the map's rounding floor carry no digit of W: written as 0
    written = Grid(grid.xs, grid.ys,
                   np.where(np.abs(grid.values) < W_FLOOR, 0.0, grid.values))
    step, width = 2.0 * half_width / (args.resolution - 1), narrowest_width(state)
    resolved = step <= width
    if not resolved:
        print(f"warning: grid step {step:.3g} exceeds the state's narrowest width "
              f"{width:.3g}, so the map does not resolve it; raise --resolution or "
              f"narrow --half-width", file=sys.stderr)
    meta = _meta("wigner", {"alpha": alpha, "kz": kz, "beta": beta, "center": center,
                            "half_width": half_width, "resolution": args.resolution},
                 shift_re=shift.real, shift_im=shift.imag, integral=integral,
                 w_max=w_max, w_floor=W_FLOOR, n_trunc=state.n_trunc, grid_step=step,
                 narrowest_width=width, resolved=resolved)
    human = [f"grid {args.resolution}x{args.resolution}, window half-width {half_width:.6g}",
             f"integral = {integral:.6g}, max W = {w_max:.6g}"]
    return Artifact(meta, ["x", "y", "w"], written), human


def cmd_photon_dist(args, config: dict):
    alpha, kz, beta = _inputs(args, config, "alpha", "kz", "beta")
    state, _ = _displaced_state(KerrScenario(alpha, kz), beta)
    probs = photon_distribution(state)
    stats = photon_statistics(state)
    # Poissonian comparison at the same mean, over the levels shown
    n = np.arange(len(probs))
    pois = poisson_probabilities(stats.mean, len(probs))
    meta = _meta("photon-dist", {"alpha": alpha, "kz": kz, "beta": beta},
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
                                         "n2", "sigma_eff", "wavelength"))
    wg = _waveguide(preset, inline)
    wg_config = {"power": power, "n2": wg.n2, "sigma_eff": wg.sigma_eff,
                 "wavelength": wg.wavelength}
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
    coupling, gam, z_opt = kerr_coupling(wg, beam), gamma(wg), z_opt_physical(wg, beam)
    floor_db = fano_floor_physical(wg, beam)
    meta = _meta("design", dict(wg_config, spectral_width=spectral_width))
    artifact = Artifact(meta, ["alpha", "kerr_coupling_per_m", "gamma_per_w_m",
                               "z_opt_m", "fano_floor_db"],
                        [[alpha, coupling, gam, z_opt, floor_db]])
    return artifact, [
        f"|alpha|         = {alpha:.6g}",
        f"K               = {coupling:.6g} 1/m",
        f"gamma           = {gam:.6g} 1/(W m)",
        f"z_opt           = {z_opt:.6g} m",
        f"fano floor      = {floor_db:.6g} dB",
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


# Every subcommand: (handler, help, positionals, options). Positionals and
# options map a name to its add_argument keywords; an option is the flag
# --name ({} for an input that _inputs parses). Every command also takes
# the COMMON flags.
_MAYBE = {"nargs": "?"}
COMMANDS = {
    "fano": (cmd_fano, "Fano factor of a displaced Kerr state",
             dict.fromkeys(("alpha", "kz", "beta"), _MAYBE), {"tau": {}}),
    "optimize": (cmd_optimize, "optimal shift (and length, without --kz)",
                 {"alpha": _MAYBE}, {"kz": {}}),
    "sweep-length": (cmd_sweep_length, "optimally displaced F over a kz grid",
                     {"alpha": _MAYBE},
                     {"kz_values": {"help": "comma-separated kz list"},
                      "kz_min": {"type": float}, "kz_max": {"type": float},
                      "kz_points": {"type": int, "default": 25},
                      "kz_log": {"action": "store_true"}}),
    "wigner": (cmd_wigner, "Wigner function grid",
               dict.fromkeys(("alpha", "kz"), _MAYBE),
               {"beta": {}, "center": {"default": "auto", "help": "complex center or 'auto'"},
                "half_width": {"default": "auto"},
                "resolution": {"type": int, "default": 201}}),
    "photon-dist": (cmd_photon_dist, "photon number distribution",
                    dict.fromkeys(("alpha", "kz", "beta"), _MAYBE), {}),
    "design": (cmd_design, "physical design numbers for a waveguide",
               dict.fromkeys(("power", "spectral_width"), _MAYBE),
               dict.fromkeys(("preset", "target_db", "n2", "sigma_eff", "wavelength"), {})),
    "reproduce": (cmd_reproduce, "rebuild a published table or figure dataset",
                  {"target": {"choices": TARGETS}}, {}),
}


# The flags every command takes, after its own options.
COMMON = {"format": {"choices": ("csv", "json"), "default": "json"},
          "out": {"help": "write the artifact here"},
          "config": {"help": "key=value config file"}}


def build_parser():
    """The argparse parser: every COMMANDS entry is a subcommand with its
    positionals, its options and the COMMON flags."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="kerrshift",
        description="Photon-noise suppression with displaced Kerr states")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for dest, kwargs in positionals.items():
            p.add_argument(dest, **kwargs)
        for dest, kwargs in {**options, **COMMON}.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kwargs)
        p.set_defaults(func=func)
    return parser


def _value(kwargs: dict, text: str):
    """text read by an argument's type and checked against its choices, as
    argparse does; ValueError (or the type's TypeError) if either fails."""
    value = kwargs.get("type", str)(text)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _parse_plain(argv: list):
    """The namespace build_parser().parse_args(argv) gives, read from the
    tables, when argv is plain: a command name, then at most its number of
    positionals with none starting with '-' and every required one there, then
    its options and the COMMON flags, each spelled in full as --name value
    (a store_true flag alone). None for any other argv (no command, -h,
    --version, --, --name=value, an abbreviation, a value starting with '-', a
    positional after a flag, a value its type or choices refuse, a non-str
    token), which argparse then reads."""
    if not (argv and all(isinstance(a, str) for a in argv) and argv[0] in COMMANDS):
        return None
    func, _, positionals, options = COMMANDS[argv[0]]
    flags = {"--" + dest.replace("_", "-"): (dest, kwargs)
             for dest, kwargs in {**options, **COMMON}.items()}
    rest = argv[1:]
    n_pos = next((i for i, a in enumerate(rest) if a.startswith("-")), len(rest))
    if n_pos > len(positionals) or any(
            kwargs.get("nargs") != "?" for kwargs in list(positionals.values())[n_pos:]):
        return None
    try:
        values = {dest: _value(kwargs, text)
                  for (dest, kwargs), text in zip(positionals.items(), rest[:n_pos])}
        i = n_pos
        while i < len(rest):
            if rest[i] not in flags:
                return None
            dest, kwargs = flags[rest[i]]
            if kwargs.get("action") == "store_true":
                values[dest], i = True, i + 1
            elif i + 1 < len(rest) and not rest[i + 1].startswith("-"):
                values[dest], i = _value(kwargs, rest[i + 1]), i + 2
            else:
                return None
        # an omitted argument takes its default, a str one read as argparse reads it
        for dest, kwargs in list(positionals.items()) + list(flags.values()):
            store_true = kwargs.get("action") == "store_true"
            default = kwargs.get("default", False if store_true else None)
            if dest not in values:
                values[dest] = _value(kwargs, default) if isinstance(default, str) else default
    except (TypeError, ValueError):
        return None
    return SimpleNamespace(subcommand=argv[0], func=func, **values)


def parse_args(argv: list):
    """The parsed argv: from the tables when it is plain (_parse_plain), else
    from build_parser(), which prints help, the version or an error and exits
    where argparse does."""
    args = _parse_plain(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one command line: exit 0 on success, 2 on a validation failure
    (argparse's own exit 2 included), 3 on non-convergence and 4 when a
    reproduce artifact misses its tolerance."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
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
