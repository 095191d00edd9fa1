"""The CLI contract over the whole input domain: Hypothesis draws an argv for
each command from its advertised domain and its edges, runs it in-process
through cli.main, and checks the exit code, stderr, warnings, the artifact's
numbers and, on success, the identities between commands."""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from kerrshift.cli import main
from kerrshift.reproduce import TARGETS

MAX = sys.float_info.max
# 0, the smallest subnormal and normal doubles, 1e-300, 1e300 and the largest double
EDGES = (0.0, 5e-324, sys.float_info.min, 1e-300, 1e300, MAX)
# The Fock commands keep |alpha| <= 30 and the physical shift |beta| |alpha|
# <= 10, so a draw takes at most about 0.2 s. A shift above 250 needs more
# than MAX_FOCK_DIM levels and is refused before any column runs, so those
# are drawn too.
FOCK_ALPHA, FOCK_SHIFT, REFUSED_SHIFT = 30.0, 10.0, 250.0


def _magnitude(high):
    """A size in [0, high], or one of the edges."""
    return st.one_of(st.floats(0.0, high), st.sampled_from(EDGES))


def _real(high):
    """A size of either sign."""
    return st.tuples(_magnitude(high), st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


def _complexes(high):
    """A complex number of size up to `high` or an edge, on an axis or at
    any phase."""
    def point(size, axis, theta):
        if axis is None:
            return complex(size * math.cos(theta), size * math.sin(theta))
        return size * (1, 1j, -1, -1j)[axis]
    return st.builds(point, _magnitude(high), st.sampled_from((None, 0, 1, 2, 3)),
                     st.floats(-math.pi, math.pi))


def _text(value):
    """The argv text of a number; a complex one in its (re,im) form, which
    never starts with '-'."""
    if isinstance(value, complex):
        return f"({value.real!r},{value.imag!r})"
    return repr(value)


def _options(**drawn):
    """--name value pairs of the drawn options that are not None."""
    argv = []
    for name, value in drawn.items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), _text(value)]
    return argv


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


KZ = _real(2.0)


@st.composite
def _fock_inputs(draw):
    """alpha, kz and beta of a Fock command, the shift held to FOCK_SHIFT
    unless it is past REFUSED_SHIFT."""
    alpha, kz, beta = draw(_complexes(FOCK_ALPHA)), draw(KZ), draw(_complexes(FOCK_SHIFT))
    shift = abs(beta) * abs(alpha)
    if FOCK_SHIFT < shift <= REFUSED_SHIFT:
        beta *= FOCK_SHIFT / shift
    return alpha, kz, beta


def _fano():
    return st.builds(lambda a, kz, b, tau: ["fano", _text(a), _text(kz), _text(b)]
                     + _options(tau=tau),
                     _complexes(1e4), KZ, _complexes(10.0), _maybe(_real(1.0)))


def _optimize():
    return st.builds(lambda a, kz: ["optimize", _text(a)] + _options(kz=kz),
                     _complexes(1e4), _maybe(KZ))


def _sweep_length():
    values = st.lists(KZ, min_size=1, max_size=4).map(
        lambda kz: ["--kz-values", ",".join(_text(v) for v in kz)])
    grid = st.builds(lambda lo, hi, n, log: ["--kz-min", _text(lo), "--kz-max", _text(hi),
                                             "--kz-points", str(n)] + ["--kz-log"] * log,
                     KZ, KZ, st.integers(-1, 40), st.booleans())
    return st.builds(lambda a, kz: ["sweep-length", _text(a)] + kz,
                     _complexes(1e4), st.one_of(values, grid))


def _wigner():
    return st.builds(
        lambda inputs, resolution, center, half_width:
            ["wigner", _text(inputs[0]), _text(inputs[1]), "--beta", _text(inputs[2])]
            + _options(resolution=resolution, center=center, half_width=half_width),
        _fock_inputs(), _maybe(st.integers(-1, 41)), _maybe(_complexes(10.0)),
        _maybe(_real(10.0)))


def _photon_dist():
    return st.builds(lambda inputs: ["photon-dist", *map(_text, inputs)], _fock_inputs())


def _design():
    inline = st.builds(lambda n2, sigma, wavelength: _options(
        n2=n2, sigma_eff=sigma, wavelength=wavelength),
        _real(1e-18), _real(1e-11), _real(2e-6))
    return st.builds(
        lambda power, width, waveguide, target: ["design", _text(power)]
            + ([_text(width)] if width is not None else []) + waveguide
            + _options(target_db=target),
        _real(10.0), _maybe(_real(1e12)), st.one_of(st.just(["--preset", "si3n4"]), inline),
        _maybe(_real(100.0)))


ARGV = st.one_of(_fano(), _optimize(), _sweep_length(), _wigner(), _photon_dist(),
                 _design(), st.sampled_from(TARGETS).map(lambda t: ["reproduce", t]))


def _run(argv):
    """(exit code, stderr, warnings raised, artifact or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "out.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:
                # argparse's own refusals
                code = exc.code
        artifact = json.loads(out.read_text()) if out.is_file() else None
    return code, stderr.getvalue(), [str(w.message) for w in caught], artifact


def _numbers(node):
    """Every number in a parsed artifact."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _rows(artifact):
    data = artifact["data"]
    return [dict(zip(data["columns"], row)) for row in data["rows"]]


def _succeeds(argv):
    """The artifact of argv, which must exit 0."""
    code, err, _, artifact = _run(argv)
    assert code == 0, (argv, err)
    return artifact


def _check_identities(argv, artifact):
    command = argv[0]
    if command == "optimize" and "--kz" in argv:
        # fano at the reported shift gives the reported F
        (row,) = _rows(artifact)
        beta = _text(complex(row["beta_re"], row["beta_im"]))
        kz = argv[argv.index("--kz") + 1]
        (fano,) = _rows(_succeeds(["fano", argv[1], kz, beta]))
        assert fano["fano"] == row["fano_min"]
    elif command == "sweep-length":
        # each row is optimize --kz at its kz, bit for bit
        for row in _rows(artifact)[:2]:
            (single,) = _rows(_succeeds(["optimize", argv[1], "--kz", repr(row["kz"])]))
            assert single == row
    elif command == "photon-dist":
        # the Fock engine's F and mean are the closed form's
        (fano,) = _rows(_succeeds(["fano", *argv[1:4]]))
        assert math.isclose(artifact["meta"]["fano"], fano["fano"], rel_tol=1e-8), argv
        assert math.isclose(artifact["meta"]["mean"], fano["mean_photon"], rel_tol=1e-8), argv


@given(argv=ARGV)
@settings(max_examples=250, deadline=None)
# mended before this test: an OverflowError traceback from kz_opt_approx,
# from sizing n_max past r^2 overflow (two), and a numpy warning from the
# Kerr phase of shift_amplitude
@example(argv=["optimize", "1.6e231"])
@example(argv=["photon-dist", "1", "0.01", "1e160"])
@example(argv=["wigner", "1", "0.01", "--beta", "1e200", "--resolution", "11"])
@example(argv=["wigner", "1e154", "1e-308", "--resolution", "11"])
# numpy warnings from a shift product past the largest double, and from a
# design target whose F underflows
@example(argv=["photon-dist", "200", "0.001", "1e308"])
@example(argv=["photon-dist", "(1.83697019872103e-15,30.0)", "0.00023344087187089074",
               "(1.5163903251693752e+308,-9.655366325851218e+307)"])
@example(argv=["design", "4.97", "--preset", "si3n4", "--target-db", "-3300"])
# found by this test: numpy warnings from a window and a kz grid past the
# largest double, and a Fock F far off the closed form's at a Kerr phase
# kz n^2 of 1e303
@example(argv=["wigner", "0", "0", "--half-width", "1.7976931348623157e+308"])
@example(argv=["sweep-length", "1", "--kz-min", "0.0", "--kz-max", "1.7976931348623157e+308",
               "--kz-points", "4"])
@example(argv=["photon-dist", "1", "1e300", "1"])
# the closed form refused |alpha|^2 = 0 with |beta|^2 = inf, where the Fock
# engine shifts by 2.2e-13 and 9e-16
@example(argv=["photon-dist", "(2.2250738585e-313,0.0)", "0.0", "(1e+300,0.0)"])
@example(argv=["photon-dist", "(0.0,5e-324)", "1.087", "(0.0,1.7976931348623157e+308)"])
# D(-alpha)|alpha> is the vacuum: photon-dist wrote its rounding residue as
# a mean of 8.4e-32 with F = 3.31, where fano refuses by DENOM_FLOOR
@example(argv=["photon-dist", "1", "0", "-1"])
# a displacement band of one diagonal left tiny shifts out: photon-dist gave
# the undisplaced mean (1e-320 for fano's 4e-320), refused a mean that fano
# computes, and let the vacuum at |alpha| = 1e-100 through
@example(argv=["photon-dist", "1e-160", "0.1", "1"])
@example(argv=["photon-dist", "1e-162", "0.1", "1"])
@example(argv=["photon-dist", "1e-200", "0.1", "1e150"])
@example(argv=["photon-dist", "1e-100", "0", "-1"])
# two diagonals seeded by _seed overflow at the smallest shift, so they run
# from column 0
@example(argv=["wigner", "9", "0", "--beta", "5e-324"])
def test_cli_contract(argv):
    code, err, caught, artifact = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    assert caught == [], (argv, caught)
    lines = err.splitlines()
    if code in (2, 3):
        assert sum("error:" in line for line in lines) == 1, err
        lines = [line for line in lines if "error:" not in line and not line.startswith(
            ("usage:", " "))]
    # the one warning is wigner's line on a map that does not resolve the state
    assert all(argv[0] == "wigner" and line.startswith("warning: grid step")
               for line in lines), (argv, err)
    if code not in (0, 4):
        return
    assert all(math.isfinite(v) for v in _numbers(artifact)), argv
    meta = artifact["meta"]
    if "fano" in meta:
        assert meta["fano"] >= 0
    if "columns" in artifact["data"]:
        for row in _rows(artifact):
            for name in ("fano", "fano_min", "probability", "poisson_same_mean"):
                assert row.get(name, 0) >= 0
    if code == 0:
        _check_identities(argv, artifact)
