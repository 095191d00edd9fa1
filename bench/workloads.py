"""The benchmark's workloads: CLI calls generated from a seed, and their checks.

A workload is a fixed list of operations; one operation is one kerrshift CLI
call. The seed draws each call's inputs within a narrow stratum, so every
seed does the same kind and amount of work (see README.md). Each operation
carries a check that reads the artifact the call wrote and compares it with
references.py or with properties the method must have; it returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

WORKLOADS = ("closed_form", "fock_oracle", "wigner_map")
PURE_STATE_BOUND = 2.0 / np.pi

# Tolerances, each well above the agreement measured between program and
# reference and well below any physically meaningful error.
F_MIN_RTOL = 1e-8        # reported minimum vs the pencil minimum (seen: <= 3e-10)
F_AT_RTOL = 1e-10        # F at the reported shift vs the closed form (seen: <= 6e-14)
MEAN_RTOL = 1e-10        # mean photon number at the reported shift
BETA_RTOL = 1e-5         # |beta| of a reported optimum vs the pencil eigenvector
LOCAL_MIN_STEP = 1e-3    # relative kz step of the local-minimum check
PROB_ATOL = 1e-10        # |p_n - |psi_n|^2| (seen: <= 2.2e-13)
FANO_ROWS_RTOL = 1e-8    # F from the artifact's rows vs the closed form
FANO_META_RTOL = 1e-6    # F in the artifact's meta (summed with cancellation)
W_ATOL = 1e-10           # W at sampled grid points vs the parity formula
# The 201^2 auto window of the alpha ~ 10 optimum has a step of 0.16, wider than
# the squeezed state's radial width (~0.07): its Riemann sum was seen at 0.995-1.001.
INTEGRAL_ATOL = 0.02     # grid integral of W vs 1
W_POINTS = 12            # sampled grid points per Wigner map


def _exit_zero(code: int, path: str) -> bool:
    return code == 0


@dataclass
class Op:
    """One CLI call: arguments without --format/--out, the artifact format,
    the test of its exit code, and the check of its artifact."""

    label: str
    args: list[str]
    fmt: str
    check: Callable[[str], list[str]]
    succeeded: Callable[[int, str], bool] = _exit_zero
    # The inputs are fixed and meet a known program fault, so the check fails
    # on every run: the call counts as failed instead of making the run incorrect.
    known_fault: bool = False


def cplx(z: complex) -> str:
    """CLI form of a complex number, parenthesized so a leading '-' is no flag."""
    z = complex(z)
    return f"({z.real!r},{z.imag!r})"


def num(x: float) -> str:
    """CLI form of a real number, with every digit."""
    return repr(float(x))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _json_rows(path: str) -> tuple[dict, list[list]]:
    with open(path) as fh:
        doc = json.load(fh)
    return doc, doc["data"]["rows"]


def _pick(rng, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * rng.random())


def _amplitude(rng, lo: float, hi: float) -> complex:
    """|alpha| drawn in [lo, hi], phase drawn over the full circle."""
    return complex(_pick(rng, lo, hi) * np.exp(2j * np.pi * rng.random()))


# ------------------------------------------------------------ optimum checks

def check_optimum(alpha: complex, kz: float, fano_min: float, where: str,
                  beta: complex | None = None, beta_abs: float | None = None,
                  mean_photon: float | None = None,
                  local_min: bool = False) -> list[str]:
    """A reported optimum at (alpha, kz) is the global minimum over the shift.

    With the reported beta, F and the mean photon number must also be the
    closed form's at that beta; without it, |beta| and the mean are compared
    with those of the pencil's eigenvector.
    """
    problems = []
    f_ref, delta_ref = ref.pencil_minimum(alpha, kz)
    if _rel(fano_min, f_ref) > F_MIN_RTOL:
        problems.append(f"{where}: F_min {fano_min!r} vs pencil minimum {f_ref!r}")
    if not fano_min <= 1.0:
        problems.append(f"{where}: F_min {fano_min!r} above 1")
    if beta_abs is not None and \
            _rel(beta_abs, abs(ref.beta_from_shift(alpha, kz, delta_ref))) > BETA_RTOL:
        problems.append(f"{where}: |beta| {beta_abs!r} is not the pencil optimum's")
    if beta is not None:
        f_at, mean_at = ref.fano(alpha, kz, ref.shift_from_beta(alpha, kz, beta))
        if _rel(fano_min, f_at) > F_AT_RTOL:
            problems.append(f"{where}: F {fano_min!r} vs closed form {f_at!r} at its beta")
        mean_rtol = MEAN_RTOL
    else:
        mean_at, mean_rtol = ref.fano(alpha, kz, delta_ref)[1], BETA_RTOL
    if mean_photon is not None and _rel(mean_photon, mean_at) > mean_rtol:
        problems.append(f"{where}: mean photon {mean_photon!r} vs "
                        f"|alpha|^2 x denominator form {mean_at!r}")
    if local_min:
        for step in (-LOCAL_MIN_STEP, LOCAL_MIN_STEP):
            if ref.pencil_minimum(alpha, kz * (1.0 + step))[0] < f_ref:
                problems.append(f"{where}: kz_opt {kz!r} is not a local minimum "
                                f"(step {step:+g})")
    return problems


def _optimum_row_check(alpha: complex, kz_given: float | None = None,
                       local_min: bool = False):
    def check(path):
        _, rows = _json_rows(path)
        problems = []
        for i, (kz, b_re, b_im, b_abs, f, db, mean) in enumerate(rows):
            where = f"row {i}"
            if kz_given is not None and kz != kz_given:
                problems.append(f"{where}: kz {kz!r} is not the requested {kz_given!r}")
            problems += check_optimum(alpha, kz, f, where, complex(b_re, b_im),
                                      b_abs, mean, local_min)
            if _rel(db, 10.0 * np.log10(f)) > 1e-12:
                problems.append(f"{where}: suppression {db!r} dB is not 10 log10 F")
        return problems
    return check


def _sweep_check(alpha: complex, kz_values: np.ndarray):
    row_check = _optimum_row_check(alpha)

    def check(path):
        _, rows = _json_rows(path)
        problems = row_check(path)
        got = np.array([r[0] for r in rows])
        if len(got) != len(kz_values) or np.max(np.abs(got / kz_values - 1.0)) > 1e-14:
            problems.append("sweep kz values differ from the requested grid")
        return problems
    return check


def _fano_check(alpha: complex, kz: float, beta: complex):
    def check(path):
        _, rows = _json_rows(path)
        mean, var, f, mandel_q, db = rows[0]
        f_ref, mean_ref = ref.fano(alpha, kz, ref.shift_from_beta(alpha, kz, beta))
        problems = []
        if _rel(f, f_ref) > F_AT_RTOL:
            problems.append(f"fano {f!r} vs closed form {f_ref!r}")
        if _rel(mean, mean_ref) > MEAN_RTOL:
            problems.append(f"mean {mean!r} vs closed form {mean_ref!r}")
        if _rel(var, f_ref * mean_ref) > F_AT_RTOL:
            problems.append(f"variance {var!r} vs closed form {f_ref * mean_ref!r}")
        if abs(mandel_q - (f - 1.0)) > 1e-15:
            problems.append("mandel Q is not F - 1")
        return problems
    return check


# ----------------------------------------------------------- reproduce checks

def _table1_succeeded(code: int, path: str) -> bool:
    """Exit 4 listing only the alpha = 10 mean photon cell: the published 98.6
    contradicts the paper's own F = 0.0203 and variance 1.99, and the exact
    98.097 misses it by -0.510% against a 0.5% tolerance."""
    if code != 4:
        return False
    with open(path) as fh:
        failures = json.load(fh).get("failures", [])
    return len(failures) == 1 and failures[0].startswith("alpha=10: mean_photon")


def _check_table1(path):
    _, rows = _json_rows(path)
    problems = []
    for row in rows:
        alpha, f = row[0], row[1]
        kz, b_abs, mean = row[4], row[7], row[10]
        problems += check_optimum(complex(alpha), kz, f, f"table1 alpha={alpha}",
                                  beta_abs=b_abs, mean_photon=mean, local_min=True)
    return problems


def _check_table2(path):
    _, rows = _json_rows(path)
    problems = []
    # |a|^2 = P tau_coh / (hbar omega): |a|^2 df / P is one constant;
    # z_opt ~ N^{1/3} / P: z_opt P / |a|^{2/3} is another
    photon_scale = [r[2] ** 2 * r[0] / r[1] for r in rows]
    length_scale = [r[8] * r[1] / r[2] ** (2.0 / 3.0) for r in rows]
    for name, vals in (("|a|^2 df / P", photon_scale), ("z_opt P / |a|^(2/3)", length_scale)):
        if max(vals) / min(vals) - 1.0 > 1e-12:
            problems.append(f"table2: {name} not constant across rows")
    for r in rows:
        floor_db = 10.0 * np.log10(ref.near_optimum_floor(r[2]))
        if abs(r[5] - floor_db) > 1e-9:
            problems.append(f"table2: fano_db {r[5]!r} vs near-optimum floor {floor_db!r}")
    return problems


def _check_table3(path):
    _, rows = _json_rows(path)
    problems = []
    for r in rows:
        target_db, x, z10, z100 = r[0], r[2], r[5], r[8]
        fano = 10.0 ** (target_db / 10.0)
        short = np.exp(-4.0 * x + x * x)
        near = 1.0 / (16.0 * x * x)
        if min(_rel(short, fano) if x < 2.0 else 1.0, _rel(near, fano)) > 1e-12:
            problems.append(f"table3: x = {x!r} solves neither length law at {target_db} dB")
        if _rel(z10, 10.0 * z100) > 1e-12:
            problems.append(f"table3: z is not inversely proportional to power at {target_db} dB")
    ratio = [r[5] / r[2] for r in rows]
    if max(ratio) / min(ratio) - 1.0 > 1e-12:
        problems.append("table3: z / x not constant across targets")
    return problems


def _check_fig3(path):
    _, rows = _json_rows(path)
    problems = []
    for i, r in enumerate(rows):
        alpha, kz, f, db, b_re, b_im, b_abs, mean, is_opt = r
        problems += check_optimum(complex(alpha), kz, f, f"fig3 row {i}",
                                  complex(b_re, b_im), b_abs, mean, local_min=is_opt)
    return problems


def _check_fig4(path):
    doc, rows = _json_rows(path)
    problems = []
    alpha = doc["meta"]["config"]["alpha"]
    a2 = alpha * alpha
    for i, r in enumerate(rows):
        kz, f, f1, f2 = r[0], r[1], r[3], r[4]
        f_ref = ref.pencil_minimum(complex(alpha), kz)[0]
        if _rel(f, f_ref) > F_MIN_RTOL:
            problems.append(f"fig4 row {i}: F {f!r} vs pencil minimum {f_ref!r}")
        if _rel(f1, np.exp(-4.0 * a2 * kz + a2 * a2 * kz * kz)) > 1e-12:
            problems.append(f"fig4 row {i}: F1 is not the short-length law")
        if _rel(f2, (8.0 / 3.0) * a2 * a2 * kz ** 4 + 1.0 / (16.0 * a2 * a2 * kz * kz)) > 1e-12:
            problems.append(f"fig4 row {i}: F2 is not the near-optimum law")
    return problems


def _check_fig5(path):
    _, rows = _json_rows(path)
    problems = []
    for r in rows:
        alpha, kz, kz_app, f, f_app = r[0], r[1], r[2], r[3], r[4]
        problems += check_optimum(complex(alpha), kz, f, f"fig5 alpha={alpha}",
                                  local_min=True)
        if _rel(f_app, ref.near_optimum_floor(alpha)) > 1e-9:
            problems.append(f"fig5 alpha={alpha}: F approximation is not the near-optimum floor")
        if _rel(kz_app, ref.length_scale(alpha)) > 1e-12:
            problems.append(f"fig5 alpha={alpha}: kz approximation is not the near-optimum argmin")
    slope = np.polyfit(np.log([r[0] for r in rows]), np.log([r[3] for r in rows]), 1)[0]
    if abs(slope + 4.0 / 3.0) > 0.05:
        problems.append(f"fig5: F_min scales as alpha^{slope:.4f}, not alpha^(-4/3)")
    return problems


# ------------------------------------------------------- Fock and Wigner checks

def _photon_dist_check(alpha: complex, kz: float, beta: complex):
    def check(path):
        doc, rows = _json_rows(path)
        probs = np.array([r[1] for r in rows])
        n = np.array([r[0] for r in rows], dtype=float)
        problems = []
        if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            problems.append(f"probabilities not a distribution (sum {probs.sum()!r})")
        delta = ref.shift_from_beta(alpha, kz, beta)
        ket_probs = np.abs(ref.displaced_kerr_ket(alpha, kz, delta)) ** 2
        if len(ket_probs) < len(probs):
            ket_probs = np.pad(ket_probs, (0, len(probs) - len(ket_probs)))
        worst = max(np.max(np.abs(probs - ket_probs[: len(probs)])),
                    ket_probs[len(probs):].sum())
        if worst > PROB_ATOL:
            problems.append(f"p_n differs from the expm_multiply ket by {worst:.3g}")
        f_ref, mean_ref = ref.fano(alpha, kz, delta)
        mean = float(probs @ n)
        f_rows = float(probs @ (n - mean) ** 2) / mean
        if _rel(f_rows, f_ref) > FANO_ROWS_RTOL:
            problems.append(f"F from the rows {f_rows!r} vs closed form {f_ref!r}")
        if _rel(doc["meta"]["fano"], f_ref) > FANO_META_RTOL:
            problems.append(f"meta fano {doc['meta']['fano']!r} vs closed form {f_ref!r}")
        if _rel(mean, mean_ref) > FANO_ROWS_RTOL:
            problems.append(f"mean from the rows {mean!r} vs closed form {mean_ref!r}")
        return problems
    return check


def _read_grid(path: str, fmt: str):
    """(xs, ys, values[i][j] at xs[i] + i ys[j]) from a wigner artifact."""
    if fmt == "json":
        with open(path) as fh:
            data = json.load(fh)["data"]
        return np.array(data["xs"]), np.array(data["ys"]), np.array(data["values"])
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = np.array([[float(v) for v in r] for r in csv.reader(lines[1:])])
    xs, ys = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    return xs, ys, rows[:, 2].reshape(len(xs), len(ys))


def _wigner_check(ket: np.ndarray, fmt: str, seed: int):
    def check(path):
        xs, ys, values = _read_grid(path, fmt)
        problems = []
        if values.max() > PURE_STATE_BOUND + 1e-12 or values.min() < -PURE_STATE_BOUND - 1e-12:
            problems.append(f"W outside [-2/pi, 2/pi]: [{values.min()!r}, {values.max()!r}]")
        integral = values.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
        if abs(integral - 1.0) > INTEGRAL_ATOL:
            problems.append(f"grid integral {integral!r} is not near 1")
        # half the sampled points where |W| is largest, half anywhere on the grid
        rng = np.random.default_rng(seed)
        flat = np.argsort(np.abs(values), axis=None)[::-1][: values.size // 50]
        picks = np.concatenate([rng.choice(flat, W_POINTS // 2, replace=False),
                                rng.choice(values.size, W_POINTS - W_POINTS // 2,
                                           replace=False)])
        for i, j in zip(*np.unravel_index(picks, values.shape)):
            w_ref = ref.parity_wigner(ket, complex(xs[i], ys[j]))
            if abs(values[i, j] - w_ref) > W_ATOL:
                problems.append(f"W({xs[i]!r}, {ys[j]!r}) = {values[i, j]!r} vs "
                                f"parity formula {w_ref!r}")
        return problems
    return check


# ------------------------------------------------------------------ workloads

def closed_form(rng) -> list[Op]:
    """optimize (length and shift), optimize at fixed lengths, one 45-point
    sweep, one fano, and every reproduce target. No Fock or Wigner work.

    optimize_beta at a fixed kz often returns a shift that is not the global
    minimum, with F 1-6% too high: past about 1.3 kz_opt at every |alpha|,
    and from about 0.5 kz_opt up once |alpha| >= 60 (its simplex starts on
    an axis and cannot leave it; see README.md). The sweep and reproduce
    fig3/fig4 reach that range on fixed inputs and are known-fault
    operations. The seeded calls at fixed lengths are drawn where no miss
    was seen; optimize_length warm-starts past the fault.
    """
    ops = []
    for lo, hi in ((5.0, 8.0), (20.0, 40.0), (80.0, 150.0)):
        alpha = _amplitude(rng, lo, hi)
        ops.append(Op(f"optimize-{abs(alpha):.3f}", ["optimize", cplx(alpha)], "json",
                      _optimum_row_check(alpha, local_min=True)))
    for (lo, hi), (c_lo, c_hi) in (((10.0, 30.0), (0.3, 0.6)), ((60.0, 150.0), (0.2, 0.35))):
        alpha = _amplitude(rng, lo, hi)
        kz = _pick(rng, c_lo, c_hi) * ref.length_scale(abs(alpha))
        ops.append(Op(f"optimize-kz-{abs(alpha):.3f}",
                      ["optimize", cplx(alpha), "--kz", num(kz)], "json",
                      _optimum_row_check(alpha, kz_given=kz)))
    alpha = 40.0
    scale = ref.length_scale(alpha)
    kz_min, kz_max = 0.1 * scale, 2.2 * scale
    ops.append(Op("sweep-40", ["sweep-length", num(alpha), "--kz-min", num(kz_min),
                               "--kz-max", num(kz_max), "--kz-points", "45"], "json",
                  _sweep_check(alpha, np.linspace(kz_min, kz_max, 45)), known_fault=True))
    alpha = _amplitude(rng, 5.0, 100.0)
    kz = _pick(rng, 0.5, 2.0) * ref.length_scale(abs(alpha))
    beta = _pick(rng, 0.0, 0.3) * np.exp(2j * np.pi * rng.random())
    ops.append(Op(f"fano-{abs(alpha):.3f}", ["fano", cplx(alpha), num(kz), cplx(beta)],
                  "json", _fano_check(alpha, kz, beta)))
    checks = {"table1": _check_table1, "table2": _check_table2, "table3": _check_table3,
              "fig3": _check_fig3, "fig4": _check_fig4, "fig5": _check_fig5}
    for target, check in checks.items():
        ops.append(Op(f"reproduce-{target}", ["reproduce", target], "json", check,
                      _table1_succeeded if target == "table1" else _exit_zero,
                      known_fault=target in ("fig3", "fig4")))
    return ops


def fock_oracle(rng) -> list[Op]:
    """photon-dist at the optimum (kz, beta) for |alpha| ~ 10 .. 60 (about 260
    to 4500 levels), plus one shift several times the optimal one at ~25.

    coherent_state fails on about 8% of |alpha| drawn from [35, 62] (its tail
    test is below the rounding error of the probability sum), so the two
    largest magnitudes are fixed and only their phase is drawn.
    """
    ops = []
    for centre, spread in ((10.0, 0.02), (20.0, 0.02), (30.0, 0.02), (45.0, 0.0),
                           (60.0, 0.0)):
        alpha = _amplitude(rng, centre * (1.0 - spread), centre * (1.0 + spread))
        kz, _, delta = ref.length_optimum(alpha)
        beta = ref.beta_from_shift(alpha, kz, delta)
        ops.append(Op(f"photon-dist-{abs(alpha):.3f}",
                      ["photon-dist", cplx(alpha), num(kz), cplx(beta)], "json",
                      _photon_dist_check(alpha, kz, beta)))
    alpha = _amplitude(rng, 24.5, 25.5)
    kz, _, delta = ref.length_optimum(alpha)
    beta = _pick(rng, 3.5, 4.5) * ref.beta_from_shift(alpha, kz, delta)
    ops.append(Op(f"photon-dist-wide-{abs(alpha):.3f}",
                  ["photon-dist", cplx(alpha), num(kz), cplx(beta)], "json",
                  _photon_dist_check(alpha, kz, beta)))
    return ops


def wigner_map(rng) -> list[Op]:
    """wigner at 201^2 on the auto window: the |alpha| ~ 10 optimum displaced
    state as JSON, and an undisplaced |alpha| ~ 5 Kerr state as CSV."""
    alpha = _amplitude(rng, 9.98, 10.02)
    kz, _, delta = ref.length_optimum(alpha)
    beta = ref.beta_from_shift(alpha, kz, delta)
    ket = ref.displaced_kerr_ket(alpha, kz, delta)
    ops = [Op(f"wigner-optimum-{abs(alpha):.3f}",
              ["wigner", cplx(alpha), num(kz), "--beta", cplx(beta)], "json",
              _wigner_check(ket, "json", int(rng.integers(2 ** 32))))]
    alpha = _amplitude(rng, 4.98, 5.02)
    kz = _pick(rng, 0.04, 0.12)
    ket = ref.kerr_ket(alpha, kz, ref.levels_for_radius(abs(alpha)))
    ops.append(Op(f"wigner-kerr-{abs(alpha):.3f}", ["wigner", cplx(alpha), num(kz)], "csv",
                  _wigner_check(ket, "csv", int(rng.integers(2 ** 32)))))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed; the same seed gives the same calls."""
    # seed % 2**64 keeps every integer seed valid for SeedSequence
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    return {"closed_form": closed_form, "fock_oracle": fock_oracle,
            "wigner_map": wigner_map}[workload](rng)
