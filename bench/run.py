"""kerrshift benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload closed_form|fock_oracle|wigner_map \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/kerrshift).
Each operation is one CLI call in a fresh process, started by launch.py, one
at a time. The workload's operations are repeated in whole rounds until S
seconds have passed; every round runs the same calls. The first round's
artifacts are checked against the independent references; later rounds must
write the same bytes.

--trace 0 prints the end-to-end metrics (medians over rounds; setup_s over
calls). --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones, with the tracing overhead. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

# CLI processes cache byte code, as an installed package does, whatever the
# caller's setting: otherwise every call would also recompile kerrshift.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit
PER_LAYER = {
    "import.kerrshift_s": "s",
    "cli.self_s": "s",
    "serialize.render_s": "s",
    "serialize.bytes": "B",
    "reproduce.self_s": "s",
    "optimize.optimize_length_s": "s",
    "optimize.optimize_beta_s": "s",
    "optimize.sweep_length_s": "s",
    "optimize.optimize_beta_calls": "count",
    "moments.fano_s": "s",
    "moments.fano_values_calls": "count",
    "fock.coherent_state_s": "s",
    "fock.kerr_evolve_s": "s",
    "fock.displace_s": "s",
    "fock.displacement_matrix_s": "s",
    "fock.photon_distribution_s": "s",
    "fock.basis_levels": "count",
    "fock.matrix_bytes": "B",
    "wigner.wigner_at_s": "s",
    "wigner.auto_window_s": "s",
    "wigner.points": "count",
    "wigner.pair_terms": "count",
    "trace.overhead_s": "s",
}
# names in a traced call's summary that differ from the metric's
SUMMARY_KEY = {"serialize.render_s": "serialize.total_s", "moments.fano_s": "moments.total_s"}


class Call:
    """Measurements of one CLI process."""

    def __init__(self, wall_s: float, timing: dict, rss_kb: int):
        self.wall_s = wall_s
        self.main_s = timing["main_s"]
        self.exit = timing["exit"]
        self.rss_mb = rss_kb / 1024.0


def launch(op, path: Path, work: Path, op_id: int,
           trace: bool) -> tuple[float, Call | None, Path | None]:
    """Run one operation in a fresh interpreter: its wall time, and its
    measurements (None if it did not report) and trace file."""
    timing = work / f"timing-{op_id}.json"
    trace_path = work / f"trace-{op_id}.json" if trace else None
    argv = [sys.executable, str(BENCH / "launch.py"), str(SRC), str(timing),
            str(trace_path) if trace else "-", str(op_id), "--",
            *op.args, "--format", op.fmt, "--out", str(path)]
    with open(work / "stdout.txt", "ab") as out, open(work / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=CHILD_ENV)
        _, _, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    if not timing.is_file():
        return wall, None, None
    call = Call(wall, json.loads(timing.read_text()), usage.ru_maxrss)
    timing.unlink()
    return wall, call, trace_path


def run_round(ops, work: Path, round_no: int, modes: tuple[bool, ...], first: dict,
              wrong: dict, problems: list[str], traces: list) -> tuple[dict, int, float]:
    """One pass over the workload, each operation once per mode (untraced and,
    when asked, traced: back to back so both see the same machine, in an order
    that alternates between operations so neither mode always goes first).

    Returns the calls that ran to their end per mode, the number that failed,
    and the wall time of all processes. The first artifact of each operation
    is checked; every later one, traced or not, must have the same bytes. A
    known-fault operation whose check finds problems counts as failed, but its
    timing is kept: it did the work.
    """
    calls = {mode: [] for mode in modes}
    failed, measured = 0, 0.0
    for i, op in enumerate(ops):
        for trace in modes if (round_no + i) % 2 == 0 else modes[::-1]:
            op_id = 2 * (round_no * 1000 + i) + trace
            path = work / f"{op.label}.{op.fmt}"
            path.unlink(missing_ok=True)
            wall, call, trace_path = launch(op, path, work, op_id, trace)
            measured += wall
            if call is None or not path.is_file() or not op.succeeded(call.exit, str(path)):
                failed += 1
                detail = f"exit {call.exit}" if call is not None else "no timing"
                print(f"FAILED {op.label} ({detail}): {' '.join(op.args)}", file=sys.stderr)
                continue
            calls[trace].append(call)
            data = path.read_bytes()
            if op.label not in first:
                first[op.label] = data
                wrong[op.label] = [f"{op.label}: {p}" for p in op.check(str(path))]
                if op.known_fault:
                    for p in wrong[op.label][:3]:
                        print(f"KNOWN FAULT {p}", file=sys.stderr)
                else:
                    problems += wrong[op.label]
            elif data != first[op.label]:
                problems.append(f"{op.label}: artifact bytes differ between calls")
            if op.known_fault and wrong[op.label]:
                failed += 1
            if trace_path is not None:
                traces.append((op.label, json.loads(trace_path.read_text())))
                trace_path.unlink()
    return calls, failed, measured


def end_to_end(rounds: list[list[Call]]) -> dict:
    setup = [c.wall_s - c.main_s for calls in rounds for c in calls]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(c.wall_s for c in calls) for calls in rounds),
        "compute_s": statistics.median(sum(c.main_s for c in calls) for calls in rounds),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in calls) for calls in rounds),
    }


def per_layer(traced_rounds: list[list], untraced: list[list[Call]],
              traced: list[list[Call]]) -> dict:
    from trace_layers import summarize
    per_round = []
    for traces in traced_rounds:
        totals = dict.fromkeys(PER_LAYER, 0.0)
        summaries = [summarize(t) for _, t in traces]
        totals["import.kerrshift_s"] = statistics.median(t["import_s"] for _, t in traces)
        for name in PER_LAYER:
            if name in ("import.kerrshift_s", "trace.overhead_s"):
                continue
            key = SUMMARY_KEY.get(name, name)
            totals[name] = sum(s.get(key, 0) for s in summaries)
        per_round.append(totals)
    out = {name: statistics.median(r[name] for r in per_round) for name in PER_LAYER}
    out["trace.overhead_s"] = (end_to_end(traced)["compute_s"]
                               - end_to_end(untraced)["compute_s"])
    return {name: float(v) if PER_LAYER[name] == "s" else int(v) for name, v in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "kerrshift" / "cli.py").is_file():
        print(f"error: no kerrshift sources under {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # untimed warm-up: byte-compiles the package once
        warm = workloads.Op("warmup", ["fano", "3", "0.1", "0"], "json", lambda _: [])
        launch(warm, work / "warmup.json", work, 999_999, False)

        first: dict[str, bytes] = {}
        wrong: dict[str, list[str]] = {}
        problems: list[str] = []
        untraced, traced, traced_runs = [], [], []
        modes = (False, True) if args.trace else (False,)
        attempted = failed = 0
        measured = 0.0
        round_no = 0
        # only the CLI processes' time counts toward --seconds, not the checks
        while round_no == 0 or measured < args.seconds:
            traces: list = []
            calls, bad, wall = run_round(ops, work, round_no, modes, first, wrong,
                                          problems, traces)
            print(f"round {round_no}: wall {wall:.3f} s, compute "
                  + ", ".join(f"{sum(c.main_s for c in calls[m]):.3f} s"
                              + (" traced" if m else "") for m in modes)
                  + f", failed {bad}", file=sys.stderr)
            measured += wall
            attempted += len(ops) * len(modes)
            failed += bad
            if calls[False]:
                untraced.append(calls[False])
            if args.trace and calls[True]:
                traced.append(calls[True])
                traced_runs.append(traces)
                if round_no == 0:
                    (OUT / f"trace-{args.workload}-{args.seed}.json").write_text(
                        json.dumps([{"label": label, **t} for label, t in traces]))
            round_no += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"CHECK {p}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        values, units = per_layer(traced_runs, untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
