"""Run one kerrshift CLI call in this process and report its timings.

    python3 launch.py SRC TIMING_JSON TRACE_JSON|- OP_ID -- CLI_ARGS...

Imports kerrshift.cli from SRC (and refuses any other copy), times the import
and the call to kerrshift.cli.main(CLI_ARGS), and writes
{"import_s", "main_s", "exit"} to TIMING_JSON. The exit code is the CLI's.
With a TRACE_JSON path, each layer's public functions are wrapped before
main runs (see trace_layers.py) and the spans and counts are written there at exit.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    src, timing_path, trace_path, op_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py SRC TIMING_JSON TRACE_JSON|- OP_ID -- CLI_ARGS...")
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import kerrshift.cli as cli
    import_s = time.perf_counter() - t0
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"kerrshift imported from {cli.__file__}, not from {src}")

    tracer = None
    entry = cli.main
    if trace_path != "-":
        from trace_layers import Tracer  # this script's directory is on sys.path
        tracer = Tracer(int(op_id))
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")

    t1 = time.perf_counter()
    try:
        code = entry(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    main_s = time.perf_counter() - t1

    Path(timing_path).write_text(json.dumps(
        {"import_s": import_s, "main_s": main_s, "exit": code}))
    if tracer is not None:
        tracer.dump(Path(trace_path), import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
