"""Print the lines of src/kerrshift that the test suite never executes.

Runs pytest in this process under the standard library's trace module, then
prints, for each module, the lines that hold bytecode and recorded no count:

    PYTHONPATH=src python tests/unreached_lines.py [pytest arguments]

Lines that only a subprocess runs (the entry point, for one) show as
unreached. The traced run takes several times as long as a plain one.
"""

import functools
import os
import sys
import trace
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kerrshift"


def executable_lines(path: Path) -> set[int]:
    """The lines of path that hold bytecode, in every nested code object."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(args: list[str]) -> int:
    tracer = trace.Trace(count=1, trace=0)
    # only the package's frames are counted; trace's own ignore list caches
    # by module base name, so that an __init__ or errors.py met first in
    # site-packages would hide the package's
    inside = str(SRC) + os.sep
    tracer.ignore = types.SimpleNamespace(names=functools.lru_cache(maxsize=None)(
        lambda filename, _: not filename.startswith(inside)))
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *args])
    reached = {}
    for name, line in tracer.results().counts:
        reached.setdefault(Path(name).resolve(), set()).add(line)
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(executable_lines(path) - reached.get(path, set()))
        if missed:
            print(f"{path.relative_to(SRC.parent.parent)}: {', '.join(map(str, missed))}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
