"""The names bench/trace_layers.py wraps must exist in kerrshift.

The benchmark's --trace runs rebind each function listed in its LAYERS table
on the kerrshift module of that layer, and Artifact.render, by name. A name
that a refactor removes or moves breaks those runs, so it is checked here,
and so is that importing kerrshift.cli loads every layer module the tracer
looks up. The table is read from the source without importing the benchmark.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "trace_layers.py"


def _layers() -> dict:
    for node in ast.parse(TRACE_LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACE_LAYERS}")


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in _layers().items() for name in names])
def test_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"kerrshift.{layer}"), name))


def test_traced_render_resolves():
    assert callable(importlib.import_module("kerrshift.serialize").Artifact.render)


def test_cli_import_loads_every_traced_layer():
    # the tracer looks each layer up in sys.modules after importing
    # kerrshift.cli; the package root imports nothing, so cli must load them
    code = ("import sys, kerrshift.cli; "
            f"print(sorted(m for m in {sorted(_layers())!r} "
            "if 'kerrshift.' + m not in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True, env=checkout_env())
    assert result.stdout.strip() == "[]"
