"""In-memory span trace around kerrshift's layer boundaries.

The benchmark wraps each layer's public functions from outside the package:
every module-level binding of a wrapped function in any loaded kerrshift
module (the defining module and every `from ... import` of it) is replaced
by one wrapper, so calls between modules and within a module are seen
alike. Spans are (name, start, end, parent) in the order they start; a
flag records whether a span is the outermost one of its name and of its
layer, so inclusive times do not count recursion or nesting twice. Counts
are summed per call in memory. Everything is written once, at exit.
"""

from __future__ import annotations

import json
import sys
import time

# layer module -> public functions wrapped in it
LAYERS = {
    "reproduce": ("build",),
    "optimize": ("optimize_beta", "optimize_length", "sweep_length"),
    "moments": ("fano_values", "fano_displaced"),
    "fock": ("coherent_state", "kerr_evolve", "displace", "displacement_matrix",
             "photon_distribution"),
    "wigner": ("wigner", "wigner_at", "auto_window"),
    "serialize": ("to_json_text",),
}

OUTER_NAME = 1
OUTER_LAYER = 2


def _basis(args, state) -> dict:
    return {"fock.basis_levels": state.n_trunc + 1}


def _wigner_points(args, values) -> dict:
    points, n = int(values.size), args[0].n_trunc
    return {"wigner.points": points, "wigner.pair_terms": points * (n + 1) * (n + 2) // 2}


# Work counts taken at the boundary, from (positional arguments, result).
# Matrix bytes and pair terms are computed from sizes, not measured.
COUNTS = {
    "fock.coherent_state": _basis,
    "fock.displace": _basis,
    "fock.displacement_matrix": lambda args, _: {"fock.matrix_bytes": 16 * (args[1] + 1) ** 2},
    "wigner.wigner_at": _wigner_points,
}


class Tracer:
    """Spans and counts of one CLI call, kept in memory until dump()."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, active, counts = self.spans, self.stack, self.active, self.counts
        count = COUNTS.get(name)
        bytes_out = layer == "serialize"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            flags = (OUTER_NAME if not active.get(name) else 0) | \
                    (OUTER_LAYER if not active.get(layer) else 0)
            idx = len(spans)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, flags]
            spans.append(span)
            stack.append(idx)
            active[name] = active.get(name, 0) + 1
            active[layer] = active.get(layer, 0) + 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1
                active[layer] -= 1
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            if bytes_out and flags & OUTER_LAYER:
                counts["serialize.bytes"] = counts.get("serialize.bytes", 0) \
                    + len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function at each binding in loaded kerrshift modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "kerrshift" or k.startswith("kerrshift."))]
        for layer, fn_names in LAYERS.items():
            home = sys.modules[f"kerrshift.{layer}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapped = self.wrap(original, f"{layer}.{fn_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        artifact = sys.modules["kerrshift.serialize"].Artifact
        artifact.render = self.wrap(artifact.render, "serialize.render")

    def dump(self, path, import_s: float) -> None:
        path.write_text(json.dumps({
            "op": self.op_id, "import_s": import_s, "names": self.names,
            "spans": self.spans, "counts": self.counts}))


def summarize(trace: dict) -> dict:
    """Per-layer figures of one traced call.

    <name>_s is the inclusive time of the outermost spans of that name,
    <layer>.total_s that of the outermost spans of the layer, <layer>.self_s
    the layer's time minus its traced children, <name>_calls a span count.
    """
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = dict(trace["counts"])
    for i, (name_idx, start, end, _, flags) in enumerate(spans):
        name = names[name_idx]
        layer = name.split(".", 1)[0]
        duration = end - start
        if flags & OUTER_NAME:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + duration
        if flags & OUTER_LAYER:
            out[f"{layer}.total_s"] = out.get(f"{layer}.total_s", 0.0) + duration
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + duration - child[i]
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
    return out
