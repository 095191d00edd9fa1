"""Deterministic artifact serialization, and the `key = value` file reader.

Artifacts are byte-stable: floats are written with 17 significant digits,
key order is fixed, and no timestamps are embedded. CSV artifacts carry the
producing config as '# key=value' comment lines above the header; JSON
artifacts carry it under the top-level 'meta' key.

A table is either a list of lists, with cells of any type, or a real numpy
array: 1-D or 2-D in JSON, 2-D as Artifact rows. An array is rendered with
one '%'-template per table, so the formatting runs in C with no per-cell
Python dispatch. Every array cell is written '%.17g', which is fmt_float's
text for every double (-0, inf and nan included); integral values below
2**53 print as integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _denumpy(value):
    # numpy scalars (np.float64, np.bool_, ...) to their Python counterparts
    if hasattr(value, "item") and not isinstance(value, (str, bytes, dict, list, tuple)):
        return value.item()
    return value


def fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def fmt_cell(value) -> str:
    value = _denumpy(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _real_array(value: np.ndarray, ndims=(1, 2)) -> np.ndarray:
    if value.dtype.kind not in "fiu":
        raise TypeError(f"cannot serialize an array of dtype {value.dtype}")
    if value.ndim not in ndims:
        raise TypeError(f"cannot serialize a {value.ndim}-d array as a table")
    return value


def _fill(table: np.ndarray, row_head: str, cell_sep: str, row_tail: str,
          row_sep: str) -> str:
    """All rows of a 2-D real array through a single %-template."""
    n, m = table.shape
    row = row_head + cell_sep.join(["%.17g"] * m) + row_tail
    return row_sep.join([row] * n) % tuple(table.ravel().tolist())


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, np.ndarray) and value.ndim:
        value = _real_array(value)
        if not len(value):
            return "[]"
        if value.ndim == 1:
            return "[" + _fill(value[None], "", ", ", "", "") + "]"
        return "[\n" + _fill(value, pad + "  [", ", ", "]", ",\n") + "\n" + pad + "]"
    value = _denumpy(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        escaped = (value.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  "{k}": {_json_value(v, indent + 2)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            return "[]"
        if all(not isinstance(v, (dict, list, tuple)) for v in seq):
            return "[" + ", ".join(_json_value(v, indent) for v in seq) + "]"
        items = [f"{pad}  {_json_value(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_json_text(obj) -> str:
    return _json_value(obj, 0) + "\n"


def flatten_meta(meta: dict, prefix: str = "") -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.extend(flatten_meta(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            out.append((name, ";".join(fmt_cell(v) for v in value)))
        else:
            out.append((name, fmt_cell(value)))
    return out


@dataclass
class Artifact:
    """Tabular result plus the metadata needed to reproduce it.

    `rows` is either a list of lists, with cells of any type, or a 2-D real
    numpy array. Every cell of an array is written '%.17g' (see the module
    docstring); integral values below 2**53 print as integers.
    """

    meta: dict
    columns: list[str]
    rows: list[list] | np.ndarray
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            _real_array(self.rows, ndims=(2,))

    def to_json_text(self) -> str:
        payload = {
            "meta": self.meta,
            "data": {"columns": list(self.columns),
                     "rows": self.rows if isinstance(self.rows, np.ndarray)
                     else [list(r) for r in self.rows]},
        }
        if self.failures:
            payload["failures"] = list(self.failures)
        return to_json_text(payload)

    def to_csv_text(self) -> str:
        lines = [f"# {k}={v}" for k, v in flatten_meta(self.meta)]
        for failure in self.failures:
            lines.append(f"# failure={failure}")
        lines.append(",".join(_csv_escape(c) for c in self.columns))
        if isinstance(self.rows, np.ndarray):
            return "\n".join(lines) + "\n" + _fill(self.rows, "", ",", "\n", "")
        for row in self.rows:
            lines.append(",".join(_csv_escape(fmt_cell(v)) for v in row))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json_text()
        if fmt == "csv":
            return self.to_csv_text()
        raise ValueError(f"unknown format {fmt!r}")


def read_key_values(text: str, kind: str, parsers: dict) -> dict:
    """{key: parsers[key](value)} from the `key = value` lines of a config or
    preset file. '#' starts a comment, blank lines are skipped and a later
    line overrides an earlier one. A line without '=', a key not in `parsers`
    or a value its parser refuses raises ValueError naming the file `kind`,
    the line and the key."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{kind} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in parsers:
            raise ValueError(f"{kind} line {lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](val)
        except ValueError:
            raise ValueError(f"{kind} line {lineno}: {key}: could not parse {val!r} "
                             "as a number") from None
    return values

