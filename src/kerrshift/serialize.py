"""Deterministic artifact serialization, and the `key = value` file reader.

Artifacts are byte-stable: floats are written with 17 significant digits,
key order is fixed, and no timestamps are embedded. CSV artifacts carry the
producing config as '# key=value' comment lines above the header; JSON
artifacts carry it under the top-level 'meta' key.

A table is a list of lists, with cells of any type; a real numpy array,
1-D or 2-D in JSON and 2-D as Artifact rows; or a Grid, the rows
(xs[i], ys[j], values[i, j]) of a 2-D function, which JSON keeps as its two
axes and its values. wigner.wigner() returns its map as a Grid. An array is
rendered in blocks of whole rows, about BLOCK_CELLS cells each, every block
through one '%'-template, so the formatting runs in C with no per-cell
Python dispatch. A Grid formats each axis value once and puts it in the
template as text; only its values are filled in. Every array cell is
written '%.17g', which is fmt_float's text for every double (-0, inf and
nan included); integral values below 2**53 print as integers. A wigner
artifact's Grid holds 0 in every cell whose |W| is below its meta w_floor
(cli.cmd_wigner), so those cells are written 0; the others are written as
every cell is.

Artifact.write sends those blocks to a stream one at a time, so writing a
table holds one block of its text, not all of it; Artifact.render joins the
same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Cells per rendered block. While a block renders, its template, its cells
# as Python floats and its text take about 250 B per cell under tracemalloc,
# so a block of whole rows this size holds about 0.25 MB however large the
# table. Sizes from 2**10 to 2**13 render a 201^2 grid equally fast.
BLOCK_CELLS = 2 ** 10


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


def _row_blocks(n_rows: int, row_cells: int):
    """Slices of whole rows, about BLOCK_CELLS cells each."""
    step = max(1, BLOCK_CELLS // max(1, row_cells))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _fill(table: np.ndarray, row_head: str, cell_sep: str, row_tail: str,
          row_sep: str):
    """The rows of a 2-D real array, joined by row_sep, in blocks of rows,
    each block through one %-template."""
    n, m = table.shape
    row = row_head + cell_sep.join(["%.17g"] * m) + row_tail
    for block in _row_blocks(n, m):
        rows = table[block]
        if block.start:
            yield row_sep
        yield row_sep.join([row] * len(rows)) % tuple(rows.ravel().tolist())


@dataclass(frozen=True)
class Grid:
    """The table of a function on the grid xs x ys: the row
    (xs[i], ys[j], values[i, j]) for every i and j, j running fastest."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _real_array(self.xs, ndims=(1,))
        _real_array(self.ys, ndims=(1,))
        if _real_array(self.values, ndims=(2,)).shape != (len(self.xs), len(self.ys)):
            raise ValueError(f"grid values of shape {self.values.shape} do not "
                             f"match axes of {len(self.xs)} and {len(self.ys)} points")

    def integral(self) -> float:
        dx = (self.xs[-1] - self.xs[0]) / (len(self.xs) - 1)
        dy = (self.ys[-1] - self.ys[0]) / (len(self.ys) - 1)
        return float(self.values.sum() * dx * dy)

    def csv_blocks(self):
        """The CSV rows in blocks of whole x-rows. Each axis value is
        formatted once; the template of the x-row at x is
        x + x.join([",<y_j>,%.17g\n" for each y_j]), filled with values[i]."""
        if not self.values.size:
            return
        xs = ["%.17g" % x for x in self.xs.tolist()]
        cells = [",%.17g,%%.17g\n" % y for y in self.ys.tolist()]
        for block in _row_blocks(len(xs), len(cells)):
            template = "".join([x + x.join(cells) for x in xs[block]])
            yield template % tuple(self.values[block].ravel().tolist())


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_blocks(value, indent: int):
    """The JSON text of value, in pieces: an array in blocks of rows, a dict
    or a list of containers item by item, anything else whole."""
    pad = " " * indent
    if isinstance(value, np.ndarray) and value.ndim:
        if not len(_real_array(value)):
            yield "[]"
        elif value.ndim == 1:
            yield "["
            yield from _fill(value[None], "", ", ", "", "")
            yield "]"
        else:
            yield "[\n"
            yield from _fill(value, pad + "  [", ", ", "]", ",\n")
            yield "\n" + pad + "]"
    elif isinstance(value, dict) and value:
        sep = "{\n"
        for key, item in value.items():
            yield f'{sep}{pad}  "{key}": '
            yield from _json_blocks(item, indent + 2)
            sep = ",\n"
        yield "\n" + pad + "}"
    elif (isinstance(value, (list, tuple))
          and any(isinstance(v, (dict, list, tuple)) for v in value)):
        sep = "[\n"
        for item in value:
            yield sep + pad + "  "
            yield from _json_blocks(item, indent + 2)
            sep = ",\n"
        yield "\n" + pad + "]"
    else:
        yield _json_leaf(value, indent)


def _json_leaf(value, indent: int) -> str:
    """A scalar, or a list of scalars (an empty one too). No artifact holds
    None or an empty dict, so neither has a leaf."""
    value = _denumpy(value)
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
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v, indent) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_value(value, indent: int) -> str:
    if isinstance(value, (np.ndarray, dict, list, tuple)):
        return "".join(_json_blocks(value, indent))
    return _json_leaf(value, indent)


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

    `rows` is a list of lists, with cells of any type, a 2-D real numpy
    array, or a Grid. Every cell of an array or a Grid is written '%.17g'
    (see the module docstring); integral values below 2**53 print as
    integers, and a wigner artifact writes its cells below meta w_floor as
    0. `columns` heads the table; the JSON of a Grid is
    {"xs", "ys", "values"} in place of {"columns", "rows"}.

    write(stream, fmt) writes the artifact in blocks of rows; render(fmt)
    joins the same blocks into one string.
    """

    meta: dict
    columns: list[str]
    rows: list[list] | np.ndarray | Grid
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.rows, np.ndarray):
            _real_array(self.rows, ndims=(2,))

    def _json_blocks(self):
        if isinstance(self.rows, Grid):
            data = {"xs": self.rows.xs, "ys": self.rows.ys, "values": self.rows.values}
        else:
            data = {"columns": list(self.columns),
                    "rows": self.rows if isinstance(self.rows, np.ndarray)
                    else [list(r) for r in self.rows]}
        payload = {"meta": self.meta, "data": data}
        if self.failures:
            payload["failures"] = list(self.failures)
        yield from _json_blocks(payload, 0)
        yield "\n"

    def _csv_blocks(self):
        lines = [f"# {k}={v}" for k, v in flatten_meta(self.meta)]
        for failure in self.failures:
            lines.append(f"# failure={failure}")
        lines.append(",".join(_csv_escape(c) for c in self.columns))
        if isinstance(self.rows, Grid):
            yield "\n".join(lines) + "\n"
            yield from self.rows.csv_blocks()
        elif isinstance(self.rows, np.ndarray):
            yield "\n".join(lines) + "\n"
            yield from _fill(self.rows, "", ",", "\n", "")
        else:
            lines.extend(",".join(_csv_escape(fmt_cell(v)) for v in row)
                         for row in self.rows)
            yield "\n".join(lines) + "\n"

    def _blocks(self, fmt: str):
        """The text of the artifact in `fmt` ('json' or 'csv'), in pieces."""
        if fmt == "json":
            return self._json_blocks()
        if fmt == "csv":
            return self._csv_blocks()
        raise ValueError(f"unknown format {fmt!r}")

    def write(self, stream, fmt: str) -> None:
        """Write the artifact to a text stream, one block at a time."""
        for block in self._blocks(fmt):
            stream.write(block)

    def render(self, fmt: str) -> str:
        return "".join(self._blocks(fmt))


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

