"""Deterministic artifact and config serialization.

Artifacts are byte-stable: floats are written with 17 significant digits,
key order is fixed, and no timestamps are embedded. CSV artifacts carry the
producing config as '# key=value' comment lines above the header; JSON
artifacts carry it under the top-level 'meta' key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


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
    if isinstance(value, int):
        return str(value)
    return str(value)


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value, indent: int) -> str:
    pad = " " * indent
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
    """Tabular result plus the metadata needed to reproduce it."""

    meta: dict
    columns: list[str]
    rows: list[list]
    failures: list[str] = field(default_factory=list)

    def to_json_text(self) -> str:
        payload = {
            "meta": self.meta,
            "data": {"columns": list(self.columns),
                     "rows": [list(r) for r in self.rows]},
        }
        if self.failures:
            payload["failures"] = list(self.failures)
        return to_json_text(payload)

    def to_csv_text(self) -> str:
        lines = [f"# {k}={v}" for k, v in flatten_meta(self.meta)]
        for failure in self.failures:
            lines.append(f"# failure={failure}")
        lines.append(",".join(_csv_escape(c) for c in self.columns))
        for row in self.rows:
            lines.append(",".join(_csv_escape(fmt_cell(v)) for v in row))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json_text()
        if fmt == "csv":
            return self.to_csv_text()
        raise ValueError(f"unknown format {fmt!r}")


@dataclass
class RunConfig:
    """Flat run configuration; every CLI input has a slot here.

    A parsed config round-trips: serialize(parse(text)) == serialize(config).
    """

    alpha: float | None = None
    kz: float | None = None
    beta_re: float | None = None
    beta_im: float | None = None
    tau: float = 1.0
    power: float | None = None
    spectral_width: float | None = None
    target_db: float | None = None
    preset: str | None = None
    n2: float | None = None
    n0: float | None = None
    sigma_eff: float | None = None
    wavelength: float | None = None
    format: str = "json"
    out: str | None = None
    tol_kz: float = 1e-6

    def serialize(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                continue
            lines.append(f"{f.name} = {fmt_cell(value)}")
        return "\n".join(lines) + "\n"


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}
_STR_FIELDS = {"preset", "format", "out"}


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in _STR_FIELDS:
            setattr(config, key, val)
        else:
            setattr(config, key, float(val))
    return config
