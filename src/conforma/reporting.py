"""Deterministic serialization for results.

Every file a run writes goes through write_files, which picks the writer
from the file's suffix: floats are rendered with %.17g (lossless for
doubles), dict fields keep insertion order, and no timing or host
information is included (manifest.json, the one file with timing, aside).
A dataclass renders through its to_json_dict when it has one, else as its
fields in declaration order. Check is the record every command returns per
check; a run passes when every one of its records does.
"""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Check:
    """One check of a run: the gate's verdict, the number of samples, pairs,
    points or items it rests on, and the keys it writes after "pass"."""

    ok: bool
    evidence: int
    fields: dict = dataclasses.field(default_factory=dict)

    @property
    def passed(self) -> bool:
        # no evidence is no pass
        return bool(self.ok) and self.evidence > 0

    def to_json_dict(self) -> dict:
        return {"pass": self.passed, **self.fields}


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == int(x) and abs(x) < 1e16:
        return "%.1f" % x
    return "%.17g" % x


def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        parts = [f"{_render(str(k))}: {_render(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    # numpy scalars and arrays reduce to the cases above
    if hasattr(obj, "tolist"):
        return _render(obj.tolist())
    if hasattr(obj, "to_json_dict"):
        return _render(obj.to_json_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # its fields, shallow: a field's value renders by these same rules
        return _render({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _render(obj) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(dumps_json(obj))


def csv_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        s = fmt_float(x)
        return s.strip('"')
    return str(x)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(csv_cell(x) for x in row) + "\n")


def write_files(out_dir, files) -> None:
    """Write each {filename: data} entry of a run into out_dir (a Path, made
    if missing) in the format its suffix names: .csv a (header, rows) pair,
    .jsonl a list of records one per line, .json one object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        path = out_dir / name
        if name.endswith(".csv"):
            write_csv(path, *data)
        elif name.endswith(".jsonl"):
            with open(path, "w", newline="") as fh:
                fh.writelines(map(dumps_json, data))
        else:
            write_json(path, data)
