"""The formats of every file the commands write.

JSON: 2-space indent, sorted keys, shortest round-trip floats
(``float.__repr__``), no NaN or infinity, a trailing newline.
CSV: floats as ``%.12g``, ints as ``str``, labels as they are, ``\\r\\n``
line ends.

A table of equal-length columns (``write_table``) is encoded directly from
its columns, giving the bytes ``json.dumps`` and ``csv.writer`` would give
for the same rows at a fraction of their cost.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_CSV_FLOAT = "%.12g"


def write_json(path: Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _label(text: str) -> str:
    # labels are written unquoted, so they must not need CSV quoting
    if any(c in text for c in ',"\r\n'):
        raise ValueError(f"CSV label {text!r} would need quoting")
    return text


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return _label(value)
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot write non-finite value {value!r}")
    return _CSV_FLOAT % value


def _write_csv(path: Path, lines) -> None:
    Path(path).write_text("\r\n".join(lines) + "\r\n", newline="")


def write_rows(path: Path, rows) -> None:
    """CSV of rows (of any lengths) holding labels, ints and finite floats."""
    _write_csv(path, (",".join(map(_csv_cell, row)) for row in rows))


def write_table(columns: dict, csv_path: Path, json_path: Path | None = None) -> None:
    """One row per index of ``columns`` (name -> list): CSV in column order and,
    with ``json_path``, a JSON list of one object per row.

    Every column holds only plain ``float`` or only plain ``int``, all of equal
    length, and every float is finite; this is checked before either file is
    opened, and a violation raises ``ValueError``.
    """
    if len({len(col) for col in columns.values()}) > 1:
        raise ValueError("table columns differ in length")
    is_float = {}
    for name, col in columns.items():
        kinds = set(map(type, col))
        if len(kinds) > 1 or not kinds <= {float, int}:
            raise ValueError(f"column {name!r} must hold only plain floats or only plain ints, "
                             f"got {sorted(k.__name__ for k in kinds)}")
        is_float[name] = float in kinds
        if is_float[name] and not all(map(math.isfinite, col)):
            raise ValueError(f"column {name!r} holds NaN or infinity")

    csv_row = ",".join(_CSV_FLOAT if is_float[name] else "%d" for name in columns)
    _write_csv(csv_path, [",".join(map(_label, columns)), *map(csv_row.__mod__, zip(*columns.values()))])
    if json_path is None:
        return
    names = sorted(columns)
    # %r is float.__repr__ / int.__repr__, as in json.dumps
    json_row = "  {\n" + ",\n".join(f"    {json.dumps(name).replace('%', '%%')}: %r" for name in names) + "\n  }"
    body = ",\n".join(map(json_row.__mod__, zip(*(columns[name] for name in names))))
    Path(json_path).write_text(f"[\n{body}\n]\n" if body else "[]\n")
