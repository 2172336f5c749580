"""The formats of every file the commands write.

JSON: 2-space indent, sorted keys, shortest round-trip floats
(``float.__repr__``), no NaN or infinity, a trailing newline.
CSV: floats as ``%.12g``, ints as ``str``, labels as they are, ``\\r\\n``
line ends.

A table of equal-length columns (``write_table``, ``write_json_rows``) is
encoded directly from its columns, one ``%``-template per row, giving the
bytes ``json.dumps`` and ``csv.writer`` would give for the same rows at a
fraction of their cost. A JSON table (``write_table``) formats each distinct
float once, keyed by its 64 bits, so ``0.0`` and ``-0.0`` stay apart.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

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
    # float.__repr__, as in json.dumps, once per distinct bit pattern: a dict keyed
    # by the float would merge -0.0 into 0.0. Ints stay on %r, int.__repr__.
    floats = [name for name in names if is_float[name]]
    block = np.array([columns[name] for name in floats], dtype=np.float64)
    bits, index = np.unique(block.view(np.int64), return_inverse=True)
    reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    text = dict(zip(floats, reprs[index.reshape(block.shape)].tolist()))
    json_row = _object_template(names, ["%s" if is_float[name] else "%r" for name in names])
    cells = zip(*(text.get(name, columns[name]) for name in names))
    _write_json_list(json_path, map(json_row.__mod__, cells))


def _object_template(names, values) -> str:
    """%-template of one object of a top-level JSON list: sorted keys ``names``
    holding the value templates ``values``."""
    return "  {\n" + ",\n".join(f"    {json.dumps(name).replace('%', '%%')}: {value}"
                                for name, value in zip(names, values)) + "\n  }"


def _nested_template(shape, depth: int) -> str:
    """%-template of nested lists of floats of ``shape``, opened at ``depth``."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    item = _nested_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _write_json_list(path: Path, objects) -> None:
    body = ",\n".join(objects)
    Path(path).write_text(f"[\n{body}\n]\n" if body else "[]\n")


def _json_column(name: str, col: list) -> tuple[str, list]:
    """The value template of a ``write_json_rows`` column and, per row, the
    tuple of values that fill it (None for a null)."""
    present = [v for v in col if v is not None]
    kinds = set(map(type, present))
    if kinds == {str}:
        encoded = {text: json.dumps(text) for text in set(present)}
        return "%s", [None if v is None else (encoded[v],) for v in col]
    if kinds == {int}:
        return "%r", [None if v is None else (v,) for v in col]
    leaves, shape = present, []  # floats, or nested lists of them, one level at a time
    while leaves and set(map(type, leaves)) == {list}:
        lengths = set(map(len, leaves))
        if len(lengths) > 1:
            raise ValueError(f"column {name!r} holds lists of different shapes")
        shape.append(lengths.pop())
        leaves = list(itertools.chain.from_iterable(leaves))
    leaf_kinds = set(map(type, leaves))
    if leaf_kinds - {float}:
        raise ValueError(f"column {name!r} must hold only plain strs, only plain ints, or only plain floats "
                         f"or nested lists of them, got {sorted(k.__name__ for k in leaf_kinds)}")
    if not all(map(math.isfinite, leaves)):
        raise ValueError(f"column {name!r} holds NaN or infinity")
    size = math.prod(shape)
    cells = iter([tuple(leaves[i * size:(i + 1) * size]) for i in range(len(present))])
    return _nested_template(shape, 2), [None if v is None else next(cells) for v in col]


def write_json_rows(path: Path, columns: dict) -> None:
    """JSON list of one object per row of ``columns`` (name -> list): the bytes
    ``write_json`` gives for the same list of dicts.

    A column holds only plain strs, only plain ints, only plain floats or only
    nested lists of plain floats of one shape, and None (null) may stand in
    for any value. Every float is finite, and all columns are of one length.
    This is checked before the file is opened, and a violation raises
    ``ValueError``. The rows with nulls in the same places share one
    %-template.
    """
    if not columns or len({len(col) for col in columns.values()}) > 1:
        raise ValueError("need columns of one length")
    names = sorted(columns)
    templates, cells = zip(*(_json_column(name, columns[name]) for name in names))
    row_templates = {}  # where a row's nulls are (the types of its cells) -> its template

    def fill(row):
        layout = tuple(map(type, row))
        if layout not in row_templates:
            row_templates[layout] = _object_template(names, ["null" if cell is None else template
                                                             for cell, template in zip(row, templates)])
        return row_templates[layout] % tuple(itertools.chain.from_iterable(filter(None, row)))

    _write_json_list(path, map(fill, zip(*cells)))
