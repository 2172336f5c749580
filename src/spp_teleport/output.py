"""The formats of every file the commands read and write: ``read_csv`` reads
the counts and dielectric CSVs, and each encoder returns the text of a file,
which ``cli.main`` writes.

JSON: 2-space indent, sorted keys, shortest round-trip floats
(``float.__repr__``), no NaN or infinity, a trailing newline.
CSV: floats as ``%.12g``, ints as ``str``, labels as they are, ``\\r\\n``
line ends.

A table of equal-length columns (``write_table``, ``write_json_rows``) is
encoded directly from its columns, giving the text ``json.dumps`` and
``csv.writer`` would give for the same rows at a fraction of their cost.
``write_table`` takes float64 and int64 numpy columns, checks them by dtype
and one ``np.isfinite``, formats each distinct value once per format, keyed
by its 64 bits, so ``0.0`` and ``-0.0`` stay apart, and joins the cells
with their separators in one pass. ``write_json_rows`` fills one
``%``-template per row.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

_CSV_FLOAT = "%.12g"


class DataError(ValueError):
    """A file or a value a command reads that cannot be used: ``cli.main`` exits 3 with its message."""


def write_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_csv(path, columns, name: str, where: str):
    """(``where`` formatted with its line number, its values of ``columns``) per row of the CSV ``path``. A
    header lacking a column raises DataError naming ``name``; a longer row or a non-CSV line, naming the line.
    The file is UTF-8; a leading byte-order mark is dropped."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not set(columns).issubset(reader.fieldnames):
                raise DataError(f"{name} must have columns {sorted(columns)}")
            for row in reader:
                if None in row:  # DictReader's key for the fields beyond the header's
                    raise DataError(f"{where.format(reader.line_num)}: more fields than the header")
                yield where.format(reader.line_num), tuple(map(row.get, columns))
        except csv.Error as exc:  # e.g. an over-long field; reader.line_num is the last good row's
            raise DataError(f"{where.format(reader.reader.line_num)}: {exc}") from None


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


def write_rows(rows) -> str:
    """CSV of rows (of any lengths) holding labels, ints and finite floats."""
    return "".join(",".join(map(_csv_cell, row)) + "\r\n" for row in rows)


def _interleave(cells: np.ndarray, seps) -> str:
    """The (column, row) texts ``cells`` row by row, each followed by its column's separator in ``seps``."""
    grid = np.empty((cells.shape[1], 2 * len(seps)), dtype=object)
    grid[:, 0::2] = cells.T
    grid[:, 1::2] = seps
    return "".join(grid.ravel().tolist())


def _json_objects(names, cells: np.ndarray) -> str:
    """JSON list of one object per row: sorted keys ``names``, each holding the
    JSON texts of its row of ``cells``, as ``write_json`` lays them out."""
    if not cells.shape[1]:
        return "[]\n"
    keys = [f"    {json.dumps(name)}: " for name in names]
    between = "\n  },\n  {\n" + keys[0]  # closes one object and opens the next
    body = _interleave(cells, [",\n" + key for key in keys[1:]] + [between])
    return "[\n  {\n" + keys[0] + body.removesuffix(between) + "\n  }\n]\n"


def write_table(columns: dict, with_json: bool = False) -> tuple:
    """One row per index of ``columns`` (name -> 1-D float64 or int64 numpy
    array): the CSV text in column order and, with ``with_json``, the text of
    a JSON list of one object per row (else None).

    There is at least one column, every column is a 1-D array of one of those
    two dtypes, all of equal length, and every float is finite; this is
    checked before any text is built, and a violation raises ``ValueError``.
    """
    for name, col in columns.items():
        if not isinstance(col, np.ndarray) or col.ndim != 1 or col.dtype not in (np.float64, np.int64):
            got = f"a {col.ndim}-D {col.dtype} array" if isinstance(col, np.ndarray) else type(col).__name__
            raise ValueError(f"column {name!r} must be a 1-D float64 or int64 array, got {got}")
    if len({col.size for col in columns.values()}) != 1:
        raise ValueError("table columns differ in length, or there are none")
    names = list(columns)
    is_float = np.array([col.dtype == np.float64 for col in columns.values()])
    bits = np.array([col.view(np.int64) for col in columns.values()])
    bad = is_float & ~np.isfinite(bits.view(np.float64)).all(axis=1)
    if bad.any():
        raise ValueError(f"column {names[bad.argmax()]!r} holds NaN or infinity")
    header = ",".join(map(_label, names)) + "\r\n"
    # Each distinct value of a kind is formatted once per format, keyed by its
    # 64 bits: a key of the float would merge -0.0 into 0.0.
    kinds = [(of_kind, dtype, *np.unique(bits[of_kind], return_inverse=True))
             for of_kind, dtype in ((is_float, np.float64), (~is_float, np.int64))]

    def text(float_format) -> np.ndarray:  # the (column, row) cell texts, ints as str
        cells = np.empty(bits.shape, dtype=object)
        for (of_kind, dtype, keys, index), fmt in zip(kinds, (float_format, str)):
            formatted = np.array(list(map(fmt, keys.view(dtype).tolist())), dtype=object)
            cells[of_kind] = formatted[index.reshape(np.count_nonzero(of_kind), bits.shape[1])]
        return cells

    seps = [","] * (len(names) - 1) + ["\r\n"]
    csv_text = header + _interleave(text(_CSV_FLOAT.__mod__), seps)
    if not with_json:
        return csv_text, None
    order = sorted(range(len(names)), key=names.__getitem__)
    return csv_text, _json_objects([names[j] for j in order], text(repr)[order])  # float.__repr__, as in json


def _nested_template(shape, depth: int) -> str:
    """%-template of nested lists of floats of ``shape``, opened at ``depth``."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    item = _nested_template(shape[1:], depth + 1)
    return "[" + pad + ("," + pad).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _json_column(name: str, col: list) -> list:
    """The JSON text of each value of a ``write_json_rows`` column."""
    present = [v for v in col if v is not None]
    kinds = set(map(type, present))
    if kinds <= {str} or kinds == {int}:
        encode = str if kinds == {int} else json.encoder.encode_basestring_ascii  # each as json.dumps writes it
        return ["null" if v is None else encode(v) for v in col]
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
    size, template = math.prod(shape), _nested_template(shape, 2)
    texts = iter([template % tuple(leaves[i * size:(i + 1) * size]) for i in range(len(present))])
    return ["null" if v is None else next(texts) for v in col]


def write_json_rows(columns: dict) -> str:
    """JSON list of one object per row of ``columns`` (name -> list): the text
    ``write_json`` gives for the same list of dicts.

    A column holds only plain strs, only plain ints, only plain floats or only
    nested lists of plain floats of one shape, and None (null) may stand in
    for any value. Every float is finite, and all columns are of one length.
    This is checked before any text is built, and a violation raises
    ``ValueError``.
    """
    if not columns or len({len(col) for col in columns.values()}) > 1:
        raise ValueError("need columns of one length")
    names = sorted(columns)
    cells = np.empty((len(names), len(columns[names[0]])), dtype=object)
    for i, name in enumerate(names):
        cells[i] = _json_column(name, columns[name])
    return _json_objects(names, cells)
