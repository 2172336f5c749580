"""Coincidence-count ingestion and count-derived statistics.

The bundled CSV carries the published coincidence counts for the CHSH
test and for the 24-cell teleportation-fidelity tables, each in a
with/without plasmon block. Schema: kind, block, setting, outcome, count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import output
from .protocol import INPUT_LABELS, OUTCOMES

CHSH_OUTCOMES = ("++", "+-", "-+", "--")
# analyser angles in degrees, (theta1, theta2), (theta1, theta2'), (theta1', theta2),
# (theta1', theta2') with theta1 = 0, theta1' = 45, theta2 = 22.5, theta2' = 67.5
CHSH_SETTINGS = ("0-22.5", "0-67.5", "45-22.5", "45-67.5")
FIDELITY_OUTCOMES = ("phi", "perp")

# the largest mean numpy's Poisson sampler takes, so the largest count Monte Carlo can resample
MAX_COUNT = int(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

CLASSICAL_STATE_FIDELITY_BOUND = 2.0 / 3.0
CLASSICAL_PROCESS_FIDELITY_BOUND = 0.5


BLOCKS = ("without_spp", "with_spp")
# kind: (row labels, outcome labels), each in the order the statistics read them
LAYOUT = {
    "chsh": (CHSH_SETTINGS, CHSH_OUTCOMES),
    "fidelity": (tuple(f"{outcome.label}/{inp}" for outcome in OUTCOMES for inp in INPUT_LABELS), FIDELITY_OUTCOMES),
}
# (kind, block): the (kind, block, setting, outcome) of each row a statistic reads, in layout order
_KEYS = {(kind, block): tuple(tuple((kind, block, label, out) for out in outcomes) for label in labels)
         for kind, (labels, outcomes) in LAYOUT.items() for block in BLOCKS}
_ROWS = {key for table in _KEYS.values() for keys in table for key in keys}


def _where(table, label: str) -> str:  # names a setting (chsh) or cell (fidelity) in a message
    return f"{table.kind} block {table.block!r}, {'setting' if table.kind == 'chsh' else 'cell'} {label!r}"


@dataclass(frozen=True)
class CountsTable:
    kind: str  # a key of LAYOUT
    block: str
    counts: tuple  # per row label of LAYOUT[kind], its counts in outcome order; None where the file has none

    def __post_init__(self):
        labels, outcomes = LAYOUT[self.kind]
        for label, row in zip(labels, self.counts):
            if None in row:
                if all(c is None for r in self.counts for c in r):
                    raise output.DataError(f"no rows with kind={self.kind!r}, block={self.block!r}")
                missing = [out for out, c in zip(outcomes, row) if c is None]
                raise output.DataError(f"{_where(self, label)}: " + (
                    "no row" if len(missing) == len(outcomes) else f"missing outcomes {missing}"))


class CountsFile:
    """Every (kind, block) table of a counts CSV, read in one pass.

    Each row must be one that a statistic reads, no longer than the header,
    with a count of ASCII digits in [0, MAX_COUNT] that no earlier row gave;
    the first line that is not raises DataError naming it. Whether a
    table is complete is checked when `table` builds it.
    """

    def __init__(self, path):
        self._counts = {}  # by (kind, block, setting, outcome)
        columns = ("kind", "block", "setting", "outcome", "count")
        for line, row in output.read_csv(path, columns, "counts CSV", "line {}"):
            key, count = row[:4], row[4]
            if key not in _ROWS:
                raise output.DataError(f"{line}: no statistic reads the row {key}")
            try:
                # int() alone also takes "1_0" and " 7"; a failed match is None, and None[0] a TypeError
                c = int(re.fullmatch("-?[0-9]+", count)[0])
            except (TypeError, ValueError):
                raise output.DataError(f"{line}: count {count!r} is not an integer") from None
            if c < 0:
                raise output.DataError(f"{line}: negative count for outcome {key[3]!r}")
            if c > MAX_COUNT:
                raise output.DataError(f"{line}: count {c} is above the Poisson limit {MAX_COUNT}")
            if key in self._counts:
                raise output.DataError(f"{line}: duplicate row for setting {key[2]!r}, outcome {key[3]!r}")
            self._counts[key] = c

    def table(self, kind: str, block: str) -> CountsTable:
        counts = tuple(tuple(map(self._counts.get, keys)) for keys in _KEYS[kind, block])
        return CountsTable(kind=kind, block=block, counts=counts)


def load_counts_csv(path, kind: str, block: str) -> CountsTable:
    return CountsFile(path).table(kind, block)


def bundled_counts_path():
    return resources.files("spp_teleport.data") / "coincidence_counts.csv"


def _correlations(pooled: np.ndarray) -> np.ndarray:
    """E = (A - B) / (A + B) over a last axis of (A, B) pairs, A = N++ + N-- and B = N+- + N-+."""
    a, b = pooled[..., 0::2], pooled[..., 1::2]
    return (a - b) / (a + b)


def correlation(counts: dict) -> float:
    """Correlation E for one setting."""
    try:
        pooled = np.array([counts["++"] + counts["--"], counts["+-"] + counts["-+"]], dtype=float)
    except KeyError as exc:
        raise output.DataError(f"missing outcome {exc}") from None
    if pooled.sum() <= 0:
        raise output.DataError("zero total counts")
    return float(_correlations(pooled)[0])


def chsh_counts(table: CountsTable) -> np.ndarray:
    """The 8 counts `chsh_s_values` takes: (N++ + N--, N+- + N-+) per setting, CHSH_SETTINGS in order.
    Sums of independent Poisson counts are Poisson: resampling them gives S the law the 16 counts give it."""
    pooled = [n for pp, pm, mp, mm in table.counts for n in (pp + mm, pm + mp)]
    for i, n in enumerate(pooled):
        if n > MAX_COUNT:
            raise output.DataError(f"{_where(table, CHSH_SETTINGS[i // 2])}: pooled count {n} "
                                  f"is above the Poisson limit {MAX_COUNT}")
    return np.array(pooled, dtype=float)


def chsh_s_values(counts) -> np.ndarray:
    """|S| = |E(t1,t2) - E(t1,t2') + E(t1',t2) + E(t1',t2')| for chsh_counts shaped (..., 8)."""
    e = _correlations(np.asarray(counts, dtype=float))
    return np.abs(e[..., 0] - e[..., 1] + e[..., 2] + e[..., 3])


def chsh_s(table: CountsTable) -> float:
    """|S| of a CHSH count table."""
    counts = chsh_counts(table)
    zero = np.flatnonzero(counts[0::2] + counts[1::2] <= 0)
    if zero.size:
        raise output.DataError(f"{_where(table, CHSH_SETTINGS[zero[0]])}: zero total counts")
    return float(chsh_s_values(counts))


def mean_fidelity_values(counts) -> np.ndarray:
    """Unweighted mean of phi / (phi + perp) over counts shaped (..., 2 * cells), cell by cell (phi, perp)."""
    c = np.asarray(counts, dtype=float)
    return np.mean(c[..., 0::2] / (c[..., 0::2] + c[..., 1::2]), axis=-1)


def fidelity_table(table: CountsTable) -> np.ndarray:
    """Per-cell fidelities phi / (phi + perp), shape (4, 6): OUTCOMES by INPUT_LABELS."""
    for label, (phi, perp) in zip(LAYOUT["fidelity"][0], table.counts):  # the first problem in use order
        if phi + perp <= 0:
            raise output.DataError(f"{_where(table, label)}: zero total counts")
    # Python ints, so phi / (phi + perp) is the correctly rounded quotient
    return np.array([phi / (phi + perp) for phi, perp in table.counts]).reshape(len(OUTCOMES), len(INPUT_LABELS))


def sigma_violation(value: float, bound: float, std: float) -> float:
    """Number of standard deviations by which value exceeds the bound."""
    return (value - bound) / std
