"""Coincidence-count ingestion and count-derived statistics.

The bundled CSV carries the published coincidence counts for the CHSH
test and for the 24-cell teleportation-fidelity tables, each in a
with/without plasmon block. Schema: kind, block, setting, outcome, count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

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


class CountsDataError(ValueError):
    """Malformed or incomplete count table."""


@dataclass(frozen=True)
class CountsTable:
    kind: str  # "chsh" or "fidelity"
    block: str  # "with_spp" or "without_spp"
    rows: tuple  # (setting_label, {outcome: count})

    def __post_init__(self):
        expected = CHSH_OUTCOMES if self.kind == "chsh" else FIDELITY_OUTCOMES
        for label, counts in self.rows:
            missing = set(expected) - set(counts)
            if missing:
                raise CountsDataError(f"{self.where(label)}: missing outcomes {sorted(missing)}")
            for out, c in counts.items():
                if c < 0:
                    raise CountsDataError(f"{self.where(label)}: negative count for outcome {out!r}")

    def where(self, label: str) -> str:  # names a setting (chsh) or cell (fidelity) in a message
        return f"{self.kind} block {self.block!r}, {'setting' if self.kind == 'chsh' else 'cell'} {label!r}"

    def row(self, label: str) -> dict:
        for lbl, counts in self.rows:
            if lbl == label:
                return counts
        raise CountsDataError(f"{self.where(label)}: no row")


class CountsFile:
    """The tables of some (kind, block) pairs, read from a counts CSV in one pass.

    Rows of other pairs are skipped unvalidated. A pair's first problem, with
    its line number, is raised when `table` asks for that pair, so a file
    read once fails where reading each table on its own would have.
    """

    def __init__(self, path, keys):
        self._rows: dict[tuple, dict[str, dict[str, int]]] = {key: {} for key in keys}
        self._errors: dict[tuple, CountsDataError] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"kind", "block", "setting", "outcome", "count"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise CountsDataError(f"counts CSV must have columns {sorted(required)}")
            for i, row in enumerate(reader, start=2):
                key = (row["kind"], row["block"])
                if key not in self._rows or key in self._errors:
                    continue
                try:
                    c = int(row["count"])
                except (TypeError, ValueError):
                    self._errors[key] = CountsDataError(f"line {i}: count {row['count']!r} is not an integer")
                    continue
                if c > MAX_COUNT:
                    self._errors[key] = CountsDataError(f"line {i}: count {c} is above the Poisson limit {MAX_COUNT}")
                    continue
                setting = self._rows[key].setdefault(row["setting"], {})
                if row["outcome"] in setting:
                    self._errors[key] = CountsDataError(
                        f"line {i}: duplicate row for setting {row['setting']!r}, outcome {row['outcome']!r}")
                    continue
                setting[row["outcome"]] = c
        for (kind, block), rows in self._rows.items():
            if not rows:
                self._errors.setdefault((kind, block), CountsDataError(
                    f"no rows with kind={kind!r}, block={block!r} in {path}"))

    def table(self, kind: str, block: str) -> CountsTable:
        if (kind, block) in self._errors:
            raise self._errors[kind, block]
        return CountsTable(kind=kind, block=block, rows=tuple(self._rows[kind, block].items()))


def load_counts_csv(path, kind: str, block: str) -> CountsTable:
    return CountsFile(path, [(kind, block)]).table(kind, block)


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
        raise CountsDataError(f"missing outcome {exc}") from None
    if pooled.sum() <= 0:
        raise CountsDataError("zero total counts")
    return float(_correlations(pooled)[0])


def chsh_counts(table: CountsTable) -> np.ndarray:
    """The 8 counts `chsh_s_values` takes: (N++ + N--, N+- + N-+) per setting, CHSH_SETTINGS in order.
    Sums of independent Poisson counts are Poisson: resampling them gives S the law the 16 counts give it."""
    pooled = []
    for label in CHSH_SETTINGS:
        row = table.row(label)
        for n in (row["++"] + row["--"], row["+-"] + row["-+"]):
            if n > MAX_COUNT:
                raise CountsDataError(f"{table.where(label)}: pooled count {n} "
                                      f"is above the Poisson limit {MAX_COUNT}")
            pooled.append(n)
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
        raise CountsDataError(f"{table.where(CHSH_SETTINGS[zero[0]])}: zero total counts")
    return float(chsh_s_values(counts))


def mean_fidelity_values(counts) -> np.ndarray:
    """Unweighted mean of phi / (phi + perp) over counts shaped (..., 2 * cells), cell by cell (phi, perp)."""
    c = np.asarray(counts, dtype=float)
    return np.mean(c[..., 0::2] / (c[..., 0::2] + c[..., 1::2]), axis=-1)


@dataclass(frozen=True)
class FidelityTableResult:
    fidelities: np.ndarray  # shape (4, 6): OUTCOMES by INPUT_LABELS
    mean: float
    counts: np.ndarray  # shape (48,): (phi, perp) per cell, row-major, as mean_fidelity_values takes them


def fidelity_table(table: CountsTable) -> FidelityTableResult:
    """Per-cell fidelities (OUTCOMES by INPUT_LABELS), their unweighted mean, and the (phi, perp)
    counts whose resampling through `mean_fidelity_values` gives the mean's Monte Carlo error."""
    cells = []  # read in use order, so the first problem met is the one reported
    for label in (f"{outcome.label}/{inp}" for outcome in OUTCOMES for inp in INPUT_LABELS):
        row = table.row(label)
        total = row["phi"] + row["perp"]
        if total <= 0:
            raise CountsDataError(f"{table.where(label)}: zero total counts")
        cells.append((row["phi"], row["perp"], row["phi"] / total))
    cells = np.array(cells, dtype=float)
    fids = cells[:, 2].reshape(len(OUTCOMES), len(INPUT_LABELS))
    return FidelityTableResult(fidelities=fids, mean=float(fids.mean()), counts=cells[:, :2].ravel())


def sigma_violation(value: float, bound: float, std: float) -> float:
    """Number of standard deviations by which value exceeds the bound."""
    return (value - bound) / std
