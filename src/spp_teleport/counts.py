"""Coincidence-count ingestion and count-derived statistics.

The bundled CSV carries the published coincidence counts for the CHSH
test and for the 24-cell teleportation-fidelity tables, each in a
with/without plasmon block. Schema: kind, block, setting, outcome, count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .protocol import INPUT_LABELS
from .tomo import monte_carlo_errors

CHSH_OUTCOMES = ("++", "+-", "-+", "--")
FIDELITY_OUTCOMES = ("phi", "perp")
# row order of the published fidelity tables
BELL_LABELS = ("PsiPlus", "PsiMinus", "PhiMinus", "PhiPlus")

CLASSICAL_STATE_FIDELITY_BOUND = 2.0 / 3.0
CLASSICAL_PROCESS_FIDELITY_BOUND = 0.5


class CountsDataError(ValueError):
    """Malformed or incomplete count table."""


@dataclass(frozen=True)
class ChshSettings:
    theta1: float = 0.0
    theta1_prime: float = 45.0
    theta2: float = 22.5
    theta2_prime: float = 67.5

    def setting_labels(self) -> tuple[str, str, str, str]:
        def lbl(a, b):
            return f"{a:g}-{b:g}"

        return (
            lbl(self.theta1, self.theta2),
            lbl(self.theta1, self.theta2_prime),
            lbl(self.theta1_prime, self.theta2),
            lbl(self.theta1_prime, self.theta2_prime),
        )


@dataclass(frozen=True)
class CountsTable:
    kind: str  # "chsh" or "fidelity"
    block: str  # "with_spp" or "without_spp"
    rows: tuple = field(default_factory=tuple)  # (setting_label, {outcome: count})

    def __post_init__(self):
        expected = CHSH_OUTCOMES if self.kind == "chsh" else FIDELITY_OUTCOMES
        for label, counts in self.rows:
            missing = set(expected) - set(counts)
            if missing:
                raise CountsDataError(f"row {label!r} missing outcomes {sorted(missing)}")
            for out, c in counts.items():
                if c < 0:
                    raise CountsDataError(f"negative count in row {label!r}, outcome {out!r}")

    def row(self, label: str) -> dict:
        for lbl, counts in self.rows:
            if lbl == label:
                return counts
        raise CountsDataError(f"no row labeled {label!r}")


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


def load_bundled(kind: str, block: str) -> CountsTable:
    return load_counts_csv(bundled_counts_path(), kind, block)


def _correlations(c: np.ndarray) -> np.ndarray:
    """E = (N++ - N+- - N-+ + N--) / total over a last axis ordered as CHSH_OUTCOMES."""
    npp, npm, nmp, nmm = (c[..., i] for i in range(len(CHSH_OUTCOMES)))
    return (npp - npm - nmp + nmm) / (npp + npm + nmp + nmm)


def correlation(counts: dict) -> float:
    """Correlation E for one setting."""
    try:
        c = np.array([counts[o] for o in CHSH_OUTCOMES], dtype=float)
    except KeyError as exc:
        raise CountsDataError(f"missing outcome {exc}") from None
    if c.sum() <= 0:
        raise CountsDataError("zero total counts")
    return float(_correlations(c))


def chsh_counts(table: CountsTable, settings: ChshSettings = ChshSettings()) -> np.ndarray:
    """The 16 counts `chsh_s_values` takes: settings in `setting_labels` order, each by CHSH_OUTCOMES."""
    return np.array([table.row(lbl)[o] for lbl in settings.setting_labels() for o in CHSH_OUTCOMES],
                    dtype=float)


def chsh_s_values(counts) -> np.ndarray:
    """|S| = |E(t1,t2) - E(t1,t2') + E(t1',t2) + E(t1',t2')| for counts shaped (..., 16)."""
    counts = np.asarray(counts, dtype=float)
    e = _correlations(counts.reshape(*counts.shape[:-1], -1, len(CHSH_OUTCOMES)))
    return np.abs(e[..., 0] - e[..., 1] + e[..., 2] + e[..., 3])


def chsh_s(table: CountsTable, settings: ChshSettings = ChshSettings()) -> float:
    """|S| of a CHSH count table."""
    counts = chsh_counts(table, settings)
    if (counts.reshape(-1, len(CHSH_OUTCOMES)).sum(axis=1) <= 0).any():
        raise CountsDataError("zero total counts")
    return float(chsh_s_values(counts))


def fidelity_from_counts(n_phi: int, n_perp: int) -> float:
    """State fidelity as the fraction of counts in the target projection."""
    total = n_phi + n_perp
    if total <= 0:
        raise CountsDataError("zero total counts")
    if n_phi < 0 or n_perp < 0:
        raise CountsDataError("negative counts")
    return n_phi / total


def _phi_fraction(c: np.ndarray) -> np.ndarray:
    """phi / (phi + perp) over a last axis of (phi, perp) counts."""
    return c[..., 0] / (c[..., 0] + c[..., 1])


@dataclass(frozen=True)
class FidelityTableResult:
    outcomes: tuple
    inputs: tuple
    fidelities: np.ndarray  # shape (4, 6)
    mean: float
    mean_std: float


def fidelity_table(table: CountsTable, mc_trials: int = 1000, seed: int = 0) -> FidelityTableResult:
    """Per-cell fidelities, unweighted mean, and Monte Carlo std of the mean."""
    fids = np.empty((len(BELL_LABELS), len(INPUT_LABELS)))
    raw = np.empty((len(BELL_LABELS), len(INPUT_LABELS), 2))
    for i, outcome in enumerate(BELL_LABELS):
        for j, inp in enumerate(INPUT_LABELS):
            row = table.row(f"{outcome}/{inp}")
            raw[i, j] = (row["phi"], row["perp"])
            fids[i, j] = fidelity_from_counts(row["phi"], row["perp"])

    def mean_stat(c):
        return np.mean(_phi_fraction(c.reshape(len(c), -1, 2)), axis=-1)

    _, std = monte_carlo_errors(raw.ravel(), mean_stat, trials=mc_trials, seed=seed)
    return FidelityTableResult(
        outcomes=BELL_LABELS,
        inputs=INPUT_LABELS,
        fidelities=fids,
        mean=float(fids.mean()),
        mean_std=std,
    )


def cell_fidelity_std(table: CountsTable, outcome: str, inp: str,
                      mc_trials: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo (mean, std) of one cell's fidelity."""
    row = table.row(f"{outcome}/{inp}")
    counts = np.array([row["phi"], row["perp"]], dtype=float)
    return monte_carlo_errors(counts, _phi_fraction, trials=mc_trials, seed=seed)


def sigma_violation(value: float, bound: float, std: float) -> float:
    """Number of standard deviations by which value exceeds the bound."""
    if std <= 0:
        raise CountsDataError("std must be positive")
    return (value - bound) / std
