"""Seeded workload generator.

Every input the program receives is derived here from the workload seed:
the INI config, the counts CSV of ``analyze-mc``, the sweep offset of
``design-sweep`` and the ``--seed`` of each invocation. The same seed
always gives the same files and argv.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MC_TRIALS = 10_000
SIM_SHOTS = 100_000
SWEEP_START_NM, SWEEP_STOP_NM, SWEEP_STEP_NM = 600.0, 800.0, 0.25
# An offset below 0.24 nm keeps every (1,0) and (1,1) resonance of the
# shifted sweep inside the bundled gold table (688-1222 nm).
SWEEP_MAX_OFFSET_NM = 0.24
MODES = ((1, 0), (1, 1))
EPS_SUBSTRATE = 2.25

# Streams of numpy.random.SeedSequence([seed, stream]); one per derived input.
_COUNTS_STREAM, _OFFSET_STREAM, _INVOCATION_STREAM = 1, 2, 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-mc", "analyze",
            "analyze with 1e4 Monte Carlo trials on seeded Poisson-resampled counts: almost all time is "
            "in tomo.monte_carlo_errors and the counts callbacks; bypasses qcore, protocol and channel",
        ),
        Workload(
            "simulate-tomo", "simulate",
            "with-SPP simulate at 1e5 shots with ML state tomography and CP-projected process tomography: "
            "tomo reconstruction, qcore validation, protocol and channel.apply_channel; no Monte Carlo",
        ),
        Workload(
            "design-sweep", "design",
            "design over 1602 seeded-offset (period, mode) points: the only user of the channel resonance "
            "solver and dielectric lookups, and the heaviest cli serialization; bypasses tomo and counts",
        ),
    )
}


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def invocation_seed(seed: int, k: int) -> int:
    """The ``--seed`` passed to invocation ``k`` of a run."""
    return int(np.random.SeedSequence([seed, _INVOCATION_STREAM, k]).generate_state(1)[0])


def sweep_offset(seed: int) -> float:
    return float(rng(seed, _OFFSET_STREAM).uniform(0.0, SWEEP_MAX_OFFSET_NM))


def sweep_periods(seed: int) -> np.ndarray:
    """The periods the design sweep visits, as the benchmark expects them."""
    n = int(round((SWEEP_STOP_NM - SWEEP_START_NM) / SWEEP_STEP_NM)) + 1
    return SWEEP_START_NM + sweep_offset(seed) + SWEEP_STEP_NM * np.arange(n)


def write_resampled_counts(bundled_csv: Path, out_csv: Path, seed: int) -> None:
    """Poisson-resample every count of the bundled table."""
    with open(bundled_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    draws = rng(seed, _COUNTS_STREAM).poisson([int(r["count"]) for r in rows])
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["kind", "block", "setting", "outcome", "count"])
        writer.writeheader()
        for row, n in zip(rows, draws):
            writer.writerow({**row, "count": int(n)})


def write_inputs(name: str, seed: int, root: Path, work: Path) -> Path:
    """Write the workload's inputs under ``work`` and return its INI config."""
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.ini"
    if name == "analyze-mc":
        counts_csv = work / "counts.csv"
        write_resampled_counts(root / "src/spp_teleport/data/coincidence_counts.csv", counts_csv, seed)
        text = f"[tomography]\nmc_trials = {MC_TRIALS}\n\n[analyze]\ncounts = {counts_csv}\n"
    elif name == "simulate-tomo":
        text = (
            "[channel]\ncalibration = with_spp\n\n"
            f"[simulate]\nshots = {SIM_SHOTS}\n\n"
            "[tomography]\nmax_likelihood = true\ncp_projection = true\n"
        )
    elif name == "design-sweep":
        off = sweep_offset(seed)
        start, stop = SWEEP_START_NM + off, SWEEP_STOP_NM + off
        modes = ";".join(f"{m1},{m2}" for m1, m2 in MODES)
        text = (f"[design]\nperiod_sweep = {start!r}:{stop!r}:{SWEEP_STEP_NM!r}\nmodes = {modes}\n"
                f"eps_substrate = {EPS_SUBSTRATE!r}\n")
    else:
        raise KeyError(name)
    config.write_text(text)
    return config


def invocation_argv(name: str, config: Path, seed: int, k: int, out: Path) -> list[str]:
    return [WORKLOADS[name].command, "--config", str(config),
            "--seed", str(invocation_seed(seed, k)), "--out", str(out)]
