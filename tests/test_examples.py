"""The configs under examples/ run through the CLI as README.md shows them."""

import csv
import functools
import json
from pathlib import Path

import pytest

from spp_teleport.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="module")
def simulate_example(tmp_path_factory):
    @functools.cache
    def run(name):
        """(mean_fidelity_exact, process_fidelity) of examples/<name>.ini at seed 0, to 4 places."""
        out = tmp_path_factory.mktemp(name)
        assert main(["simulate", "--config", str(EXAMPLES / f"{name}.ini"), "--seed", "0", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        return f"{summary['mean_fidelity_exact']:.4f}", f"{summary['process_fidelity']:.4f}"
    return run


@pytest.mark.parametrize("name, mean_exact, process", [
    ("simulate_with_spp", "0.8823", "0.8228"),
    ("simulate_without_spp", "0.9426", "0.9122"),
])
def test_simulate_example_at_seed_0(simulate_example, name, mean_exact, process):
    assert simulate_example(name) == (mean_exact, process)


def test_spp_lowers_both_fidelities(simulate_example):
    with_spp, without = simulate_example("simulate_with_spp"), simulate_example("simulate_without_spp")
    assert float(with_spp[0]) < float(without[0]) and float(with_spp[1]) < float(without[1])


def test_design_scan_writes_one_row_per_period_and_mode(tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--config", str(EXAMPLES / "design_scan.ini"), "--out", str(out)]) == 0
    with open(out / "design.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(float(r["period_nm"]), int(r["m1"]), int(r["m2"])) for r in rows] == [
        (period, *mode) for period in range(600, 801, 25) for mode in ((1, 1), (1, 0))
    ]
    assert all(float(r["resonance_nm"]) > 0 and float(r["k_spp_mag"]) > 0 for r in rows)
