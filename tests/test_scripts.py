import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spp_teleport import counts, protocol

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_scan_hole_array_prints_one_row_per_period_and_mode():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_hole_array.py"),
         "--period-start", "650", "--period-stop", "750", "--period-step", "50"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[0] == "period_nm"
    rows = [re.fullmatch(r"\s*(\d+) +\((\d+), (\d+)\) +([\d.]+) +([\d.]+)", line) for line in lines]
    assert all(rows), lines
    assert [(int(m[1]), (int(m[2]), int(m[3]))) for m in rows] == [
        (period, mode) for period in (650, 700, 750) for mode in ((1, 1), (1, 0))
    ]


def _calibrated_means(with_spp):
    flag = ["--with-spp"] if with_spp else []
    lines = run_script("run_calibrated_simulation.py", "--shots", "2000", *flag).splitlines()
    assert lines[0].startswith("channel: visibility=")
    assert lines[3].split() == list(protocol.INPUT_LABELS)
    table = [line.split() for line in lines[4:8]]
    assert [row[0] for row in table] == [o.label for o in protocol.OUTCOMES]
    fids = np.array([[float(v) for v in row[1:]] for row in table])
    assert fids.shape == (4, 6) and ((fids > 0.5) & (fids <= 1)).all()
    mean = re.fullmatch(r"mean exact fidelity: (0\.\d{4})", lines[8])
    f_proc = re.fullmatch(r"process fidelity \(QPT on sampled tomography\): (0\.\d{4})", lines[9])
    assert mean and f_proc and len(lines) == 10, lines
    assert float(mean[1]) == pytest.approx(fids.mean(), abs=1e-4)
    return float(mean[1]), float(f_proc[1])


def test_run_calibrated_simulation_with_and_without_spp():
    without, with_spp = _calibrated_means(False), _calibrated_means(True)
    # the plasmonic element lowers both the exact and the process fidelity
    assert with_spp[0] < without[0] and with_spp[1] < without[1]


def test_reproduce_published_stats_matches_package():
    lines = run_script("reproduce_published_stats.py").splitlines()
    for block in ("without_spp", "with_spp"):
        tag = block.replace("_", " ")
        s = counts.chsh_s(counts.load_bundled("chsh", block))
        assert f"CHSH {tag}: |S| = {s:.4f}" in lines
        result = counts.fidelity_table(counts.load_bundled("fidelity", block), mc_trials=1000, seed=0)
        assert any(line.startswith(f"mean = {100 * result.mean:.2f} +- {100 * result.mean_std:.2f} %")
                   for line in lines)


@pytest.mark.parametrize("name, args, message", [
    ("scan_hole_array.py", ["--modes", "1"], "bad mode '1' in --modes, expected 'm1,m2'"),
    ("scan_hole_array.py", ["--period-step", "0"], "--period-step must be > 0, got 0"),
    ("run_calibrated_simulation.py", ["--shots", "0"], "--shots must be >= 1, got 0"),
    ("reproduce_published_stats.py", ["--mc-trials", "0"], "--mc-trials must be >= 100, got 0"),
    ("reproduce_published_stats.py", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("run_calibrated_simulation.py", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("run_calibrated_simulation.py", ["--shots", str(2**63)], f"--shots must be <= 2**63 - 1, got {2**63}"),
    ("run_calibrated_simulation.py", ["--shots", "10000000000000000000"],
     "--shots must be <= 2**63 - 1, got 10000000000000000000"),
    # geometries HoleArrayGeometry rejects: checked before the table header is printed
    ("scan_hole_array.py", ["--modes", "0,0"], "mode (0, 0) does not excite a plasmon"),
    ("scan_hole_array.py", ["--period-start", "100"], "need period > hole diameter > 0"),
])
def test_bad_argument_exits_2_with_one_line(name, args, message):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"{name}: error: {message}\n")
