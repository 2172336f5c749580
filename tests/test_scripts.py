import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
