"""Rewrite the golden manifest: the SHA-256 of every file a fixed set of runs writes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

It rewrites ``manifest.json`` next to this file, recording with each run the
numpy version and machine it was made on, and prints ``run: file`` for each
file whose hash is not the one the old manifest held (new and vanished files
included). ``tests/test_golden.py`` compares
fresh runs with it byte for byte. A change that reruns this script changes
test data: name each changed file in CHANGES.md and say why. Never rerun it
to hide a defect.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from spp_teleport import cli

MANIFEST = Path(__file__).with_name("manifest.json")

# the simulate-tomo config of the benchmark (perfbench/workloads.py)
_SIMULATE_TOMO = ("[channel]\ncalibration = with_spp\n\n[simulate]\nshots = 100000\n\n"
                  "[tomography]\nmax_likelihood = true\ncp_projection = true\n")
# the analyze-mc config of the benchmark on its counts CSV at workload seed 0
# (perfbench/workloads.py write_resampled_counts), stored beside this file
_ANALYZE_MC = ("[tomography]\nmc_trials = 10000\n\n"
               f"[analyze]\ncounts = {MANIFEST.with_name('analyze_mc_counts_seed_0.csv')}\n")

# the configs README.md runs from examples/
_EXAMPLES = MANIFEST.parents[2] / "examples"

# name -> (subcommand, INI text or None for the defaults, seed)
RUNS = {
    "simulate-default": ("simulate", None, 0),
    "analyze-default": ("analyze", None, 0),
    "analyze-mc-counts-seed-0": ("analyze", _ANALYZE_MC, 0),
    "design-default": ("design", None, 0),
    **{f"simulate-tomo-seed-{seed}": ("simulate", _SIMULATE_TOMO, seed) for seed in range(3)},
    # at seed 0 one branch gets fewer than 3 shots, so its estimate is null
    "simulate-ml-30-shots": ("simulate", "[simulate]\nshots = 30\n\n[tomography]\nmax_likelihood = true\n", 0),
    "design-two-mode-sweep": ("design", "[design]\nperiod_sweep = 600:700:25\nmodes = 1,0;1,1\n", 0),
    # a root where the right-hand side of the resonance condition is steeper than 1
    "design-740-mode-2-1": ("design", "[design]\nperiod_nm = 740\nmodes = 2,1\neps_substrate = 2.25\n", 0),
    "example-simulate-with-spp": ("simulate", (_EXAMPLES / "simulate_with_spp.ini").read_text(), 0),
    "example-simulate-without-spp": ("simulate", (_EXAMPLES / "simulate_without_spp.ini").read_text(), 0),
    "example-design-scan": ("design", (_EXAMPLES / "design_scan.ini").read_text(), 0),
}


def environment() -> dict:
    """What byte identity depends on besides the code."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def file_hashes(name: str, work: Path) -> dict:
    """Run RUNS[name] under the empty directory `work`; the SHA-256 of each file it wrote, by name."""
    command, ini, seed = RUNS[name]
    argv = [command, "--seed", str(seed), "--out", str(work / "out")]
    if ini is not None:
        (work / "run.ini").write_text(ini)
        argv += ["--config", str(work / "run.ini")]
    if cli.main(argv) != 0:
        raise RuntimeError(f"golden run {name} did not exit 0")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((work / "out").iterdir())}


def main() -> None:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = {**environment(), "files": file_hashes(name, Path(tmp))}
        before, after = old.get(name, {}).get("files", {}), runs[name]["files"]
        for file in sorted(before.keys() | after.keys()):
            if before.get(file) != after.get(file):
                print(f"{name}: {file}")
    MANIFEST.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
