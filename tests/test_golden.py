"""Every golden run writes outputs that mean what they say, and the bytes its manifest records.

The meaning checks run on every machine: the benchmark's own output checks
(perfbench/checks.py) for the runs that use a benchmark config, and strict,
NaN-free JSON that matches its schema for every run. The byte check runs
only where numpy and the machine match the manifest. The manifest is
rewritten only by tests/golden/regen.py; see its docstring.
"""

import json
import shutil
import sys
from pathlib import Path

import jsonschema
import pytest

from golden.regen import MANIFEST, RUNS, environment, file_hashes

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402  (perfbench/checks.py, which imports perfbench/workloads.py)

_MANIFEST = json.loads(MANIFEST.read_text())

# golden run -> the benchmark workload whose config it runs
_WORKLOAD_OF = {**{f"simulate-tomo-seed-{seed}": "simulate-tomo" for seed in range(3)},
                "analyze-mc-counts-seed-0": "analyze-mc"}
_ANALYZE_MC_COUNTS = MANIFEST.with_name("analyze_mc_counts_seed_0.csv")

# (subcommand, JSON file) -> the schema it must match
_SCHEMAS = {
    ("simulate", "records.json"): "simulate_records",
    ("simulate", "tomography.json"): "simulate_tomography",
    ("simulate", "summary.json"): "simulate_summary",
    ("simulate", "chi.json"): "process_matrix",
    ("analyze", "chsh.json"): "analyze_chsh",
    ("analyze", "summary.json"): "analyze_summary",
    ("design", "design.json"): "design_output",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """name -> (work directory, file hashes) of RUNS[name], each run once per module."""
    done = {}

    def run(name):
        if name not in done:
            work = tmp_path_factory.mktemp(name)
            done[name] = work, file_hashes(name, work)
        return done[name]

    return run


def test_manifest_lists_every_run():
    assert sorted(_MANIFEST) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_are_strict_json_matching_their_schemas(golden_run, name):
    command = RUNS[name][0]
    out = golden_run(name)[0] / "out"
    written = sorted(path.name for path in out.glob("*.json"))
    assert written and set(written) <= {file for cmd, file in _SCHEMAS if cmd == command}
    for file in written:
        schema = json.loads((ROOT / "src/spp_teleport/data/schemas" / f"{_SCHEMAS[command, file]}.json").read_text())
        errors = [e.message for e in jsonschema.Draft7Validator(schema).iter_errors(checks.load_json(out / file))]
        assert errors == [], f"{file}: {errors[:3]}"


@pytest.mark.parametrize("name", sorted(_WORKLOAD_OF))
def test_benchmark_checks_pass(golden_run, tmp_path, name):
    # the benchmark's analyze check recomputes every value from the counts
    # CSV it finds in its work directory
    shutil.copyfile(_ANALYZE_MC_COUNTS, tmp_path / "counts.csv")
    checker = checks.Checker(ROOT, _WORKLOAD_OF[name], RUNS[name][2], tmp_path)
    assert checker.check(golden_run(name)[0] / "out") == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_manifest(golden_run, name):
    recorded = _MANIFEST[name]
    here = environment()
    made_on = {key: recorded[key] for key in here}
    if made_on != here:
        pytest.skip(f"byte check needs {made_on}, this is {here}")
    assert golden_run(name)[1] == recorded["files"]
