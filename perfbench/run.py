#!/usr/bin/env python3
"""End-to-end benchmark of the spp-teleport CLI, with an optional trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-mc --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in a
worker process of its own (see worker.py) that imports the package from
this checkout's ``src/`` and calls ``spp_teleport.cli.main`` in a closed
loop, one client, no extra threads. Afterwards every invocation's outputs
are checked (checks.py) and the report is printed; its last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. All times
are reported at reference machine speed (speed.py), next to the wall values.
``--trace 1`` runs half the time untraced and half traced and reports the
per-layer metrics: for each traced function its calls, total and self time
per invocation (tracer.py), plus the layer counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 12
TAIL_BEYOND = 10  # the tail percentile leaves at least this many invocations beyond it
TIME_LIMIT_S = 170.0
# The loop never starts an extra thread; keep numpy's BLAS pool to one as well.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spp_teleport.cli
spp_teleport.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""
# Count metrics that must repeat exactly for the same seed.
EXACT_COUNTS = (
    "qcore.MixedState.constructions",
    "counts.CountsTable.constructions",
    "tomo.monte_carlo_errors.statistic.calls",
    "channel.resonance_wavelength.calls",
    "channel.DielectricTable.lookups",
    "cli.output_bytes",
)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    return {**os.environ, **CHILD_ENV}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(config: Path, n: int, warm: bool) -> list[tuple[float, float]]:
    """Import spp_teleport.cli and load the config in ``n`` fresh interpreters.

    Returns (set-up time, speed kernel time right after it) pairs. With
    ``warm``, one more untimed run first compiles bytecode and warms the
    file cache.
    """
    samples = []
    for i in range(n + warm):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(config)],
                              env=child_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()}")
        if i or not warm:
            samples.append((float(proc.stdout.strip().splitlines()[-1]), speed.kernel_seconds()))
    return samples


def run_worker(name: str, seed: int, seconds: float, trace: bool, config: Path,
               work: Path, deadline: float) -> dict:
    spec = {
        "root": str(ROOT), "work": str(work), "workload": name, "seed": seed,
        "config": str(config), "trace": trace, "result": str(work / "result.json"),
        "untraced_s": seconds / 2 if trace else seconds,
        "traced_s": seconds / 2,
        # enough timed invocations for a tail percentile with TAIL_BEYOND beyond it
        "min_timed": 3 if trace else TAIL_BEYOND + 1,
    }
    (work / "spec.json").write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                              env=child_env(), stdout=sys.stderr, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def check_outputs(checker: checks.Checker, invocations: list[dict], work: Path) -> dict:
    """Problems per checked invocation; reruns of invocation 0 count against it."""
    problems = {}
    for rec in invocations:
        if rec["phase"] in ("rerun", "probe"):
            continue
        found = [f"exit code {rec['rc']}"] if rec["rc"] != 0 else checker.check(work / rec["out"])
        problems[rec["out"]] = found
    for rec in invocations:
        if rec["phase"] in ("rerun", "probe"):
            found = [f"rerun exit code {rec['rc']}"] if rec["rc"] != 0 else checks.compare_dirs(
                work / "inv-0", work / rec["out"])
            problems["inv-0"] += found
    return problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """End-to-end metrics at reference speed (speed.py), their details, and the raw wall values."""
    timed = [r for r in result["invocations"] if r["phase"] == "timed"]
    lat = [speed.at_reference(r["latency_s"], r["kernel_s"]) for r in timed]
    wall = [r["latency_s"] for r in timed]
    setup_ref = [speed.at_reference(t, k) for t, k in setup]
    tail_s, pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup_ref),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "throughput_per_s": len(lat) / sum(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "latency_p50_s": statistics.median(wall),
        "latency_tail_s": tail(wall)[0],
        "throughput_per_s": len(wall) / result["timed_s"],
    }
    details = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall {raw['setup_s']:.4g} s",
        "latency_p50_s": f"n={len(lat)}; wall {raw['latency_p50_s']:.4g} s",
        "latency_tail_s": f"p{pct:.1f}, n={len(lat)}; wall {raw['latency_tail_s']:.4g} s",
        "throughput_per_s": f"wall {raw['throughput_per_s']:.4g}/s over {result['timed_s']:.2f} s",
        "peak_rss_mb": "worker process",
    }
    return values, details, raw


def per_layer(result: dict, work: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the problems the trace shows.

    Counts come from the two traced runs of invocation 0, which must agree
    exactly; times are means per traced invocation, at reference speed.
    """
    rows = result["trace"]["per_invocation"]

    def mean(fn) -> float:
        return sum(speed.at_reference(fn(r), r["kernel_s"]) for r in rows) / len(rows)

    def counts(row) -> dict:
        c = {f"{name}.{tracer.metric_suffixes(name)[0]}": calls for name, (calls, _, _) in row["spans"].items()}
        c.update(row["counters"])
        c["cli.output_bytes"] = dir_bytes(work / row["out"])
        if {"channel.resonance_wavelength.calls", "channel.DielectricTable.lookups"} <= set(c):
            solves = c["channel.resonance_wavelength.calls"]
            c["channel.resonance.lookups_per_solve"] = c["channel.DielectricTable.lookups"] / solves if solves else 0
        return c

    first, second = (counts(r) for r in rows if r["phase"] == "probe")
    problems = [f"{k} differs between two traced runs of invocation 0: {first[k]} vs {second[k]}"
                for k in first if first[k] != second[k]]
    metrics = dict(first)
    for name in rows[0]["spans"]:
        _, total, self_ = tracer.metric_suffixes(name)
        metrics[f"{name}.{total}"] = mean(lambda r: r["spans"][name][1])
        metrics[f"{name}.{self_}"] = mean(lambda r: r["spans"][name][2])
    if tracer.MC_STATISTIC in rows[0]["spans"]:
        metrics["tomo.monte_carlo_errors.sampling_s"] = mean(
            lambda r: r["spans"]["tomo.monte_carlo_errors"][1] - r["spans"][tracer.MC_STATISTIC][1])
    untraced = [speed.at_reference(r["latency_s"], r["kernel_s"])
                for r in result["invocations"] if r["phase"] == "timed"]
    traced = [speed.at_reference(r["wall_s"], r["kernel_s"]) for r in rows]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.wall_s"] = mean(lambda r: r["wall_s"])
    metrics["trace.unattributed_s"] = mean(lambda r: r["unattributed_s"])
    for r in rows:
        gap = r["self_sum_s"] + r["unattributed_s"] - r["wall_s"]
        if abs(gap) > 1e-6:
            problems.append(f"{r['out']}: self times + unattributed miss the wall time by {gap:.3g} s")
    return metrics, problems


def remembered_counts(name: str, seed: int, metrics: dict) -> list[str]:
    """Compare the exact counts with an earlier traced run of the same seed and source."""
    path = WORK / "counts" / f"{name}-{seed}-{src_digest()}.json"
    now = {k: metrics[k] for k in EXACT_COUNTS if k in metrics}
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(now, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"{k} = {now.get(k)} here, {v} in an earlier traced run of seed {seed}"
            for k, v in before.items() if now.get(k) != v]


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.write_inputs(name, seed, ROOT, work)
    # Set-up samples are split around the timed loop so that their median
    # spans the run rather than one moment of the machine's load.
    setup = [] if trace else measure_setup(config, SETUP_SAMPLES // 2, warm=True)
    result = run_worker(name, seed, seconds, trace, config, work, deadline)
    if not trace:
        setup += measure_setup(config, SETUP_SAMPLES - len(setup), warm=False)

    checker = checks.Checker(ROOT, name, seed, work)
    problems = check_outputs(checker, result["invocations"], work)
    notes = []
    if problems["inv-0"]:
        notes.append("self-test skipped: invocation 0 failed its checks")
    else:
        caught, missed = checks.self_test(checker, work / "inv-0", work)
        notes += [f"self-test: corruption not caught: {m}" for m in missed]

    if trace:
        metrics, trace_problems = per_layer(result, work)
        notes += trace_problems + remembered_counts(name, seed, metrics)
        details, raw = {}, {}
        expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, details, raw = end_to_end(result, setup)
        expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    unknown = set(metrics) - set(expected)
    if unknown:
        raise BenchmarkError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    failed = sum(1 for p in problems.values() if p)
    attempted = len(problems)
    for out, found in problems.items():
        for p in found[:5]:
            print(f"  FAILED {out}: {p}", file=sys.stderr)
    for note in notes:
        print(f"  PROBLEM {note}", file=sys.stderr)

    print(f"workload {name}  seed {seed}  trace {int(trace)}: {workloads.WORKLOADS[name].why}")
    kernel_s = statistics.median(r["kernel_s"] for r in result["invocations"])
    print(f"  times at reference speed: wall x {speed.REFERENCE_S} s / speed kernel time "
          f"(median kernel time {kernel_s:.4g} s)")
    for key in sorted(metrics, key=list(expected).index):
        print(f"  {key:44s} {metrics[key]:>14.6g} {expected[key]:6s} {details.get(key, '')}")
    print(f"  {'failed_frac':44s} {failed / attempted:>14.6g} {'1':6s} {failed}/{attempted} invocations")
    if not problems["inv-0"]:
        print(f"  self-test: the checks caught {len(caught)} of {len(caught) + len(missed)} corrupted outputs "
              f"({'; '.join(caught)})")
    if trace:
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(f"  trace accounting: sum of self_s {self_sum:.6f} s + unattributed "
              f"{metrics['trace.unattributed_s']:.6f} s = {self_sum + metrics['trace.unattributed_s']:.6f} s; "
              f"mean traced invocation wall {metrics['trace.wall_s']:.6f} s")
    report = {
        "workload": name, "seed": seed, "trace": trace, "correct": failed == 0 and not notes,
        "attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
        "metrics": {k: {"value": v, "unit": expected[k], "detail": details.get(k, "")} for k, v in metrics.items()},
        "wall": raw, "setup_samples_s": setup,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    for rec in result["invocations"]:
        shutil.rmtree(work / rec["out"], ignore_errors=True)
    return report


def unmapped_metrics(declared: dict) -> list[str]:
    """Per-layer metrics that layer_map.json does not tie to an end-to-end metric."""
    groups = json.loads((HERE / "layer_map.json").read_text())["groups"]
    e2e = {m["name"] for m in declared["end_to_end"]}
    names = {w["name"] for w in declared["workloads"]}
    bad = [f"layer_map.json names unknown {pair}" for g in groups for pair in g["moves"]
           if pair[0] not in e2e or pair[1] not in names]
    return bad + [m["name"] for m in declared["per_layer"]
                  if not any(m["name"].startswith(p) for g in groups for p in g["prefixes"])]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src/spp_teleport/cli.py").is_file():
        print(f"no package source at {ROOT / 'src/spp_teleport'}", file=sys.stderr)
        return 2
    unmapped = unmapped_metrics(declared)
    if unmapped:
        print(f"layer map does not cover: {unmapped}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), declared) for n in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
                    for r in reports for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
