"""One workload in one process: a closed loop of ``spp_teleport.cli.main`` calls.

Run by ``run.py`` as ``python3 worker.py <spec.json>``; writes its results to
the spec's ``result`` path. One client, no extra threads: each invocation
starts when the previous one returns. Between invocations the speed kernel
(speed.py) runs, outside the invocations' latencies.

Order of a run:
  1. invocation 0, untimed (warm-up; its outputs are checked);
  2. the timed untraced loop, invocations 1..N, for ``untraced_s`` seconds
     and at least ``min_timed`` invocations;
  3. untraced run: invocation 0 again, for the byte-identical rerun check;
     traced run: the tracer is installed, a traced loop runs for
     ``traced_s`` seconds, then invocation 0 runs twice traced (the rerun
     check and the exact-count check).
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    root, work = Path(spec["root"]), Path(spec["work"])
    sys.path.insert(0, str(root / "src"))
    from spp_teleport import cli

    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"spp_teleport imported from {cli.__file__}, not from {root / 'src'}")
    import speed
    import workloads
    from tracer import Tracer

    name, seed, config = spec["workload"], spec["seed"], Path(spec["config"])
    invocations = []  # dicts: k, out, rc, latency_s, phase, kernel_s
    kernels = [speed.kernel_seconds()]

    def invoke(k: int, out: str, phase: str) -> dict:
        """One invocation; its kernel_s is the mean of the speed kernel times right before and after it."""
        argv = workloads.invocation_argv(name, config, seed, k, work / out)
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not the end of the run
            traceback.print_exc()
            rc = "traceback"
        latency = perf_counter() - t0
        kernels.append(speed.kernel_seconds())
        rec = {"k": k, "out": out, "rc": rc, "latency_s": latency, "phase": phase,
               "kernel_s": (kernels[-2] + kernels[-1]) / 2}
        invocations.append(rec)
        return rec

    def loop(first_k: int, seconds: float, minimum: int, phase: str, before=None) -> tuple[int, float]:
        """Run invocations first_k, first_k + 1, ...; return the next k and the elapsed time."""
        k, n = first_k, 0
        t0 = perf_counter()
        while perf_counter() - t0 < seconds or n < minimum:
            if before:
                before(k)
            invoke(k, f"inv-{k}", phase)
            k, n = k + 1, n + 1
        return k, perf_counter() - t0

    invoke(0, "inv-0", "warmup")
    k, timed_s = loop(1, spec["untraced_s"], spec["min_timed"], "timed")
    result = {"invocations": invocations, "timed_s": timed_s}
    if not spec["trace"]:
        invoke(0, "inv-0-rerun", "rerun")
    else:
        tracer = Tracer()
        tracer.install()

        def start_invocation(j):
            tracer.invocation = j

        loop(k, spec["traced_s"], 2, "traced", start_invocation)
        for out in ("inv-0-rerun", "inv-0-rerun2"):
            tracer.invocation = -len(invocations)  # probes get ids of their own
            invoke(0, out, "probe")["trace_id"] = tracer.invocation
        traced = [r for r in invocations if r["phase"] in ("traced", "probe")]
        ids = [r.get("trace_id", r["k"]) for r in traced]
        result["trace"] = {
            "per_invocation": [
                {"k": r["k"], "out": r["out"], "phase": r["phase"], "kernel_s": r["kernel_s"], **agg}
                for r, agg in zip(traced, tracer.per_invocation(ids, [r["latency_s"] for r in traced]))
            ],
        }
        tracer.save(work / "spans.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
