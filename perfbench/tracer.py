"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every place the package
binds it (module globals, names brought in by ``from ... import`` and class
attributes) with a wrapper that records one span per call: name, start,
end, parent span and invocation id. Spans stay in memory in flat arrays and
are written once, by ``Tracer.save``, when the benchmark ends.

A function that no longer exists is skipped, so its metrics are absent.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute path, span name). The span name is also the prefix of
# the function's per-layer metrics.
SPANS = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "cmd_simulate", "cli.cmd_simulate"),
    ("cli", "cmd_analyze", "cli.cmd_analyze"),
    ("cli", "cmd_design", "cli.cmd_design"),
    ("qcore", "MixedState.__post_init__", "qcore.MixedState"),
    ("qcore", "state_from_bloch", "qcore.state_from_bloch"),
    ("qcore", "bloch_of", "qcore.bloch_of"),
    ("qcore", "fidelity_pure", "qcore.fidelity_pure"),
    ("qcore", "tensor", "qcore.tensor"),
    ("qcore", "complex_matrix_to_json", "qcore.complex_matrix_to_json"),
    ("protocol", "run_teleportation", "protocol.run_teleportation"),
    ("protocol", "bell_decompose", "protocol.bell_decompose"),
    ("protocol", "apply_correction", "protocol.apply_correction"),
    ("channel", "apply_channel", "channel.apply_channel"),
    ("channel", "calibrated_channel", "channel.calibrated_channel"),
    ("channel", "resonance_wavelength", "channel.resonance_wavelength"),
    ("channel", "dispersion_match", "channel.dispersion_match"),
    ("channel", "gold_dielectric_table", "channel.gold_dielectric_table"),
    ("channel", "load_dielectric_table", "channel.load_dielectric_table"),
    ("channel", "DielectricTable.__call__", "channel.DielectricTable"),
    ("tomo", "sample_measurements", "tomo.sample_measurements"),
    ("tomo", "qst_reconstruct", "tomo.qst_reconstruct"),
    ("tomo", "qpt_reconstruct", "tomo.qpt_reconstruct"),
    ("tomo", "process_fidelity", "tomo.process_fidelity"),
    ("tomo", "bloch_map_of", "tomo.bloch_map_of"),
    ("tomo", "bloch_sphere_samples", "tomo.bloch_sphere_samples"),
    ("tomo", "monte_carlo_errors", "tomo.monte_carlo_errors"),
    ("counts", "load_counts_csv", "counts.load_counts_csv"),
    ("counts", "chsh_s", "counts.chsh_s"),
    ("counts", "correlation", "counts.correlation"),
    ("counts", "fidelity_table", "counts.fidelity_table"),
)
# Counted on every call but given no span, to keep the 20 000 calls per
# analyze invocation cheap.
COUNTED = (("counts", "CountsTable.__post_init__", "counts.CountsTable.constructions"),)

MC_STATISTIC = "tomo.monte_carlo_errors.statistic"
# qst_reconstruct is two spans, chosen by its max_likelihood argument.
QST_SPANS = ("tomo.qst_reconstruct.linear", "tomo.qst_reconstruct.ml")
# Spans whose call count and total time carry the names the layer uses.
RENAMED = {
    "qcore.MixedState": ("constructions", "validate_s"),
    "channel.DielectricTable": ("lookups", "total_s"),
}
PACKAGE = "spp_teleport"


def metric_suffixes(span: str) -> tuple[str, str, str]:
    calls, total = RENAMED.get(span, ("calls", "total_s"))
    return calls, total, "self_s"


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.invocation_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct child spans
        self._stack: list[int] = []
        self.invocation = -1
        self.counters: Counter = Counter()  # (invocation, name) -> count
        self.counter_names: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self.invocation, name)] += n

    def span(self, name: str, fn):
        nid = self._id(name)
        stack, parents, starts, ends, child = self._stack, self.parent, self.start, self.end, self.child
        name_ids, invs = self.name_id, self.invocation_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            name_ids.append(nid)
            parents.append(parent)
            invs.append(self.invocation)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                if parent >= 0:
                    child[parent] += t1 - t0

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[(self.invocation, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _statistic(self, fn):
        traced = self.span(MC_STATISTIC, fn)

        def statistic(*args, **kwargs):
            value = traced(*args, **kwargs)
            if isinstance(value, float):
                bad = not math.isfinite(value)
            else:
                bad = int(np.size(value) - np.count_nonzero(np.isfinite(value)))
            if bad:
                self.count(MC_STATISTIC + ".nonfinite", int(bad))
            return value

        return statistic

    def _monte_carlo(self, name: str, fn):
        sig = inspect.signature(fn)
        if "trials" in sig.parameters:
            self.counter_names.append("tomo.monte_carlo_errors.trials")
        if "statistic" in sig.parameters:
            self._id(MC_STATISTIC)
            self.counter_names.append(MC_STATISTIC + ".nonfinite")

        def monte_carlo_errors(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if "trials" in sig.parameters:
                self.count("tomo.monte_carlo_errors.trials", int(bound.arguments["trials"]))
            if "statistic" in sig.parameters:
                bound.arguments["statistic"] = self._statistic(bound.arguments["statistic"])
            return fn(*bound.args, **bound.kwargs)

        return self.span(name, functools.wraps(fn)(monte_carlo_errors))

    def _qst(self, name: str, fn):
        sig = inspect.signature(fn)
        linear, ml = (self.span(n, fn) for n in QST_SPANS)

        @functools.wraps(fn)
        def qst_reconstruct(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return (ml if bound.arguments.get("max_likelihood") else linear)(*args, **kwargs)

        return qst_reconstruct

    def install(self) -> None:
        """Wrap every traced function that the imported package defines.

        Afterwards ``names`` lists the spans and ``counter_names`` the
        counters that exist.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        special = {"tomo.monte_carlo_errors": self._monte_carlo, "tomo.qst_reconstruct": self._qst}
        for module, path, name in SPANS + COUNTED:
            owner, attr = _resolve(sys.modules.get(f"{PACKAGE}.{module}"), path)
            if owner is None or attr not in vars(owner):
                continue
            orig = vars(owner)[attr]
            if (module, path, name) in COUNTED:
                self.counter_names.append(name)
                wrapped = self.counted(name, orig)
            else:
                wrapped = special.get(name, self.span)(name, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent), invocation=np.asarray(self.invocation_id))

    def per_invocation(self, invocations: list[int], walls: list[float]) -> list[dict]:
        """Calls, total and self time of each span name, summed per invocation.

        Self time is a span's duration minus the time its child spans cover.
        ``unattributed_s`` is the invocation wall time outside any root span,
        so that the self times plus it add up to the wall time.
        """
        names = np.asarray(self.name_id)
        inv = np.asarray(self.invocation_id)
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_t = dur - np.asarray(self.child)
        root = np.asarray(self.parent) < 0
        out = []
        n = len(self.names)
        for k, wall in zip(invocations, walls):
            sel = inv == k
            calls = np.bincount(names[sel], minlength=n)
            total = np.bincount(names[sel], weights=dur[sel], minlength=n)
            selfs = np.bincount(names[sel], weights=self_t[sel], minlength=n)
            out.append({
                "spans": {name: (int(calls[i]), float(total[i]), float(selfs[i]))
                          for i, name in enumerate(self.names)},
                "counters": {name: self.counters[(k, name)] for name in self.counter_names},
                "wall_s": wall,
                "unattributed_s": wall - float(dur[sel & root].sum()),
                "self_sum_s": float(self_t[sel].sum()),
            })
        return out
