"""Output checks that feed ``failed_frac``, and their self-test.

Nothing here calls the package: every reference value is recomputed from
the generated inputs and the bundled data files. No golden output files are
used, so a later change may alter outputs on purpose as long as they stay
correct. A check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import jsonschema
import numpy as np

import workloads

SQ2 = math.sqrt(2.0)
INPUT_STATES = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / SQ2,
    "A": np.array([1, -1], dtype=complex) / SQ2,
    "R": np.array([1, -1j], dtype=complex) / SQ2,
    "L": np.array([1, 1j], dtype=complex) / SQ2,
}
OUTCOMES = ("PhiPlus", "PhiMinus", "PsiMinus", "PsiPlus")
CHSH_SETTINGS = ("0-22.5", "0-67.5", "45-22.5", "45-67.5")
CHSH_SIGNS = (1, -1, 1, 1)
BLOCKS = ("without_spp", "with_spp")
LOCAL_BOUND, CLASSICAL_FIDELITY = 2.0, 2.0 / 3.0
# A Monte Carlo std from 1e4 resamples has a relative error near 0.7 %.
MC_STD_RTOL = 0.05


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-finite JSON constant {name}")


def load_json(path: Path):
    """Parse strictly: NaN and Infinity are errors."""
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def read_csv(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _close(a, b, rtol=1e-12, atol=1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float))
                       <= atol + rtol * np.abs(np.asarray(b, float))))


def _matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _density_problems(rho: np.ndarray, where: str) -> list[str]:
    if rho.shape != (2, 2):
        return [f"{where}: density matrix shape {rho.shape}"]
    problems = []
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        problems.append(f"{where}: density matrix not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        problems.append(f"{where}: trace {np.trace(rho).real!r} != 1")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -1e-9:
        problems.append(f"{where}: density matrix not positive semidefinite")
    return problems


def _fidelity(rho: np.ndarray, label: str) -> float:
    psi = INPUT_STATES[label]
    return float(np.vdot(psi, rho @ psi).real)


class Checker:
    """Checks one invocation's output directory for one workload and seed."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.workload = workload
        self._seen: dict[bytes, list[str]] = {}
        schemas = root / "src/spp_teleport/data/schemas"
        self.schemas = {}
        for name in ("simulate_records", "process_matrix", "analyze_summary", "design_output"):
            schema = json.loads((schemas / f"{name}.json").read_text())
            self.schemas[name] = jsonschema.Draft7Validator(schema)
        if workload == "analyze-mc":
            self._analyze_refs(work / "counts.csv")
        elif workload == "design-sweep":
            table = read_csv(root / "src/spp_teleport/data/gold_dielectric.csv")[1:]
            self.wl = np.array([float(r[0]) for r in table])
            self.eps_re = np.array([float(r[1]) for r in table])
            self.periods = workloads.sweep_periods(seed)

    def check(self, out: Path) -> list[str]:
        """Problems in one output directory.

        The result depends only on the files' bytes, so it is computed once
        per distinct content: every design-sweep invocation of a run writes
        the same files, since its --seed does not enter the sweep.
        """
        digest = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        key = digest.digest()
        if key not in self._seen:
            self._seen[key] = self._check(out)
        return self._seen[key]

    def _check(self, out: Path) -> list[str]:
        try:
            return {"analyze-mc": self._analyze, "simulate-tomo": self._simulate,
                    "design-sweep": self._design}[self.workload](out)
        except CheckFailed as exc:
            return [str(exc)]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    def _schema(self, name: str, payload, where: str) -> list[str]:
        return [f"{where}: schema {name}: {e.message}" for e in self.schemas[name].iter_errors(payload)][:3]

    # -- analyze ---------------------------------------------------------

    def _analyze_refs(self, counts_csv: Path) -> None:
        counts = {}
        for kind, block, setting, outcome, n in read_csv(counts_csv)[1:]:
            counts.setdefault((kind, block), {}).setdefault(setting, {})[outcome] = int(n)
        self.ref = {}
        for block in BLOCKS:
            s, var = 0.0, 0.0
            for sign, setting in zip(CHSH_SIGNS, CHSH_SETTINGS):
                c = counts[("chsh", block)][setting]
                total = c["++"] + c["+-"] + c["-+"] + c["--"]
                e = (c["++"] - c["+-"] - c["-+"] + c["--"]) / total
                s += sign * e
                var += (1.0 - e * e) / total  # delta method, Poisson counts
            self.ref[f"chsh_s_{block}"] = (abs(s), math.sqrt(var), LOCAL_BOUND)
            cells = {k: v["phi"] / (v["phi"] + v["perp"]) for k, v in counts[("fidelity", block)].items()}
            var = sum(f * (1 - f) / (v["phi"] + v["perp"])
                      for f, v in zip(cells.values(), counts[("fidelity", block)].values()))
            self.ref[f"mean_fidelity_{block}"] = (
                float(np.mean(list(cells.values()))), math.sqrt(var) / len(cells), CLASSICAL_FIDELITY)
            self.ref[f"cells_{block}"] = cells

    def _analyze(self, out: Path) -> list[str]:
        problems = []
        summary = load_json(out / "summary.json")
        problems += self._schema("analyze_summary", summary, "summary.json")
        stats = {s["statistic"]: s for s in summary}
        for key in ("chsh_s_without_spp", "chsh_s_with_spp", "mean_fidelity_without_spp",
                    "mean_fidelity_with_spp"):
            value, std, bound = self.ref[key]
            got = stats[key]
            if not _close(got["value"], value):
                problems.append(f"{key} = {got['value']!r}, counts give {value!r}")
            if abs(got["std"] / std - 1.0) > MC_STD_RTOL:
                problems.append(f"{key} std {got['std']!r} vs delta-method {std!r}")
            if not _close(got["sigma_vs_bound"], (got["value"] - bound) / got["std"], rtol=1e-9):
                problems.append(f"{key} sigma_vs_bound inconsistent")
        chsh = load_json(out / "chsh.json")
        for block in BLOCKS:
            s = stats[f"chsh_s_{block}"]
            if not (_close(chsh[block]["S"], s["value"]) and _close(chsh[block]["std"], s["std"])):
                problems.append(f"chsh.json {block} disagrees with summary.json")
            rows = read_csv(out / f"fidelity_{block}.csv")
            header, body = rows[0], {r[0]: r[1:] for r in rows[1:]}
            cells = self.ref[f"cells_{block}"]
            got = [float(body[o][j]) for o in OUTCOMES for j in range(len(header) - 1)]
            want = [cells[f"{o}/{inp}"] for o in OUTCOMES for inp in header[1:]]
            if not _close(got, want, rtol=1e-10) or not _close(
                    float(body["mean"][0]), stats[f"mean_fidelity_{block}"]["value"], rtol=1e-10):
                problems.append(f"fidelity_{block}.csv disagrees with the counts")
        return problems

    # -- simulate --------------------------------------------------------

    def _simulate(self, out: Path) -> list[str]:
        problems = []
        records = load_json(out / "records.json")
        problems += self._schema("simulate_records", records, "records.json")
        if problems:
            return problems
        want = {(i, o) for i in INPUT_STATES for o in OUTCOMES}
        if {(r["input"], r["outcome"]) for r in records} != want or len(records) != len(want):
            problems.append("records.json does not hold each input x outcome once")
        shots = {}
        fid_exact = {}
        for r in records:
            where = f"records.json {r['input']}/{r['outcome']}"
            rho = _matrix(r["density_matrix"])
            problems += _density_problems(rho, where)
            if not _close(r["fidelity"], _fidelity(rho, r["input"])):
                problems.append(f"{where}: fidelity {r['fidelity']!r} != <psi|rho|psi>")
            shots[r["input"]] = shots.get(r["input"], 0) + r["shots"]
            fid_exact[(r["input"], r["outcome"])] = r["fidelity"]
        if any(n != workloads.SIM_SHOTS for n in shots.values()):
            problems.append(f"shots per input {shots} != {workloads.SIM_SHOTS}")

        tomo = load_json(out / "tomography.json")
        fid_qst = []
        for r in tomo:
            where = f"tomography.json {r['input']}/{r['outcome']}"
            rho = _matrix(r["density_matrix"])
            problems += _density_problems(rho, where)
            if not _close(r["fidelity"], _fidelity(rho, r["input"])):
                problems.append(f"{where}: fidelity {r['fidelity']!r} != <psi|rho|psi>")
            fid_qst.append(r["fidelity"])

        chi_doc = load_json(out / "chi.json")
        problems += self._schema("process_matrix", chi_doc, "chi.json")
        chi = _matrix(chi_doc["chi"])
        if (chi.shape != (4, 4) or not np.allclose(chi, chi.conj().T, atol=1e-10)
                or abs(np.trace(chi).real - 1) > 1e-8 or np.linalg.eigvalsh(chi).min() < -1e-9):
            problems.append("chi.json: chi is not a trace-one positive Hermitian 4x4 matrix")
        elif not _close(chi_doc["process_fidelity"], min(1.0, max(0.0, chi[0, 0].real))):
            problems.append("chi.json: process_fidelity != chi[0][0]")

        summary = load_json(out / "summary.json")
        if not _close(summary["mean_fidelity_exact"], np.mean(list(fid_exact.values()))):
            problems.append("summary.json: mean_fidelity_exact != mean of records")
        if not _close(summary["mean_fidelity_qst"], np.mean(fid_qst)):
            problems.append("summary.json: mean_fidelity_qst != mean of tomography")
        if not _close(summary["process_fidelity"], chi_doc["process_fidelity"]):
            problems.append("summary.json: process_fidelity != chi.json")

        rows = read_csv(out / "fidelity_table.csv")
        inputs = rows[0][1:]
        for row in rows[1:5]:
            got = [float(v) for v in row[1:]]
            if not _close(got, [fid_exact[(i, row[0])] for i in inputs], rtol=1e-10):
                problems.append(f"fidelity_table.csv row {row[0]} disagrees with records.json")
        bmap = chi_doc["bloch_map"]
        samples = np.array([[float(v) for v in r] for r in read_csv(out / "bloch_map_samples.csv")[1:]])
        image = samples[:, :3] @ np.asarray(bmap["linear"]).T + np.asarray(bmap["offset"])
        if not _close(samples[:, 3:], image, rtol=1e-9, atol=1e-9):
            problems.append("bloch_map_samples.csv disagrees with the Bloch map in chi.json")
        return problems

    # -- design ----------------------------------------------------------

    def _design(self, out: Path) -> list[str]:
        rows = load_json(out / "design.json")
        problems = self._schema("design_output", rows, "design.json")
        if problems:
            return problems
        modes = workloads.MODES
        if len(rows) != len(self.periods) * len(modes):
            return [f"design.json has {len(rows)} rows, expected {len(self.periods) * len(modes)}"]
        cols = {k: np.array([r[k] for r in rows], dtype=float) for k in rows[0]}
        period = np.repeat(self.periods, len(modes))
        m1 = np.tile([m[0] for m in modes], len(self.periods))
        m2 = np.tile([m[1] for m in modes], len(self.periods))
        if not (_close(cols["period_nm"], period, rtol=1e-12, atol=1e-9)
                and np.array_equal(cols["m1"], m1) and np.array_equal(cols["m2"], m2)):
            problems.append("design.json periods or modes differ from the sweep")
        lam = cols["resonance_nm"]
        if lam.min() < self.wl[0] or lam.max() > self.wl[-1]:
            problems.append("design.json resonance outside the dielectric table")
        eps_m = np.interp(lam, self.wl, self.eps_re)
        eps_d = workloads.EPS_SUBSTRATE
        rhs = cols["period_nm"] / np.hypot(m1, m2) * np.sqrt(eps_d * eps_m / (eps_d + eps_m))
        worst = np.nanmax(np.abs(rhs - lam))
        if not worst <= 1e-5:
            problems.append(f"design.json resonance misses its fixed point by {worst:.3g} nm")
        g = 2 * math.pi / cols["period_nm"]
        if not (_close(cols["k_spp_x"], m1 * g) and _close(cols["k_spp_y"], m2 * g)
                and _close(cols["k_spp_mag"], np.hypot(m1 * g, m2 * g))):
            problems.append("design.json wavevectors are not m * 2 pi / period")
        table = read_csv(out / "design.csv")
        keys = table[0]
        if set(keys) != set(rows[0]) or len(table) != len(rows) + 1 or not _close(
                np.array(table[1:], dtype=float), np.array([[r[k] for k in keys] for r in rows], dtype=float),
                rtol=1e-11):
            problems.append("design.csv disagrees with design.json")
        return problems


def compare_dirs(a: Path, b: Path) -> list[str]:
    """Problems if the two output directories are not byte-identical."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return [f"rerun wrote files {[str(f) for f in files_b]}, first run {[str(f) for f in files_a]}"]
    return [f"rerun wrote different bytes to {f}" for f in files_a
            if (a / f).read_bytes() != (b / f).read_bytes()]


# -- self-test -------------------------------------------------------------


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))  # allow_nan: writes NaN literally


def _bump_s(payload):
    for s in payload:
        if s["statistic"] == "chsh_s_without_spp":
            s["value"] += 0.01


CORRUPTIONS = {
    "analyze-mc": {
        "NaN in summary.json": ("summary.json", lambda p: p[0].__setitem__("value", float("nan"))),
        "summary.json entry violates its schema": ("summary.json", lambda p: p[0].pop("sigma_vs_bound")),
        "wrong CHSH S": ("summary.json", _bump_s),
    },
    "simulate-tomo": {
        "NaN in summary.json": ("summary.json", lambda p: p.__setitem__("mean_fidelity_qst", float("nan"))),
        "record violates its schema": ("records.json", lambda p: p[0].__setitem__("port", "CH9")),
        "wrong record fidelity": ("records.json", lambda p: p[0].__setitem__("fidelity", p[0]["fidelity"] - 1e-3)),
    },
    "design-sweep": {
        "NaN in design.json": ("design.json", lambda p: p[1].__setitem__("k_spp_x", float("nan"))),
        "design row violates its schema": ("design.json", lambda p: p[0].pop("m1")),
        "wrong resonance": ("design.json", lambda p: p[0].__setitem__("resonance_nm", p[0]["resonance_nm"] + 0.5)),
    },
}


def self_test(checker: Checker, good: Path, scratch: Path) -> tuple[list[str], list[str]]:
    """Corrupt copies of a passing output directory; each must be caught.

    Returns the corruptions that the checks caught and those they missed.
    """
    caught_labels, missed = [], []
    cases = list(CORRUPTIONS[checker.workload].items())
    cases.append(("rerun writes different bytes", (None, None)))
    for label, (name, edit) in cases:
        bad = scratch / "selftest"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        if name is None:
            victim = sorted(p for p in bad.iterdir() if p.is_file())[0]
            victim.write_bytes(victim.read_bytes() + b" ")
            caught = compare_dirs(good, bad)
        else:
            _edit_json(bad / name, edit)
            caught = checker.check(bad)
        (caught_labels if caught else missed).append(label)
        shutil.rmtree(bad)
    return caught_labels, missed
