"""Release acceptance checks.

Each test emits a single PASS/FAIL line (echoed in the pytest terminal
summary) and then asserts, so a red criterion is visible both ways.
"""

import json
import math
import time

import numpy as np

from spp_teleport import channel, cli, counts, protocol, tomo
from spp_teleport.qcore import MixedState

import conftest
from conftest import random_mixed
from reference import chi_act, trace_distance, werner
from test_protocol import BELL_MODE_VECTORS, BSM_MATRIX, PORT_MODE_INDEX, brute_force_teleport
from test_tomo import depolarizing_chi, exact_counts


def _report(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {status}  {description}  [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num}: {description} [{detail}]"


def test_01_chsh_reproduction():
    t0 = time.perf_counter()
    s_wo = counts.chsh_s(counts.load_counts_csv(counts.bundled_counts_path(), "chsh", "without_spp"))
    s_w = counts.chsh_s(counts.load_counts_csv(counts.bundled_counts_path(), "chsh", "with_spp"))
    elapsed = time.perf_counter() - t0
    ok = (abs(s_wo - 2.551) <= 1e-3 and abs(s_w - 2.281) <= 1e-3 and elapsed < 1.0)
    _report(1, "CHSH |S| = 2.551 / 2.281 within 1e-3, < 1 s", ok,
            f"S={s_wo:.4f}/{s_w:.4f}, {elapsed * 1e3:.0f} ms")


def test_02_fidelity_table_reproduction():
    from test_counts import PUBLISHED_WITH_SPP, PUBLISHED_WITHOUT_SPP, published_in_outcome_order

    t0 = time.perf_counter()
    results = {
        "without_spp": counts.fidelity_table(
            counts.load_counts_csv(counts.bundled_counts_path(), "fidelity", "without_spp")),
        "with_spp": counts.fidelity_table(
            counts.load_counts_csv(counts.bundled_counts_path(), "fidelity", "with_spp")),
    }
    elapsed = time.perf_counter() - t0
    published = {"without_spp": PUBLISHED_WITHOUT_SPP, "with_spp": PUBLISHED_WITH_SPP}
    worst = 0.0
    for block, fids in results.items():
        diff = np.abs(100 * fids - published_in_outcome_order(published[block]))
        worst = max(worst, float(diff.max()))
    mean_wo = 100 * float(results["without_spp"].mean())
    mean_w = 100 * float(results["with_spp"].mean())
    ok = (worst <= 0.005 + 1e-9
          and abs(mean_wo - 92.67) <= 0.01
          and abs(mean_w - 88.91) <= 0.01
          and elapsed < 1.0)
    _report(2, "48 cells at printed precision; means 92.67% / 88.91% within 0.01%", ok,
            f"worst cell diff {worst:.4f}%, means {mean_wo:.3f}/{mean_w:.3f}, "
            f"{elapsed * 1e3:.0f} ms")


def test_03_fidelity_budget_products():
    total_wo = 100 * channel.fidelity_budget_total(with_spp=False)
    total_w = 100 * channel.fidelity_budget_total(with_spp=True)
    ok = abs(total_wo - 91.75) <= 0.01 and abs(total_w - 85.35) <= 0.01
    _report(3, "budget products 91.75% / 85.35% within 0.01%", ok,
            f"{total_wo:.4f}% / {total_w:.4f}%")


def test_04_sigma_violations():
    bound_state = counts.CLASSICAL_STATE_FIDELITY_BOUND
    bound_proc = counts.CLASSICAL_PROCESS_FIDELITY_BOUND
    s1 = counts.sigma_violation(0.9267, bound_state, 0.0032)
    s2 = counts.sigma_violation(0.8891, bound_state, 0.0038)
    s3 = counts.sigma_violation(0.898, bound_proc, 0.005)
    s4 = counts.sigma_violation(0.820, bound_proc, 0.005)
    ok = s1 >= 81 and s2 >= 58 and s3 >= 79 and abs(s4 - 64) <= 1
    _report(4, "state >= 81 / 58 sigma; process >= 79 and 64 +- 1 sigma", ok,
            f"{s1:.1f}, {s2:.1f}, {s3:.1f}, {s4:.1f}")


def test_05_bsm_routing():
    # the analyser's mode matrix sends each Bell state to the port the package
    # names for its outcome, the port written to records.json
    worst = 1.0
    routed = True
    for outcome in protocol.OUTCOMES:
        image = BSM_MATRIX @ BELL_MODE_VECTORS[outcome.label]
        idx = PORT_MODE_INDEX[outcome.port]
        worst = min(worst, abs(image[idx]) ** 2)
        others = np.delete(image, idx)
        routed = routed and np.max(np.abs(others)) < 1e-12
    ok = routed and abs(worst - 1.0) <= 1e-12
    _report(5, "analyser routes each Bell state to its port, |amp|^2 = 1 +- 1e-12", ok,
            f"min |amp|^2 = {worst:.15f}")


def test_06_ideal_teleportation_identity():
    t0 = time.perf_counter()
    worst = 1.0
    ch = channel.ChannelModel()
    for label in protocol.INPUT_LABELS:
        for _, _, fidelity, _ in protocol.run_teleportation(label, ch, shots=10, seed=0).values():
            worst = min(worst, fidelity)
    elapsed = time.perf_counter() - t0
    ok = abs(worst - 1.0) <= 1e-12 and elapsed < 1.0
    _report(6, "ideal channel: 6 inputs x 4 outcomes at fidelity 1 +- 1e-12, < 1 s", ok,
            f"min fidelity {worst:.15f}, {elapsed * 1e3:.0f} ms")


def test_07_werner_channel_oracle():
    worst = 0.0
    for v in (0.0, 0.5, 0.9, 1.0):
        ch = channel.ChannelModel(werner_visibility=v)
        expected = (1 + v) / 2
        for label in protocol.INPUT_LABELS:
            oracle = brute_force_teleport(protocol.INPUT_STATES[label], werner(v))
            for outcome, (_, state, fidelity, _) in protocol.run_teleportation(label, ch, shots=10, seed=0).items():
                worst = max(worst, abs(fidelity - expected))
                _, rho_ref = oracle[outcome.label]
                worst = max(worst, trace_distance(state.matrix, MixedState(rho_ref).matrix))
    ok = worst <= 1e-9
    _report(7, "Werner(v) gives per-outcome fidelity (1+v)/2 vs brute force, 1e-9", ok,
            f"worst deviation {worst:.2e}")


def test_08_tomography_round_trip():
    rng = np.random.default_rng(20240809)
    worst_qst = 0.0
    for _ in range(100):
        rho = random_mixed(rng)
        rec = tomo.qst_reconstruct(exact_counts(rho)[None])[0]
        worst_qst = max(worst_qst, trace_distance(rec, rho.matrix))
    worst_qpt = 0.0
    for p in (0.0, 0.1, 0.3, 0.7, 1.0):
        inputs = np.array([conftest.projector(protocol.INPUT_STATES[lbl]).matrix for lbl in tomo.QPT_INPUT_LABELS])
        chi = tomo.qpt_reconstruct(chi_act(depolarizing_chi(p), inputs))
        diag = np.diag(chi).real
        expected = np.array([1 - 3 * p / 4, p / 4, p / 4, p / 4])
        worst_qpt = max(worst_qpt, float(np.abs(diag - expected).max()))
    ok = worst_qst <= 1e-10 and worst_qpt <= 1e-9
    _report(8, "QST exact round trip 1e-10 (100 states); QPT chi diagonals 1e-9", ok,
            f"QST {worst_qst:.2e}, QPT {worst_qpt:.2e}")


def test_09_process_fidelity_bracket():
    cfg = cli.RunConfig(calibration="with_spp", shots=100_000, seed=0)
    t0 = time.perf_counter()
    files = cli.cmd_simulate(cfg)
    elapsed = time.perf_counter() - t0
    chi = json.loads(files["chi.json"])
    f_proc = chi["process_fidelity"]
    ok = 0.78 <= f_proc <= 0.86 and elapsed < 30.0
    _report(9, "calibrated with-SPP run: F_proc in [0.78, 0.86], < 30 s at 1e5 shots", ok,
            f"F_proc = {f_proc:.4f}, {elapsed:.1f} s")


def test_10_monte_carlo_error_calibration():
    table = counts.load_counts_csv(counts.bundled_counts_path(), "fidelity", "without_spp")
    phi_perp = table.counts[counts.LAYOUT["fidelity"][0].index("PsiPlus/H")]
    (std,) = tomo.monte_carlo_errors(phi_perp, lambda c: c[:, :1] / (c[:, :1] + c[:, 1:]), trials=4000)
    target = 0.0027
    rel = abs(std - target) / std
    ok = rel <= 0.30
    _report(10, "MC std of the (PsiPlus, H) cell consistent with 0.0027 (30% rel.)", ok,
            f"std = {std:.4f}, rel. diff {rel:.2f}")


def test_11_resonance_solver():
    period = np.array([700.0])
    lam = float(channel.resonance_wavelength(period, (1, 1), 2.25, channel.gold_dielectric_table())[0])
    flat = channel.DielectricTable([300, 2000], [-25.0, -25.0])
    lam_by_mode = {}
    for mode in ((1, 1), (1, 0)):
        lam_by_mode[mode] = float(channel.resonance_wavelength(period, mode, 2.25, flat)[0])
    ratio = lam_by_mode[(1, 1)] / lam_by_mode[(1, 0)]
    ok = 769 <= lam <= 849 and abs(ratio - 1 / math.sqrt(2)) <= 1e-12
    _report(11, "gold-on-glass (1,1) resonance in 809 +- 40 nm; mode ratio 1/sqrt(2)", ok,
            f"lambda = {lam:.1f} nm, ratio = {ratio:.12f}")
