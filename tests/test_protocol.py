import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport.channel import ChannelModel, calibrated_channel
from spp_teleport.protocol import (
    BELL_VECTORS,
    SWAPPED_RESOURCE,
    BellOutcome,
    Campaign,
    NoEstimateError,
    INPUT_LABELS,
    INPUT_STATES,
    OUTCOMES,
    apply_correction,
    bell_decompose,
    run_teleportation,
)
from spp_teleport.qcore import (
    EIG_ATOL,
    PAULI_MATRICES,
    MixedState,
    PureState,
    bloch_matrices,
    fidelity_pure,
)

from spp_teleport.tomo import (
    BASES,
    QPT_INPUT_LABELS,
    qpt_reconstruct,
    qst_reconstruct,
    sample_measurements,
)

from conftest import projector, pure_states
from reference import trace_distance, werner

SQ2 = np.sqrt(2.0)
PAULIS = dict(zip("IXYZ", PAULI_MATRICES))


# ---------------------------------------------------------------------------
# independent brute-force propagation used as the oracle for the pipeline


# Bell vectors over (Q0, Q1) written out from the projective definitions,
# on purpose not imported from the package.
_ORACLE_BELL = {
    "PhiPlus": np.array([1, 0, 0, 1]) / SQ2,
    "PhiMinus": np.array([1, 0, 0, -1]) / SQ2,
    "PsiPlus": np.array([0, 1, 1, 0]) / SQ2,
    "PsiMinus": np.array([0, -1, 1, 0]) / SQ2,
}
_ORACLE_CORRECTIONS = {
    "PhiPlus": ("X", "Z"),
    "PhiMinus": ("X",),
    "PsiPlus": ("Z",),
    "PsiMinus": (),
}


def brute_force_teleport(input_amps, resource_matrix):
    """Propagate input x resource through the Bell projection by hand.

    input_amps: 2-vector for Q0. resource_matrix: 4x4 density matrix on
    (Q1, Q2). Returns {outcome_label: (probability, corrected 2x2 matrix)}.
    """
    phi = np.asarray(input_amps, dtype=complex)
    phi = phi / np.linalg.norm(phi)
    full = np.kron(np.outer(phi, phi.conj()), np.asarray(resource_matrix))
    t = full.reshape(2, 2, 2, 2, 2, 2)  # (q0, q1, q2) x (q0', q1', q2')
    out = {}
    for label, b in _ORACLE_BELL.items():
        bt = b.reshape(2, 2)
        cond = np.einsum("ik,ikajlb,jl->ab", bt.conj(), t, bt)
        prob = np.trace(cond).real
        rho = cond / prob
        for pauli in _ORACLE_CORRECTIONS[label]:
            s = PAULIS[pauli]
            rho = s @ rho @ s.conj().T
        out[label] = (float(prob), rho)
    return out


# The Bell analyser as six-mode optics, modes ordered (path1 H, path1 V,
# path2 H, path2 V, path3 H, path3 V): path2/path3 are the left/right
# interferometer arms and path1 collects the displaced output ports. The
# matrix is a partial isometry: the two zero rows are the unused arms, and it
# is an isometry only on the Bell subspace because element phases are dropped.
_S = 1 / SQ2
BSM_MATRIX = np.array([
    [0, 0, 0, _S, -_S, 0],
    [0, 0, 0, -_S, -_S, 0],
    [0, 0, -_S, 0, 0, -_S],
    [0, 0, _S, 0, 0, -_S],
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
], dtype=complex)
BELL_MODE_VECTORS = {
    "PhiPlus": np.array([0, 0, 1, 0, 0, 1]) / SQ2,
    "PhiMinus": np.array([0, 0, 1, 0, 0, -1]) / SQ2,
    "PsiPlus": np.array([0, 0, 0, 1, 1, 0]) / SQ2,
    "PsiMinus": np.array([0, 0, 0, 1, -1, 0]) / SQ2,
}
PORT_MODE_INDEX = {"CH1": 2, "CH2": 3, "CH3": 0, "CH4": 1}


def _overlap(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


# ---------------------------------------------------------------------------


class TestInputs:
    def test_labels(self):
        assert INPUT_LABELS == ("H", "V", "D", "A", "R", "L")

    def test_pairwise_orthogonality(self):
        for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
            assert _overlap(INPUT_STATES[a], INPUT_STATES[b]) < 1e-12


class TestResource:
    def test_amplitudes(self):
        assert np.allclose(SWAPPED_RESOURCE, np.array([0, 1, -1, 0]) / SQ2)

    def test_marginals_maximally_mixed(self):
        amps = SWAPPED_RESOURCE.reshape(2, 2)  # (path of A, polarization of B)
        for red in (amps @ amps.conj().T, amps.T @ amps.conj()):
            assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


class TestBellBasis:
    def test_orthonormal(self):
        vecs = [BELL_VECTORS[o].amplitudes for o in OUTCOMES]
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_ports_distinct(self):
        ports = [o.port for o in OUTCOMES]
        assert sorted(ports) == ["CH1", "CH2", "CH3", "CH4"]


class TestBsmMatrix:
    def test_routing(self):
        for outcome in OUTCOMES:
            image = BSM_MATRIX @ BELL_MODE_VECTORS[outcome.label]
            port_idx = PORT_MODE_INDEX[outcome.port]
            assert abs(image[port_idx]) ** 2 == pytest.approx(1.0, abs=1e-12)
            other = np.delete(image, port_idx)
            assert np.max(np.abs(other)) < 1e-12

    def test_isometry_on_bell_subspace(self):
        vecs = [BELL_MODE_VECTORS[o.label] for o in OUTCOMES]
        gram = np.array([[np.vdot(BSM_MATRIX @ a, BSM_MATRIX @ b) for b in vecs] for a in vecs])
        assert np.allclose(np.abs(gram), np.eye(4), atol=1e-12)


class TestBellDecompose:
    def test_probabilities_quarter(self):
        for label in INPUT_LABELS:
            branches = bell_decompose(INPUT_STATES[label])
            for _, prob in branches.values():
                assert prob == pytest.approx(0.25, abs=1e-12)

    def test_h_input_branch_states(self):
        branches = bell_decompose(INPUT_STATES["H"])
        # pre-correction: PsiMinus passes H through, PhiMinus flips it
        assert _overlap(branches[BellOutcome.PSI_MINUS][0], INPUT_STATES["H"]) == pytest.approx(1.0, abs=1e-12)
        assert _overlap(branches[BellOutcome.PHI_MINUS][0], INPUT_STATES["V"]) == pytest.approx(1.0, abs=1e-12)

    def test_d_input_psi_plus_is_antidiagonal(self):
        branches = bell_decompose(INPUT_STATES["D"])
        assert _overlap(branches[BellOutcome.PSI_PLUS][0], INPUT_STATES["A"]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50)
    @given(pure_states())
    def test_probabilities_quarter_random(self, s):
        branches = bell_decompose(s)
        for _, prob in branches.values():
            assert prob == pytest.approx(0.25, abs=1e-10)

    @settings(max_examples=50)
    @given(pure_states())
    def test_corrected_branches_recover_input(self, s):
        branches = bell_decompose(s)
        for outcome, (pre, _) in branches.items():
            rho = apply_correction(projector(pre), outcome, ChannelModel())
            assert fidelity_pure(rho, s) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_two_qubit_input(self):
        with pytest.raises(ValueError):
            bell_decompose(PureState(SWAPPED_RESOURCE))


class TestCorrection:
    def test_perfect_flip(self):
        rho = apply_correction(projector(INPUT_STATES["V"]), BellOutcome.PHI_MINUS, ChannelModel())
        assert fidelity_pure(rho, INPUT_STATES["H"]) == pytest.approx(1.0, abs=1e-12)

    def test_eom_failure_mixture(self):
        ch = ChannelModel(contrast_x=77.5, contrast_z=29.7)
        rho = apply_correction(projector(INPUT_STATES["V"]), BellOutcome.PHI_MINUS, ch)
        # a failed X flip leaves |V>, so the H fidelity is exactly 1 - eps_x
        assert fidelity_pure(rho, INPUT_STATES["H"]) == pytest.approx(1.0 - 1.0 / 78.5, abs=1e-12)

    def test_rejects_two_qubit_state(self):
        with pytest.raises(ValueError):
            apply_correction(MixedState(np.eye(4) / 4), BellOutcome.PHI_MINUS, ChannelModel())

    def test_no_correction_branch_untouched(self):
        rho_in = projector(INPUT_STATES["R"])
        rho = apply_correction(rho_in, BellOutcome.PSI_MINUS, ChannelModel(contrast_x=2.0, contrast_z=2.0))
        assert trace_distance(rho.matrix, rho_in.matrix) < 1e-12


class TestRunTeleportation:
    def test_ideal_identity_all_cells(self):
        ch = ChannelModel()
        for label in INPUT_LABELS:
            for rec in run_teleportation(label, ch, shots=100, seed=7):
                assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_shot_partition_matches_total(self):
        recs = run_teleportation("D", ChannelModel(), shots=1234, seed=3)
        assert sum(r.shots for r in recs) == 1234

    def test_deterministic_partition(self):
        a = run_teleportation("L", ChannelModel(), shots=5000, seed=11)
        b = run_teleportation("L", ChannelModel(), shots=5000, seed=11)
        assert [r.shots for r in a] == [r.shots for r in b]

    @pytest.mark.parametrize("v", [0.0, 0.5, 0.9, 1.0])
    def test_werner_fidelity_against_oracle(self, v):
        ch = ChannelModel(werner_visibility=v)
        expected = (1.0 + v) / 2.0
        for label in INPUT_LABELS:
            recs = run_teleportation(label, ch, shots=10, seed=0)
            oracle = brute_force_teleport(INPUT_STATES[label].amplitudes, werner(v))
            for rec in recs:
                assert rec.fidelity == pytest.approx(expected, abs=1e-9)
                prob, rho_ref = oracle[rec.outcome.label]
                assert prob == pytest.approx(rec.probability, abs=1e-12)
                assert trace_distance(rec.state.matrix, MixedState(rho_ref).matrix) < 1e-9

    def test_pipeline_matches_oracle_random_inputs(self, rng):
        v = 0.83
        ch = ChannelModel(werner_visibility=v)
        for _ in range(20):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            oracle = brute_force_teleport(amps, werner(v))
            branches = bell_decompose(PureState(amps))
            for outcome, (pre, prob) in branches.items():
                rho = MixedState(v * projector(pre).matrix + (1 - v) * np.eye(2) / 2)
                rho = apply_correction(rho, outcome, ch)
                p_ref, rho_ref = oracle[outcome.label]
                assert prob == pytest.approx(p_ref, abs=1e-12)
                assert trace_distance(rho.matrix, MixedState(rho_ref).matrix) < 1e-9

    def test_eom_lowers_fidelity_monotonically(self):
        f_good = run_teleportation("R", ChannelModel(contrast_x=100.0, contrast_z=100.0), 10, 0)
        f_bad = run_teleportation("R", ChannelModel(contrast_x=5.0, contrast_z=5.0), 10, 0)
        for a, b in zip(f_good, f_bad):
            if a.outcome.corrections:
                assert b.fidelity < a.fidelity
            else:
                assert b.fidelity == pytest.approx(a.fidelity, abs=1e-12)

    def test_correction_count_splits_eom_penalty(self):
        # outcomes needing two flips lose more than single-flip outcomes
        recs = {r.outcome: r for r in run_teleportation("R", ChannelModel(contrast_x=10.0, contrast_z=10.0), 10, 0)}
        assert recs[BellOutcome.PSI_MINUS].fidelity > recs[BellOutcome.PSI_PLUS].fidelity
        assert recs[BellOutcome.PSI_PLUS].fidelity > recs[BellOutcome.PHI_PLUS].fidelity

    def test_transmittance_does_not_change_states(self):
        lossy = run_teleportation("D", ChannelModel(transmittance=0.008), 10, 0)
        clean = run_teleportation("D", ChannelModel(), 10, 0)
        for a, b in zip(lossy, clean):
            assert trace_distance(a.state.matrix, b.state.matrix) < 1e-12

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            run_teleportation("H", ChannelModel(), shots=0, seed=0)


class TestRunCampaign:
    def test_matches_per_branch_pipeline(self):
        # reference: the per-input loop with 5 sub-seeds per input, one QST per branch
        ch = ChannelModel(werner_visibility=0.9, contrast_x=40.0, contrast_z=20.0)
        inputs = ("D", "H", "L")
        campaign = Campaign.run(ch, inputs, shots=300, seed=42, max_likelihood=True)
        assert campaign.estimated.all()
        seeds = np.random.SeedSequence(42).generate_state(len(inputs) * 5)
        for i, label in enumerate(inputs):
            recs = run_teleportation(label, ch, 300, seed=int(seeds[5 * i]))
            assert [(rec.input, rec.outcome) for rec in recs] == [(label, o) for o in OUTCOMES]
            for k, (rec, sub) in enumerate(zip(recs, seeds[5 * i + 1:5 * i + 5])):
                measured = sample_measurements(rec.state, rec.shots // len(BASES), seed=int(sub))
                assert rec.shots == campaign.shots[i, k]
                assert np.array_equal(rec.state.matrix, campaign.states[i, k])
                assert np.array_equal(qst_reconstruct(measured[None], max_likelihood=True)[0],
                                      campaign.estimates[i, k])


# Bloch-vector signs of the Pauli flips, written out: X keeps x and flips y
# and z, Z keeps z and flips x and y
_FLIP_SIGNS = {"X": (1.0, -1.0, -1.0), "Z": (-1.0, -1.0, 1.0)}
# Bloch vectors of the six inputs, written out
_INPUT_BLOCH = {"H": (0, 0, 1), "V": (0, 0, -1), "D": (1, 0, 0), "A": (-1, 0, 0), "R": (0, -1, 0), "L": (0, 1, 0)}


def _conditional_amplitudes(target, outcome):
    """Normalized, phase-stripped Q2 amplitudes of one Bell outcome, and its probability."""
    full = np.kron(target, SWAPPED_RESOURCE)
    full = (full / np.linalg.norm(full)).reshape(2, 2, 2)
    cond = np.einsum("ij,ijk->k", BELL_VECTORS[outcome].amplitudes.reshape(2, 2).conj(), full)
    prob = float(np.linalg.norm(cond) ** 2)
    amps = cond / np.linalg.norm(cond)
    k = int(np.argmax(np.abs(amps)))
    amps = amps / (amps[k] / abs(amps[k]))
    return amps / np.linalg.norm(amps), prob


def _clamped_fidelity(target, rho):
    return float(min(1.0, max(0.0, np.vdot(target, rho @ target).real)))


def _flip_failure(channel, flip):
    """1/(1 + c) for the EOM contrast c of an "X" or "Z" flip, 0 for a flip without one, read from the
    channel's contrast fields rather than through ChannelModel.flip_error."""
    contrast = channel.contrast_x if flip == "X" else channel.contrast_z
    return 0.0 if contrast is None else 1.0 / (1.0 + contrast)


def _assert_in_ball(r):
    # density_matrices' bound: the lowest eigenvalue of (I + r.sigma)/2 is (1 - |r|)/2 >= -EIG_ATOL
    assert np.sqrt((np.asarray(r) ** 2).sum()) <= 1 + 2 * EIG_ATOL


def reference_teleport(label, channel):
    """The per-branch pipeline in Pauli-transfer-matrix arithmetic, one
    branch at a time with scalar arithmetic, outcomes in OUTCOMES order: the
    conditional state's Bloch vector, shrunk by the channel, then scaled by
    the product of the flips' diagonals. Each stage's Bloch vector is checked
    to lie in the ball and the final state is validated on its own. The
    reference the stacked campaign must match bit for bit. Returns (state,
    probability, fidelity) per outcome."""
    target = INPUT_STATES[label].amplitudes
    branches = []
    for outcome in OUTCOMES:
        (a, b), prob = _conditional_amplitudes(target, outcome)
        cross = 2.0 * a.conjugate() * b
        r = [cross.real, cross.imag, (a.real**2 + a.imag**2) - (b.real**2 + b.imag**2)]
        _assert_in_ball(r)
        r = [channel.bloch_shrink * x for x in r]
        _assert_in_ball(r)
        diag = [1.0, 1.0, 1.0]
        for flip in outcome.corrections:
            eps = _flip_failure(channel, flip)
            diag = [d * ((1.0 - eps) * sign + eps) for d, sign in zip(diag, _FLIP_SIGNS[flip])]
        r = [x * d for x, d in zip(r, diag)]
        _assert_in_ball(r)
        rho = MixedState(bloch_matrices(r)).matrix
        branches.append((rho, prob, _clamped_fidelity(target, rho)))
    return branches


def matrix_teleport(label, channel):
    """The per-branch pipeline on density matrices, one validated state per
    stage: depolarizing as w rho + (1 - w) I/2, and each correction as a
    Pauli conjugation mixed with the unflipped state by the EOM's failure
    probability. An oracle independent of the Bloch-vector arithmetic.
    Returns (state, fidelity) per outcome."""
    target = INPUT_STATES[label].amplitudes
    branches = []
    for outcome in OUTCOMES:
        amps, _ = _conditional_amplitudes(target, outcome)
        rho = MixedState(np.outer(amps, amps.conj())).matrix
        w = channel.bloch_shrink
        rho = MixedState(w * rho + (1.0 - w) * np.eye(2) / 2.0).matrix
        for label_p in outcome.corrections:
            sigma = PAULIS[label_p]
            eps = _flip_failure(channel, label_p)
            rho = (1.0 - eps) * (sigma @ rho @ sigma.conj().T) + eps * rho
        rho = MixedState(rho).matrix
        branches.append((rho, _clamped_fidelity(target, rho)))
    return branches


def closed_form_fidelity(label, outcome, channel):
    """F = (1 + w sum_k r_k^2 prod_flips((1 - eps) + eps s_k)) / 2 for the input's Bloch vector r:
    the outcome's Pauli maps r to s * r and its correction undoes the sign, except where a flip
    fails with probability eps."""
    total = 0.0
    for k, r_k in enumerate(_INPUT_BLOCH[label]):
        factor = 1.0
        for flip in _ORACLE_CORRECTIONS[outcome.label]:
            eps = _flip_failure(channel, flip)
            factor *= (1.0 - eps) + eps * _FLIP_SIGNS[flip][k]
        total += r_k**2 * factor
    return (1.0 + channel.bloch_shrink * total) / 2.0


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# an EOM contrast, or None for a flip that never fails
_CONTRASTS = st.one_of(st.none(), st.floats(1.001, 1e4))


class TestCampaign:
    CHANNEL = ChannelModel(werner_visibility=0.9, contrast_x=40.0, contrast_z=20.0)

    @pytest.mark.parametrize("channel", [
        ChannelModel(), ChannelModel(werner_visibility=0.83), CHANNEL, ChannelModel(depolarizing_extra=1.0),
        ChannelModel(werner_visibility=1 - 2**-53), calibrated_channel(with_spp=True),
        calibrated_channel(with_spp=False),
    ])
    def test_stack_equals_per_branch_reference(self, channel):
        campaign = Campaign.run(channel, INPUT_LABELS, shots=10, seed=0)
        for i, label in enumerate(INPUT_LABELS):
            for k, (rho, prob, fid) in enumerate(reference_teleport(label, channel)):
                assert _same_bits(campaign.states[i, k], rho)
                assert (campaign.probabilities[i, k], campaign.fidelities[i, k]) == (prob, fid)

    @settings(max_examples=60, deadline=None)
    @given(visibility=st.floats(0.0, 1.0), extra=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           contrast_x=_CONTRASTS, contrast_z=_CONTRASTS)
    def test_stack_equals_per_branch_reference_for_any_channel(self, visibility, extra, contrast_x, contrast_z):
        # the stack checks only its final states; every stage the reference
        # checks on its own must then be a no-op to the bit
        channel = ChannelModel(werner_visibility=visibility, depolarizing_extra=extra,
                               contrast_x=contrast_x, contrast_z=contrast_z)
        campaign = Campaign.run(channel, INPUT_LABELS, shots=10, seed=0)
        for i, label in enumerate(INPUT_LABELS):
            for k, (rho, _, fid) in enumerate(reference_teleport(label, channel)):
                assert _same_bits(campaign.states[i, k], rho) and campaign.fidelities[i, k] == fid

    @pytest.mark.parametrize("channel", [
        ChannelModel(), ChannelModel(werner_visibility=0.83), CHANNEL, ChannelModel(depolarizing_extra=1.0),
        calibrated_channel(with_spp=True), calibrated_channel(with_spp=False),
    ])
    def test_stack_agrees_with_the_matrix_form(self, channel):
        campaign = Campaign.run(channel, INPUT_LABELS, shots=10, seed=0)
        for i, label in enumerate(INPUT_LABELS):
            for k, (rho, fid) in enumerate(matrix_teleport(label, channel)):
                assert np.abs(campaign.states[i, k] - rho).max() <= 1e-15
                assert abs(campaign.fidelities[i, k] - fid) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(visibility=st.floats(0.0, 1.0), extra=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           contrast_x=_CONTRASTS, contrast_z=_CONTRASTS)
    def test_fidelities_equal_the_closed_form(self, visibility, extra, contrast_x, contrast_z):
        # every step is a diagonal Pauli transfer matrix, so each branch's
        # fidelity has a closed form (Greenbaum, arXiv:1509.02921)
        channel = ChannelModel(werner_visibility=visibility, depolarizing_extra=extra,
                               contrast_x=contrast_x, contrast_z=contrast_z)
        campaign = Campaign.run(channel, INPUT_LABELS, shots=10, seed=0)
        want = [[closed_form_fidelity(label, o, channel) for o in OUTCOMES] for label in INPUT_LABELS]
        assert np.abs(campaign.fidelities - np.array(want)).max() <= 1e-15

    def test_one_input_runs_equal_the_stack(self):
        # run_teleportation is the one-input call of the stack code
        campaign = Campaign.run(self.CHANNEL, INPUT_LABELS, shots=100, seed=3)
        for i, label in enumerate(INPUT_LABELS):
            for k, rec in enumerate(run_teleportation(label, self.CHANNEL, 100, seed=0)):
                assert _same_bits(rec.state.matrix, campaign.states[i, k])
                assert rec.fidelity == campaign.fidelities[i, k]
                assert rec.probability == campaign.probabilities[i, k]

    def test_branches_without_a_shot_per_basis_get_no_estimate(self):
        # shots 3 over 4 outcomes: most branches get 0-2 shots
        ch = ChannelModel(werner_visibility=0.9)
        campaign = Campaign.run(ch, ("H", "D"), shots=3, seed=0)
        assert np.array_equal(campaign.estimated, campaign.shots >= len(BASES))
        assert 0 < campaign.estimated.sum() < campaign.estimated.size
        assert np.isnan(campaign.estimates[~campaign.estimated]).all()
        assert not np.isnan(campaign.estimates[campaign.estimated]).any()

    def test_process_matrix_averages_the_estimated_branches(self):
        campaign = Campaign.run(self.CHANNEL, INPUT_LABELS, shots=9, seed=0)
        rows = [INPUT_LABELS.index(label) for label in QPT_INPUT_LABELS]
        assert campaign.estimated[rows].any(axis=1).all() and not campaign.estimated[rows].all()
        outputs = [np.mean([m for m, ok in zip(campaign.estimates[i], campaign.estimated[i]) if ok], axis=0)
                   for i in rows]
        assert _same_bits(campaign.process_matrix(), qpt_reconstruct(np.array(outputs)))

    def test_process_matrix_needs_an_estimate_per_input(self):
        campaign = Campaign.run(ChannelModel(), INPUT_LABELS, shots=2, seed=0)
        with pytest.raises(NoEstimateError, match="input H has no Bell outcome with 3 or more shots"):
            campaign.process_matrix()
