import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spp_teleport.qcore import (
    MixedState,
    PAULI_MATRICES,
    bloch_of,
    state_from_bloch,
    trace_distance,
)
from spp_teleport.tomo import (
    AffineBlochMap,
    BASES,
    MeasurementRecord,
    ProcessMatrix,
    TomographyError,
    bloch_map_of,
    bloch_sphere_samples,
    chi_identity,
    monte_carlo_errors,
    process_fidelity,
    qpt_reconstruct,
    qst_reconstruct,
    sample_counts,
    sample_measurements,
)

from conftest import mixed_states, random_mixed, random_pure


def exact_records(rho, scale=1.0):
    """Noise-free measurement records: counts proportional to the exact
    outcome probabilities."""
    x, y, z = bloch_of(rho).as_array()
    by_axis = {"X": x, "Y": y, "Z": z}
    return [
        MeasurementRecord(b, scale * (1 + by_axis[b]) / 2, scale * (1 - by_axis[b]) / 2)
        for b in BASES
    ]


def depolarizing_chi(p):
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1 - 3 * p / 4
    chi[1, 1] = chi[2, 2] = chi[3, 3] = p / 4
    return ProcessMatrix(chi)


def amplitude_damping_chi(gamma):
    # Kraus operators expanded in the Pauli basis: K0 = a I + b Z,
    # K1 = (sqrt(gamma)/2)(X + iY)
    a = (1 + np.sqrt(1 - gamma)) / 2
    b = (1 - np.sqrt(1 - gamma)) / 2
    c0 = np.array([a, 0, 0, b], dtype=complex)
    c1 = np.array([0, np.sqrt(gamma) / 2, 1j * np.sqrt(gamma) / 2, 0])
    return ProcessMatrix(np.outer(c0, c0.conj()) + np.outer(c1, c1.conj()))


def rotation_chi(angle, axis):
    # U = exp(-i angle n.sigma / 2) in the Pauli basis: a non-diagonal Bloch map
    n = np.asarray(axis) / np.linalg.norm(axis)
    c = np.concatenate([[np.cos(angle / 2)], -1j * np.sin(angle / 2) * n])
    return ProcessMatrix(np.outer(c, c.conj()))


QPT_INPUTS = [
    MixedState(np.array([[1, 0], [0, 0]], dtype=complex)),
    MixedState(np.array([[0, 0], [0, 1]], dtype=complex)),
    MixedState(np.ones((2, 2)) / 2),
    MixedState(np.array([[1, -1j], [1j, 1]]) / 2),
]


class TestMeasurementRecord:
    def test_bad_basis(self):
        with pytest.raises(TomographyError):
            MeasurementRecord("W", 1, 1)

    def test_negative_counts(self):
        with pytest.raises(TomographyError):
            MeasurementRecord("Z", -1, 1)


class TestSampling:
    def test_deterministic(self):
        rho = random_mixed(np.random.default_rng(0))
        a = sample_measurements(rho, 1000, seed=42)
        b = sample_measurements(rho, 1000, seed=42)
        assert a == b

    def test_pure_h_counts(self):
        rho = MixedState(np.diag([1.0, 0.0]))
        recs = {r.basis: r for r in sample_measurements(rho, 500, seed=0)}
        assert recs["Z"].plus_counts == 500
        assert recs["Z"].minus_counts == 0


    def test_stack_equals_per_basis_draws(self, rng):
        states = [random_mixed(rng) for _ in range(6)] + [MixedState(np.diag([1.0, 0.0])),
                                                          MixedState(np.ones((2, 2)) / 2)]
        shots = [0, 1, 2, 7, 500, 33_333, 100_000, 40]
        seeds = [int(s) for s in np.random.SeedSequence(3).generate_state(len(states))]
        counts = sample_counts(np.array([s.matrix for s in states]), shots, seeds)
        assert counts.dtype == np.int64 and counts.shape == (len(states), 6)
        for rho, n, seed, row in zip(states, shots, seeds, counts.tolist()):
            assert row == reference_sample(rho, n, seed)
            assert [c for r in sample_measurements(rho, n, seed) for c in (r.plus_counts, r.minus_counts)] == row


def reference_sample(rho, shots_per_basis, seed):
    """The per-basis sampling loop, one scalar binomial draw per basis: the
    reference the stacked sampler must match draw for draw."""
    rng = np.random.default_rng(seed)
    counts = []
    for basis in BASES:
        plus = _REF_BASIS_STATES[basis][0]
        p = min(1.0, max(0.0, float(np.vdot(plus, rho.matrix @ plus).real)))
        n_plus = int(rng.binomial(shots_per_basis, p))
        counts += [n_plus, shots_per_basis - n_plus]
    return counts


class TestQst:
    def test_exact_pure(self):
        rho = MixedState(np.diag([1.0, 0.0]))
        assert trace_distance(qst_reconstruct(exact_records(rho)), rho) < 1e-12

    def test_exact_mixed(self):
        rho = MixedState.maximally_mixed(2)
        assert trace_distance(qst_reconstruct(exact_records(rho)), rho) < 1e-12

    def test_exact_random_states(self, rng):
        for _ in range(100):
            rho = random_mixed(rng)
            rec = qst_reconstruct(exact_records(rho))
            assert trace_distance(rec, rho) < 1e-10

    def test_radial_projection(self):
        # inconsistent over-complete counts land outside the Bloch ball and
        # must come back along the same direction
        recs = [
            MeasurementRecord("X", 99, 1),
            MeasurementRecord("Y", 99, 1),
            MeasurementRecord("Z", 99, 1),
        ]
        rho = qst_reconstruct(recs)
        r = bloch_of(rho).as_array()
        assert np.linalg.norm(r) <= 1 + 1e-12
        assert np.allclose(r / np.linalg.norm(r), np.ones(3) / np.sqrt(3), atol=1e-10)

    def test_missing_basis(self):
        with pytest.raises(TomographyError):
            qst_reconstruct([MeasurementRecord("Z", 10, 10)])

    def test_ml_close_to_linear_inversion(self, rng):
        rho = random_mixed(rng)
        recs = sample_measurements(rho, 200_000, seed=5)
        lin = qst_reconstruct(recs)
        ml = qst_reconstruct(recs, max_likelihood=True)
        assert trace_distance(lin, ml) < 5e-3
        assert trace_distance(ml, rho) < 1e-2

    def test_sampled_converges(self, rng):
        rho = random_mixed(rng)
        recs = sample_measurements(rho, 1_000_000, seed=9)
        assert trace_distance(qst_reconstruct(recs), rho) < 5e-3

    @settings(max_examples=40)
    @given(mixed_states())
    def test_exact_round_trip_property(self, rho):
        assert trace_distance(qst_reconstruct(exact_records(rho)), rho) < 1e-9


# Per-outcome basis vectors in BASES order, for the reference below.
_REF_BASIS_STATES = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2), np.array([1, -1j], dtype=complex) / np.sqrt(2)),
}


def reference_ml_refine(records, tol=1e-10, max_iter=10_000, dilution=0.5):
    """One state's diluted RrhoR loop, written per state: the reference the
    batched solve must match bit for bit."""
    rho0 = qst_reconstruct(records)
    projectors, counts = [], []
    for basis in BASES:
        plus, minus = _REF_BASIS_STATES[basis]
        projectors.append(np.outer(plus, plus.conj()))
        counts.append(sum(r.plus_counts for r in records if r.basis == basis))
        projectors.append(np.outer(minus, minus.conj()))
        counts.append(sum(r.minus_counts for r in records if r.basis == basis))
    counts = np.array(counts, dtype=float)
    total = counts.sum()
    mat = rho0.matrix + 1e-6 * np.eye(2)
    mat /= np.trace(mat).real
    eye = np.eye(2)
    for _ in range(max_iter):
        probs = np.array([max(np.trace(p @ mat).real, 1e-15) for p in projectors])
        r_op = sum(c / p * proj for c, p, proj in zip(counts, probs, projectors)) / total
        g = (1 - dilution) * eye + dilution * r_op
        new = g @ mat @ g.conj().T
        new = 0.5 * (new + new.conj().T)
        new /= np.trace(new).real
        if np.abs(new - mat).max() < tol:
            mat = new
            break
        mat = new
    return MixedState(mat)


def _records(counts):
    return [MeasurementRecord(b, p, m) for b, (p, m) in zip(BASES, counts)]


@st.composite
def counts_near_bloch_vector(draw, radius):
    """(plus, minus) counts per basis, BASES order, each basis with at least one
    count, whose Bloch vector lies within `radius` unless a basis has an odd
    total n and a component below 1/n.

    Each basis gets the whole counts nearest its expected counts for a
    drawn vector no longer than `radius`, rounded toward equal counts."""
    totals = draw(st.lists(st.integers(1, 5000), min_size=3, max_size=3))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    length = draw(st.floats(0.0, radius))
    norm = np.linalg.norm(direction)
    r = length * direction / norm if norm > 0 else np.zeros(3)
    counts = []
    for n, x in zip(totals, r):
        diff = int(abs(n * x))  # plus - minus, toward zero ...
        diff = max(diff - (diff - n) % 2, n % 2)  # ... and of the parity of n
        plus = (n + (diff if x >= 0 else -diff)) // 2
        counts.append((plus, n - plus))
    return counts


class TestBatchedMaximumLikelihood:
    def mixed_batch(self, rng):
        batch = [
            _records([(500, 0), (260, 240), (251, 249)]),  # pure along Z: one outcome never seen
            _records([(99, 1), (99, 1), (99, 1)]),  # outside the ball, radially projected
            _records([(1, 0), (0, 1), (1, 0)]),  # one count per basis
            exact_records(random_mixed(rng), scale=1000.0),  # non-integer counts
        ]
        for seed in range(6):
            batch.append(sample_measurements(random_mixed(rng), 100_000 // 3, seed=seed))
        batch.append(batch[1] + batch[0])  # several records per basis
        return batch

    def test_batch_equals_per_state_reference(self, rng):
        batch = self.mixed_batch(rng)
        states = qst_reconstruct(batch, max_likelihood=True)
        assert len(states) == len(batch)
        for records, state in zip(batch, states):
            expected = reference_ml_refine(records).matrix
            assert np.array_equal(state.matrix, expected)
            assert np.array_equal(qst_reconstruct(records, max_likelihood=True).matrix, expected)

    def test_linear_batch_equals_single_calls(self, rng):
        batch = self.mixed_batch(rng)
        for records, state in zip(batch, qst_reconstruct(batch)):
            assert np.array_equal(state.matrix, qst_reconstruct(records).matrix)

    @pytest.mark.parametrize("ml", [False, True])
    def test_count_stack_equals_record_lists(self, rng, ml):
        batch = self.mixed_batch(rng)
        counts = np.array([[sum(getattr(r, side) for r in records if r.basis == basis)
                            for basis in BASES for side in ("plus_counts", "minus_counts")] for records in batch])
        stack = qst_reconstruct(counts, max_likelihood=ml)
        assert isinstance(stack, np.ndarray) and stack.shape == (len(batch), 2, 2)
        for state, mat in zip(qst_reconstruct(batch, max_likelihood=ml), stack):
            assert state.matrix.tobytes() == mat.tobytes()
        with pytest.raises(TomographyError, match="no counts for basis Y"):
            qst_reconstruct(np.array([[5, 5, 5, 5, 0, 0]]))
        assert qst_reconstruct(counts[:0], max_likelihood=ml).shape == (0, 2, 2)

    def test_return_types(self):
        records = _records([(5, 5), (5, 5), (5, 5)])
        assert isinstance(qst_reconstruct(records), MixedState)
        assert isinstance(qst_reconstruct(tuple(records), max_likelihood=True), MixedState)
        states = qst_reconstruct([records], max_likelihood=True)
        assert isinstance(states, list) and len(states) == 1

    def test_missing_basis_in_batch(self):
        good = _records([(5, 5), (5, 5), (5, 5)])
        with pytest.raises(TomographyError, match="no counts for basis X"):
            qst_reconstruct([good, _records([(5, 5), (0, 0), (5, 5)])])

    def test_not_converged_raises(self, rng):
        batch = [sample_measurements(random_mixed(rng), 1000, seed=s) for s in range(3)]
        with pytest.raises(TomographyError, match=r"^3 of 3 maximum-likelihood reconstructions "
                                                  r"did not converge within 1 iterations$"):
            qst_reconstruct(batch, max_likelihood=True, ml_max_iter=1)
        with pytest.raises(TomographyError, match="1 of 1 maximum-likelihood"):
            qst_reconstruct(batch[0], max_likelihood=True, ml_max_iter=1)

    def test_converged_states_leave_the_batch(self):
        # the maximally mixed estimate converges within 2 steps, the projected
        # one does not: only the state still iterating is counted
        fast = _records([(10, 10), (10, 10), (10, 10)])
        slow = _records([(99, 1), (99, 1), (99, 1)])
        assert isinstance(qst_reconstruct(fast, max_likelihood=True, ml_max_iter=2), MixedState)
        with pytest.raises(TomographyError, match="1 of 2"):
            qst_reconstruct([fast, slow], max_likelihood=True, ml_max_iter=2)

    @settings(max_examples=100, deadline=None)
    @given(counts_near_bloch_vector(0.95))
    def test_ml_equals_linear_inside_ball(self, counts):
        # complete three-basis data: the unconstrained likelihood maximum is the
        # linear-inversion estimate, so inside the ball ML must land on it
        records = _records(counts)
        linear = qst_reconstruct(records)
        # rounding to whole counts can carry a vector drawn near the radius past it
        assume(np.linalg.norm(bloch_of(linear).as_array()) <= 0.95)
        assert trace_distance(qst_reconstruct(records, max_likelihood=True), linear) < 1e-6


class TestProcessMatrix:
    def test_validation(self):
        with pytest.raises(TomographyError):
            ProcessMatrix(np.eye(3))
        with pytest.raises(TomographyError):
            ProcessMatrix(np.eye(4))  # trace 4

    def test_identity_apply(self, rng):
        rho = random_mixed(rng)
        out = chi_identity().apply(rho)
        assert trace_distance(out, rho) < 1e-12

    def test_depolarizing_apply(self, rng):
        p = 0.3
        rho = random_mixed(rng)
        out = depolarizing_chi(p).apply(rho)
        ref = MixedState((1 - p) * rho.matrix + p * np.eye(2) / 2)
        assert trace_distance(out, ref) < 1e-12


class TestQpt:
    def test_identity_channel(self):
        pairs = [(rho, rho) for rho in QPT_INPUTS]
        chi = qpt_reconstruct(pairs)
        assert np.allclose(chi.chi, chi_identity().chi, atol=1e-10)

    def test_pure_x_channel(self):
        sx = PAULI_MATRICES[1]
        pairs = [(rho, MixedState(sx @ rho.matrix @ sx)) for rho in QPT_INPUTS]
        chi = qpt_reconstruct(pairs)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.allclose(chi.chi, expected, atol=1e-10)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.6])
    def test_depolarizing_diagonals(self, p):
        ref = depolarizing_chi(p)
        pairs = [(rho, ref.apply(rho)) for rho in QPT_INPUTS]
        chi = qpt_reconstruct(pairs)
        diag = np.diag(chi.chi).real
        assert np.allclose(diag, [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-9)

    def test_rank_deficient_inputs(self):
        pairs = [(QPT_INPUTS[0], QPT_INPUTS[0])] * 4
        with pytest.raises(TomographyError):
            qpt_reconstruct(pairs)

    def test_too_few_pairs(self):
        with pytest.raises(TomographyError):
            qpt_reconstruct([(QPT_INPUTS[0], QPT_INPUTS[0])])

    def test_cp_projection_clips(self):
        # slightly unphysical outputs produce small negative chi eigenvalues
        ref = depolarizing_chi(0.1)
        pairs = []
        for i, rho in enumerate(QPT_INPUTS):
            out = ref.apply(rho).matrix
            bump = 0.004 if i % 2 else -0.004
            out = (1 - abs(bump)) * out + abs(bump) * np.eye(2) / 2
            if i == 0:
                out = 0.996 * out + 0.004 * np.array([[0, 0], [0, 1.0]])
            pairs.append((rho, MixedState(out)))
        chi = qpt_reconstruct(pairs, cp_projection=True)
        assert np.linalg.eigvalsh(chi.chi).min() >= -1e-12


def _tp_residual(chi):
    """Distance of sum_lk chi_lk s_k s_l from the identity: zero for a trace-preserving chi."""
    acc = sum(chi[l, k] * PAULI_MATRICES[k] @ PAULI_MATRICES[l] for l in range(4) for k in range(4))
    return np.abs(acc - np.eye(2)).max()


class TestCpProjection:
    def non_cp_pairs(self):
        # pure outputs that no unitary produces: H is tilted, V, D and L are not;
        # clipping the negative eigenvalue of this chi breaks trace preservation
        tilted = np.array([0.1, 0.0, 0.99])
        outs = [state_from_bloch(tilted / np.linalg.norm(tilted))] + QPT_INPUTS[1:]
        return list(zip(QPT_INPUTS, outs))

    def test_result_is_completely_positive_and_trace_preserving(self):
        pairs = self.non_cp_pairs()
        raw = qpt_reconstruct(pairs)
        assert np.linalg.eigvalsh(raw.chi).min() < -1e-3
        chi = qpt_reconstruct(pairs, cp_projection=True)
        assert np.linalg.eigvalsh(chi.chi).min() >= -1e-12
        assert _tp_residual(chi.chi) < 1e-12
        for rho in QPT_INPUTS:
            assert np.trace(chi.apply(rho).matrix).real == pytest.approx(1.0, abs=1e-12)
        bloch_map_of(chi)  # applies chi to validated states

    def test_admixes_the_depolarizing_channel(self):
        pairs = self.non_cp_pairs()
        raw = qpt_reconstruct(pairs).chi
        lowest = np.linalg.eigvalsh(raw).min()
        expected = (raw - lowest * np.eye(4)) / (1 - 4 * lowest)
        assert np.allclose(qpt_reconstruct(pairs, cp_projection=True).chi, expected, atol=1e-12)

    def test_completely_positive_input_unchanged(self):
        ref = depolarizing_chi(0.1)
        pairs = [(rho, ref.apply(rho)) for rho in QPT_INPUTS]
        chi = qpt_reconstruct(pairs, cp_projection=True)
        assert np.allclose(chi.chi, ref.chi, atol=1e-10)


class TestProcessFidelity:
    def test_identity_perfect(self):
        assert process_fidelity(chi_identity(), chi_identity()) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_depolarizing(self, p):
        assert process_fidelity(depolarizing_chi(p), chi_identity()) == pytest.approx(
            1 - 3 * p / 4, abs=1e-12)

    def test_average_fidelity_relation(self):
        # for Pauli-diagonal channels F_avg = (2 F_proc + 1) / 3
        p = 0.4
        chi = depolarizing_chi(p)
        f_proc = process_fidelity(chi, chi_identity())
        fids = []
        for rho in QPT_INPUTS:
            evals, evecs = np.linalg.eigh(rho.matrix)
            phi = evecs[:, np.argmax(evals)]
            out = chi.apply(rho)
            fids.append(np.vdot(phi, out.matrix @ phi).real)
        assert np.mean(fids) == pytest.approx((2 * f_proc + 1) / 3, abs=1e-10)


class TestBlochMap:
    def test_identity(self):
        bmap = bloch_map_of(chi_identity())
        assert np.allclose(bmap.linear, np.eye(3), atol=1e-10)
        assert np.allclose(bmap.offset, 0, atol=1e-10)

    def test_depolarizing_shrink(self):
        p = 0.35
        bmap = bloch_map_of(depolarizing_chi(p))
        assert np.allclose(bmap.linear, (1 - p) * np.eye(3), atol=1e-10)
        assert np.allclose(bmap.offset, 0, atol=1e-10)

    def test_amplitude_damping_offset(self):
        gamma = 0.3
        bmap = bloch_map_of(amplitude_damping_chi(gamma))
        s = np.sqrt(1 - gamma)
        assert np.allclose(bmap.linear, np.diag([s, s, 1 - gamma]), atol=1e-10)
        assert np.allclose(bmap.offset, [0, 0, gamma], atol=1e-10)

    def test_map_matches_apply(self, rng):
        chi = amplitude_damping_chi(0.2)
        bmap = bloch_map_of(chi)
        for _ in range(10):
            rho = random_mixed(rng)
            r = bloch_of(rho).as_array()
            direct = bloch_of(chi.apply(rho)).as_array()
            assert np.allclose(bmap(r), direct, atol=1e-10)

    @pytest.mark.parametrize("chi", [chi_identity(), depolarizing_chi(0.3), amplitude_damping_chi(0.2),
                                     rotation_chi(0.7, (1.0, 2.0, 3.0))])
    def test_map_and_samples_equal_per_state_reference(self, chi):
        # the old per-state construction, one validated state per input
        def apply(rho):
            out = np.zeros((2, 2), dtype=complex)
            for l in range(4):
                for k in range(4):
                    out += chi.chi[l, k] * PAULI_MATRICES[l] @ rho @ PAULI_MATRICES[k]
            return MixedState(out).matrix

        def bloch(rho):
            return np.array([np.trace(rho @ p).real for p in PAULI_MATRICES[1:]])

        paulis = PAULI_MATRICES
        offset = bloch(apply(MixedState(np.eye(2) / 2).matrix))
        cols = [bloch(apply(MixedState(0.5 * (np.eye(2, dtype=complex) + e[0] * paulis[1] + e[1] * paulis[2]
                                              + e[2] * paulis[3])).matrix)) - offset for e in np.eye(3)]
        bmap = bloch_map_of(chi)
        assert bmap.linear.tobytes() == np.array(cols).T.tobytes() and bmap.offset.tobytes() == offset.tobytes()
        mesh, images = bloch_sphere_samples(bmap)
        points = [np.array([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)])
                  for t in np.linspace(0, np.pi, 12) for f in np.linspace(0, 2 * np.pi, 24, endpoint=False)]
        assert mesh.tobytes() == np.array(points).tobytes()
        assert images.tobytes() == np.array([bmap.linear @ r + bmap.offset for r in points]).tobytes()

    def test_compose(self):
        a = AffineBlochMap(0.5 * np.eye(3), np.array([0.0, 0.0, 0.1]))
        b = AffineBlochMap(np.diag([1.0, -1.0, 1.0]), np.zeros(3))
        r = np.array([0.2, -0.3, 0.4])
        assert np.allclose(a.compose(b)(r), a(b(r)), atol=1e-14)

    def test_sphere_samples_shapes(self):
        mesh, images = bloch_sphere_samples(bloch_map_of(chi_identity()), n_theta=4, n_phi=6)
        assert mesh.shape == images.shape == (24, 3)
        assert np.allclose(np.linalg.norm(mesh, axis=1), 1.0, atol=1e-12)
        assert np.allclose(mesh, images, atol=1e-10)


def _fraction(c):
    return c[:, 0] / (c[:, 0] + c[:, 1])


class TestMonteCarlo:
    def test_constant_statistic_zero_std(self):
        mean, std = monte_carlo_errors([100, 200], lambda c: np.ones(len(c)), trials=200, seed=0)
        assert mean == 1.0
        assert std == 0.0

    @pytest.mark.parametrize("counts", [[0.5, 3.0, 7.0], [2746.0, 120.0, 1e6]])
    def test_batch_draw_equals_sequential_draws(self, counts):
        # reference: the same 32 seeded chunks, one rng.poisson(counts) draw per trial
        weights = np.array([1.0, -2.0, 0.5])
        values = []
        chunks = np.diff(np.linspace(0, 1000, 33).astype(int))
        for ss, n in zip(np.random.SeedSequence(3).spawn(32), chunks):
            rng = np.random.default_rng(ss)
            values += [rng.poisson(counts) @ weights for _ in range(n)]
        expected = (float(np.mean(values)), float(np.std(values, ddof=1)))
        assert monte_carlo_errors(counts, lambda c: c @ weights, trials=1000, seed=3) == expected

    def test_deterministic(self):
        a = monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3)
        b = monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3)
        assert a == b

    def test_poisson_scaling(self):
        # quadrupling the counts should halve the relative error
        _, s1 = monte_carlo_errors([900, 100], _fraction, trials=4000, seed=1)
        _, s2 = monte_carlo_errors([3600, 400], _fraction, trials=4000, seed=1)
        assert s1 / s2 == pytest.approx(2.0, rel=0.15)

    def test_matches_binomial_formula(self):
        n_phi, n_perp = 2746, 120
        _, std = monte_carlo_errors([n_phi, n_perp], _fraction, trials=4000, seed=0)
        total = n_phi + n_perp
        f = n_phi / total
        analytic = np.sqrt(f * (1 - f) / total)  # delta method, independent Poissons
        assert std == pytest.approx(analytic, rel=0.1)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_errors([10, 10], lambda c: np.zeros(len(c)), trials=10)

    def test_zero_counts(self):
        with pytest.raises(ValueError):
            monte_carlo_errors([0, 0], lambda c: np.zeros(len(c)), trials=200)

    def test_degenerate_resamples_raise(self, recwarn):
        # [1, 0] resamples to [0, 0] about a third of the time: 0/0 is NaN
        with pytest.raises(TomographyError, match=r"\d+ of 1000 Monte Carlo resamples"):
            monte_carlo_errors([1, 0], _fraction, trials=1000, seed=0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_statistic_must_return_one_value_per_resample(self):
        with pytest.raises(ValueError, match="statistic must map"):
            monte_carlo_errors([10, 10], lambda c: c, trials=200)

    @pytest.mark.parametrize("trials", [100, 1001, 10_000])
    @pytest.mark.parametrize("counts", [[0.5, 3.0, 7.0], [2746.0, 120.0, 1e6]])
    def test_pool_equals_sequential_chunk_loop(self, counts, trials):
        # reference: the 32 seeded chunks drawn one after another on this thread
        def stat(c):
            return (c[:, 0] - 2 * c[:, 1]) / (1.0 + c[:, 2])

        sizes = np.diff(np.linspace(0, trials, 33).astype(int))
        values = np.concatenate([stat(np.random.default_rng(ss).poisson(counts, size=(n, 3)))
                                 for ss, n in zip(np.random.SeedSequence(11).spawn(32), sizes)])
        expected = (float(values.mean()), float(values.std(ddof=1)))
        assert monte_carlo_errors(counts, stat, trials=trials, seed=11) == expected

    def test_statistic_runs_on_the_calling_thread_in_chunk_order(self):
        seen = []

        def stat(c):
            seen.append((threading.get_ident(), c.shape[0], c[0].tolist()))
            return c[:, 0] / (c[:, 0] + c[:, 1])

        monte_carlo_errors([2746, 120], stat, trials=1000, seed=4)
        sizes = np.diff(np.linspace(0, 1000, 33).astype(int)).tolist()
        firsts = [np.random.default_rng(ss).poisson([2746, 120], size=(n, 2))[0].tolist()
                  for ss, n in zip(np.random.SeedSequence(4).spawn(32), sizes)]
        assert seen == [(threading.get_ident(), n, first) for n, first in zip(sizes, firsts)]

    def test_concurrent_callers_get_sequential_results(self):
        # more callers than cores, switching threads often, all on the one shared pool
        jobs = [([2746, 120], seed) for seed in range(6)] + [([900, 100, 5], seed) for seed in range(6)]
        n_callers = min(len(jobs), 2 * (os.cpu_count() or 1) + 1)

        def stat(c):
            return c[:, 0] / c.sum(axis=1)

        expected = [monte_carlo_errors(counts, stat, trials=3000, seed=seed) for counts, seed in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(n_callers)

        def caller(first):
            start.wait(timeout=60)
            for k in range(first, len(jobs), n_callers):
                got[k] = monte_carlo_errors(jobs[k][0], stat, trials=3000, seed=jobs[k][1])

        threads = [threading.Thread(target=caller, args=(first,)) for first in range(n_callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_raising_statistic_propagates_and_pool_still_works(self):
        class Boom(Exception):
            pass

        calls = []

        def stat(c):
            calls.append(len(c))
            if len(calls) == 3:
                raise Boom("third chunk")
            return c[:, 0] / (c[:, 0] + c[:, 1])

        with pytest.raises(Boom, match="third chunk"):
            monte_carlo_errors([2746, 120], stat, trials=10_000, seed=0)
        assert len(calls) == 3
        assert monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3) == \
            monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_on_a_pool_of_its_own(self):
        expected = monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3)  # the pool exists here
        pid = os.fork()
        if pid == 0:  # the pool threads of the parent do not exist in the child
            code = 2
            try:
                code = 0 if monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3) == expected else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung drawing Monte Carlo chunks")
        assert os.waitstatus_to_exitcode(done[1]) == 0
