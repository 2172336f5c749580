import math
import os
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spp_teleport import tomo
from spp_teleport.channel import calibrated_channel
from spp_teleport.protocol import INPUT_LABELS, Campaign
from spp_teleport.qcore import (
    InvalidStateError,
    MixedState,
    PAULI_MATRICES,
    bloch_matrices,
    bloch_of,
    density_matrices,
    state_from_bloch,
)
from spp_teleport.tomo import (
    BASES,
    QPT_INPUT_LABELS,
    TomographyError,
    bloch_map_of,
    bloch_sphere_samples,
    monte_carlo_errors,
    process_fidelity,
    qpt_reconstruct,
    qst_reconstruct,
    sample_counts,
    sample_measurements,
)

from conftest import mixed_states, random_mixed, random_pure
from reference import (chi_act, chi_identity, kraus_chi, lstsq_qpt, per_state_bloch_map, random_kraus,
                       sphere_grid_maximum, trace_distance)


def exact_counts(rho, scale=1.0):
    """Noise-free (6,) counts, (plus, minus) per basis in BASES order,
    proportional to the exact outcome probabilities."""
    x, y, z = bloch_of(rho)
    by_axis = {"X": x, "Y": y, "Z": z}
    return np.array([scale * (1 + sign * by_axis[b]) / 2 for b in BASES for sign in (1, -1)])


def reconstruct_one(counts, **kwargs):
    """The estimate of one (6,) row of counts."""
    return qst_reconstruct(np.asarray(counts)[None], **kwargs)[0]


def depolarizing_chi(p):
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1 - 3 * p / 4
    chi[1, 1] = chi[2, 2] = chi[3, 3] = p / 4
    return chi


def amplitude_damping_chi(gamma):
    # Kraus operators expanded in the Pauli basis: K0 = a I + b Z,
    # K1 = (sqrt(gamma)/2)(X + iY)
    a = (1 + np.sqrt(1 - gamma)) / 2
    b = (1 - np.sqrt(1 - gamma)) / 2
    c0 = np.array([a, 0, 0, b], dtype=complex)
    c1 = np.array([0, np.sqrt(gamma) / 2, 1j * np.sqrt(gamma) / 2, 0])
    return np.outer(c0, c0.conj()) + np.outer(c1, c1.conj())


def rotation_chi(angle, axis):
    # U = exp(-i angle n.sigma / 2) in the Pauli basis: a non-diagonal Bloch map
    n = np.asarray(axis) / np.linalg.norm(axis)
    c = np.concatenate([[np.cos(angle / 2)], -1j * np.sin(angle / 2) * n])
    return np.outer(c, c.conj())


QPT_INPUTS = [
    MixedState(np.array([[1, 0], [0, 0]], dtype=complex)),
    MixedState(np.array([[0, 0], [0, 1]], dtype=complex)),
    MixedState(np.ones((2, 2)) / 2),
    MixedState(np.array([[1, -1j], [1j, 1]]) / 2),
]


class TestSampling:
    def test_deterministic(self):
        rho = random_mixed(np.random.default_rng(0))
        a = sample_measurements(rho, 1000, seed=42)
        b = sample_measurements(rho, 1000, seed=42)
        assert a.shape == (6,) and np.array_equal(a, b)

    def test_pure_h_counts(self):
        rho = MixedState(np.diag([1.0, 0.0]))
        z = 2 * BASES.index("Z")
        assert sample_measurements(rho, 500, seed=0)[z:z + 2].tolist() == [500, 0]

    def test_stack_equals_per_basis_draws(self, rng):
        states = [random_mixed(rng) for _ in range(6)] + [MixedState(np.diag([1.0, 0.0])),
                                                          MixedState(np.ones((2, 2)) / 2)]
        shots = [0, 1, 2, 7, 500, 33_333, 100_000, 40]
        seeds = [int(s) for s in np.random.SeedSequence(3).generate_state(len(states))]
        counts = sample_counts(np.array([s.matrix for s in states]), shots, seeds)
        assert counts.dtype == np.int64 and counts.shape == (len(states), 6)
        for rho, n, seed, row in zip(states, shots, seeds, counts.tolist()):
            assert row == reference_sample(rho, n, seed)
            assert sample_measurements(rho, n, seed).tolist() == row


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
        assert trace_distance(reconstruct_one(exact_counts(rho)), rho.matrix) < 1e-12

    def test_exact_mixed(self):
        rho = MixedState(np.eye(2) / 2)
        assert trace_distance(reconstruct_one(exact_counts(rho)), rho.matrix) < 1e-12

    def test_exact_random_states(self, rng):
        for _ in range(100):
            rho = random_mixed(rng)
            assert trace_distance(reconstruct_one(exact_counts(rho)), rho.matrix) < 1e-10

    def test_radial_projection(self):
        # inconsistent over-complete counts land outside the Bloch ball and
        # must come back along the same direction
        r = bloch_of(MixedState(reconstruct_one([99, 1] * 3)))
        assert np.linalg.norm(r) <= 1 + 1e-12
        assert np.allclose(r / np.linalg.norm(r), np.ones(3) / np.sqrt(3), atol=1e-10)

    def test_missing_basis(self):
        with pytest.raises(TomographyError):
            reconstruct_one([10, 10, 0, 0, 0, 0])

    def test_ml_close_to_linear_inversion(self, rng):
        rho = random_mixed(rng)
        counts = sample_measurements(rho, 200_000, seed=5)
        lin = reconstruct_one(counts)
        ml = reconstruct_one(counts, max_likelihood=True)
        assert trace_distance(lin, ml) < 5e-3
        assert trace_distance(ml, rho.matrix) < 1e-2

    def test_sampled_converges(self, rng):
        rho = random_mixed(rng)
        counts = sample_measurements(rho, 1_000_000, seed=9)
        assert trace_distance(reconstruct_one(counts), rho.matrix) < 5e-3

    @settings(max_examples=40)
    @given(mixed_states())
    def test_exact_round_trip_property(self, rho):
        assert trace_distance(reconstruct_one(exact_counts(rho)), rho.matrix) < 1e-9


# Per-outcome basis vectors in BASES order, for reference_sample above.
_REF_BASIS_STATES = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2), np.array([1, -1j], dtype=complex) / np.sqrt(2)),
}


def _counts(pairs):
    """(6,) counts of (plus, minus) pairs given in BASES order."""
    return np.array(pairs).ravel()


def linear_bloch_norm(counts):
    """|r| of the linear-inversion Bloch vector, before any projection."""
    plus, minus = np.asarray(counts, dtype=float).reshape(-1, 2).T
    return float(np.linalg.norm((plus - minus) / (plus + minus)))


def _outcome_probabilities(mat):
    """Exact Tr(P rho) / Tr(rho) of the six outcomes, (plus, minus) per basis in
    BASES order, as fractions of the matrix's float entries."""
    r00, r11 = Fraction(mat[0, 0].real), Fraction(mat[1, 1].real)
    re, im = Fraction(mat[0, 1].real), Fraction(mat[0, 1].imag)
    tr = r00 + r11
    return [p / tr for p in (r00, r11, (tr + 2 * re) / 2, (tr - 2 * re) / 2, (tr - 2 * im) / 2, (tr + 2 * im) / 2)]


def log_likelihood_gain(counts, new, old):
    """log L(new) - log L(old) = sum_k n_k log(p_new_k / p_old_k) over (plus,
    minus) counts per basis. Each ratio comes from the exact difference of the
    two probabilities, so the sum resolves gains far below the rounding of a
    whole log-likelihood."""
    flat = [n for pair in counts for n in pair]
    return math.fsum(n * math.log1p(float((p_new - p_old) / p_old))
                     for n, p_new, p_old in zip(flat, _outcome_probabilities(new), _outcome_probabilities(old)) if n)


def gain_over_the_grid_maximum(counts, mat):
    """log_likelihood_gain of the estimate `mat` over the best pure state of
    reference.sphere_grid_maximum, for (6,) counts."""
    return log_likelihood_gain(np.reshape(counts, (3, 2)), mat, bloch_matrices(sphere_grid_maximum(counts)))


def estimate_bloch(mat):
    """The Bloch vector (x, y, z) of an estimate qst_reconstruct returned."""
    return bloch_of(MixedState(mat))


def kkt_multiplier_and_residual(counts, r):
    """How far the Bloch vector r (x, y, z) is from the stationarity
    conditions of the maximum on the sphere, multiplied by 1 - r_i^2:
    c_i = a_i (1 - r_i) - b_i (1 + r_i) = 2 mu r_i (1 - r_i^2) = mu e_i for
    each basis, with (a_i, b_i) its (plus, minus) counts in (6,) counts.

    mu is c_k / e_k of the basis k that fixes it best, the one with the
    smallest (a_k + b_k + 2 |mu_k|) / |e_k|, about the change of mu_k per
    change of r_k. Returns mu and the largest |c_i - mu e_i| / (a_i + b_i +
    2 mu), about the change of r_i that would meet condition i: the rounding
    of an estimate's matrix entries moves r by about 1e-16, and a basis of
    few counts next to a precise one turns that into a far larger c_i -
    mu e_i."""
    a, b = np.asarray(counts, dtype=float).reshape(3, 2).T
    r = np.asarray(r)[[2, 0, 1]]  # (x, y, z) -> BASES order
    c, e = a * (1 - r) - b * (1 + r), 2 * r * (1 - r) * (1 + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        mus = c / e
        mu = mus[np.nanargmin((a + b + 2 * np.abs(mus)) / np.abs(e))]
    return mu, float((np.abs(c - mu * e) / (a + b + 2 * mu)).max())


def out_of_ball_rows():
    """(n, 6) counts of 400 states of Bloch length 0.999 in random directions,
    each measured with 20 to 2000 shots per basis (seed 1), kept where the
    linear estimate lies outside the ball: the rows the exact solve serves."""
    rng = np.random.default_rng(1)
    v = rng.normal(size=(400, 3))
    r = 0.999 * v / np.linalg.norm(v, axis=1)[:, None]
    shots = rng.integers(20, 2001, size=(400, 1))
    plus = rng.binomial(shots, (1 + r[:, [2, 0, 1]]) / 2)  # BASES order
    counts = np.stack([plus, shots - plus], axis=-1).reshape(400, 6)
    return counts[[linear_bloch_norm(row) > 1 for row in counts]]


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
            _counts([(500, 0), (260, 240), (251, 249)]),  # pure along Z: one outcome never seen
            _counts([(10, 0), (5, 5), (5, 5)]),  # pure along Z and on the sphere: inside the ball
            _counts([(99, 1), (99, 1), (99, 1)]),  # outside the ball, radially projected
            _counts([(1, 0), (0, 1), (1, 0)]),  # one count per basis
            exact_counts(random_mixed(rng), scale=1000.0),  # non-integer counts
        ]
        for seed in range(6):
            batch.append(sample_measurements(random_mixed(rng), 100_000 // 3, seed=seed))
        batch.append(batch[1] + batch[0])  # two measurement runs pooled
        return np.array(batch)

    def test_batch_equals_per_state_reference(self, rng):
        # every row gets the bits of a one-row call: outside the ball a pure state
        # at least as likely as the grid oracle's, inside it the linear estimate
        batch = self.mixed_batch(rng)
        outside = [linear_bloch_norm(counts) > 1 for counts in batch]
        assert 0 < sum(outside) < len(batch)
        states = qst_reconstruct(batch, max_likelihood=True)
        assert len(states) == len(batch)
        for counts, state, out in zip(batch, states, outside):
            assert np.array_equal(reconstruct_one(counts, max_likelihood=True), state)
            if out:
                assert abs(np.linalg.norm(estimate_bloch(state)) - 1) <= 1e-15
                assert gain_over_the_grid_maximum(counts, state) >= 0
            else:
                assert np.array_equal(state, reconstruct_one(counts))

    def test_seeded_out_of_ball_rows_reach_the_maximum(self):
        rows = out_of_ball_rows()
        assert len(rows) >= 150
        stack = qst_reconstruct(rows, max_likelihood=True)
        for counts, state in zip(rows, stack):
            assert reconstruct_one(counts, max_likelihood=True).tobytes() == state.tobytes()
            assert abs(np.linalg.norm(estimate_bloch(state)) - 1) <= 1e-15
            assert gain_over_the_grid_maximum(counts, state) >= 0

    @pytest.mark.parametrize("counts, expected", [
        ([(1, 0), (0, 1), (1, 0)], np.array([-1, 1, 1]) / np.sqrt(3)),
        ([(10, 0), (10, 0), (5, 5)], np.array([1, 0, 1]) / np.sqrt(2)),
    ])
    def test_zero_count_bases_take_the_middle_root(self, counts, expected):
        # clamping each zero-count basis at +-1 would give |r| = sqrt(3) and sqrt(2)
        assert linear_bloch_norm(_counts(counts)) > 1
        assert np.abs(sphere_grid_maximum(_counts(counts)) - expected).max() < 1e-5
        assert np.abs(estimate_bloch(reconstruct_one(_counts(counts), max_likelihood=True)) - expected).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=3, max_size=3))
    @example([(1, 0), (0, 1), (1, 0)])
    @example([(10, 0), (10, 0), (5, 5)])
    @example([(1000, 0), (501, 499), (500, 500)])  # a root next to the double root at r = 1
    @example([(1, 0), (1, 0), (10**9, 10**9 - 1)])  # a basis far more precise than the others
    def test_out_of_ball_estimate_meets_the_kkt_conditions(self, counts):
        # the log-likelihood is concave, so on the sphere these conditions make the maximum
        assume(all(a + b > 0 for a, b in counts) and linear_bloch_norm(_counts(counts)) > 1)
        r = estimate_bloch(reconstruct_one(_counts(counts), max_likelihood=True))
        assert abs(np.linalg.norm(r) - 1) <= 1e-15
        mu, residual = kkt_multiplier_and_residual(_counts(counts), r)
        assert mu > 0 and residual <= 1e-12

    def test_validation_keeps_the_sphere_maximum(self):
        # a pure estimate whose lowest eigenvalue rounds below 0 comes back as solved, not rebuilt
        counts = np.array([[2, 0, 945264, 2, 707232, 1]])
        plus, minus = (counts[:, k::2][:, [1, 2, 0]].astype(float) for k in (0, 1))  # BASES order -> (X, Y, Z)
        solved = tomo._sphere_maximum(plus, minus)[0]
        got = estimate_bloch(qst_reconstruct(counts, max_likelihood=True)[0])
        assert got[:2].tobytes() == solved[:2].tobytes()
        assert abs(got[2] - solved[2]) <= 1.2e-16

    def test_linear_batch_equals_single_calls(self, rng):
        batch = self.mixed_batch(rng)
        for counts, state in zip(batch, qst_reconstruct(batch)):
            assert np.array_equal(state, reconstruct_one(counts))

    @pytest.mark.parametrize("ml", [False, True])
    def test_count_stack_equals_record_lists(self, rng, ml):
        # the stack of all rows gives the bits of one call per row, and
        # integer counts give the bits their float values give
        batch = self.mixed_batch(rng)
        stack = qst_reconstruct(batch, max_likelihood=ml)
        assert isinstance(stack, np.ndarray) and stack.shape == (len(batch), 2, 2)
        for counts, mat in zip(batch, stack):
            assert reconstruct_one(counts, max_likelihood=ml).tobytes() == mat.tobytes()
        ints = batch[np.all(batch == np.round(batch), axis=1)].astype(np.int64)
        assert len(ints) > 0
        assert (qst_reconstruct(ints, max_likelihood=ml).tobytes()
                == qst_reconstruct(ints.astype(float), max_likelihood=ml).tobytes())
        with pytest.raises(TomographyError, match="no counts for basis Y"):
            qst_reconstruct(np.array([[5, 5, 5, 5, 0, 0]]), max_likelihood=ml)
        assert qst_reconstruct(batch[:0], max_likelihood=ml).shape == (0, 2, 2)

    def test_return_types(self):
        counts = _counts([(5, 5), (5, 5), (5, 5)])
        for rows in (np.array([counts]), np.array([counts, counts], dtype=float)):
            for ml in (False, True):
                states = qst_reconstruct(rows, max_likelihood=ml)
                assert isinstance(states, np.ndarray) and states.dtype == complex
                assert states.shape == (len(rows), 2, 2)

    def test_missing_basis_in_batch(self):
        good = _counts([(5, 5), (5, 5), (5, 5)])
        for counts, basis in (([5, 5, 0, 0, 5, 5], "X"), ([5, 5, 5, 5, 0, 0], "Y")):
            with pytest.raises(TomographyError, match=f"no counts for basis {basis}"):
                qst_reconstruct(np.array([good, counts]))

    @settings(max_examples=100, deadline=None)
    @given(counts_near_bloch_vector(1.0))
    @example([(10, 0), (5, 5), (5, 5)])  # a pure state: on the sphere, still inside
    @example([(1999, 1), (1000, 1000), (1000, 1000)])
    def test_ml_equals_linear_inside_ball(self, counts):
        # complete three-basis data: each basis's likelihood term peaks at the
        # observed frequencies, which the linear estimate meets whenever it lies
        # in the ball, so there ML is the linear estimate, bit for bit
        flat = _counts(counts)
        # rounding to whole counts can carry a vector drawn near the radius past it
        assume(linear_bloch_norm(flat) <= 1)
        linear = reconstruct_one(flat)
        ml = reconstruct_one(flat, max_likelihood=True)
        assert np.array_equal(ml, linear)
        # and it is at least as likely as the most likely pure state
        assert gain_over_the_grid_maximum(flat, ml) >= 0


def bloch_image(ptm, r):
    """R[1:, 1:] r + R[1:, 0]: the image of one Bloch vector under a Pauli transfer matrix."""
    return ptm[1:, 1:] @ r + ptm[1:, 0]


def qpt_outputs(chi):
    """The (4, 2, 2) stack of validated images of QPT_INPUTS under chi."""
    return density_matrices(chi_act(chi, np.array([rho.matrix for rho in QPT_INPUTS])))


def assert_matches_references(outputs, cp_projection):
    """The closed form against least squares over the same, one by one
    validated, pairs, and its Bloch map against the per-state construction,
    both to 1e-12."""
    chi = qpt_reconstruct(outputs, cp_projection=cp_projection)
    expected = lstsq_qpt([(rho, MixedState(out)) for rho, out in zip(QPT_INPUTS, outputs)], cp_projection)
    assert np.abs(chi - expected).max() < 1e-12
    linear, offset = per_state_bloch_map(expected)
    ptm = bloch_map_of(chi)
    assert np.abs(ptm[1:, 1:] - linear).max() < 1e-12 and np.abs(ptm[1:, 0] - offset).max() < 1e-12


@st.composite
def cptp_kraus(draw):
    n_ops = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=8 * n_ops, max_size=8 * n_ops))
    return random_kraus(values, n_ops)


class TestProcessMatrix:
    def test_identity_apply(self, rng):
        r = bloch_of(random_mixed(rng))
        # the trace distance of two states is half the distance of their Bloch vectors
        assert np.linalg.norm(bloch_image(bloch_map_of(chi_identity()), r) - r) / 2 < 1e-12

    def test_depolarizing_apply(self, rng):
        p = 0.3
        rho = random_mixed(rng)
        ref = MixedState((1 - p) * rho.matrix + p * np.eye(2) / 2)
        out = bloch_image(bloch_map_of(depolarizing_chi(p)), bloch_of(rho))
        assert np.linalg.norm(out - bloch_of(ref)) / 2 < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(cptp_kraus())
    def test_ptm_is_the_pauli_action(self, kraus):
        chi = kraus_chi(kraus)
        images = chi_act(chi, np.array(PAULI_MATRICES))
        expected = np.array([[np.trace(s @ image).real / 2 for image in images] for s in PAULI_MATRICES])
        assert np.abs(bloch_map_of(chi) - expected).max() < 1e-12


class TestQpt:
    def test_identity_channel(self):
        chi = qpt_reconstruct(np.array([rho.matrix for rho in QPT_INPUTS]))
        assert np.allclose(chi, chi_identity(), atol=1e-10)

    def test_pure_x_channel(self):
        sx = PAULI_MATRICES[1]
        chi = qpt_reconstruct(np.array([sx @ rho.matrix @ sx for rho in QPT_INPUTS]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1
        assert np.allclose(chi, expected, atol=1e-10)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.6])
    def test_depolarizing_diagonals(self, p):
        chi = qpt_reconstruct(qpt_outputs(depolarizing_chi(p)))
        diag = np.diag(chi).real
        assert np.allclose(diag, [1 - 3 * p / 4, p / 4, p / 4, p / 4], atol=1e-9)

    @pytest.mark.parametrize("bad, match", [
        (np.diag([1.0, 1.0]), "trace"),
        (np.diag([1.1, -0.1]), "negative eigenvalue"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
    ])
    def test_outputs_are_validated(self, bad, match):
        outputs = np.array([rho.matrix for rho in QPT_INPUTS])
        outputs[2] = bad
        with pytest.raises(InvalidStateError, match=match):
            qpt_reconstruct(outputs)

    def test_cp_projection_clips(self):
        # slightly unphysical outputs produce small negative chi eigenvalues
        outputs = qpt_outputs(depolarizing_chi(0.1))
        for i, out in enumerate(outputs):
            bump = 0.004 if i % 2 else -0.004
            outputs[i] = (1 - abs(bump)) * out + abs(bump) * np.eye(2) / 2
        outputs[0] = 0.996 * outputs[0] + 0.004 * np.array([[0, 0], [0, 1.0]])
        chi = qpt_reconstruct(outputs, cp_projection=True)
        assert np.linalg.eigvalsh(chi).min() >= -1e-12
        assert_matches_references(outputs, cp_projection=True)

    @pytest.mark.parametrize("cp_projection", [False, True])
    @settings(max_examples=50, deadline=None)
    @given(kraus=cptp_kraus())
    def test_random_channels_match_references(self, kraus, cp_projection):
        assert_matches_references(qpt_outputs(kraus_chi(kraus)), cp_projection)

    @pytest.mark.parametrize("seed", range(5))
    def test_campaign_outputs_match_references(self, seed):
        # the simulate configuration of the benchmark: with-SPP channel, 1e5 shots, ML tomography
        campaign = Campaign.run(calibrated_channel(with_spp=True), INPUT_LABELS, shots=100_000, seed=seed,
                                max_likelihood=True)
        outputs = np.array([campaign.estimates[INPUT_LABELS.index(label)].mean(axis=0)
                            for label in QPT_INPUT_LABELS])
        for cp_projection in (False, True):
            assert_matches_references(outputs, cp_projection)
            assert campaign.process_matrix(cp_projection).tobytes() == \
                qpt_reconstruct(outputs, cp_projection).tobytes()


def _tp_residual(chi):
    """Distance of sum_lk chi_lk s_k s_l from the identity: zero for a trace-preserving chi."""
    acc = sum(chi[l, k] * PAULI_MATRICES[k] @ PAULI_MATRICES[l] for l in range(4) for k in range(4))
    return np.abs(acc - np.eye(2)).max()


class TestCpProjection:
    def non_cp_outputs(self):
        # pure outputs that no unitary produces: H is tilted, V, D and L are not;
        # clipping the negative eigenvalue of this chi breaks trace preservation
        tilted = np.array([0.1, 0.0, 0.99])
        return np.array([state_from_bloch(tilted / np.linalg.norm(tilted)).matrix]
                        + [rho.matrix for rho in QPT_INPUTS[1:]])

    def test_result_is_completely_positive_and_trace_preserving(self):
        outputs = self.non_cp_outputs()
        raw = qpt_reconstruct(outputs)
        assert np.linalg.eigvalsh(raw).min() < -1e-3
        chi = qpt_reconstruct(outputs, cp_projection=True)
        assert np.linalg.eigvalsh(chi).min() >= -1e-12
        assert _tp_residual(chi) < 1e-12
        for rho in QPT_INPUTS:
            assert np.trace(chi_act(chi, rho.matrix)).real == pytest.approx(1.0, abs=1e-12)
        # its images of the origin and the axes lie in the ball
        assert (np.linalg.norm(origin_and_axis_images(bloch_map_of(chi)), axis=1) <= 1 + 1e-10).all()
        for cp_projection in (False, True):
            assert_matches_references(outputs, cp_projection)

    def test_admixes_the_depolarizing_channel(self):
        outputs = self.non_cp_outputs()
        raw = qpt_reconstruct(outputs)
        lowest = np.linalg.eigvalsh(raw).min()
        expected = (raw - lowest * np.eye(4)) / (1 - 4 * lowest)
        assert np.allclose(qpt_reconstruct(outputs, cp_projection=True), expected, atol=1e-12)

    def test_completely_positive_input_unchanged(self):
        ref = depolarizing_chi(0.1)
        chi = qpt_reconstruct(qpt_outputs(ref), cp_projection=True)
        assert np.allclose(chi, ref, atol=1e-10)


def origin_and_axis_images(ptm):
    """The (4, 3) images of the origin and of the +x, +y and +z Bloch vectors."""
    return np.array([bloch_image(ptm, r) for r in np.eye(4, 3, -1)])


@st.composite
def qpt_output_stacks(draw):
    """(4, 2, 2) output stacks: four independent states, or the images of QPT_INPUTS under a CPTP channel."""
    if draw(st.booleans()):
        return np.array([draw(mixed_states()).matrix for _ in QPT_INPUT_LABELS])
    return qpt_outputs(kraus_chi(draw(cptp_kraus())))


class TestQptInvariants:
    # what qpt_reconstruct and bloch_map_of guarantee for any valid outputs, so no run-time check repeats it
    @pytest.mark.parametrize("cp_projection", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(outputs=qpt_output_stacks())
    def test_chi_is_hermitian_unit_trace_and_maps_the_ball_into_itself(self, outputs, cp_projection):
        chi = qpt_reconstruct(outputs, cp_projection=cp_projection)
        assert np.array_equal(chi, chi.conj().T)
        assert abs(np.trace(chi) - 1) <= 1e-12
        images = origin_and_axis_images(bloch_map_of(chi))
        assert (np.linalg.norm(images, axis=1) <= 1 + 1e-10).all()
        if not cp_projection:
            # the images of +x, +y and +z are the Bloch vectors of the D, L and H outputs
            h, _, d, l = (bloch_of(MixedState(out)) for out in outputs)
            assert np.abs(images[1:] - [d, l, h]).max() <= 1e-12


class TestProcessFidelity:
    def test_identity_perfect(self):
        assert process_fidelity(chi_identity()) == 1.0

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_depolarizing(self, p):
        assert process_fidelity(depolarizing_chi(p)) == pytest.approx(1 - 3 * p / 4, abs=1e-12)

    def test_average_fidelity_relation(self):
        # for Pauli-diagonal channels F_avg = (2 F_proc + 1) / 3
        p = 0.4
        chi = depolarizing_chi(p)
        f_proc = process_fidelity(chi)
        fids = []
        for rho in QPT_INPUTS:
            evals, evecs = np.linalg.eigh(rho.matrix)
            phi = evecs[:, np.argmax(evals)]
            out = chi_act(chi, rho.matrix)
            fids.append(np.vdot(phi, out @ phi).real)
        assert np.mean(fids) == pytest.approx((2 * f_proc + 1) / 3, abs=1e-10)


class TestBlochMap:
    def test_identity(self):
        ptm = bloch_map_of(chi_identity())
        assert np.allclose(ptm[1:, 1:], np.eye(3), atol=1e-10)
        assert np.allclose(ptm[1:, 0], 0, atol=1e-10)

    def test_depolarizing_shrink(self):
        p = 0.35
        ptm = bloch_map_of(depolarizing_chi(p))
        assert np.allclose(ptm[1:, 1:], (1 - p) * np.eye(3), atol=1e-10)
        assert np.allclose(ptm[1:, 0], 0, atol=1e-10)

    def test_amplitude_damping_offset(self):
        gamma = 0.3
        ptm = bloch_map_of(amplitude_damping_chi(gamma))
        s = np.sqrt(1 - gamma)
        assert np.allclose(ptm[1:, 1:], np.diag([s, s, 1 - gamma]), atol=1e-10)
        assert np.allclose(ptm[1:, 0], [0, 0, gamma], atol=1e-10)

    def test_map_matches_apply(self, rng):
        chi = amplitude_damping_chi(0.2)
        ptm = bloch_map_of(chi)
        for _ in range(10):
            rho = random_mixed(rng)
            r = bloch_of(rho)
            direct = bloch_of(MixedState(chi_act(chi, rho.matrix)))
            assert np.allclose(bloch_image(ptm, r), direct, atol=1e-10)

    @pytest.mark.parametrize("chi", [chi_identity(), depolarizing_chi(0.3), amplitude_damping_chi(0.2),
                                     rotation_chi(0.7, (1.0, 2.0, 3.0))])
    def test_map_and_samples_equal_per_state_reference(self, chi):
        linear, offset = per_state_bloch_map(chi)
        ptm = bloch_map_of(chi)
        assert np.abs(ptm[1:, 1:] - linear).max() < 1e-12 and np.abs(ptm[1:, 0] - offset).max() < 1e-12
        mesh, images = bloch_sphere_samples(ptm)
        points = [np.array([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)])
                  for t in np.linspace(0, np.pi, 12) for f in np.linspace(0, 2 * np.pi, 24, endpoint=False)]
        assert mesh.tobytes() == np.array(points).tobytes()
        assert images.tobytes() == np.array([ptm[1:, 1:] @ r + ptm[1:, 0] for r in points]).tobytes()

    def test_sphere_samples_shapes(self):
        mesh, images = bloch_sphere_samples(bloch_map_of(chi_identity()))
        assert mesh.shape == images.shape == (12 * 24, 3)
        assert np.allclose(np.linalg.norm(mesh, axis=1), 1.0, atol=1e-12)
        assert np.allclose(mesh, images, atol=1e-10)


def _fraction(c):
    return c[:, 0] / (c[:, 0] + c[:, 1])


class TestMonteCarlo:
    def test_constant_statistic_zero_std(self):
        mean, std = monte_carlo_errors([100, 200], lambda c: np.ones(len(c)), trials=200, seed=0)
        assert mean == 1.0
        assert std == 0.0

    @pytest.mark.parametrize("value", [1 / 3, 0.1, 0.7])
    def test_equal_resamples_have_std_exactly_0(self, value):
        # numpy's mean of 1000 copies of these is an ulp off, which must not show as a spread
        mean, std = monte_carlo_errors([100, 200], lambda c: np.stack([np.full(len(c), value), _fraction(c)], axis=1),
                                       trials=1000, seed=0)
        assert std[0] == 0.0
        assert (mean[1], std[1]) == monte_carlo_errors([100, 200], _fraction, trials=1000, seed=0)

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

    def test_degenerate_resamples_raise(self, recwarn):
        # [1, 0] resamples to [0, 0] about a third of the time: 0/0 is NaN
        with pytest.raises(TomographyError, match=r"\d+ of 1000 Monte Carlo resamples"):
            monte_carlo_errors([1, 0], _fraction, trials=1000, seed=0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("trials", [100, 1001, 10_000])
    def test_block_statistic_gives_the_bits_of_one_call_per_column(self, trials):
        counts = [2746.0, 120.0, 900.0, 5.0, 3.0]
        columns = (_fraction,
                   lambda c: (c[:, 2] - c[:, 3]) / (c[:, 2] + c[:, 3]),
                   lambda c: 1e-3 * c.sum(axis=1) + np.sqrt(c[:, 4]))
        mean, std = monte_carlo_errors(counts, lambda c: np.stack([f(c) for f in columns], axis=1),
                                       trials=trials, seed=5)
        assert mean.shape == std.shape == (len(columns),)
        for j, f in enumerate(columns):
            assert (float(mean[j]), float(std[j])) == monte_carlo_errors(counts, f, trials=trials, seed=5)

    def test_block_statistic_counts_each_non_finite_resample_once(self):
        # column 0 is 0/0 whenever both counts resample to 0, column 1 as well, on the same resamples
        with pytest.raises(TomographyError) as single:
            monte_carlo_errors([1, 0], _fraction, trials=1000, seed=0)
        with pytest.raises(TomographyError) as block:
            monte_carlo_errors([1, 0], lambda c: np.stack([_fraction(c), -_fraction(c)], axis=1), trials=1000, seed=0)
        assert str(block.value) == str(single.value)

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
        # more callers than cores, switching threads often, each on a pool of its own
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

    @pytest.mark.parametrize("raises_at", [None, 3])
    def test_draws_run_a_bounded_number_of_chunks_ahead_of_the_statistic(self, monkeypatch, raises_at):
        # the statistic stalls on its first calls, so an unbounded pool would draw all 32 chunks meanwhile;
        # the pool has one thread per CPU the process may run on, up to one per chunk
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(cpus, tomo._MC_CHUNKS)
        lock = threading.Lock()
        started = []  # one entry per chunk whose draw has begun
        rng = np.random.default_rng

        def counting_rng(seed):
            with lock:
                started.append(seed)
            return rng(seed)

        seen = []  # chunks begun, at each call of the statistic

        def stat(c):
            time.sleep(0.05 if len(seen) < 4 else 0.0)
            with lock:
                seen.append(len(started))
            if len(seen) == raises_at:
                raise ValueError("stop")
            return _fraction(c)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        if raises_at is None:
            result = monte_carlo_errors([2746, 120], stat, trials=1000, seed=3)
        else:
            with pytest.raises(ValueError, match="stop"):
                monte_carlo_errors([2746, 120], stat, trials=1000, seed=3)
            time.sleep(0.1)  # unsubmitted chunks never start
            assert len(started) <= raises_at + workers + 1
        monkeypatch.undo()
        # chunk k is with the statistic, and at most workers + 1 more have begun
        assert all(n <= k + 1 + workers + 1 for k, n in enumerate(seen))
        assert len(seen) == (32 if raises_at is None else raises_at)
        if raises_at is None:
            assert result == monte_carlo_errors([2746, 120], _fraction, trials=1000, seed=3)

    def test_no_draw_thread_outlives_the_call(self):
        def draw_threads():
            return [t.name for t in threading.enumerate() if t.name.startswith("mc-draw")]

        def stat(c):
            assert draw_threads()  # the draws do run on pool threads
            return _fraction(c)

        monte_carlo_errors([2746, 120], stat, trials=1000, seed=3)
        assert draw_threads() == []

        def raising(c):
            raise ValueError("stop")

        with pytest.raises(ValueError, match="stop"):
            monte_carlo_errors([2746, 120], raising, trials=1000, seed=3)
        assert draw_threads() == []

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
