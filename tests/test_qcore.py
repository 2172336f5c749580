import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport.qcore import (
    EIG_ATOL,
    MixedState,
    PAULI_MATRICES,
    bloch_matrices,
    bloch_of,
    complex_matrix_to_json,
    density_matrices,
    expectation,
    fidelity_pure,
    state_from_bloch,
    strip_global_phase,
    tensor,
    vector_norms,
)

from conftest import mixed_states, projector, pure_states, random_mixed, random_pure
from reference import SINGLET, trace_distance, unit

H = unit([1, 0])
V = unit([0, 1])


class TestPureState:
    """Pure states are unit amplitude arrays; strip_global_phase fixes their global phase."""

    def test_phase_fixed(self):
        assert np.allclose(strip_global_phase(np.array([1j, 0])), [1, 0])

    @given(pure_states())
    def test_phase_fixed_projector_invariant(self, s):
        a = projector(s).matrix
        b = projector(strip_global_phase(s)).matrix
        assert np.allclose(a, b, atol=1e-10)


class TestMixedState:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            MixedState(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace 2.0 != 1"):
            MixedState(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            MixedState(np.diag([1.01, -0.01]))

    def test_tiny_negative_eigenvalue_kept(self):
        eps = 1e-11
        raw = np.diag([1.0 + eps, -eps])
        rho = MixedState(raw)
        assert same_bits(rho.matrix, raw.astype(complex))
        assert np.linalg.eigvalsh(rho.matrix).min() == -eps
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert np.array_equal(MixedState(np.eye(4) / 4).matrix, np.eye(4) / 4)


def raw_density_matrices(rng, n, dim=2):
    """Unvalidated density matrices: full-rank, rank-one (whose computed
    eigenvalues are often slightly negative) and one with an eigenvalue of
    -1e-11, which the check accepts as given."""
    mats = []
    for k in range(n):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if k % 2:
            a[:, 1:] = 0
        m = a @ a.conj().T
        mats.append(m / np.trace(m).real)
    mats.append(np.diag([1.0 + 1e-11, -1e-11] + [0.0] * (dim - 2)))
    return np.array(mats)


def reference_validate(mat):
    """The per-matrix density-matrix check, written for one matrix: the
    reference the batched check must match bit for bit."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"not square: {mat.shape}")
    if not np.allclose(mat, mat.conj().T, rtol=0, atol=1e-9):
        raise ValueError("matrix is not Hermitian")
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"trace {tr} != 1")
    lowest = np.linalg.eigvalsh(mat).min()
    if lowest < -EIG_ATOL:
        raise ValueError(f"negative eigenvalue {lowest}")
    return mat


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def psd_stacks(draw):
    """Stacks of raw positive semidefinite unit-trace 2x2 matrices, mixtures
    of one to three pure states."""
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        n_terms = draw(st.integers(1, 3))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_terms, max_size=n_terms))
        vecs = [draw(pure_states()) for _ in range(n_terms)]
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
        mats.append(m / np.trace(m).real)
    return np.array(mats)


class TestDensityMatrices:
    def test_stack_equals_single_states_bit_for_bit(self, rng):
        mats = raw_density_matrices(rng, 40)
        assert (np.linalg.eigvalsh(mats)[:, 0] < 0).sum() >= 2  # tiny negative eigenvalues are kept
        out = density_matrices(mats)
        for raw, got in zip(mats, out):
            assert same_bits(got, reference_validate(raw))
            assert same_bits(got, MixedState(raw).matrix)
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        # extra batch axes change nothing
        assert same_bits(density_matrices(mats[:40].reshape(5, 8, 2, 2)), out[:40].reshape(5, 8, 2, 2))

    def test_tiny_negative_eigenvalue_is_accepted_as_given(self):
        out = density_matrices(np.array([np.diag([1.0 + 1e-11, -1e-11]), np.eye(2) / 2]))
        assert same_bits(out[0], np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
        assert np.linalg.eigvalsh(out[0]).min() == -1e-11
        assert abs(np.trace(out[0]).real - 1.0) < 1e-12
        assert same_bits(out[1], np.eye(2, dtype=complex) / 2)

    def test_hermitian_to_1e_9_absolute(self):
        raw = np.array([[0.5, 0.3 + 5e-10], [0.3, 0.5]])
        assert same_bits(MixedState(raw).matrix, 0.5 * (raw + raw.T).astype(complex))

    def test_larger_dimension(self, rng):
        mats = raw_density_matrices(rng, 6, dim=4)
        for raw, got in zip(mats, density_matrices(mats)):
            assert same_bits(got, reference_validate(raw))

    @pytest.mark.parametrize("bad, match", [
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
        (np.eye(2), "trace 2.0 != 1"),
        (np.diag([1.01, -0.01]), "negative eigenvalue"),
        # 2e-6 is within numpy's default rtol of 0.3, but not within 1e-9
        (np.array([[0.5, 0.3 + 2e-6], [0.3, 0.5]]), "not Hermitian"),
    ])
    def test_one_bad_matrix_fails_the_stack(self, rng, bad, match):
        for check in (reference_validate, MixedState):
            with pytest.raises(ValueError, match=match):
                check(bad)
        mats = raw_density_matrices(rng, 6)
        density_matrices(mats)
        for k in (0, 3, len(mats) - 1):
            stack = mats.copy()
            stack[k] = bad
            with pytest.raises(ValueError, match=match):
                density_matrices(stack)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 2, 3), ()])
    def test_not_square(self, shape):
        with pytest.raises(ValueError, match="not square"):
            density_matrices(np.zeros(shape))

    def test_mixed_state_takes_one_matrix(self):
        with pytest.raises(ValueError, match="not square"):
            MixedState(np.array([np.eye(2) / 2, np.eye(2) / 2]))

    def test_empty_stack(self):
        assert density_matrices(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    @settings(max_examples=50, deadline=None)
    @given(psd_stacks())
    def test_random_psd_stacks(self, mats):
        out = density_matrices(mats)
        for raw, got in zip(mats, out):
            assert same_bits(got, reference_validate(raw))
            assert same_bits(got, MixedState(raw).matrix)
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        assert np.allclose(np.trace(out, axis1=1, axis2=2), 1.0, atol=1e-9)
        assert np.linalg.eigvalsh(out).min() >= -EIG_ATOL


class TestStackHelpers:
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_vector_norms_equal_single_norms(self, rng, k):
        # summing squares in another order differs in the last bit for about
        # a third of these rows; the batched norm must not
        x = rng.normal(size=(300, k)) + 1j * rng.normal(size=(300, k))
        for vecs in (x, x.real.copy(), x.reshape(3, 100, k)):
            norms = vector_norms(vecs)
            assert same_bits(norms, np.array([np.linalg.norm(v) for v in vecs.reshape(-1, k)]).reshape(norms.shape))

    def test_expectation_equals_vdot(self, rng):
        mats = rng.normal(size=(5, 4, 2, 2)) + 1j * rng.normal(size=(5, 4, 2, 2))
        vecs = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        got = expectation(mats, vecs[:, None])
        assert same_bits(got, np.array([[np.vdot(v, m @ v) for m in row] for row, v in zip(mats, vecs)]))


class TestTensorAndPartialTrace:
    def test_tensor_product_basis(self):
        hv = tensor(projector(H), projector(V))
        assert np.allclose(hv.matrix, np.diag([0, 1, 0, 0]))

    def test_mixed_product(self, rng):
        a, b = random_mixed(rng), random_mixed(rng)
        assert np.array_equal(tensor(a, b).matrix, MixedState(np.kron(a.matrix, b.matrix)).matrix)

    @given(pure_states(), pure_states())
    def test_tensor_norm_preserved(self, a, b):
        # the product of two pure states is pure: unit trace and unit purity
        rho = tensor(projector(a), projector(b)).matrix
        assert abs(np.trace(rho @ rho).real - 1) < 1e-10


class TestFidelity:
    def test_pure_on_itself(self, rng):
        s = random_pure(rng)
        assert fidelity_pure(projector(s), s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity_pure(projector(H), V) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        # numpy's matmul checks the dimensions
        for rho, phi in ((projector(H), SINGLET), (projector(SINGLET), H)):
            with pytest.raises(ValueError, match="mismatch"):
                fidelity_pure(rho, phi)

    def test_werner_against_singlet(self):
        v = 0.9734
        rho = MixedState(v * projector(SINGLET).matrix + (1 - v) * np.eye(4) / 4)
        assert fidelity_pure(rho, SINGLET) == pytest.approx(v + (1 - v) / 4, abs=1e-12)

    @given(mixed_states(), pure_states())
    def test_bounded(self, rho, phi):
        f = fidelity_pure(rho, phi)
        assert 0.0 <= f <= 1.0


class TestBloch:
    def test_cardinal_states(self):
        assert np.allclose(bloch_of(projector(H)), [0, 0, 1], atol=1e-12)
        assert np.allclose(bloch_of(projector(V)), [0, 0, -1], atol=1e-12)
        r_state = unit(np.array([1, -1j]) / np.sqrt(2))
        assert np.allclose(bloch_of(projector(r_state)), [0, -1, 0], atol=1e-12)
        l_state = unit(np.array([1, 1j]) / np.sqrt(2))
        assert np.allclose(bloch_of(projector(l_state)), [0, 1, 0], atol=1e-12)

    def test_maximally_mixed_is_origin(self):
        assert np.allclose(bloch_of(MixedState(np.eye(2) / 2)), 0, atol=1e-12)

    @given(mixed_states())
    def test_round_trip(self, rho):
        r = bloch_of(rho)
        assert r.shape == (3,)
        back = state_from_bloch(r)
        assert trace_distance(rho.matrix, back.matrix) < 1e-9

    def test_two_qubits_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            bloch_of(projector(SINGLET))

    def test_too_long_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state_from_bloch([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("direction", [[0, 0, 1], [0, -1, 0], np.array([1, 1, -1]) / np.sqrt(3)])
    def test_ball_bound_is_the_eigenvalue_bound(self, direction):
        # the lowest eigenvalue of (I + r.sigma)/2 is (1 - |r|)/2, so |r| may exceed 1 by 2 EIG_ATOL
        r = np.multiply(direction, 1 + 1.9 * EIG_ATOL)
        assert np.allclose(bloch_of(state_from_bloch(r)), r, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            state_from_bloch(np.multiply(direction, 1 + 2.1 * EIG_ATOL))

    def test_trace_above_1_is_read_as_it_is(self):
        assert bloch_of(MixedState(np.diag([1 + 5e-10, 0]))).tolist() == [0, 0, 1.0000000005]

    def test_lowest_accepted_eigenvalue_is_read_as_it_is(self):
        # lowest eigenvalue -9.99999994e-11, inside EIG_ATOL, yet |r| rounds to above 1 + 2 EIG_ATOL
        r = [-0.38577083977323756, -0.39756973509359683, -0.832537786120401]
        assert np.allclose(bloch_of(MixedState(bloch_matrices(r))), r, rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(pure_states(), st.one_of(st.floats(0.0, 0.5), st.floats(-EIG_ATOL + 1e-15, 0.0)))
    def test_every_accepted_state_has_a_bloch_vector(self, direction, lowest):
        # (I + r.sigma)/2 with lowest eigenvalue `lowest`: the two checks round differently
        # within a few ulps of -EIG_ATOL, so the drawn eigenvalue stays 1e-15 inside it
        n = bloch_of(projector(direction))
        rho = MixedState(bloch_matrices((1 - 2 * lowest) * n / np.linalg.norm(n)))
        state_from_bloch(bloch_of(rho))


class TestTraceDistance:
    def test_orthogonal_pure(self):
        assert trace_distance(projector(H).matrix, projector(V).matrix) == pytest.approx(1.0, abs=1e-12)

    def test_self_zero(self, rng):
        rho = random_mixed(rng).matrix
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=30)
    @given(mixed_states(), mixed_states(), mixed_states())
    def test_triangle_inequality(self, a, b, c):
        a, b, c = a.matrix, b.matrix, c.matrix
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


class TestPaulis:
    @pytest.mark.parametrize("sigma", list(PAULI_MATRICES[1:]))
    def test_involutive_traceless(self, sigma):
        assert np.allclose(sigma @ sigma, np.eye(2))
        assert abs(np.trace(sigma)) < 1e-15

    def test_xy_equals_iz(self):
        _, sx, sy, sz = PAULI_MATRICES
        assert np.allclose(sx @ sy, 1j * sz)


class TestJsonRoundTrip:
    def test_round_trip(self, rng):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        back = np.array(complex_matrix_to_json(mat)) @ [1, 1j]  # [re, im] pairs
        assert np.array_equal(back, mat)

    def test_json_serializable(self):
        import json

        payload = complex_matrix_to_json(np.array(PAULI_MATRICES[2]))
        json.dumps(payload)
