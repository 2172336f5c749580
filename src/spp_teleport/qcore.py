"""Exact complex linear algebra for few-qubit states, operators and channels.

Conventions used throughout the package:

* qubit basis order is (|H>, |V>) at indices (0, 1), with |H> the Z=+1
  eigenstate;
* |R> = (|H> - i|V>)/sqrt(2) sits at Bloch vector (0, -1, 0) and
  |L> = (|H> + i|V>)/sqrt(2) at (0, +1, 0);
* tensor products put the leftmost factor in the most significant index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EIG_ATOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible Hilbert-space dimensions."""


class InvalidStateError(ValueError):
    """A vector or matrix does not describe a physical quantum state."""


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a finite mode space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise InvalidStateError("zero amplitude vector")
        object.__setattr__(self, "amplitudes", amps / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size



def strip_global_phase(amps: np.ndarray) -> np.ndarray:
    """Amplitude vectors (..., d) with the largest-magnitude amplitude of
    each made real positive."""
    peak = np.take_along_axis(amps, np.abs(amps).argmax(axis=-1)[..., None], axis=-1)
    return amps / (peak / np.abs(peak))


def density_matrices(mat) -> np.ndarray:
    """Check a density matrix, or a stack of them of shape (..., d, d), in one pass.

    Every matrix must be square, Hermitian to 1e-9 and of unit trace to
    1e-9, with no eigenvalue below -EIG_ATOL; otherwise InvalidStateError.
    Returns the Hermitized stack, otherwise unchanged: an eigenvalue in
    (-EIG_ATOL, 0) is accepted as given. Each matrix comes out with the bits
    it would get on its own.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise InvalidStateError(f"not square: {mat.shape}")
    adjoint = mat.conj().swapaxes(-1, -2)
    if not np.allclose(mat, adjoint, rtol=0, atol=1e-9):
        raise InvalidStateError("matrix is not Hermitian")
    mat = 0.5 * (mat + adjoint)
    tr = np.trace(mat, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > 1e-9
    if off.any():
        raise InvalidStateError(f"trace {tr[off][0]} != 1")
    lowest = np.linalg.eigvalsh(mat)[..., 0]  # eigvalsh sorts ascending
    if (lowest < -EIG_ATOL).any():
        raise InvalidStateError(f"negative eigenvalue {lowest.min()}")
    return mat


@dataclass(frozen=True)
class MixedState:
    """Density matrix: Hermitian, unit trace, positive semidefinite to EIG_ATOL.

    Checked by density_matrices: an eigenvalue in (-EIG_ATOL, 0) is kept
    as given; anything more negative raises InvalidStateError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2:
            raise InvalidStateError(f"not square: {mat.shape}")
        object.__setattr__(self, "matrix", density_matrices(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Pauli operators I, X, Y, Z in the (|H>, |V>) basis
PAULI_MATRICES = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def tensor(a, b):
    """Kronecker product of two states of the same kind."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, MixedState) and isinstance(b, MixedState):
        return MixedState(np.kron(a.matrix, b.matrix))
    raise TypeError("tensor operands must both be PureState or both MixedState")


def vector_norms(x) -> np.ndarray:
    """Euclidean norm along the last axis, each the bits np.linalg.norm gives
    for that vector alone (the same BLAS dot products)."""
    x = np.asarray(x)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return np.sqrt(sum(p[..., None, :] @ p[..., :, None] for p in parts)[..., 0, 0])


def expectation(mats, vecs) -> np.ndarray:
    """<v|M|v> over broadcast stacks of matrices (..., d, d) and vectors (..., d)."""
    vecs = np.asarray(vecs)[..., :, None]
    return (vecs.conj().swapaxes(-1, -2) @ (mats @ vecs))[..., 0, 0]


def clamp_unit(x):
    """min(1, max(0, x)) elementwise."""
    return np.minimum(1.0, np.maximum(0.0, x))


def fidelity_pure(rho: MixedState, phi: PureState) -> float:
    """State fidelity <phi|rho|phi>, clamped to [0, 1]."""
    if rho.dim != phi.dim:
        raise DimensionMismatchError(f"{rho.dim} != {phi.dim}")
    return float(clamp_unit(expectation(rho.matrix, phi.amplitudes).real))


def bloch_of(rho: MixedState) -> np.ndarray:
    """Bloch vector (Tr rho sx, Tr rho sy, Tr rho sz) of a single-qubit state; |r| may exceed 1
    by what MixedState's tolerances allow (2 EIG_ATOL, more where the trace is off 1)."""
    if rho.dim != 2:
        raise DimensionMismatchError(f"need a single qubit, got dim {rho.dim}")
    return np.array([float(np.trace(rho.matrix @ s).real) for s in PAULI_MATRICES[1:]])


def bloch_matrices(r) -> np.ndarray:
    """(I + r.sigma)/2 for Bloch vectors of shape (..., 3), not validated."""
    r = np.asarray(r, dtype=float)[..., None, None]
    _, sx, sy, sz = PAULI_MATRICES
    return 0.5 * (np.eye(2, dtype=complex) + r[..., 0, :, :] * sx + r[..., 1, :, :] * sy + r[..., 2, :, :] * sz)


def state_from_bloch(r: np.ndarray) -> MixedState:
    return MixedState(bloch_matrices(r))


def complex_matrix_to_json(mat: np.ndarray):
    """Nested lists of [re, im] pairs, row-major; a stack gives one list per matrix."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()
