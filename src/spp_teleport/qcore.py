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
    Returns the Hermitized stack; a matrix with eigenvalues in (-EIG_ATOL, 0)
    has them clipped to zero and is rebuilt, Hermitized again and
    renormalized. Each matrix comes out with the bits it would get on its own.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise InvalidStateError(f"not square: {mat.shape}")
    adjoint = mat.conj().swapaxes(-1, -2)
    if not np.allclose(mat, adjoint, atol=1e-9):
        raise InvalidStateError("matrix is not Hermitian")
    mat = 0.5 * (mat + adjoint)
    tr = np.trace(mat, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > 1e-9
    if off.any():
        raise InvalidStateError(f"trace {tr[off][0]} != 1")
    evals, evecs = np.linalg.eigh(mat)
    lowest = evals[..., 0]  # eigh sorts ascending
    if (lowest < -EIG_ATOL).any():
        raise InvalidStateError(f"negative eigenvalue {lowest.min()}")
    clip = lowest < 0
    if clip.any():
        evals, evecs = np.clip(evals[clip], 0.0, None), evecs[clip]
        fixed = (evecs * evals[:, None, :]) @ evecs.conj().swapaxes(-1, -2)
        fixed = 0.5 * (fixed + fixed.conj().swapaxes(-1, -2))  # the product is Hermitian only to rounding
        mat[clip] = fixed / np.trace(fixed, axis1=-2, axis2=-1).real[:, None, None]
    return mat


@dataclass(frozen=True)
class MixedState:
    """Density matrix: Hermitian, unit trace, positive semidefinite.

    Checked by density_matrices: eigenvalues in (-EIG_ATOL, 0) are clipped
    to zero and the matrix renormalized; anything more negative raises
    InvalidStateError.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2:
            raise InvalidStateError(f"not square: {mat.shape}")
        object.__setattr__(self, "matrix", density_matrices(mat))

    @classmethod
    def from_validated(cls, mats) -> list["MixedState"]:
        """One state per matrix of a stack that density_matrices returned,
        without checking each matrix again."""
        states = []
        for mat in mats:
            state = object.__new__(cls)
            object.__setattr__(state, "matrix", mat)
            states.append(state)
        return states

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


def check_bloch_ball(r) -> None:
    """Raise InvalidStateError if a Bloch vector of shape (..., 3) is longer than 1."""
    r2 = (np.asarray(r) ** 2).sum(axis=-1)
    if (r2 > 1 + 1e-10).any():
        raise InvalidStateError(f"Bloch vector length {np.sqrt(r2.max())} > 1")


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
    """Bloch vector (Tr rho sx, Tr rho sy, Tr rho sz) of a single-qubit state,
    checked to lie in the ball."""
    if rho.dim != 2:
        raise DimensionMismatchError(f"need a single qubit, got dim {rho.dim}")
    r = np.array([float(np.trace(rho.matrix @ s).real) for s in PAULI_MATRICES[1:]])
    check_bloch_ball(r)
    return r


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
