"""Quantum state/process tomography and Monte Carlo error propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    BlochVector,
    MixedState,
    PAULI_MATRICES,
    bloch_of,
    state_from_bloch,
)

BASES = ("Z", "X", "Y")

# projectors onto the +1/-1 eigenstates of each measurement basis
_BASIS_STATES = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / np.sqrt(2), np.array([1, -1j], dtype=complex) / np.sqrt(2)),
}


class TomographyError(ValueError):
    """Measurement records are insufficient or inconsistent."""


@dataclass(frozen=True)
class MeasurementRecord:
    basis: str
    plus_counts: int
    minus_counts: int

    def __post_init__(self):
        if self.basis not in BASES:
            raise TomographyError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.plus_counts < 0 or self.minus_counts < 0:
            raise TomographyError("counts must be non-negative")


def sample_measurements(rho: MixedState, shots_per_basis: int, seed: int) -> list[MeasurementRecord]:
    """Forward-sample per-basis outcome counts from a single-qubit state."""
    rng = np.random.default_rng(seed)
    records = []
    for basis in BASES:
        plus, _ = _BASIS_STATES[basis]
        p = float(np.vdot(plus, rho.matrix @ plus).real)
        p = min(1.0, max(0.0, p))
        n_plus = int(rng.binomial(shots_per_basis, p))
        records.append(MeasurementRecord(basis, n_plus, shots_per_basis - n_plus))
    return records


def qst_reconstruct(records, max_likelihood: bool = False,
                    ml_tol: float = 1e-10, ml_max_iter: int = 10_000) -> MixedState | list[MixedState]:
    """Single-qubit state reconstruction from per-basis counts.

    Default is linear inversion of the three basis expectation values with
    radial projection back onto the Bloch ball; max_likelihood enables a
    diluted RrhoR fixed-point refinement. Given one list of records, returns
    a MixedState; given a sequence of record lists, returns a list of them,
    reconstructed as one batch.
    """
    records = list(records)
    single = not records or isinstance(records[0], MeasurementRecord)
    counts = np.array([_basis_counts(recs) for recs in ([records] if single else records)], dtype=float)
    plus, minus = counts[:, 0::2], counts[:, 1::2]
    bloch = ((plus - minus) / (plus + minus))[:, [1, 2, 0]]  # BASES order -> (X, Y, Z)
    states = []
    for r in bloch:
        norm = np.linalg.norm(r)
        if norm > 1.0:
            r = r / norm  # radial projection, direction preserved
        states.append(state_from_bloch(r))
    if max_likelihood:
        mats = _ml_refine(np.array([rho.matrix for rho in states]), counts, tol=ml_tol, max_iter=ml_max_iter)
        states = [MixedState(mat) for mat in mats]
    return states[0] if single else states


def _basis_counts(records) -> list:
    """(plus, minus) counts summed per basis, flattened in BASES order."""
    totals = {b: [0, 0] for b in BASES}
    for rec in records:
        totals[rec.basis][0] += rec.plus_counts
        totals[rec.basis][1] += rec.minus_counts
    for basis in BASES:
        if sum(totals[basis]) == 0:
            raise TomographyError(f"no counts for basis {basis}")
    return [n for basis in BASES for n in totals[basis]]


# projectors onto the outcomes of _basis_counts, in the same order
_PROJECTORS = np.array([np.outer(v, v.conj()) for basis in BASES for v in _BASIS_STATES[basis]])


def _ml_refine(rho0: np.ndarray, counts: np.ndarray, tol: float, max_iter: int,
               dilution: float = 0.5) -> np.ndarray:
    """Diluted RrhoR maximum-likelihood iteration (Rehacek, Hradil, Knill and
    Lvovsky, quant-ph/0611244) over an (n, 2, 2) stack of starting estimates
    with (n, 6) outcome counts.

    Every state runs its own iteration: it stops at its own first step that
    changes no element by `tol` or more, so a state's result does not depend
    on the rest of the batch. Raises TomographyError if any state has not
    converged within `max_iter` steps.
    """
    mat = rho0 + 1e-6 * np.eye(2)  # keep strictly positive for the iteration
    mat /= np.trace(mat, axis1=1, axis2=2).real[:, None, None]
    total = counts.sum(axis=1)
    out = np.empty_like(mat)
    active = np.arange(len(mat))  # states still iterating
    eye = np.eye(2)
    for _ in range(max_iter):
        probs = np.maximum(np.trace(_PROJECTORS[:, None] @ mat, axis1=2, axis2=3).real, 1e-15)
        r_op = sum(counts[:, k, None, None] / probs[k, :, None, None] * proj
                   for k, proj in enumerate(_PROJECTORS)) / total[:, None, None]
        g = (1 - dilution) * eye + dilution * r_op
        new = g @ mat @ g.conj().swapaxes(1, 2)
        new = 0.5 * (new + new.conj().swapaxes(1, 2))
        new /= np.trace(new, axis1=1, axis2=2).real[:, None, None]
        done = np.abs(new - mat).max(axis=(1, 2)) < tol
        out[active[done]] = new[done]
        active, mat, counts, total = active[~done], new[~done], counts[~done], total[~done]
        if active.size == 0:
            return out
    raise TomographyError(f"{active.size} of {len(out)} maximum-likelihood reconstructions "
                          f"did not converge within {max_iter} iterations")


@dataclass(frozen=True)
class ProcessMatrix:
    """Process matrix chi in the Pauli basis (I, X, Y, Z)."""

    chi: np.ndarray

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=complex)
        if chi.shape != (4, 4):
            raise TomographyError(f"chi must be 4x4, got {chi.shape}")
        if not np.allclose(chi, chi.conj().T, atol=1e-10):
            raise TomographyError("chi is not Hermitian")
        if abs(np.trace(chi).real - 1.0) > 1e-8:
            raise TomographyError(f"Tr(chi) = {np.trace(chi).real} != 1")
        object.__setattr__(self, "chi", 0.5 * (chi + chi.conj().T))

    def apply(self, rho: MixedState) -> MixedState:
        out = np.zeros((2, 2), dtype=complex)
        for l in range(4):
            for k in range(4):
                out += self.chi[l, k] * PAULI_MATRICES[l] @ rho.matrix @ PAULI_MATRICES[k]
        return MixedState(out)


def chi_identity() -> ProcessMatrix:
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1.0
    return ProcessMatrix(chi)


# standard informationally complete input set used for process benchmarking
QPT_INPUT_LABELS = ("H", "V", "D", "L")


def qpt_reconstruct(pairs, cp_projection: bool = False) -> ProcessMatrix:
    """Process matrix from (rho_in, rho_out) pairs.

    Solves the linear system rho_out = sum_lk chi_lk s_l rho_in s_k by
    least squares and Hermitizes. cp_projection makes chi completely
    positive by mixing in just enough of the completely depolarizing channel
    (chi = I/4) to lift its lowest eigenvalue to zero; unlike clipping the
    negative eigenvalues, this keeps a trace-preserving estimate (unit-trace
    outputs of four spanning inputs) trace preserving.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise TomographyError("need at least 4 input/output pairs")
    rows, rhs = [], []
    for rho_in, rho_out in pairs:
        basis_action = [
            (PAULI_MATRICES[l] @ rho_in.matrix @ PAULI_MATRICES[k]).ravel()
            for l in range(4)
            for k in range(4)
        ]
        rows.append(np.array(basis_action).T)  # (4, 16) per matrix element
        rhs.append(rho_out.matrix.ravel())
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 16:
        raise TomographyError(f"input set is rank-deficient (rank {rank} < 16)")
    chi = sol.reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    if cp_projection:
        evals, evecs = np.linalg.eigh(chi)
        shift = max(0.0, -evals.min())
        chi = (evecs * (evals + shift)) @ evecs.conj().T / (1 + 4 * shift)
        chi /= np.trace(chi).real
    return ProcessMatrix(chi)


def process_fidelity(chi: ProcessMatrix, chi_ideal: ProcessMatrix) -> float:
    val = np.trace(chi_ideal.chi @ chi.chi).real
    return float(min(1.0, max(0.0, val)))


@dataclass(frozen=True)
class AffineBlochMap:
    linear: np.ndarray
    offset: np.ndarray

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.linear @ np.asarray(r, dtype=float) + self.offset

    def compose(self, other: "AffineBlochMap") -> "AffineBlochMap":
        return AffineBlochMap(self.linear @ other.linear, self.linear @ other.offset + self.offset)


def bloch_map_of(chi: ProcessMatrix) -> AffineBlochMap:
    """Affine action of the process on Bloch vectors."""
    offset_state = chi.apply(MixedState.maximally_mixed(2))
    offset = bloch_of(offset_state).as_array()
    cols = []
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        out = chi.apply(state_from_bloch(e))
        cols.append(bloch_of(out).as_array() - offset)
    return AffineBlochMap(np.array(cols).T, offset)


def bloch_sphere_samples(bmap: AffineBlochMap, n_theta: int = 12, n_phi: int = 24) -> list[tuple[BlochVector, np.ndarray]]:
    """Images of a Bloch-sphere mesh under the map, for plotting."""
    out = []
    for theta in np.linspace(0, np.pi, n_theta):
        for phi in np.linspace(0, 2 * np.pi, n_phi, endpoint=False):
            r = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
            out.append((BlochVector(*r), bmap(r)))
    return out


def monte_carlo_errors(counts, statistic, trials: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Poissonian resampling of counts; returns (mean, std) of the statistic.

    `counts` is a flat array-like of k observed counts; `statistic` maps an
    (n, k) batch of resampled counts to n values. Trials run in a fixed
    number of independently seeded chunks, each drawn as one batch; a batch
    draws the same stream as n sequential `rng.poisson(counts)` calls.
    Raises TomographyError if any resample gives a non-finite value.
    """
    counts = np.asarray(counts, dtype=float)
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if counts.sum() <= 0:
        raise ValueError("zero total counts")
    n_chunks = 32
    bounds = np.linspace(0, trials, n_chunks + 1).astype(int)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.concatenate([statistic(np.random.default_rng(ss).poisson(counts, size=(n, counts.size)))
                                 for ss, n in zip(seeds, np.diff(bounds))])
    if values.shape != (trials,):
        raise ValueError(f"statistic must map an (n, k) batch to n values, got shape {values.shape}")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise TomographyError(f"{bad} of {trials} Monte Carlo resamples gave a non-finite statistic")
    return float(values.mean()), float(values.std(ddof=1))
