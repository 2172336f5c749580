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
                    ml_tol: float = 1e-10, ml_max_iter: int = 10_000) -> MixedState:
    """Single-qubit state reconstruction from per-basis counts.

    Default is linear inversion of the three basis expectation values with
    radial projection back onto the Bloch ball; max_likelihood enables a
    diluted RrhoR fixed-point refinement.
    """
    by_basis: dict[str, list[MeasurementRecord]] = {b: [] for b in BASES}
    for rec in records:
        by_basis[rec.basis].append(rec)
    for basis in BASES:
        if not by_basis[basis] or sum(r.plus_counts + r.minus_counts for r in by_basis[basis]) == 0:
            raise TomographyError(f"no counts for basis {basis}")
    r = np.zeros(3)
    for i, basis in enumerate(("X", "Y", "Z")):
        plus = sum(rec.plus_counts for rec in by_basis[basis])
        minus = sum(rec.minus_counts for rec in by_basis[basis])
        r[i] = (plus - minus) / (plus + minus)
    norm = np.linalg.norm(r)
    if norm > 1.0:
        r = r / norm  # radial projection, direction preserved
    rho = state_from_bloch(r)
    if max_likelihood:
        rho = _ml_refine(rho, by_basis, tol=ml_tol, max_iter=ml_max_iter)
    return rho


def _ml_refine(rho0: MixedState, by_basis, tol: float, max_iter: int,
               dilution: float = 0.5) -> MixedState:
    projectors, counts = [], []
    for basis in BASES:
        plus, minus = _BASIS_STATES[basis]
        n_plus = sum(r.plus_counts for r in by_basis[basis])
        n_minus = sum(r.minus_counts for r in by_basis[basis])
        projectors.append(np.outer(plus, plus.conj()))
        counts.append(n_plus)
        projectors.append(np.outer(minus, minus.conj()))
        counts.append(n_minus)
    counts = np.array(counts, dtype=float)
    total = counts.sum()
    mat = rho0.matrix + 1e-6 * np.eye(2)  # keep strictly positive for the iteration
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
    least squares, Hermitizes, and optionally projects onto the nearest
    completely positive chi (eigenvalue clipping).
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
        evals = np.clip(evals, 0.0, None)
        chi = (evecs * evals) @ evecs.conj().T
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
