"""Quantum state/process tomography and Monte Carlo error propagation."""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .qcore import (
    MixedState,
    PAULI_MATRICES,
    bloch_matrices,
    bloch_vectors,
    check_bloch_ball,
    clamp_unit,
    density_matrices,
    expectation,
    vector_norms,
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


_PLUS_STATES = np.array([_BASIS_STATES[basis][0] for basis in BASES])


def sample_counts(states: np.ndarray, shots_per_basis, seeds) -> np.ndarray:
    """Forward-sample per-basis outcome counts of single-qubit states.

    `states` is an (n, 2, 2) stack; state i is measured with
    shots_per_basis[i] shots per basis by a generator of its own, seeded by
    seeds[i], which draws the plus counts of the bases in BASES order.
    Returns (n, 6) counts, (plus, minus) per basis in BASES order.
    """
    probs = clamp_unit(expectation(states[:, None], _PLUS_STATES).real)
    shots = np.asarray(shots_per_basis, dtype=np.int64).reshape(-1, 1)
    plus = np.array([np.random.default_rng(int(seed)).binomial(int(n), p)
                     for seed, n, p in zip(seeds, shots[:, 0], probs)], dtype=np.int64).reshape(-1, len(BASES))
    return np.stack([plus, shots - plus], axis=-1).reshape(-1, 2 * len(BASES))


def sample_measurements(rho: MixedState, shots_per_basis: int, seed: int) -> list[MeasurementRecord]:
    """Forward-sample per-basis outcome counts from a single-qubit state."""
    counts = sample_counts(rho.matrix[None], [shots_per_basis], [seed])[0].tolist()
    return [MeasurementRecord(basis, *counts[2 * k:2 * k + 2]) for k, basis in enumerate(BASES)]


def qst_reconstruct(records, max_likelihood: bool = False,
                    ml_tol: float = 1e-10, ml_max_iter: int = 10_000) -> np.ndarray | MixedState | list[MixedState]:
    """Single-qubit state reconstruction from per-basis counts.

    Default is linear inversion of the three basis expectation values with
    radial projection back onto the Bloch ball; max_likelihood enables a
    diluted RrhoR fixed-point refinement. Given an (n, 6) array of counts,
    (plus, minus) per basis in BASES order, returns the (n, 2, 2) stack of
    estimates; given one list of records, a MixedState; given a sequence of
    record lists, a list of them. Every estimate of a call is reconstructed
    and validated as one batch.
    """
    if isinstance(records, np.ndarray):
        return density_matrices(_reconstruct(records.astype(float), max_likelihood, ml_tol, ml_max_iter))
    records = list(records)
    single = not records or isinstance(records[0], MeasurementRecord)
    counts = np.array([_basis_counts(recs) for recs in ([records] if single else records)], dtype=float)
    states = MixedState.from_validated(density_matrices(_reconstruct(counts, max_likelihood, ml_tol, ml_max_iter)))
    return states[0] if single else states


def _basis_counts(records) -> list:
    """(plus, minus) counts summed per basis, flattened in BASES order."""
    totals = {b: [0, 0] for b in BASES}
    for rec in records:
        totals[rec.basis][0] += rec.plus_counts
        totals[rec.basis][1] += rec.minus_counts
    return [n for basis in BASES for n in totals[basis]]


def _reconstruct(counts: np.ndarray, max_likelihood: bool, tol: float, max_iter: int) -> np.ndarray:
    """The (n, 2, 2) estimates of (n, 6) counts, before their final validation."""
    plus, minus = counts[:, 0::2], counts[:, 1::2]
    empty = np.argwhere(plus + minus == 0)
    if empty.size:
        raise TomographyError(f"no counts for basis {BASES[empty[0, 1]]}")
    bloch = ((plus - minus) / (plus + minus))[:, [1, 2, 0]]  # BASES order -> (X, Y, Z)
    norm = vector_norms(bloch)
    outside = norm > 1.0
    bloch[outside] = bloch[outside] / norm[outside, None]  # radial projection, direction preserved
    mats = bloch_matrices(bloch)
    if max_likelihood:
        mats = _ml_refine(density_matrices(mats), counts, tol=tol, max_iter=max_iter)
    return mats


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
        return MixedState(self.act(rho.matrix))

    def act(self, mats: np.ndarray) -> np.ndarray:
        """sum_lk chi_lk s_l rho s_k over a stack (..., 2, 2), not validated."""
        out = np.zeros(mats.shape, dtype=complex)
        for l in range(4):
            for k in range(4):
                out += self.chi[l, k] * PAULI_MATRICES[l] @ mats @ PAULI_MATRICES[k]
        return out


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
        """Image of a Bloch vector, or of a stack of them (..., 3)."""
        return (self.linear @ np.asarray(r, dtype=float)[..., None])[..., 0] + self.offset

    def compose(self, other: "AffineBlochMap") -> "AffineBlochMap":
        return AffineBlochMap(self.linear @ other.linear, self.linear @ other.offset + self.offset)


def bloch_map_of(chi: ProcessMatrix) -> AffineBlochMap:
    """Affine action of the process on Bloch vectors, read off the images of
    the maximally mixed state and the three Bloch axis states."""
    inputs = density_matrices(np.concatenate([np.eye(2)[None] / 2, bloch_matrices(np.eye(3))]))
    images = bloch_vectors(density_matrices(chi.act(inputs)))
    return AffineBlochMap((images[1:] - images[0]).T, images[0])


def bloch_sphere_samples(bmap: AffineBlochMap, n_theta: int = 12,
                         n_phi: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """A Bloch-sphere mesh and its image under the map, for plotting: two
    (n_theta * n_phi, 3) arrays, theta-major."""
    theta = np.linspace(0, np.pi, n_theta)[:, None]
    phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    mesh = np.stack(np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)),
                    axis=-1).reshape(-1, 3)
    check_bloch_ball(mesh)
    return mesh, bmap(mesh)


# Monte Carlo trials run in this many independently seeded chunks
_MC_CHUNKS = 32


@functools.cache
def _draw_pool():
    """The thread pool that draws Monte Carlo chunks, one thread per CPU the
    process may run on, up to one per chunk; created on first use."""
    from concurrent.futures import ThreadPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=min(cpus, _MC_CHUNKS), thread_name_prefix="mc-draw")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_draw_pool.cache_clear)  # a forked child has no pool threads


def monte_carlo_errors(counts, statistic, trials: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Poissonian resampling of counts; returns (mean, std) of the statistic.

    `counts` is a flat array-like of k observed counts; `statistic` maps an
    (n, k) batch of resampled counts to n values. Trials run in a fixed
    number of independently seeded chunks, each drawn as one batch; a batch
    draws the same stream as n sequential `rng.poisson(counts)` calls. The
    chunks are drawn in parallel on a shared thread pool, each by its own
    generator, so the result does not depend on the number of threads;
    `statistic` runs on the calling thread, chunk by chunk in order.
    Raises TomographyError if any resample gives a non-finite value.
    """
    counts = np.asarray(counts, dtype=float)
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if counts.sum() <= 0:
        raise ValueError("zero total counts")
    sizes = np.diff(np.linspace(0, trials, _MC_CHUNKS + 1).astype(int))
    seeds = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    draws = _draw_pool().map(lambda ss, n: np.random.default_rng(ss).poisson(counts, size=(n, counts.size)),
                             seeds, sizes)
    # closing cancels the chunks still queued if statistic raises
    with np.errstate(divide="ignore", invalid="ignore"), contextlib.closing(draws):
        values = np.concatenate([statistic(batch) for batch in draws])
    if values.shape != (trials,):
        raise ValueError(f"statistic must map an (n, k) batch to n values, got shape {values.shape}")
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise TomographyError(f"{bad} of {trials} Monte Carlo resamples gave a non-finite statistic")
    return float(values.mean()), float(values.std(ddof=1))
