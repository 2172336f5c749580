"""Quantum state/process tomography and Monte Carlo error propagation."""

from __future__ import annotations

import os

import numpy as np

from .output import DataError
from .qcore import (
    MixedState,
    PAULI_MATRICES,
    bloch_matrices,
    clamp_unit,
    density_matrices,
    expectation,
    vector_norms,
)

BASES = ("Z", "X", "Y")

# the (+1, -1) eigenvectors of each measurement basis, in BASES order: the six outcomes of the counts
_EIGENVECTORS = np.array([[[1, 0], [0, 1]], [[1, 1], [1, -1]], [[1, 1j], [1, -1j]]]) / np.sqrt([1, 2, 2])[:, None, None]


def sample_counts(states: np.ndarray, shots_per_basis, seeds) -> np.ndarray:
    """Forward-sample per-basis outcome counts of single-qubit states.

    `states` is an (n, 2, 2) stack; state i is measured with
    shots_per_basis[i] shots per basis by a generator of its own, seeded by
    seeds[i], which draws the plus counts of the bases in BASES order.
    Returns (n, 6) counts, (plus, minus) per basis in BASES order.
    """
    probs = clamp_unit(expectation(states[:, None], _EIGENVECTORS[:, 0]).real)
    shots = np.asarray(shots_per_basis, dtype=np.int64).reshape(-1, 1)
    plus = np.array([np.random.default_rng(int(seed)).binomial(int(n), p)
                     for seed, n, p in zip(seeds, shots[:, 0], probs)], dtype=np.int64).reshape(-1, len(BASES))
    return np.stack([plus, shots - plus], axis=-1).reshape(-1, 2 * len(BASES))


def sample_measurements(rho: MixedState, shots_per_basis: int, seed: int) -> np.ndarray:
    """The (6,) counts sample_counts draws for one state."""
    return sample_counts(rho.matrix[None], [shots_per_basis], [seed])[0]


def qst_reconstruct(counts: np.ndarray, max_likelihood: bool = False) -> np.ndarray:
    """Single-qubit state reconstruction from per-basis counts.

    Default is linear inversion of the three basis expectation values with
    radial projection back onto the Bloch ball. With max_likelihood, an
    estimate inside the ball is kept: it already maximizes the likelihood,
    as each basis term sum n log p peaks at p = n / N and the linear
    estimate meets all three peaks; one outside it becomes the exact
    maximum, which lies on the sphere (_sphere_maximum). Takes an (n, 6)
    array of counts, (plus, minus) per basis in BASES order, and returns the
    (n, 2, 2) stack of estimates, reconstructed and validated as one batch.
    """
    counts = counts.astype(float)
    plus, minus = counts[:, 0::2], counts[:, 1::2]
    empty = np.argwhere(plus + minus == 0)
    if empty.size:
        raise ValueError(f"no counts for basis {BASES[empty[0, 1]]}")
    bloch = ((plus - minus) / (plus + minus))[:, [1, 2, 0]]  # BASES order -> (X, Y, Z)
    norm = vector_norms(bloch)
    outside = norm > 1.0
    bloch[outside] = bloch[outside] / norm[outside, None]  # radial projection, direction preserved
    if max_likelihood and outside.any():
        bloch[outside] = _sphere_maximum(plus[outside][:, [1, 2, 0]], minus[outside][:, [1, 2, 0]])
    return density_matrices(bloch_matrices(bloch))


def _sphere_maximum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unit Bloch vectors that maximize sum_i a_i log(1 + r_i) +
    b_i log(1 - r_i), the log-likelihood of (n, 3) plus and minus counts
    whose linear estimates (a - b) / (a + b) lie outside the ball.

    Each r_i is then the middle real root r_i(mu) of the cubic
    a_i (1 - r) - b_i (1 + r) - 2 mu r (1 - r^2) for one multiplier mu > 0
    per row (Boyd and Vandenberghe, Convex Optimization, 5.5.3); |r(mu)|
    falls as mu grows from the linear estimate at mu = 0. From 0, or from a
    root at a larger mu, Newton steps reach the root without passing it, as
    the cubic is monotone there and bends away from the axis; each stops at
    its first step that is not toward the root or not shorter than the last.
    A zero-count basis keeps r_i = +-1 up to mu = (a_i + b_i) / 4, and each
    |r_i| < 1/sqrt(3) from mu = max |a_i - b_i| on: Newton steps on
    1/|r(mu)| - 1, or bisection, shrink that bracket of |r(mu)| = 1 until
    neither can, each row on its own, so no result depends on the batch.
    """
    n, d = a + b, a - b
    lo, hi = np.where(a * b == 0, n / 4, 0).max(axis=1), np.abs(d).max(axis=1)
    mu, r, r_hi = np.zeros(len(n)), d / n, np.zeros(n.shape)  # r_hi: the roots at hi, nearer 0 than any at a lower mu
    active = np.ones(len(n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            norm = np.sqrt(r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2])
            lo, hi = np.where(norm > 1, (np.maximum(lo, mu), hi), (lo, mu))
            r_hi = np.where(norm[:, None] > 1, r_hi, r)
            dr = 2 * r * (1 - r) * (1 + r) / (2 * mu[:, None] * (3 * r * r - 1) - n)  # dr/dmu
            newton = mu + (1 - norm) * norm * norm / (r[:, 0] * dr[:, 0] + r[:, 1] * dr[:, 1] + r[:, 2] * dr[:, 2])
            nxt = np.where((lo < newton) & (newton < hi), newton, 0.5 * (lo + hi))
            active &= (newton != mu) & (lo < nxt) & (nxt < hi)
            if not active.any():
                return r
            mu = np.where(active, nxt, mu)
            x, m, step = r_hi, mu[:, None], np.inf  # the roots at mu, by Newton steps
            while True:
                nx = x - (a * (1 - x) - b * (1 + x) - 2 * m * x * (1 - x) * (1 + x)) / (2 * m * (3 * x * x - 1) - n)
                move = (np.abs(nx) > np.abs(x)) & (np.abs(nx - x) < step)
                if not move.any():
                    break
                step, x = np.where(move, np.abs(nx - x), 0), np.where(move, nx, x)
            r = np.where(active[:, None], x, r)


# R = _CHI_TO_PTM @ chi.ravel() is the Pauli transfer matrix R_ij = Tr(s_i L(s_j)) / 2, raveled, of
# L(rho) = sum_lk chi_lk s_l rho s_k. Its entries are 0, +-1 and +-i, and it is 2 times a unitary,
# so its inverse is exactly its adjoint over 4.
_CHI_TO_PTM = 0.5 * np.einsum("iab,lbc,jcd,kda->ijlk", *[PAULI_MATRICES] * 4).reshape(16, 16)
_PTM_TO_CHI = _CHI_TO_PTM.conj().T / 4


# standard informationally complete input set used for process benchmarking
QPT_INPUT_LABELS = ("H", "V", "D", "L")


def qpt_reconstruct(outputs, cp_projection: bool = False) -> np.ndarray:
    """Process matrix chi in the Pauli basis (I, X, Y, Z), a (4, 4) complex
    array, in closed form from the (4, 2, 2) stack of output states of the
    inputs QPT_INPUT_LABELS (Greenbaum, arXiv:1509.02921).

    The outputs give the action on the Pauli basis, whose Pauli transfer
    matrix gives chi, which is Hermitized. cp_projection makes chi
    completely positive by mixing in just enough of the completely
    depolarizing channel (chi = I/4) to lift its lowest eigenvalue to zero;
    unlike clipping the negative eigenvalues, this keeps the estimate trace
    preserving.
    """
    h, v, d, l = density_matrices(outputs)
    ident = h + v
    # H, V, D, L are (I + Z)/2, (I - Z)/2, (I + X)/2, (I + Y)/2; these are L(s_j) for s_j in (I, X, Y, Z)
    images = np.array([ident, 2 * d - ident, 2 * l - ident, h - v])
    ptm = 0.5 * np.einsum("iab,jba->ij", PAULI_MATRICES, images).real
    chi = (_PTM_TO_CHI @ ptm.ravel()).reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    if cp_projection:
        evals, evecs = np.linalg.eigh(chi)
        shift = max(0.0, -evals.min())
        chi = (evecs * (evals + shift)) @ evecs.conj().T / (1 + 4 * shift)
        chi /= np.trace(chi).real
        chi = 0.5 * (chi + chi.conj().T)  # the eigendecomposition is Hermitian only to rounding
    return chi


def process_fidelity(chi: np.ndarray) -> float:
    """Process fidelity with the identity channel, chi_00, clamped to [0, 1]."""
    return float(clamp_unit(chi[0, 0].real))


def _bloch_image(ptm: np.ndarray, r) -> np.ndarray:
    """R[1:, 1:] r + R[1:, 0], the image under the Pauli transfer matrix R of
    a Bloch vector, or of a stack of them (..., 3)."""
    return (ptm[1:, 1:] @ np.asarray(r, dtype=float)[..., None])[..., 0] + ptm[1:, 0]


def bloch_map_of(chi: np.ndarray) -> np.ndarray:
    """The real 4x4 Pauli transfer matrix R_ij = Tr(s_i L(s_j)) / 2 of the
    process, the Bloch map r -> R[1:, 1:] r + R[1:, 0]."""
    return (_CHI_TO_PTM @ chi.ravel()).real.reshape(4, 4)


def bloch_sphere_samples(ptm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 12 x 24 Bloch-sphere mesh and its image under the Pauli transfer
    matrix `ptm`, for plotting: two (288, 3) arrays, theta-major: 12 polar
    angles from 0 to pi, each with 24 azimuths from 0 below 2 pi."""
    theta = np.linspace(0, np.pi, 12)[:, None]
    phi = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    mesh = np.stack(np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)),
                    axis=-1).reshape(-1, 3)
    return mesh, _bloch_image(ptm, mesh)


# Monte Carlo trials run in this many independently seeded chunks, sized in
# float64, which counts every trial exactly up to MAX_TRIALS
_MC_CHUNKS = 32
MAX_TRIALS = 2**53


def monte_carlo_errors(counts, statistic, trials: int = 1000, seed: int = 0) -> np.ndarray:
    """The (m,) stds of m statistics over one set of Poisson resamples of counts.

    `counts` is a flat array-like of k observed counts; `statistic` maps an
    (n, k) batch of resampled counts to an (n, m) block of values. Each
    column is reduced on its own, so std j has the bits of a call with
    column j alone. Trials run in a fixed number of independently seeded
    chunks, each drawn as one batch; a batch draws the same stream as n
    sequential `rng.poisson(counts)` calls. The chunks are drawn in
    parallel on a thread pool of the call's own, one thread per CPU the
    process may run on, each chunk by its own generator, so the result does
    not depend on the number of threads; `statistic` runs on the calling
    thread, chunk by chunk in order, and the pool draws at most one chunk
    per thread, plus one, ahead of it. The pool is shut down before the
    call returns or raises. A column whose resamples are all equal has std
    exactly 0. Raises DataError if any resample gives a non-finite value.
    """
    from concurrent.futures import ThreadPoolExecutor

    counts = np.asarray(counts, dtype=float)
    sizes = np.diff(np.linspace(0, trials, _MC_CHUNKS + 1).astype(int))
    seeds = np.random.SeedSequence(seed).spawn(_MC_CHUNKS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, _MC_CHUNKS)

    def draw(k):
        return np.random.default_rng(seeds[k]).poisson(counts, size=(sizes[k], counts.size))

    batches = []
    # if statistic raises, leaving the block waits for the at most workers + 1 chunks submitted ahead
    with (ThreadPoolExecutor(max_workers=workers, thread_name_prefix="mc-draw") as pool,
          np.errstate(divide="ignore", invalid="ignore")):
        ahead = {k: pool.submit(draw, k) for k in range(min(workers + 1, _MC_CHUNKS))}
        for k in range(_MC_CHUNKS):
            if k + workers + 1 < _MC_CHUNKS:
                ahead[k + workers + 1] = pool.submit(draw, k + workers + 1)
            batches.append(statistic(ahead.pop(k).result()))
    columns = np.ascontiguousarray(np.concatenate(batches).T)  # each reduced as a 1-D array is
    bad = int(np.count_nonzero(~np.isfinite(columns).all(axis=0)))
    if bad:
        raise DataError(f"{bad} of {trials} Monte Carlo resamples gave a non-finite statistic")
    return np.where(np.ptp(columns, axis=1) == 0, 0.0, columns.std(axis=1, ddof=1))
