"""Two-photon three-qubit teleportation pipeline.

Qubit roles: Q0 is the polarization of photon A (the input state), Q1 its
path after the first beam displacer, Q2 the polarization of photon B. The
Bell measurement acts on (Q0, Q1); Q2 emerges, up to a Pauli, in the input
state and is recovered by the feed-forward correction.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from . import tomo
from .channel import ChannelModel
from .output import DataError
from .qcore import (
    MixedState,
    bloch_matrices,
    bloch_of,
    clamp_unit,
    density_matrices,
    expectation,
    state_from_bloch,
    strip_global_phase,
    vector_norms,
)

SQ2 = math.sqrt(2.0)


def _unit(literal) -> np.ndarray:
    """literal / |literal| as complex: 1/sqrt(2) is 0.7071067811865476 for a literal over SQ2, not 1 / SQ2."""
    amps = np.asarray(literal, dtype=complex)
    return amps / np.linalg.norm(amps)


INPUT_LABELS = ("H", "V", "D", "A", "R", "L")
# the six tomography input states alpha|H> + beta|V>, unit (2,) arrays
INPUT_STATES: dict[str, np.ndarray] = dict(zip(INPUT_LABELS, map(_unit, (
    np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / SQ2, np.array([1, -1]) / SQ2,
    np.array([1, -1j]) / SQ2, np.array([1, 1j]) / SQ2))))


class BellOutcome(enum.Enum):
    """Bell-measurement outcome with its exit port and Pauli correction."""

    PHI_PLUS = ("PhiPlus", "CH1", ("X", "Z"))
    PHI_MINUS = ("PhiMinus", "CH2", ("X",))
    PSI_MINUS = ("PsiMinus", "CH3", ())
    PSI_PLUS = ("PsiPlus", "CH4", ("Z",))

    def __init__(self, label, port, corrections):
        self.label = label
        self.port = port
        self.corrections = corrections


OUTCOMES = tuple(BellOutcome)

# Bell states over (Q0 polarization) x (Q1 path), basis (Hl, Hr, Vl, Vr), one row per outcome in OUTCOMES
# order: PhiPlus, PhiMinus, PsiMinus, PsiPlus
BELL_VECTORS = np.array([_unit(np.array(v) / SQ2) for v in ([1, 0, 0, 1], [1, 0, 0, -1], [0, -1, 1, 0], [0, 1, 1, 0])])
# Bell vectors as (Q0, Q1) matrices, in OUTCOMES order
_BELL = BELL_VECTORS.reshape(4, 2, 2)
# the entangled (path of A) x (polarization of B) resource after the swap,
# basis (l H, l V, r H, r V); the factored-out |V> of qubit 0 is not included
SWAPPED_RESOURCE = _unit(np.array([0, 1, -1, 0]) / SQ2)


def _bell_branches(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional (pre-correction) Q2 states of inputs `targets` (n, 2).

    Projects |phi>^0 (x) resource^{12} onto the Bell basis of (Q0, Q1).
    Returns, per input and outcome (OUTCOMES order), the normalized
    phase-stripped Q2 amplitudes (n, 4, 2) and the branch probabilities
    (n, 4), exactly 1/4 for any normalized input.
    """
    full = (targets[:, :, None] * SWAPPED_RESOURCE).reshape(-1, 8)
    full = (full / vector_norms(full)[:, None]).reshape(-1, 2, 2, 2)
    cond = np.einsum("oij,nijk->nok", _BELL.conj(), full)
    norms = vector_norms(cond)
    amps = strip_global_phase(cond / norms[..., None])
    return amps / vector_norms(amps)[..., None], norms**2


def bell_decompose(amplitudes: np.ndarray) -> dict[BellOutcome, tuple[np.ndarray, float]]:
    """Conditional (pre-correction) states of Q2 for each Bell outcome of a
    unit (2,) input amplitude array.

    Returns, per outcome, the normalized phase-stripped Q2 amplitudes and
    the branch probability (exactly 1/4 for any normalized input).
    """
    if np.shape(amplitudes) != (2,):
        raise ValueError("input must be a single-qubit state")
    amps, probs = _bell_branches(amplitudes[None])
    return dict(zip(OUTCOMES, zip(amps[0], probs[0].tolist())))


# Bloch-vector signs of the Pauli flips: the diagonals of their Pauli transfer matrices, less the leading 1
_FLIP_SIGNS = {"X": np.array([1.0, -1.0, -1.0]), "Z": np.array([-1.0, -1.0, 1.0])}


def _correction_diagonal(outcome: BellOutcome, channel: ChannelModel) -> np.ndarray:
    """The (3,) diagonal by which the feed-forward scales Bloch vectors: each flip with signs s
    that fails with probability epsilon = channel.flip_error(label) contributes (1 - epsilon) s + epsilon."""
    diag = np.ones(3)
    for label in outcome.corrections:
        eps = channel.flip_error(label)
        diag = diag * ((1.0 - eps) * _FLIP_SIGNS[label] + eps)
    return diag


def apply_correction(state: MixedState, outcome: BellOutcome, channel: ChannelModel) -> MixedState:
    """Feed-forward Pauli correction for a Bell outcome: each required flip
    succeeds with probability 1 - channel.flip_error(label) and otherwise
    leaves the state untouched.
    """
    return state_from_bloch(_correction_diagonal(outcome, channel) * bloch_of(state))


def _teleport(targets: np.ndarray, channel: ChannelModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact teleported states of input states `targets` (n, 2) through the channel.

    Returns the corrected Q2 states (n, 4, 2, 2), validated as one stack,
    the branch probabilities and the fidelities to the inputs (both
    (n, 4)), outcomes in OUTCOMES order. The channel and the correction are
    diagonal Pauli transfer matrices, applied to the conditional Bloch vectors.
    """
    amps, probs = _bell_branches(targets)
    cross, weights = 2.0 * amps[..., 0].conj() * amps[..., 1], amps.real**2 + amps.imag**2
    bloch = np.stack([cross.real, cross.imag, weights[..., 0] - weights[..., 1]], axis=-1)
    diags = np.array([_correction_diagonal(o, channel) for o in OUTCOMES])
    rho = density_matrices(bloch_matrices(channel.bloch_shrink * bloch * diags))
    return rho, probs, clamp_unit(expectation(rho, targets[:, None]).real)


def _shot_partition(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Seeded multinomial split of one input's shots over its Bell outcomes."""
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def run_teleportation(input_label: str, channel: ChannelModel, shots: int,
                      seed: int) -> dict[BellOutcome, tuple[int, MixedState, float, float]]:
    """Full pipeline: prepare, swap, Bell-measure, channel, feed-forward.

    Bell outcomes are sampled (seeded) for the shot partition while the
    per-outcome conditional density matrices are accumulated exactly.
    Returns, per outcome in OUTCOMES order, (shots, state, fidelity, probability).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    states, probs, fids = _teleport(INPUT_STATES[input_label][None], channel)
    partition = _shot_partition(probs[0], shots, seed).tolist()
    return dict(zip(OUTCOMES, zip(partition, map(MixedState, states[0]), fids[0].tolist(), probs[0].tolist())))


class NoEstimateError(DataError):
    """A QPT input has no branch with a state estimate."""


class Campaign(NamedTuple):
    """Every branch of a teleportation campaign, as (6, 4, ...) arrays over
    (input, outcome): inputs in INPUT_LABELS order, outcomes in OUTCOMES order.

    `states` are the exact teleported states and `estimates` their QST
    reconstructions. A branch with fewer shots than tomography bases has no
    estimate: NaN in `estimates`, False in `estimated`.
    """

    shots: np.ndarray  # (6, 4) sampled shot partition of each input
    states: np.ndarray  # (6, 4, 2, 2)
    fidelities: np.ndarray  # (6, 4) <phi|rho|phi>
    estimates: np.ndarray  # (6, 4, 2, 2)

    @property
    def estimated(self) -> np.ndarray:
        return self.shots // len(tomo.BASES) > 0

    @classmethod
    def run(cls, channel: ChannelModel, shots: int, seed: int, max_likelihood: bool = False) -> "Campaign":
        """Teleport each input and reconstruct every branch's output state by QST.

        The root seed gives 5 sub-seeds per input: one for the shot
        partition and one for the sampled tomography of each Bell outcome.
        Each branch is measured with shots // 3 shots per basis, and all
        branches with at least one are reconstructed as one batch.
        """
        seeds = np.random.SeedSequence(seed).generate_state(len(INPUT_LABELS) * 5).reshape(-1, 5)
        states, probs, fids = _teleport(np.array(list(INPUT_STATES.values())), channel)
        partition = np.array([_shot_partition(p, shots, int(s)) for p, s in zip(probs, seeds[:, 0])])
        per_basis = partition // len(tomo.BASES)
        sampled = per_basis > 0
        counts = tomo.sample_counts(states[sampled], per_basis[sampled], seeds[:, 1:][sampled])
        estimates = np.full(states.shape, np.nan, dtype=complex)
        estimates[sampled] = tomo.qst_reconstruct(counts, max_likelihood=max_likelihood)
        return cls(partition, states, fids, estimates)

    def process_matrix(self, cp_projection: bool = False) -> np.ndarray:
        """Process tomography over the QPT inputs (H, V, D, L): the (4, 4)
        chi array of qpt_reconstruct.

        Each input's output state is the mean of its estimated branches,
        weighting the outcomes uniformly. Raises NoEstimateError if one has
        no estimated branch.
        """
        outputs, estimated = [], self.estimated
        for label in tomo.QPT_INPUT_LABELS:
            i = INPUT_LABELS.index(label)
            if not estimated[i].any():
                raise NoEstimateError(f"input {label} has no Bell outcome with {len(tomo.BASES)} or more shots, "
                                      f"so no state estimate")
            outputs.append(self.estimates[i][estimated[i]].mean(axis=0))
        return tomo.qpt_reconstruct(np.array(outputs), cp_projection=cp_projection)
