"""Two-photon three-qubit teleportation pipeline.

Qubit roles: Q0 is the polarization of photon A (the input state), Q1 its
path after the first beam displacer, Q2 the polarization of photon B. The
Bell measurement acts on (Q0, Q1); Q2 emerges, up to a Pauli, in the input
state and is recovered by the feed-forward correction.

Six-mode vectors are ordered (path1 H, path1 V, path2 H, path2 V,
path3 H, path3 V); path2/path3 are the left/right interferometer arms and
path1 collects the displaced output ports, so the Bell-state and port
vectors used by the mode-matrix analysis hold verbatim in this ordering.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tomo
from .channel import ChannelModel, EomModel, apply_channel
from .qcore import (
    MixedState,
    PAULIS,
    PureState,
    fidelity_pure,
    tensor,
)

SQ2 = math.sqrt(2.0)

# the six tomography input states alpha|H> + beta|V>
INPUT_STATES: dict[str, PureState] = {
    "H": PureState(np.array([1, 0])),
    "V": PureState(np.array([0, 1])),
    "D": PureState(np.array([1, 1]) / SQ2),
    "A": PureState(np.array([1, -1]) / SQ2),
    "R": PureState(np.array([1, -1j]) / SQ2),
    "L": PureState(np.array([1, 1j]) / SQ2),
}

INPUT_LABELS = tuple(INPUT_STATES)


def prepare_input(label: str) -> PureState:
    try:
        return INPUT_STATES[label]
    except KeyError:
        raise ValueError(f"unknown input label {label!r}, expected one of {INPUT_LABELS}") from None


def swapped_resource() -> PureState:
    """Entangled (path of A) x (polarization of B) resource after the swap.

    Basis order (l H, l V, r H, r V); the factored-out |V> of qubit 0 is
    not included.
    """
    return PureState(np.array([0, 1, -1, 0]) / SQ2)


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

# Bell states over (Q0 polarization) x (Q1 path), basis (Hl, Hr, Vl, Vr)
BELL_VECTORS: dict[BellOutcome, PureState] = {
    BellOutcome.PHI_PLUS: PureState(np.array([1, 0, 0, 1]) / SQ2),
    BellOutcome.PHI_MINUS: PureState(np.array([1, 0, 0, -1]) / SQ2),
    BellOutcome.PSI_PLUS: PureState(np.array([0, 1, 1, 0]) / SQ2),
    BellOutcome.PSI_MINUS: PureState(np.array([0, -1, 1, 0]) / SQ2),
}


@dataclass(frozen=True)
class ModeVector:
    """Amplitudes over the six optical modes; sub-normalized vectors are
    post-selected branches."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != 6:
            raise ValueError(f"need 6 mode amplitudes, got {amps.size}")
        if np.linalg.norm(amps) > 1 + 1e-12:
            raise ValueError("mode vector norm exceeds 1")
        object.__setattr__(self, "amplitudes", amps)


# Bell states and exit ports as six-mode vectors
BELL_MODE_VECTORS: dict[BellOutcome, ModeVector] = {
    BellOutcome.PHI_PLUS: ModeVector(np.array([0, 0, 1, 0, 0, 1]) / SQ2),
    BellOutcome.PHI_MINUS: ModeVector(np.array([0, 0, 1, 0, 0, -1]) / SQ2),
    BellOutcome.PSI_PLUS: ModeVector(np.array([0, 0, 0, 1, 1, 0]) / SQ2),
    BellOutcome.PSI_MINUS: ModeVector(np.array([0, 0, 0, 1, -1, 0]) / SQ2),
}

PORT_MODE_INDEX = {"CH1": 2, "CH2": 3, "CH3": 0, "CH4": 1}


def port_vector(port: str) -> ModeVector:
    amps = np.zeros(6)
    amps[PORT_MODE_INDEX[port]] = 1.0
    return ModeVector(amps)


def bsm_matrix() -> np.ndarray:
    """Mode transformation of the Bell analyser (a partial isometry).

    The two all-zero rows correspond to the unused interferometer arms;
    the matrix is an isometry only on the Bell subspace because element
    phases are dropped.
    """
    s = 1.0 / SQ2
    return np.array(
        [
            [0, 0, 0, s, -s, 0],
            [0, 0, 0, -s, -s, 0],
            [0, 0, -s, 0, 0, -s],
            [0, 0, s, 0, 0, -s],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ],
        dtype=complex,
    )


def bell_decompose(input_state: PureState) -> dict[BellOutcome, tuple[PureState, float]]:
    """Conditional (pre-correction) states of Q2 for each Bell outcome.

    Projects |phi>^0 (x) resource^{12} onto the Bell basis of (Q0, Q1) and
    returns, per outcome, the normalized phase-stripped Q2 state and the
    branch probability (exactly 1/4 for any normalized input).
    """
    if input_state.dim != 2:
        raise ValueError("input must be a single-qubit state")
    full = tensor(input_state, swapped_resource()).amplitudes.reshape(2, 2, 2)
    branches = {}
    for outcome, bell in BELL_VECTORS.items():
        b = bell.amplitudes.reshape(2, 2)  # (Q0, Q1)
        cond = np.einsum("ij,ijk->k", b.conj(), full)
        prob = float(np.linalg.norm(cond) ** 2)
        branches[outcome] = (PureState(cond).phase_fixed(), prob)
    return branches


def apply_correction(state: MixedState, outcome: BellOutcome,
                     eom: EomModel | None = None) -> MixedState:
    """Feed-forward Pauli correction for a Bell outcome.

    With an EomModel, each required flip succeeds with probability
    1 - epsilon and otherwise leaves the state untouched.
    """
    if state.dim != 2:
        raise ValueError("correction acts on single-qubit states")
    mat = state.matrix
    for label in outcome.corrections:
        sigma = PAULIS[label].matrix
        flipped = sigma @ mat @ sigma.conj().T
        if eom is None:
            mat = flipped
        else:
            eps = eom.epsilon_x if label == "X" else eom.epsilon_z
            mat = (1.0 - eps) * flipped + eps * mat
    return MixedState(mat)


@dataclass(frozen=True)
class TeleportationRecord:
    input: str
    outcome: BellOutcome
    shots: int
    state: MixedState
    fidelity: float
    probability: float

    @property
    def port(self) -> str:
        return self.outcome.port


def run_teleportation(input_label: str, channel: ChannelModel, shots: int,
                      seed: int) -> list[TeleportationRecord]:
    """Full pipeline: prepare, swap, Bell-measure, channel, feed-forward.

    Bell outcomes are sampled (seeded) for the shot partition while the
    per-outcome conditional density matrices are accumulated exactly.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    target = prepare_input(input_label)
    branches = bell_decompose(target)
    probs = np.array([branches[o][1] for o in OUTCOMES])
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum())
    records = []
    for outcome, n in zip(OUTCOMES, counts):
        pre, prob = branches[outcome]
        rho, _survival = apply_channel(pre.projector(), channel)
        rho = apply_correction(rho, outcome, channel.eom)
        records.append(
            TeleportationRecord(
                input=input_label,
                outcome=outcome,
                shots=int(n),
                state=rho,
                fidelity=fidelity_pure(rho, target),
                probability=prob,
            )
        )
    return records


def run_campaign(channel: ChannelModel, inputs, shots: int, seed: int,
                 max_likelihood: bool = False) -> tuple[list[TeleportationRecord], list[MixedState]]:
    """Teleport each input and reconstruct every branch's output state by QST.

    The root seed gives 5 sub-seeds per input: one for the teleportation run
    and one for the sampled tomography of each Bell outcome. Each branch is
    measured with shots // 3 shots per basis (at least 1), and all branches
    are reconstructed as one batch. Returns the records, input-major in
    OUTCOMES order, and the reconstructed state of each.
    """
    seeds = np.random.SeedSequence(seed).generate_state(len(inputs) * 5)
    records, measured = [], []
    for i, label in enumerate(inputs):
        recs = run_teleportation(label, channel, shots, seed=int(seeds[5 * i]))
        for rec, sub in zip(recs, seeds[5 * i + 1:5 * i + 5]):
            per_basis = max(1, rec.shots // len(tomo.BASES))
            measured.append(tomo.sample_measurements(rec.state, per_basis, seed=int(sub)))
        records += recs
    return records, tomo.qst_reconstruct(measured, max_likelihood=max_likelihood)


def average_fidelity(records, weighting: str = "uniform") -> float:
    """Mean output fidelity over records.

    weighting="uniform" assumes the ideal 1/4 outcome probabilities;
    "counts" weights by the sampled shot partition.
    """
    if weighting == "uniform":
        return float(np.mean([r.fidelity for r in records]))
    if weighting == "counts":
        total = sum(r.shots for r in records)
        if total == 0:
            raise ValueError("no shots recorded")
        return float(sum(r.fidelity * r.shots for r in records) / total)
    raise ValueError(f"unknown weighting {weighting!r}")
