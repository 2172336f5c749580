"""Direct constructions that the closed-form process tomography is tested against.

- `lstsq_qpt`: least-squares process tomography over any set of
  (rho_in, rho_out) pairs, solving the 16-unknown linear system for chi;
- `chi_act`: the 16-term action sum_lk chi_lk s_l rho s_k of a process matrix;
- `per_state_bloch_map`: the affine Bloch map read off the validated images
  of the maximally mixed state and the three Bloch axis states, one state
  at a time;
- `kraus_chi`: the process matrix of a channel given by Kraus operators;
- `werner`: the two-qubit Werner state of the source, for the brute-force
  teleportation oracle;
- `trace_distance` between two density matrices;
- `chsh_s_16`: CHSH |S| from all 16 counts, each setting's correlation
  taken from its four outcomes, the formula the pooled
  `counts.chsh_s_values` is tested against;
- `unit`: a vector over its own norm, as a unit amplitude array: the rule
  the package's input, Bell and resource constants are built by;
- `sphere_grid_maximum`: the pure state of largest likelihood for one row of
  tomography counts, by brute-force search over the Bloch sphere, the oracle
  of the maximum-likelihood state tomography.
"""

import numpy as np

from spp_teleport.qcore import PAULI_MATRICES, MixedState, density_matrices


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


SINGLET = unit(np.array([0, 1, -1, 0]) / np.sqrt(2))


def chi_identity() -> np.ndarray:
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = 1.0
    return chi


def kraus_chi(kraus) -> np.ndarray:
    """chi_lk = sum_m c_ml conj(c_mk) for K_m = sum_l c_ml s_l, c_ml = Tr(s_l K_m) / 2."""
    c = np.array([[np.trace(s @ k) / 2 for s in PAULI_MATRICES] for k in kraus])
    return c.T @ c.conj()


def random_kraus(values, n_ops):
    """n_ops Kraus operators of a trace-preserving channel from 8 * n_ops
    reals: the 2 columns of a (2 n_ops, 2) isometry, split into 2x2 blocks."""
    a = np.asarray(values, dtype=float).reshape(2, 2 * n_ops, 2)
    q, _ = np.linalg.qr(a[0] + 1j * a[1])
    return q.reshape(n_ops, 2, 2)


def chi_act(chi: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_lk chi_lk s_l rho s_k over a stack (..., 2, 2), not validated."""
    out = np.zeros(np.shape(mats), dtype=complex)
    for l in range(4):
        for k in range(4):
            out = out + chi[l, k] * PAULI_MATRICES[l] @ mats @ PAULI_MATRICES[k]
    return out


def lstsq_qpt(pairs, cp_projection: bool = False) -> np.ndarray:
    """chi of (rho_in, rho_out) MixedState pairs: the least-squares solution of
    rho_out = sum_lk chi_lk s_l rho_in s_k, Hermitized; cp_projection admixes
    the least weight of chi = I/4 that makes it positive semidefinite."""
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError("need at least 4 input/output pairs")
    rows, rhs = [], []
    for rho_in, rho_out in pairs:
        basis_action = [(PAULI_MATRICES[l] @ rho_in.matrix @ PAULI_MATRICES[k]).ravel()
                        for l in range(4) for k in range(4)]
        rows.append(np.array(basis_action).T)  # (4, 16) per matrix element
        rhs.append(rho_out.matrix.ravel())
    sol, _, rank, _ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    if rank < 16:
        raise ValueError(f"input set is rank-deficient (rank {rank} < 16)")
    chi = sol.reshape(4, 4)
    chi = 0.5 * (chi + chi.conj().T)
    if cp_projection:
        evals, evecs = np.linalg.eigh(chi)
        shift = max(0.0, -evals.min())
        chi = (evecs * (evals + shift)) @ evecs.conj().T / (1 + 4 * shift)
        chi /= np.trace(chi).real
    return chi


def per_state_bloch_map(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(linear, offset) of the Bloch map of chi: the image of I/2 is the
    offset, the images of the +x, +y, +z states less the offset are the
    columns of the linear part; every input and image is a validated state."""
    def bloch(rho):
        return np.array([np.trace(rho @ s).real for s in PAULI_MATRICES[1:]])

    def image(r):
        rho = MixedState(0.5 * (PAULI_MATRICES[0] + sum(x * s for x, s in zip(r, PAULI_MATRICES[1:]))))
        return bloch(MixedState(chi_act(chi, rho.matrix)).matrix)

    offset = image(np.zeros(3))
    return np.array([image(e) - offset for e in np.eye(3)]).T, offset


def werner(v: float) -> np.ndarray:
    """v |psi-><psi-| + (1 - v) I/4, each term validated as a density matrix."""
    singlet = density_matrices(np.outer(SINGLET, SINGLET.conj()))
    return density_matrices(v * singlet + (1.0 - v) * np.eye(4) / 4.0)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def chsh_s_16(counts) -> np.ndarray:
    """|S| of counts shaped (..., 16): (N++, N+-, N-+, N--) per setting, CHSH_SETTINGS in order,
    with E = (N++ - N+- - N-+ + N--) / (N++ + N+- + N-+ + N--) per setting."""
    c = np.asarray(counts, dtype=float)
    npp, npm, nmp, nmm = (c[..., i::4] for i in range(4))
    e = (npp - npm - nmp + nmm) / (npp + npm + nmp + nmm)
    return np.abs(e[..., 0] - e[..., 1] + e[..., 2] + e[..., 3])


def sphere_grid_maximum(counts, levels: int = 6) -> np.ndarray:
    """The unit Bloch vector (x, y, z) of largest log-likelihood
    sum_i a_i log(1 + r_i) + b_i log(1 - r_i) for (6,) counts, (plus, minus)
    per basis in Z, X, Y order, by brute force: the best of 4000 points spread
    evenly over the sphere (a Fibonacci lattice, about 0.056 apart), then
    `levels` rounds of an 11 x 11 grid in the tangent plane about the best
    point so far, each round a fifth as wide as the one before. The last
    grid's points are about 1e-6 apart, so the result falls short of the
    maximum by far more than rounding."""
    plus, minus = np.asarray(counts, dtype=float).reshape(3, 2).T
    a, b = plus[[1, 2, 0]], minus[[1, 2, 0]]  # (X, Y, Z) order

    def log_likelihood(r):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0
            return (np.where(a > 0, a * np.log1p(r), 0) + np.where(b > 0, b * np.log1p(-r), 0)).sum(axis=-1)

    k = np.arange(4000) + 0.5
    z, phi = 1 - k / 2000, np.pi * (1 + np.sqrt(5)) * k
    points = np.stack([np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z], axis=-1)
    best, width, steps = points[np.argmax(log_likelihood(points))], 0.1, np.linspace(-1, 1, 11)
    for _ in range(levels):
        e1 = np.cross(best, [1.0, 0, 0] if abs(best[0]) < 0.9 else [0, 1.0, 0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(best, e1)
        points = (best + width * (steps[:, None, None] * e1 + steps[None, :, None] * e2)).reshape(-1, 3)
        points /= np.linalg.norm(points, axis=1)[:, None]
        best, width = points[np.argmax(log_likelihood(points))], width / 5
    return best
