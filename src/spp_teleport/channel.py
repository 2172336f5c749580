"""Physical models of the plasmonic link.

Covers the white-noise (Werner) model of the entangled source, heralded
loss, the hole-array resonance and momentum-matching calculators, the
exponential propagation-decay fit, and the multiplicative fidelity budget
used to account for the measured teleportation fidelities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .qcore import InvalidStateError, MixedState, PureState

SINGLET = PureState(np.array([0, 1, -1, 0]) / math.sqrt(2))


class ChannelParameterError(ValueError):
    """A channel/geometry parameter is outside its admissible range."""


class ResonanceSolveError(RuntimeError):
    """The resonance fixed point does not exist inside the tabulated range."""


@dataclass(frozen=True)
class EomModel:
    """Electro-optic modulator pair performing the conditional Pauli flips.

    `contrast` is the intensity extinction ratio of a flip; a required flip
    fails (leaves the state untouched) with probability 1/(1 + contrast).
    """

    contrast_x: float = 77.5
    contrast_z: float = 29.7

    def __post_init__(self):
        if self.contrast_x <= 1 or self.contrast_z <= 1:
            raise ChannelParameterError("EOM contrast must exceed 1")

    @property
    def epsilon_x(self) -> float:
        return 1.0 / (1.0 + self.contrast_x)

    @property
    def epsilon_z(self) -> float:
        return 1.0 / (1.0 + self.contrast_z)


@dataclass(frozen=True)
class ChannelModel:
    """Noise parameters of the photon-plasmon-photon link.

    werner_visibility is the singlet weight of the source state;
    depolarizing_extra adds white noise on the teleported qubit beyond the
    source term; transmittance is the heralded survival probability and
    never changes the post-selected state.
    """

    werner_visibility: float = 1.0
    transmittance: float = 1.0
    eom: EomModel | None = None
    depolarizing_extra: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.werner_visibility <= 1.0:
            raise ChannelParameterError(f"werner_visibility {self.werner_visibility} not in [0,1]")
        if not 0.0 < self.transmittance <= 1.0:
            raise ChannelParameterError(f"transmittance {self.transmittance} not in (0,1]")
        if not 0.0 <= self.depolarizing_extra <= 1.0:
            raise ChannelParameterError(f"depolarizing_extra {self.depolarizing_extra} not in [0,1]")

    @classmethod
    def ideal(cls) -> "ChannelModel":
        return cls()

    @property
    def bloch_shrink(self) -> float:
        """Combined depolarizing weight acting on the teleported qubit."""
        return self.werner_visibility * (1.0 - self.depolarizing_extra)


def werner(visibility: float) -> MixedState:
    """Two-qubit Werner state v |psi-><psi-| + (1-v) I/4."""
    if not 0.0 <= visibility <= 1.0:
        raise ChannelParameterError(f"visibility {visibility} not in [0,1]")
    mat = visibility * SINGLET.projector().matrix + (1.0 - visibility) * np.eye(4) / 4.0
    return MixedState(mat)


def apply_channel(rho: MixedState, model: ChannelModel) -> tuple[MixedState, float]:
    """Depolarize a single-qubit state per the channel model.

    Returns the post-selected (heralded) state and the survival probability.
    """
    if rho.dim != 2:
        raise ChannelParameterError("apply_channel acts on single-qubit states")
    w = model.bloch_shrink
    out = MixedState(w * rho.matrix + (1.0 - w) * np.eye(2) / 2.0)
    return out, model.transmittance


# ---------------------------------------------------------------------------
# hole-array geometry, dispersion, resonance


class DielectricTable:
    """Tabulated metal dielectric function, linear interpolation in wavelength."""

    def __init__(self, wavelengths_nm, eps):
        wl = np.asarray(wavelengths_nm, dtype=float)
        eps = np.asarray(eps, dtype=complex)
        if wl.size < 2 or wl.size != eps.size:
            raise ChannelParameterError("dielectric table needs >= 2 matching rows")
        order = np.argsort(wl)
        self.wavelengths_nm = wl[order]
        self.eps = eps[order]

    @property
    def wl_min(self) -> float:
        return float(self.wavelengths_nm[0])

    @property
    def wl_max(self) -> float:
        return float(self.wavelengths_nm[-1])

    def __call__(self, wavelength_nm):
        """Interpolated permittivity: complex for a scalar, a complex array for an array."""
        wl = np.asarray(wavelength_nm, dtype=float)
        outside = ~((self.wl_min <= wl) & (wl <= self.wl_max))
        if outside.any():
            raise ResonanceSolveError(
                f"wavelength {wl[outside][0]:.1f} nm outside table range "
                f"[{self.wl_min:.0f}, {self.wl_max:.0f}]"
            )
        re = np.interp(wl, self.wavelengths_nm, self.eps.real)
        im = np.interp(wl, self.wavelengths_nm, self.eps.imag)
        return complex(re, im) if wl.ndim == 0 else re + 1j * im


def load_dielectric_table(path) -> DielectricTable:
    """Read a CSV with header wavelength_nm, eps_re, eps_im."""
    wl, eps = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"wavelength_nm", "eps_re", "eps_im"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ChannelParameterError(f"dielectric CSV must have columns {sorted(required)}")
        for row in reader:
            where = f"dielectric CSV line {reader.line_num}"
            try:
                w, re, im = (float(row[k]) for k in ("wavelength_nm", "eps_re", "eps_im"))
            except (TypeError, ValueError):
                raise ChannelParameterError(f"{where}: non-numeric value") from None
            if not all(map(math.isfinite, (w, re, im))):
                raise ChannelParameterError(f"{where}: non-finite value")
            if w in wl:
                raise ChannelParameterError(f"{where}: repeated wavelength {w:g} nm")
            wl.append(w)
            eps.append(complex(re, im))
    return DielectricTable(wl, eps)


def gold_dielectric_table() -> DielectricTable:
    """Bundled tabulated dielectric data for evaporated gold (visible/NIR)."""
    path = resources.files("spp_teleport.data") / "gold_dielectric.csv"
    return load_dielectric_table(path)


@dataclass(frozen=True)
class HoleArrayGeometry:
    """Square hole array; `period_nm` is one period or a 1-D array of periods."""

    period_nm: float | np.ndarray
    hole_diameter_nm: float
    mode: tuple[int, int]
    eps_substrate: float
    eps_air: float = 1.0
    metal: DielectricTable = field(default_factory=gold_dielectric_table)

    def __post_init__(self):
        period = np.asarray(self.period_nm, dtype=float)
        if period.ndim > 1 or not (np.all(period > self.hole_diameter_nm) and self.hole_diameter_nm > 0):
            raise ChannelParameterError("need period > hole diameter > 0")
        if self.mode == (0, 0):
            raise ChannelParameterError("mode (0, 0) does not excite a plasmon")


def resonance_wavelength(geom: HoleArrayGeometry, interface: str = "substrate",
                         tol_nm: float = 1e-6, max_iter: int = 500) -> float | np.ndarray:
    """Self-consistent resonance wavelength of the (m1, m2) hole-array mode.

    The wavelength enters both sides through the metal dielectric function,
    so lambda = P/|m| sqrt(eps_d eps_m / (eps_d + eps_m)) is solved by
    fixed-point iteration over the table, for all periods at once: each
    period stops at its own first step that moves less than `tol_nm`.
    Returns a float for a scalar period and an array for an array of periods.
    """
    if interface == "substrate":
        eps_d = geom.eps_substrate
    elif interface == "air":
        eps_d = geom.eps_air
    else:
        raise ChannelParameterError(f"interface must be substrate or air, got {interface!r}")
    table = geom.metal
    scale = np.atleast_1d(geom.period_nm) / math.hypot(*geom.mode)
    lam = np.full(scale.shape, 0.5 * (table.wl_min + table.wl_max))
    active = np.arange(lam.size)  # periods still iterating
    for _ in range(max_iter):
        eps_m = table(lam[active]).real
        denom = eps_d + eps_m
        if np.any(denom == 0):
            raise ResonanceSolveError("degenerate dielectric/metal combination")
        factor = eps_d * eps_m / denom
        if np.any(factor < 0):
            raise ResonanceSolveError("no bound surface mode for these dielectric constants")
        nxt = scale[active] * np.sqrt(factor)
        done = np.abs(nxt - lam[active]) < tol_nm
        lam[active] = nxt
        active = active[~done]
        if active.size == 0:
            return lam if np.ndim(geom.period_nm) else float(lam[0])
    raise ResonanceSolveError(f"no fixed point after {max_iter} iterations (last {lam[active[0]]:.1f} nm)")


def dispersion_match(geom: HoleArrayGeometry, k_parallel) -> np.ndarray:
    """Momentum-matched plasmon wavevector k_parallel + m1 b1 + m2 b2 (rad/nm), one row per period."""
    k_par = np.asarray(k_parallel, dtype=float)
    if k_par.shape != (2,):
        raise ChannelParameterError("k_parallel must be a 2-vector")
    g = 2.0 * math.pi / np.asarray(geom.period_nm, dtype=float)
    m1, m2 = geom.mode
    return k_par + np.stack([m1 * g, m2 * g], axis=-1)


# ---------------------------------------------------------------------------
# propagation decay


def decay_profile(decay_length_um: float, positions_um) -> np.ndarray:
    """Exponential intensity profile I0 exp(-x / L), I0 = 1."""
    x = np.asarray(positions_um, dtype=float)
    if decay_length_um <= 0:
        raise ChannelParameterError("decay length must be positive")
    return np.exp(-x / decay_length_um)


def fit_decay(positions_um, intensities) -> float:
    """1/e decay length from a least-squares line fit to log intensity."""
    x = np.asarray(positions_um, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if np.any(y <= 0):
        raise ChannelParameterError("intensities must be positive for the log fit")
    if np.any(np.diff(x) <= 0):
        raise ChannelParameterError("positions must be strictly increasing")
    slope, _ = np.polyfit(x, np.log(y), 1)
    if slope >= 0:
        raise ChannelParameterError("intensity does not decay with distance")
    return -1.0 / slope


# ---------------------------------------------------------------------------
# fidelity budget


@dataclass(frozen=True)
class FidelityBudget:
    f_source: float
    f_bsm: float
    f_spp: float
    f_eom_x: float
    f_eom_z: float
    f_oe: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not 0.0 <= v <= 1.0:
                raise ChannelParameterError(f"{name}={v} not in [0,1]")


# Measured component fidelities of the experiment, per configuration.
BUDGET_WITHOUT_SPP = FidelityBudget(
    f_source=0.9834, f_bsm=0.9787, f_spp=0.9730,
    f_eom_x=0.9763, f_eom_z=0.9916, f_oe=0.9847,
)
BUDGET_WITH_SPP = FidelityBudget(
    f_source=0.9834, f_bsm=0.9787, f_spp=0.9730,
    f_eom_x=0.9561, f_eom_z=0.9680, f_oe=0.9847,
)

SPP_TRANSMITTANCE = 0.008
SPP_DECAY_LENGTH_UM = 4.48


def fidelity_budget_total(budget: FidelityBudget, with_spp: bool) -> float:
    """Product of the applicable component fidelities.

    Without the plasmonic element the f_spp factor is omitted.
    """
    total = budget.f_source * budget.f_bsm * budget.f_eom_x * budget.f_eom_z * budget.f_oe
    if with_spp:
        total *= budget.f_spp
    return total


def _depol_weight(fidelity: float) -> float:
    # single-qubit depolarizing whose pure-state fidelity equals `fidelity`
    return 2.0 * fidelity - 1.0


def calibrated_channel(with_spp: bool, eom: EomModel | None = None) -> ChannelModel:
    """Channel model calibrated from the measured component fidelities.

    The source enters as the Werner singlet weight. BSM and other-optics
    imperfections (plus the plasmonic element when present) enter as
    depolarizing terms with matching pure-state fidelity. The EOMs keep
    their nominal extinction ratios; with the plasmon the distorted beam
    degrades their effective contrast, which is accounted for by the ratio
    of the with/without component fidelities as extra white noise.
    """
    eom = eom or EomModel()
    shrink = _depol_weight(BUDGET_WITH_SPP.f_bsm) * _depol_weight(BUDGET_WITH_SPP.f_oe)
    if with_spp:
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_spp)
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_eom_x / BUDGET_WITHOUT_SPP.f_eom_x)
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_eom_z / BUDGET_WITHOUT_SPP.f_eom_z)
    return ChannelModel(
        werner_visibility=BUDGET_WITH_SPP.f_source,
        transmittance=SPP_TRANSMITTANCE if with_spp else 1.0,
        eom=eom,
        depolarizing_extra=1.0 - shrink,
    )


def write_dielectric_csv(path, table: DielectricTable) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", "eps_re", "eps_im"])
        for wl, eps in zip(table.wavelengths_nm, table.eps):
            writer.writerow([f"{wl:g}", f"{eps.real:g}", f"{eps.imag:g}"])
