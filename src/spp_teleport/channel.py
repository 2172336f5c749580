"""Physical models of the plasmonic link.

Covers the white-noise (Werner) weight of the entangled source, heralded
loss, the hole-array resonance and momentum-matching calculators, and the
multiplicative fidelity budget used to account for the measured
teleportation fidelities.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .qcore import MixedState, bloch_of, state_from_bloch


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

    @property
    def bloch_shrink(self) -> float:
        """Combined depolarizing weight acting on the teleported qubit."""
        return self.werner_visibility * (1.0 - self.depolarizing_extra)


def apply_channel(rho: MixedState, model: ChannelModel) -> tuple[MixedState, float]:
    """Depolarize a single-qubit state: the Pauli transfer matrix
    diag(1, w, w, w), w = model.bloch_shrink, shrinks its Bloch vector by w.

    Returns the post-selected (heralded) state and the survival probability.
    """
    if rho.dim != 2:
        raise ChannelParameterError("apply_channel acts on single-qubit states")
    return state_from_bloch(model.bloch_shrink * bloch_of(rho)), model.transmittance


# ---------------------------------------------------------------------------
# hole-array geometry, dispersion, resonance


class DielectricTable:
    """Re(eps) of a tabulated metal dielectric function, linear interpolation in wavelength."""

    def __init__(self, wavelengths_nm, eps_re):
        wl = np.asarray(wavelengths_nm, dtype=float)
        eps_re = np.asarray(eps_re, dtype=float)
        if wl.size < 2 or wl.size != eps_re.size:
            raise ChannelParameterError("dielectric table needs >= 2 matching rows")
        order = np.argsort(wl)
        self.wavelengths_nm = wl[order]
        self.eps_re = eps_re[order]
        self.wavelengths_nm.flags.writeable = self.eps_re.flags.writeable = False
        self.wl_min, self.wl_max = float(self.wavelengths_nm[0]), float(self.wavelengths_nm[-1])

    def __call__(self, wavelength_nm):
        """Interpolated Re(eps): a float for a scalar, a float array for an array."""
        wl = np.asarray(wavelength_nm, dtype=float)
        outside = ~((self.wl_min <= wl) & (wl <= self.wl_max))
        if outside.any():
            raise ResonanceSolveError(
                f"wavelength {wl[outside][0]:.6g} nm outside table range "
                f"[{self.wl_min:.0f}, {self.wl_max:.0f}]"
            )
        re = np.interp(wl, self.wavelengths_nm, self.eps_re)
        return float(re) if wl.ndim == 0 else re


def load_dielectric_table(path) -> DielectricTable:
    """Read a CSV with header wavelength_nm, eps_re, eps_im, all finite; keeps eps_re only."""
    eps_re = {}  # by wavelength, in file order
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
            if w in eps_re:
                raise ChannelParameterError(f"{where}: repeated wavelength {w:g} nm")
            eps_re[w] = re
    return DielectricTable(list(eps_re), list(eps_re.values()))


@functools.cache
def gold_dielectric_table() -> DielectricTable:
    """Bundled tabulated dielectric data for evaporated gold (visible/NIR),
    read once per process; its arrays are read-only."""
    path = resources.files("spp_teleport.data") / "gold_dielectric.csv"
    return load_dielectric_table(path)


@dataclass(frozen=True)
class HoleArrayGeometry:
    """Square hole array in `metal` on a substrate of permittivity `eps_substrate`, lit at normal
    incidence; `period_nm` is one period or a 1-D array of periods, and `mode` one
    (m1, m2) pair or an (n, 2) integer array of one mode per period."""

    period_nm: float | np.ndarray
    hole_diameter_nm: float
    mode: tuple[int, int] | np.ndarray
    eps_substrate: float
    metal: DielectricTable

    def __post_init__(self):
        period = np.asarray(self.period_nm, dtype=float)
        if period.ndim > 1 or not (np.all(period > self.hole_diameter_nm) and self.hole_diameter_nm > 0):
            raise ChannelParameterError("need period > hole diameter > 0")
        mode = np.asarray(self.mode)
        if mode.dtype.kind not in "iu" or mode.shape not in ((2,), (*period.shape, 2)):
            raise ChannelParameterError("mode must be an integer pair, or one integer pair per period")
        if not mode.any(axis=-1).all():
            raise ChannelParameterError("mode (0, 0) does not excite a plasmon")


RESONANCE_TOL_NM = 1e-6
RESONANCE_MAX_ITER = 500


def resonance_wavelength(geom: HoleArrayGeometry) -> float | np.ndarray:
    """Self-consistent resonance wavelength of the (m1, m2) mode at the
    metal-substrate interface.

    The wavelength enters both sides through the metal dielectric function,
    so lambda = P/|m| sqrt(eps_d eps_m / (eps_d + eps_m)) is solved by
    fixed-point iteration over the table, for all periods (each with its own
    mode, if the geometry has one per period) at once: each stops at its own
    first step that moves less than RESONANCE_TOL_NM, and a period still
    moving after RESONANCE_MAX_ITER steps raises ResonanceSolveError.
    Returns a float for a scalar period and an array for an array of periods."""
    eps_d, table = geom.eps_substrate, geom.metal
    mode = np.asarray(geom.mode).reshape(-1, 2)  # |m| by math.hypot: np.hypot differs on some, such as (47, 28)
    scale = np.atleast_1d(geom.period_nm) / np.frompyfunc(math.hypot, 2, 1)(mode[:, 0], mode[:, 1]).astype(float)
    lam = np.full(scale.shape, 0.5 * (table.wl_min + table.wl_max))
    active = np.arange(lam.size)  # periods still iterating
    for _ in range(RESONANCE_MAX_ITER):
        eps_m = table(lam[active])
        denom = eps_d + eps_m
        if np.any(denom == 0):
            raise ResonanceSolveError("degenerate dielectric/metal combination")
        with np.errstate(over="ignore"):  # an infinite factor leaves the table on the next step
            factor = eps_d * eps_m / denom
        if np.any(factor < 0):
            raise ResonanceSolveError("no bound surface mode for these dielectric constants")
        nxt = scale[active] * np.sqrt(factor)
        done = np.abs(nxt - lam[active]) < RESONANCE_TOL_NM
        lam[active] = nxt
        active = active[~done]
        if active.size == 0:
            return lam if np.ndim(geom.period_nm) else float(lam[0])
    raise ResonanceSolveError(f"no fixed point after {RESONANCE_MAX_ITER} iterations (last {lam[active[0]]:.1f} nm)")


def dispersion_match(geom: HoleArrayGeometry) -> np.ndarray:
    """Momentum-matched plasmon wavevector m1 b1 + m2 b2 (rad/nm) at normal
    incidence, one row per period."""
    g = 2.0 * math.pi / np.asarray(geom.period_nm, dtype=float)
    return np.asarray(geom.mode) * g[..., None]


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


def calibrated_channel(with_spp: bool) -> ChannelModel:
    """Channel model calibrated from the measured component fidelities.

    The source enters as the Werner singlet weight. BSM and other-optics
    imperfections (plus the plasmonic element when present) enter as
    depolarizing terms with matching pure-state fidelity. The EOMs keep
    their nominal extinction ratios (EomModel's defaults); with the plasmon
    the distorted beam degrades their effective contrast, which is accounted
    for by the ratio of the with/without component fidelities as extra white
    noise.
    """
    shrink = _depol_weight(BUDGET_WITH_SPP.f_bsm) * _depol_weight(BUDGET_WITH_SPP.f_oe)
    if with_spp:
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_spp)
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_eom_x / BUDGET_WITHOUT_SPP.f_eom_x)
        shrink *= _depol_weight(BUDGET_WITH_SPP.f_eom_z / BUDGET_WITHOUT_SPP.f_eom_z)
    return ChannelModel(
        werner_visibility=BUDGET_WITH_SPP.f_source,
        transmittance=SPP_TRANSMITTANCE if with_spp else 1.0,
        eom=EomModel(),
        depolarizing_extra=1.0 - shrink,
    )

