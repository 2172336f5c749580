"""Physical models of the plasmonic link.

Covers the white-noise (Werner) weight of the entangled source, heralded
loss, the hole-array resonance and momentum-matching calculators, and the
multiplicative fidelity budget used to account for the measured
teleportation fidelities.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import output
from .qcore import MixedState, bloch_of, state_from_bloch


@dataclass(frozen=True)
class ChannelModel:
    """Noise parameters of the photon-plasmon-photon link.

    werner_visibility is the singlet weight of the source state; depolarizing_extra adds white
    noise on the teleported qubit beyond the source term; transmittance is the heralded survival
    probability and never changes the post-selected state. contrast_x and contrast_z are the intensity
    extinction ratios of the EOMs that apply the X and Z flips; None is a flip that never fails.
    cli.CONFIG_KEYS checks a config's values.
    """

    werner_visibility: float = 1.0
    transmittance: float = 1.0
    depolarizing_extra: float = 0.0
    contrast_x: float | None = None
    contrast_z: float | None = None

    def flip_error(self, label: str) -> float:
        """Probability 1/(1 + contrast) that the "X" or "Z" flip fails and leaves the state untouched."""
        contrast = self.contrast_x if label == "X" else self.contrast_z
        return 0.0 if contrast is None else 1.0 / (1.0 + contrast)

    @property
    def bloch_shrink(self) -> float:
        """Combined depolarizing weight acting on the teleported qubit."""
        return self.werner_visibility * (1.0 - self.depolarizing_extra)


def apply_channel(rho: MixedState, model: ChannelModel) -> tuple[MixedState, float]:
    """Depolarize a single-qubit state: the Pauli transfer matrix
    diag(1, w, w, w), w = model.bloch_shrink, shrinks its Bloch vector by w.

    Returns the post-selected (heralded) state and the survival probability.
    """
    return state_from_bloch(model.bloch_shrink * bloch_of(rho)), model.transmittance


# ---------------------------------------------------------------------------
# hole-array geometry, dispersion, resonance


class DielectricTable:
    """Re(eps) of a tabulated metal dielectric function, linear interpolation in wavelength; its
    callers look up only wavelengths inside the table's range."""

    def __init__(self, wavelengths_nm, eps_re):
        wl = np.asarray(wavelengths_nm, dtype=float)
        eps_re = np.asarray(eps_re, dtype=float)
        if wl.size < 2 or wl.size != eps_re.size:
            raise output.DataError("dielectric table needs >= 2 matching rows")
        order = np.argsort(wl)
        self.wavelengths_nm = wl[order]
        self.eps_re = eps_re[order]
        self.wavelengths_nm.flags.writeable = self.eps_re.flags.writeable = False

    def __call__(self, wavelength_nm):
        """Interpolated Re(eps) at a wavelength or an array of them."""
        return np.interp(wavelength_nm, self.wavelengths_nm, self.eps_re)


_PLAIN_NUMBER = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"


def load_dielectric_table(path) -> DielectricTable:
    """Read a CSV with header wavelength_nm, eps_re, eps_im, all finite plain ASCII numbers (an optional sign,
    digits with an optional point, an optional exponent) and wavelengths positive; keeps eps_re only."""
    eps_re = {}  # by wavelength, in file order
    columns = ("wavelength_nm", "eps_re", "eps_im")
    for where, row in output.read_csv(path, columns, "dielectric CSV", "dielectric CSV line {}"):
        try:
            w, real, imag = map(float, row)
        except (TypeError, ValueError):
            raise output.DataError(f"{where}: non-numeric value") from None
        if not all(map(math.isfinite, (w, real, imag))):
            raise output.DataError(f"{where}: non-finite value")
        # float() also takes "5_00", " 550" and "５５０"
        if bad := [text for text in row if not re.fullmatch(_PLAIN_NUMBER, text)]:
            raise output.DataError(f"{where}: {bad[0]!r} is not a plain ASCII number")
        if w <= 0:
            raise output.DataError(f"{where}: wavelength {w:g} nm is not positive")
        if w in eps_re:
            raise output.DataError(f"{where}: repeated wavelength {w:g} nm")
        eps_re[w] = real
    return DielectricTable(list(eps_re), list(eps_re.values()))


@functools.cache
def gold_dielectric_table() -> DielectricTable:
    """Bundled tabulated dielectric data for evaporated gold (visible/NIR),
    read once per process; its arrays are read-only."""
    path = resources.files("spp_teleport.data") / "gold_dielectric.csv"
    return load_dielectric_table(path)


def resonance_wavelength(period_nm, mode, eps_substrate: float, metal: DielectricTable) -> np.ndarray:
    """Resonance wavelength of the (m1, m2) mode of a square hole array in `metal` on a substrate of
    permittivity eps_d = `eps_substrate`, lit at normal incidence: the root of h = s sqrt(f) - lambda,
    s = P/|m|, f = eps_d eps_m / (eps_d + eps_m), eps_m read from the table. `period_nm` is a 1-D array
    of periods and `mode` one (m1, m2) pair or an (n, 2) integer array of one mode per period;
    cli.CONFIG_KEYS checks the periods and modes a config gives.

    A surface plasmon is bound only where Re eps_m < -eps_d, that is f > eps_d (Raether, Surface Plasmons,
    1988), so h is +inf elsewhere. One array pass solves all periods and returns one wavelength per period.
    Each takes the first table segment on whose nodes h goes from + to -. There eps_m is linear, so safeguarded
    Newton steps solve the squared condition, the cubic lambda^2 (eps_d + eps_m) - s^2 eps_d eps_m = 0, where
    the mode is bound, each period stopping at its own step. The root gives s sqrt(f); a period without such a
    segment, or whose root misses f > eps_d or h = 0, raises. The returned lambda lies within 1e-9 relative of
    the root, and h(lambda) itself can be large beside a pole."""
    eps_d, wl, eps = eps_substrate, metal.wavelengths_nm, metal.eps_re
    mode = np.asarray(mode).reshape(-1, 2)  # |m| by math.hypot: np.hypot differs on some, such as (47, 28)
    scale = period_nm / np.frompyfunc(math.hypot, 2, 1)(mode[:, 0], mode[:, 1]).astype(float)
    with np.errstate(all="ignore"):
        f_node = eps_d * eps / (eps_d + eps)
        root_f = np.where(f_node > eps_d, np.sqrt(f_node), np.inf)  # h = s root_f - lambda at the nodes
        bracket = (scale >= (wl / root_f)[:-1, None]) & (scale <= (wl / root_f)[1:, None])  # h >= 0, then <= 0
        k = bracket.argmax(axis=0)  # each period's first bracket; bracket is (segment, period)
        node, hi, eps_lo, s2d = wl[k], wl[k + 1], eps[k], scale * scale * eps_d
        slope, h_lo, h_hi = (eps[k + 1] - eps_lo) / (hi - node), scale * root_f[k] - node, scale * root_f[k + 1] - hi
        lo = np.where(root_f[k] < np.inf, node, node - (eps_d + eps_lo) / slope)  # a bound node, or the pole
        x = np.fmin(np.fmax(node + (hi - node) * h_lo / (h_lo - h_hi), lo), hi)  # where h's chord crosses 0
        step, active = hi - lo, bracket.any(axis=0)  # active: the periods still stepping
        while active.any():
            eps_m = eps_lo + slope * (x - node)
            g = x * x * (eps_d + eps_m) - s2d * eps_m
            newton = x - g / (2 * x * (eps_d + eps_m) + slope * (x * x - s2d))
            lo, hi = np.where(g > 0, (x, hi), (lo, x))  # g > 0 at lo, a bound node or the pole
            take = (lo <= newton) & (newton <= hi) & (np.abs(newton - x) <= 0.5 * np.abs(step))  # or bisect
            nxt = np.where(active, np.where(take, newton, 0.5 * (lo + hi)), x)
            step, x = nxt - x, nxt
            active &= np.abs(step) > 1e-13 * np.abs(x)  # the next Newton step would be below rounding
        factor = eps_d * (eps_m := metal(x)) / (eps_d + eps_m)
        lam = scale * np.sqrt(factor)
    if not np.all(bracket.any(axis=0) & (factor > eps_d) & (np.abs(lam - x) <= 1e-9 * x)):
        raise output.DataError("degenerate dielectric/metal combination" if np.any(eps_d + eps == 0) else
                               "no bound surface mode for these dielectric constants" if np.all(f_node <= eps_d)
                               else f"no resonance inside [{wl[0]:.0f}, {wl[-1]:.0f}] nm")
    return lam


def dispersion_match(period_nm, mode) -> np.ndarray:
    """Momentum-matched plasmon wavevector m1 b1 + m2 b2 (rad/nm) at normal incidence, one row per
    period of the 1-D `period_nm`; `mode` as for resonance_wavelength."""
    g = 2.0 * math.pi / np.asarray(period_nm, dtype=float)
    return np.asarray(mode) * g[..., None]


# ---------------------------------------------------------------------------
# fidelity budget


# Measured component fidelities of the experiment, per configuration.
BUDGET_WITHOUT_SPP = {
    "f_source": 0.9834, "f_bsm": 0.9787, "f_spp": 0.9730,
    "f_eom_x": 0.9763, "f_eom_z": 0.9916, "f_oe": 0.9847,
}
BUDGET_WITH_SPP = {**BUDGET_WITHOUT_SPP, "f_eom_x": 0.9561, "f_eom_z": 0.9680}  # the plasmon degrades the EOMs

SPP_TRANSMITTANCE = 0.008

# Nominal extinction ratios of the two EOMs, as ChannelModel fields.
EOM_CONTRASTS = {"contrast_x": 77.5, "contrast_z": 29.7}


def fidelity_budget_total(with_spp: bool) -> float:
    """Product of the component fidelities of BUDGET_WITH_SPP or BUDGET_WITHOUT_SPP.

    Without the plasmonic element the f_spp factor is omitted.
    """
    b = BUDGET_WITH_SPP if with_spp else BUDGET_WITHOUT_SPP
    total = b["f_source"] * b["f_bsm"] * b["f_eom_x"] * b["f_eom_z"] * b["f_oe"]
    if with_spp:
        total *= b["f_spp"]
    return total


def _depol_weight(fidelity: float) -> float:
    # single-qubit depolarizing whose pure-state fidelity equals `fidelity`
    return 2.0 * fidelity - 1.0


def calibrated_channel(with_spp: bool) -> ChannelModel:
    """Channel model calibrated from the measured component fidelities.

    The source enters as the Werner singlet weight. BSM and other-optics
    imperfections (plus the plasmonic element when present) enter as
    depolarizing terms with matching pure-state fidelity. The EOMs keep
    their nominal extinction ratios (EOM_CONTRASTS); with the plasmon
    the distorted beam degrades their effective contrast, which is accounted
    for by the ratio of the with/without component fidelities as extra white
    noise.
    """
    shrink = _depol_weight(BUDGET_WITH_SPP["f_bsm"]) * _depol_weight(BUDGET_WITH_SPP["f_oe"])
    if with_spp:
        shrink *= _depol_weight(BUDGET_WITH_SPP["f_spp"])
        shrink *= _depol_weight(BUDGET_WITH_SPP["f_eom_x"] / BUDGET_WITHOUT_SPP["f_eom_x"])
        shrink *= _depol_weight(BUDGET_WITH_SPP["f_eom_z"] / BUDGET_WITHOUT_SPP["f_eom_z"])
    return ChannelModel(
        werner_visibility=BUDGET_WITH_SPP["f_source"],
        transmittance=SPP_TRANSMITTANCE if with_spp else 1.0,
        depolarizing_extra=1.0 - shrink,
        **EOM_CONTRASTS,
    )

