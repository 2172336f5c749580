"""Configuration-driven experiment runner.

Subcommands:
  simulate  run a teleportation campaign through a configured noise channel
  analyze   reproduce count-derived statistics from bundled or user tables
  design    resonance wavelengths and plasmon wavevectors for a geometry sweep

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import counts as counts_mod
from . import output, protocol, tomo
from .qcore import complex_matrix_to_json, expectation


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "simulate"
    seed: int = 0
    out_dir: Path = Path("results")
    # channel
    calibration: str = "none"  # none | with_spp | without_spp
    werner_visibility: float = 1.0
    transmittance: float = 1.0
    depolarizing_extra: float = 0.0
    contrast_x: float | None = None
    contrast_z: float | None = None
    # simulate
    inputs: tuple = field(default_factory=lambda: protocol.INPUT_LABELS)
    shots: int = 10_000
    # tomography
    max_likelihood: bool = False
    cp_projection: bool = False
    mc_trials: int = 1000
    # analyze
    counts_source: str = "bundled"
    # design
    dielectric: str = "bundled"
    period_nm: float = 700.0
    hole_diameter_nm: float = 200.0
    eps_substrate: float = 2.25
    modes: tuple = ((1, 1), (1, 0))
    period_sweep: tuple | None = None  # (start, stop, step)

    def validate(self):
        if self.mode not in ("simulate", "analyze", "design"):
            raise ConfigError(f"mode must be simulate|analyze|design, got {self.mode!r}")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.mc_trials < 100:
            raise ConfigError("mc_trials must be >= 100")
        if self.calibration not in ("none", "with_spp", "without_spp"):
            raise ConfigError(f"unknown calibration {self.calibration!r}")
        if not self.inputs or not set(self.inputs) <= set(protocol.INPUT_LABELS):
            raise ConfigError(f"inputs must be labels from {protocol.INPUT_LABELS}, got {list(self.inputs)}")
        if len(set(self.inputs)) < len(self.inputs):
            raise ConfigError(f"inputs must not repeat a label, got {list(self.inputs)}")

    def build_channel(self) -> channel_mod.ChannelModel:
        try:
            if self.calibration != "none":
                return channel_mod.calibrated_channel(with_spp=self.calibration == "with_spp")
            eom = None
            if self.contrast_x is not None or self.contrast_z is not None:
                eom = channel_mod.EomModel(
                    contrast_x=self.contrast_x if self.contrast_x is not None else 77.5,
                    contrast_z=self.contrast_z if self.contrast_z is not None else 29.7,
                )
            return channel_mod.ChannelModel(
                werner_visibility=self.werner_visibility,
                transmittance=self.transmittance,
                eom=eom,
                depolarizing_extra=self.depolarizing_extra,
            )
        except channel_mod.ChannelParameterError as exc:
            raise ConfigError(str(exc)) from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_modes(text: str) -> tuple:
    modes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            m1, m2 = (int(x) for x in part.split(","))
        except ValueError:
            raise ConfigError(f"bad mode spec {part!r}, expected 'm1,m2'") from None
        modes.append((m1, m2))
    if not modes:
        raise ConfigError("empty mode list")
    return tuple(modes)


def _parse_sweep(text: str) -> tuple | None:
    if not text.strip():
        return None
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError("expected 'start:stop:step'") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("needs finite numbers")
    if step <= 0 or stop < start:
        raise ConfigError("needs step > 0 and stop >= start")
    return (start, stop, step)


# Every key a config may hold, with the section getter that parses it. A key
# names its RunConfig field, except where _FIELD_NAMES says otherwise.
_CONFIG_KEYS = {
    "run": {"mode": "get", "seed": "getint", "out": "getpath"},
    "channel": {"calibration": "get", "werner_visibility": "getfloat", "transmittance": "getfloat",
                "depolarizing_extra": "getfloat", "contrast_x": "getfloat", "contrast_z": "getfloat"},
    "simulate": {"inputs": "getinputs", "shots": "getint"},
    "tomography": {"max_likelihood": "getboolean", "cp_projection": "getboolean", "mc_trials": "getint"},
    "analyze": {"counts": "get"},
    "design": {"dielectric": "get", "period_nm": "getfloat", "hole_diameter_nm": "getfloat",
               "eps_substrate": "getfloat", "modes": "getmodes", "period_sweep": "getsweep"},
}
_FIELD_NAMES = {"out": "out_dir", "counts": "counts_source"}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"),
        converters={"float": _finite_float, "path": Path, "modes": _parse_modes, "sweep": _parse_sweep,
                    "inputs": lambda text: tuple(s.strip() for s in text.split(",") if s.strip())},
    )
    cfg = RunConfig()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.defaults():
            raise ConfigError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser.options(section):
                if key not in _CONFIG_KEYS[section]:
                    raise ConfigError(f"unknown config key {key!r} in [{section}]")
                try:
                    value = getattr(parser[section], _CONFIG_KEYS[section][key])(key)
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
                setattr(cfg, _FIELD_NAMES.get(key, key), value)
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig) -> None:
    ch = cfg.build_channel()
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    campaign = protocol.Campaign.run(ch, cfg.inputs, cfg.shots, cfg.seed, cfg.max_likelihood)

    targets = np.array([protocol.prepare_input(label).amplitudes for label in cfg.inputs])
    fid_qst = expectation(campaign.estimates, targets[:, None]).real
    estimated = campaign.estimated
    mean_exact = float(np.mean(campaign.fidelities))
    branches = [(label, outcome) for label in cfg.inputs for outcome in protocol.OUTCOMES]
    output.write_json(out / "records.json", [
        {"input": label, "outcome": outcome.label, "port": outcome.port, "shots": n, "density_matrix": rho,
         "fidelity": f}
        for (label, outcome), n, rho, f in zip(branches, campaign.shots.ravel().tolist(),
                                               complex_matrix_to_json(campaign.states.reshape(-1, 2, 2)),
                                               campaign.fidelities.ravel().tolist())
    ])
    # a branch with too few shots for every basis has no estimate
    output.write_json(out / "tomography.json", [
        {"input": label, "outcome": outcome.label, "density_matrix": rho if ok else None,
         "fidelity": f if ok else None}
        for (label, outcome), ok, rho, f in zip(branches, estimated.ravel().tolist(),
                                                complex_matrix_to_json(campaign.estimates.reshape(-1, 2, 2)),
                                                fid_qst.ravel().tolist())
    ])

    output.write_rows(out / "fidelity_table.csv", [
        ["outcome", *cfg.inputs],
        *([o.label, *campaign.fidelities[:, k].tolist()] for k, o in enumerate(protocol.OUTCOMES)),
        ["mean", mean_exact],
    ])

    # process tomography over the reconstructed outputs, uniform outcome weighting
    f_proc = None
    if set(tomo.QPT_INPUT_LABELS) <= set(cfg.inputs):
        try:
            chi = campaign.process_matrix(cfg.cp_projection)
        except protocol.NoEstimateError as exc:
            print(f"warning: no process tomography: {exc}", file=sys.stderr)
        else:
            f_proc = tomo.process_fidelity(chi, tomo.chi_identity())
            bmap = tomo.bloch_map_of(chi)
            output.write_json(out / "chi.json", {
                "chi": complex_matrix_to_json(chi.chi),
                "process_fidelity": f_proc,
                "bloch_map": {
                    "linear": [[float(v) for v in row] for row in bmap.linear],
                    "offset": [float(v) for v in bmap.offset],
                },
            })
            names = ("in_x", "in_y", "in_z", "out_x", "out_y", "out_z")
            samples = np.hstack(tomo.bloch_sphere_samples(bmap))
            output.write_table(dict(zip(names, samples.T.tolist())), out / "bloch_map_samples.csv")

    budget = channel_mod.BUDGET_WITH_SPP if cfg.calibration == "with_spp" else channel_mod.BUDGET_WITHOUT_SPP
    summary = {
        "channel": {
            "calibration": cfg.calibration,
            "werner_visibility": ch.werner_visibility,
            "transmittance": ch.transmittance,
            "depolarizing_extra": ch.depolarizing_extra,
            "contrast_x": ch.eom.contrast_x if ch.eom else None,
            "contrast_z": ch.eom.contrast_z if ch.eom else None,
        },
        "budget": {
            "components": {k: getattr(budget, k) for k in
                           ("f_source", "f_bsm", "f_spp", "f_eom_x", "f_eom_z", "f_oe")},
            "total_without_spp": channel_mod.fidelity_budget_total(
                channel_mod.BUDGET_WITHOUT_SPP, with_spp=False),
            "total_with_spp": channel_mod.fidelity_budget_total(
                channel_mod.BUDGET_WITH_SPP, with_spp=True),
        },
        "mean_fidelity_exact": mean_exact,
        "mean_fidelity_qst": float(np.mean(fid_qst[estimated])) if estimated.any() else None,
        "process_fidelity": f_proc,
        "seed": cfg.seed,
        "shots": cfg.shots,
    }
    output.write_json(out / "summary.json", summary)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(cfg: RunConfig) -> None:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    blocks = ("without_spp", "with_spp")
    path = counts_mod.bundled_counts_path() if cfg.counts_source == "bundled" else cfg.counts_source
    tables = counts_mod.CountsFile(path, [(kind, block) for kind in ("chsh", "fidelity") for block in blocks])
    stats = []

    chsh_payload = {}
    for block in blocks:
        table = tables.table("chsh", block)
        s = counts_mod.chsh_s(table)
        _, std = tomo.monte_carlo_errors(counts_mod.chsh_counts(table), counts_mod.chsh_s_values,
                                         trials=cfg.mc_trials, seed=cfg.seed)
        chsh_payload[block] = {"S": s, "std": std,
                              "sigma_vs_local_bound": counts_mod.sigma_violation(s, 2.0, std)}
        stats.append({"statistic": f"chsh_s_{block}", "value": s, "std": std,
                      "sigma_vs_bound": counts_mod.sigma_violation(s, 2.0, std)})
    output.write_json(out / "chsh.json", chsh_payload)

    for block in blocks:
        table = tables.table("fidelity", block)
        result = counts_mod.fidelity_table(table, mc_trials=cfg.mc_trials, seed=cfg.seed)
        output.write_rows(out / f"fidelity_{block}.csv", [
            ["outcome", *result.inputs],
            *([outcome, *row] for outcome, row in zip(result.outcomes, result.fidelities.tolist())),
            ["mean", result.mean],
            ["mean_std", result.mean_std],
        ])
        stats.append({
            "statistic": f"mean_fidelity_{block}",
            "value": result.mean,
            "std": result.mean_std,
            "sigma_vs_bound": counts_mod.sigma_violation(
                result.mean, counts_mod.CLASSICAL_STATE_FIDELITY_BOUND, result.mean_std),
        })
    output.write_json(out / "summary.json", stats)


# ---------------------------------------------------------------------------
# design


def cmd_design(cfg: RunConfig) -> None:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if cfg.dielectric == "bundled":
        table = channel_mod.gold_dielectric_table()
    else:
        path = Path(cfg.dielectric)
        if not path.exists():
            raise channel_mod.ChannelParameterError(f"dielectric table {path} not found")
        table = channel_mod.load_dielectric_table(path)

    if cfg.period_sweep:
        start, stop, step = cfg.period_sweep
        periods = np.arange(start, stop + step / 2, step)
    else:
        periods = np.array([cfg.period_nm])

    # one array solve per mode; row i * n_modes + j is period i, mode j
    n_modes = len(cfg.modes)
    lam = np.empty((len(periods), n_modes))
    k_spp = np.empty((len(periods), n_modes, 2))
    for j, mode in enumerate(cfg.modes):
        geom = channel_mod.HoleArrayGeometry(periods, cfg.hole_diameter_nm, mode, cfg.eps_substrate, metal=table)
        lam[:, j] = channel_mod.resonance_wavelength(geom, interface="substrate")
        k_spp[:, j] = channel_mod.dispersion_match(geom, (0.0, 0.0))
    k_spp = k_spp.reshape(-1, 2)
    # row-wise dot products, the same BLAS dot np.linalg.norm takes for one row
    k_mag = np.sqrt(k_spp[:, None, :] @ k_spp[:, :, None])[:, 0, 0]
    columns = {
        "period_nm": np.repeat(periods, n_modes).tolist(),
        "m1": [m1 for m1, _ in cfg.modes] * len(periods),
        "m2": [m2 for _, m2 in cfg.modes] * len(periods),
        "resonance_nm": lam.ravel().tolist(),
        "k_spp_x": k_spp[:, 0].tolist(),
        "k_spp_y": k_spp[:, 1].tolist(),
        "k_spp_mag": k_mag.tolist(),
    }
    output.write_table(columns, out / "design.csv", out / "design.json")


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spp-teleport", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "analyze", "design"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg.mode = args.command
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.mode == "simulate":
            cmd_simulate(cfg)
        elif cfg.mode == "analyze":
            cmd_analyze(cfg)
        else:
            cmd_design(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (counts_mod.CountsDataError, channel_mod.ChannelParameterError,
            channel_mod.ResonanceSolveError, tomo.TomographyError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
