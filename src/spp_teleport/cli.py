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
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import counts as counts_mod
from . import protocol, tomo
from .qcore import MixedState, complex_matrix_to_json


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
        raise ConfigError("period_sweep must be 'start:stop:step'") from None
    if step <= 0 or stop < start:
        raise ConfigError("period_sweep needs step > 0 and stop >= start")
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
        converters={"path": Path, "modes": _parse_modes, "sweep": _parse_sweep,
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
                value = getattr(parser[section], _CONFIG_KEYS[section][key])(key)
                setattr(cfg, _FIELD_NAMES.get(key, key), value)
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc
    return cfg


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _fmt(v: float) -> str:
    return f"{v:.12g}"


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig) -> None:
    ch = cfg.build_channel()
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # 5 deterministic sub-seeds per input: one teleportation run + 4 QST runs
    seeds = np.random.SeedSequence(cfg.seed).generate_state(len(cfg.inputs) * 5)

    records_payload = []
    tomo_payload = []
    fid_exact = {}
    fid_qst = {}
    recons: dict[str, list[MixedState]] = {}
    for i, label in enumerate(cfg.inputs):
        target = protocol.prepare_input(label)
        recs = protocol.run_teleportation(label, ch, cfg.shots, seed=int(seeds[5 * i]))
        recons[label] = []
        for rec, sub in zip(recs, seeds[5 * i + 1:5 * i + 5]):
            records_payload.append(
                {
                    "input": rec.input,
                    "outcome": rec.outcome.label,
                    "port": rec.port,
                    "shots": rec.shots,
                    "density_matrix": complex_matrix_to_json(rec.state.matrix),
                    "fidelity": rec.fidelity,
                }
            )
            fid_exact[(label, rec.outcome.label)] = rec.fidelity
            per_basis = max(1, rec.shots // len(tomo.BASES))
            measured = tomo.sample_measurements(rec.state, per_basis, seed=int(sub))
            rho_hat = tomo.qst_reconstruct(measured, max_likelihood=cfg.max_likelihood)
            recons[label].append(rho_hat)
            f_hat = float(np.vdot(target.amplitudes, rho_hat.matrix @ target.amplitudes).real)
            fid_qst[(label, rec.outcome.label)] = f_hat
            tomo_payload.append(
                {
                    "input": rec.input,
                    "outcome": rec.outcome.label,
                    "density_matrix": complex_matrix_to_json(rho_hat.matrix),
                    "fidelity": f_hat,
                }
            )
    _write_json(out / "records.json", records_payload)
    _write_json(out / "tomography.json", tomo_payload)

    with open(out / "fidelity_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["outcome"] + list(cfg.inputs))
        for outcome in protocol.OUTCOMES:
            writer.writerow(
                [outcome.label] + [_fmt(fid_exact[(l, outcome.label)]) for l in cfg.inputs]
            )
        mean = float(np.mean(list(fid_exact.values())))
        writer.writerow(["mean", _fmt(mean)])

    # process tomography over the reconstructed outputs, uniform outcome weighting
    chi_payload = {}
    if all(l in cfg.inputs for l in tomo.QPT_INPUT_LABELS):
        pairs = []
        for label in tomo.QPT_INPUT_LABELS:
            rho_in = protocol.prepare_input(label).projector()
            avg = np.mean([r.matrix for r in recons[label]], axis=0)
            pairs.append((rho_in, MixedState(avg)))
        chi = tomo.qpt_reconstruct(pairs, cp_projection=cfg.cp_projection)
        f_proc = tomo.process_fidelity(chi, tomo.chi_identity())
        bmap = tomo.bloch_map_of(chi)
        chi_payload = {
            "chi": complex_matrix_to_json(chi.chi),
            "process_fidelity": f_proc,
            "bloch_map": {
                "linear": [[float(v) for v in row] for row in bmap.linear],
                "offset": [float(v) for v in bmap.offset],
            },
        }
        _write_json(out / "chi.json", chi_payload)
        with open(out / "bloch_map_samples.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["in_x", "in_y", "in_z", "out_x", "out_y", "out_z"])
            for src, img in tomo.bloch_sphere_samples(bmap):
                writer.writerow([_fmt(v) for v in (*src.as_array(), *img)])

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
        "mean_fidelity_exact": float(np.mean(list(fid_exact.values()))),
        "mean_fidelity_qst": float(np.mean(list(fid_qst.values()))),
        "process_fidelity": chi_payload.get("process_fidelity"),
        "seed": cfg.seed,
        "shots": cfg.shots,
    }
    _write_json(out / "summary.json", summary)


# ---------------------------------------------------------------------------
# analyze


def _load_counts(cfg: RunConfig, kind: str, block: str) -> counts_mod.CountsTable:
    if cfg.counts_source == "bundled":
        return counts_mod.load_bundled(kind, block)
    return counts_mod.load_counts_csv(cfg.counts_source, kind, block)


def cmd_analyze(cfg: RunConfig) -> None:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    stats = []

    chsh_payload = {}
    for block in ("without_spp", "with_spp"):
        table = _load_counts(cfg, "chsh", block)
        s = counts_mod.chsh_s(table)
        _, std = tomo.monte_carlo_errors(counts_mod.chsh_counts(table), counts_mod.chsh_s_values,
                                         trials=cfg.mc_trials, seed=cfg.seed)
        chsh_payload[block] = {"S": s, "std": std,
                              "sigma_vs_local_bound": counts_mod.sigma_violation(s, 2.0, std)}
        stats.append({"statistic": f"chsh_s_{block}", "value": s, "std": std,
                      "sigma_vs_bound": counts_mod.sigma_violation(s, 2.0, std)})
    _write_json(out / "chsh.json", chsh_payload)

    for block in ("without_spp", "with_spp"):
        table = _load_counts(cfg, "fidelity", block)
        result = counts_mod.fidelity_table(table, mc_trials=cfg.mc_trials, seed=cfg.seed)
        with open(out / f"fidelity_{block}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["outcome"] + list(result.inputs))
            for i, outcome in enumerate(result.outcomes):
                writer.writerow([outcome] + [_fmt(v) for v in result.fidelities[i]])
            writer.writerow(["mean", _fmt(result.mean)])
            writer.writerow(["mean_std", _fmt(result.mean_std)])
        stats.append({
            "statistic": f"mean_fidelity_{block}",
            "value": result.mean,
            "std": result.mean_std,
            "sigma_vs_bound": counts_mod.sigma_violation(
                result.mean, counts_mod.CLASSICAL_STATE_FIDELITY_BOUND, result.mean_std),
        })
    _write_json(out / "summary.json", stats)


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

    # one array solve per mode, then rows in period-major order
    columns = []
    for mode in cfg.modes:
        geom = channel_mod.HoleArrayGeometry(periods, cfg.hole_diameter_nm, mode, cfg.eps_substrate, metal=table)
        lam = channel_mod.resonance_wavelength(geom, interface="substrate")
        k_spp = channel_mod.dispersion_match(geom, (0.0, 0.0))
        # row-wise dot products, the same BLAS dot np.linalg.norm takes for one row
        k_mag = np.sqrt(k_spp[:, None, :] @ k_spp[:, :, None])[:, 0, 0]
        columns.append((mode, lam.tolist(), k_spp.tolist(), k_mag.tolist()))
    rows = [
        {"period_nm": period, "m1": mode[0], "m2": mode[1], "resonance_nm": lam[i],
         "k_spp_x": k_spp[i][0], "k_spp_y": k_spp[i][1], "k_spp_mag": k_mag[i]}
        for i, period in enumerate(periods.tolist()) for mode, lam, k_spp, k_mag in columns
    ]
    with open(out / "design.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (_fmt(v) if isinstance(v, float) else v) for k, v in row.items()})
    _write_json(out / "design.json", rows)


# ---------------------------------------------------------------------------


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
