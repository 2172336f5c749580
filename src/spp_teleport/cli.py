"""Configuration-driven experiment runner.

Subcommands:
  simulate  run a teleportation campaign through a configured noise channel
  analyze   reproduce count-derived statistics from bundled or user tables
  design    resonance wavelengths and plasmon wavevectors for a geometry sweep

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import counts as counts_mod
from . import output, protocol, tomo
from .qcore import complex_matrix_to_json, expectation


class ConfigError(ValueError):
    pass


_INT64_MAX = 2**63 - 1  # shots and mode components are int64


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _boolean(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"Not a boolean: {text}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _parse_modes(text: str) -> tuple:
    modes = []
    for part in filter(None, (part.strip() for part in text.split(";"))):
        try:
            m1, m2 = (int(x) for x in part.split(","))
        except ValueError:
            raise ConfigError(f"bad mode spec {part!r}, expected 'm1,m2'") from None
        if not -2**63 <= min(m1, m2) <= max(m1, m2) <= _INT64_MAX:
            raise ConfigError(f"bad mode spec {part!r}, components must fit in int64")
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
    if not (stop + step / 2 - start) / step < 2**62:  # the length of the np.arange of cmd_design
        raise ConfigError("needs fewer than 2**62 periods")
    return (start, stop, step)


def _check_inputs(inputs) -> str | None:
    if not inputs or not set(inputs) <= set(protocol.INPUT_LABELS):
        return f"inputs must be labels from {protocol.INPUT_LABELS}, got {list(inputs)}"
    return f"inputs must not repeat a label, got {list(inputs)}" if len(set(inputs)) < len(inputs) else None


# A row of CONFIG_KEYS: parse maps the key's INI text to its value or raises ValueError; check returns what
# is wrong with a value, or None; overridden_by names the key that replaces this one away from its default.
_Key = collections.namedtuple("_Key", "section parse default check overridden_by", defaults=(None, None))

# Every key a config may hold, in the order validate checks them; a key's name is its RunConfig attribute.
# ChannelModel, EomModel and HoleArrayGeometry check the physics of the channel and design values.
CONFIG_KEYS = {
    "seed": _Key("run", int, 0, lambda seed: f"seed must be >= 0, got {seed}" if seed < 0 else None),
    "out": _Key("run", lambda text: Path(text) if text else None, Path("results"),  # Path("") would be "."
                lambda out: "out must name a directory, got an empty value" if out is None else None),
    "calibration": _Key("channel", str, "none", lambda name: None if name in ("none", "with_spp", "without_spp")
                        else f"unknown calibration {name!r}"),
    "werner_visibility": _Key("channel", _finite_float, 1.0, overridden_by="calibration"),
    "transmittance": _Key("channel", _finite_float, 1.0, overridden_by="calibration"),
    "depolarizing_extra": _Key("channel", _finite_float, 0.0, overridden_by="calibration"),
    "contrast_x": _Key("channel", _finite_float, None, overridden_by="calibration"),  # None: EomModel's default
    "contrast_z": _Key("channel", _finite_float, None, overridden_by="calibration"),
    "inputs": _Key("simulate", lambda text: tuple(s.strip() for s in text.split(",") if s.strip()),
                   protocol.INPUT_LABELS, _check_inputs),
    "shots": _Key("simulate", int, 10_000,
                  lambda n: None if 1 <= n <= _INT64_MAX else f"shots must be in [1, 2**63 - 1], got {n}"),
    "max_likelihood": _Key("tomography", _boolean, False),
    "cp_projection": _Key("tomography", _boolean, False),
    "mc_trials": _Key("tomography", int, 1000, lambda n: f"mc_trials must be >= 100, got {n}" if n < 100
                      else f"mc_trials must be <= 2**53, got {n}" if n > tomo.MAX_TRIALS else None),
    "counts": _Key("analyze", str, "bundled"),
    "dielectric": _Key("design", str, "bundled"),
    "period_nm": _Key("design", _finite_float, 700.0, overridden_by="period_sweep"),
    "hole_diameter_nm": _Key("design", _finite_float, 200.0),
    "eps_substrate": _Key("design", _finite_float, 2.25),
    "modes": _Key("design", _parse_modes, ((1, 1), (1, 0)),
                  lambda m: f"modes must not repeat a mode, got {list(m)}" if len(set(m)) < len(m) else None),
    "period_sweep": _Key("design", _parse_sweep, None),  # (start, stop, step)
}


class RunConfig:
    """The settings of one run: an attribute per CONFIG_KEYS entry, at its default unless given."""

    def __init__(self, **values):
        if not values.keys() <= CONFIG_KEYS.keys():
            raise TypeError(f"RunConfig() got unexpected keyword arguments {sorted(values.keys() - CONFIG_KEYS)}")
        vars(self).update({name: key.default for name, key in CONFIG_KEYS.items()}, **values)
        self.explicit = frozenset(values)  # the keys the caller or the config file set

    def validate(self):
        for name, key in CONFIG_KEYS.items():
            if key.check and (problem := key.check(getattr(self, name))):
                raise ConfigError(problem)
            over = key.overridden_by
            if over and name in self.explicit and getattr(self, over) != CONFIG_KEYS[over].default:
                raise ConfigError(f"[{key.section}] {name} is overridden by [{CONFIG_KEYS[over].section}] {over}")

    def build_channel(self) -> channel_mod.ChannelModel:
        try:
            if self.calibration != "none":
                return channel_mod.calibrated_channel(with_spp=self.calibration == "with_spp")
            # EomModel owns the default of a contrast the config leaves unset
            contrasts = {key: value for key, value in (("contrast_x", self.contrast_x), ("contrast_z", self.contrast_z))
                         if value is not None}
            return channel_mod.ChannelModel(
                werner_visibility=self.werner_visibility,
                transmittance=self.transmittance,
                eom=channel_mod.EomModel(**contrasts) if contrasts else None,
                depolarizing_extra=self.depolarizing_extra,
            )
        except channel_mod.ChannelParameterError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    values = {}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.defaults():
            raise ConfigError("unknown config section [DEFAULT]")
        for section in parser.sections():
            if section not in {key.section for key in CONFIG_KEYS.values()}:
                raise ConfigError(f"unknown config section [{section}]")
            for name in parser.options(section):
                if name not in CONFIG_KEYS or CONFIG_KEYS[name].section != section:
                    raise ConfigError(f"unknown config key {name!r} in [{section}]")
                try:
                    values[name] = CONFIG_KEYS[name].parse(parser.get(section, name))
                except ValueError as exc:
                    raise ConfigError(f"bad value for [{section}] {name}: {exc}") from exc
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig) -> None:
    ch = cfg.build_channel()
    campaign = protocol.Campaign.run(ch, cfg.inputs, cfg.shots, cfg.seed, cfg.max_likelihood)

    targets = np.array([protocol.prepare_input(label).amplitudes for label in cfg.inputs])
    fid_qst = expectation(campaign.estimates, targets[:, None]).real
    estimated = campaign.estimated
    mean_exact = float(np.mean(campaign.fidelities))
    # process tomography over the reconstructed outputs, uniform outcome weighting
    chi = f_proc = None
    if set(tomo.QPT_INPUT_LABELS) <= set(cfg.inputs):
        try:
            chi = campaign.process_matrix(cfg.cp_projection)
        except protocol.NoEstimateError as exc:
            print(f"warning: no process tomography: {exc}", file=sys.stderr)
        else:
            f_proc = tomo.process_fidelity(chi)
            ptm = tomo.bloch_map_of(chi)
            samples = np.hstack(tomo.bloch_sphere_samples(ptm))

    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    # one row per branch, input-major
    branches = {"input": [label for label in cfg.inputs for _ in protocol.OUTCOMES],
                "outcome": [outcome.label for outcome in protocol.OUTCOMES] * len(cfg.inputs)}
    output.write_json_rows(out / "records.json", {
        **branches,
        "port": [outcome.port for outcome in protocol.OUTCOMES] * len(cfg.inputs),
        "shots": campaign.shots.ravel().tolist(),
        "density_matrix": complex_matrix_to_json(campaign.states.reshape(-1, 2, 2)),
        "fidelity": campaign.fidelities.ravel().tolist(),
    })
    # a branch with too few shots for every basis has no estimate
    ok = estimated.ravel().tolist()
    output.write_json_rows(out / "tomography.json", {
        **branches,
        "density_matrix": [rho if has else None
                           for rho, has in zip(complex_matrix_to_json(campaign.estimates.reshape(-1, 2, 2)), ok)],
        "fidelity": [f if has else None for f, has in zip(fid_qst.ravel().tolist(), ok)],
    })

    output.write_rows(out / "fidelity_table.csv", [
        ["outcome", *cfg.inputs],
        *([o.label, *campaign.fidelities[:, k].tolist()] for k, o in enumerate(protocol.OUTCOMES)),
        ["mean", mean_exact],
    ])

    if chi is not None:
        output.write_json(out / "chi.json", {
            "chi": complex_matrix_to_json(chi.chi),
            "process_fidelity": f_proc,
            "bloch_map": {"linear": ptm[1:, 1:].tolist(), "offset": ptm[1:, 0].tolist()},
        })
        names = ("in_x", "in_y", "in_z", "out_x", "out_y", "out_z")
        output.write_table(dict(zip(names, samples.T)), out / "bloch_map_samples.csv")

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
    blocks = ("without_spp", "with_spp")
    path = counts_mod.bundled_counts_path() if cfg.counts == "bundled" else cfg.counts
    tables = counts_mod.CountsFile(path, [(kind, block) for kind in ("chsh", "fidelity") for block in blocks])
    values, parts = [], []  # of the four statistics, in use order
    for block in blocks:
        table = tables.table("chsh", block)
        values.append(counts_mod.chsh_s(table))
        parts.append(counts_mod.chsh_counts(table))
    fids = [counts_mod.fidelity_table(tables.table("fidelity", block)) for block in blocks]
    values += [result.mean for result in fids]
    parts += [result.counts for result in fids]
    # one Monte Carlo pass: each statistic reads its own slice of one resampled count vector
    edges = np.cumsum([0, *map(len, parts)])
    stats = [counts_mod.chsh_s_values] * len(blocks) + [counts_mod.mean_fidelity_values] * len(blocks)
    stds = tomo.monte_carlo_errors(
        np.concatenate(parts), lambda batch: np.stack(
            [f(batch[:, lo:hi]) for f, lo, hi in zip(stats, edges[:-1], edges[1:])], axis=1),
        trials=cfg.mc_trials, seed=cfg.seed)[1].tolist()
    names = [f"{kind}_{block}" for kind in ("chsh_s", "mean_fidelity") for block in blocks]
    for name, std in zip(names, stds):
        if std == 0:  # every resample gave the same value
            raise counts_mod.CountsDataError(f"{name}: Monte Carlo std is 0, so its sigma is undefined")
    sigmas = [counts_mod.sigma_violation(v, bound, std) for v, bound, std in
              zip(values, [2.0] * len(blocks) + [counts_mod.CLASSICAL_STATE_FIDELITY_BOUND] * len(blocks), stds)]

    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    output.write_json(out / "chsh.json", {block: {"S": v, "std": std, "sigma_vs_local_bound": sigma}
                                          for block, v, std, sigma in zip(blocks, values, stds, sigmas)})
    for block, result, std in zip(blocks, fids, stds[len(blocks):]):
        output.write_rows(out / f"fidelity_{block}.csv", [
            ["outcome", *result.inputs],
            *([outcome, *row] for outcome, row in zip(result.outcomes, result.fidelities.tolist())),
            ["mean", result.mean],
            ["mean_std", std],
        ])
    output.write_json(out / "summary.json", [{"statistic": name, "value": v, "std": std, "sigma_vs_bound": sigma}
                                             for name, v, std, sigma in zip(names, values, stds, sigmas)])


# ---------------------------------------------------------------------------
# design


def cmd_design(cfg: RunConfig) -> None:
    # a missing file is an OSError, as for analyze's counts
    table = (channel_mod.gold_dielectric_table() if cfg.dielectric == "bundled"
             else channel_mod.load_dielectric_table(cfg.dielectric))
    sweep = cfg.period_sweep  # (start, stop, step)
    periods = np.arange(sweep[0], sweep[1] + sweep[2] / 2, sweep[2]) if sweep else np.array([cfg.period_nm])
    # one solve over every row; row i * n_modes + j is period i, mode j
    modes = np.array(cfg.modes, dtype=np.int64)
    try:  # the geometry comes from the config and is checked before the solve
        geom = channel_mod.HoleArrayGeometry(np.repeat(periods, len(modes)), cfg.hole_diameter_nm,
                                             np.tile(modes, (len(periods), 1)), cfg.eps_substrate, metal=table)
    except channel_mod.ChannelParameterError as exc:
        raise ConfigError(str(exc)) from exc
    lam = channel_mod.resonance_wavelength(geom)
    k_spp = channel_mod.dispersion_match(geom)
    # row-wise dot products, the same BLAS dot np.linalg.norm takes for one row
    k_mag = np.sqrt(k_spp[:, None, :] @ k_spp[:, :, None])[:, 0, 0]
    columns = {"period_nm": geom.period_nm, "m1": geom.mode[:, 0], "m2": geom.mode[:, 1], "resonance_nm": lam,
               "k_spp_x": k_spp[:, 0], "k_spp_y": k_spp[:, 1], "k_spp_mag": k_mag}
    cfg.out.mkdir(parents=True, exist_ok=True)
    output.write_table(columns, cfg.out / "design.csv", cfg.out / "design.json")


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, like every other exit 2
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="spp-teleport", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "analyze", "design"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override RNG seed")
        p.add_argument("--out", type=CONFIG_KEYS["out"].parse, default=argparse.SUPPRESS,
                       help="output directory, parsed as [run] out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        vars(cfg).update((name, value) for name, value in vars(args).items() if name in ("seed", "out"))
        cfg.validate()
        {"simulate": cmd_simulate, "analyze": cmd_analyze, "design": cmd_design}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (counts_mod.CountsDataError, channel_mod.ChannelParameterError,
            channel_mod.ResonanceSolveError, tomo.TomographyError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array the configured sizes ask for cannot be allocated
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
