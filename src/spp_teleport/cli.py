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
from .qcore import clamp_unit, complex_matrix_to_json, expectation, vector_norms


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


def _parse_sweep(text: str) -> tuple:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError("expected 'start:stop:step'") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("needs finite numbers")
    if step <= 0 or stop < start:
        raise ConfigError("needs step > 0 and stop >= start")
    length = (stop + step / 2 - start) / step  # its ceiling is the length of the np.arange of cmd_design
    if not length < 2**62:
        raise ConfigError("needs fewer than 2**62 periods")
    if length <= 0:  # stop == start and step / 2 is lost in rounding
        raise ConfigError("needs at least one period, but stop + step / 2 rounds to start")
    return (start, stop, step)


def _check_inputs(inputs) -> str | None:
    if not inputs or not set(inputs) <= set(protocol.INPUT_LABELS):
        return f"inputs must be labels from {protocol.INPUT_LABELS}, got {list(inputs)}"
    return f"inputs must not repeat a label, got {list(inputs)}" if len(set(inputs)) < len(inputs) else None


def _unit_interval(name: str):
    return lambda value: None if 0.0 <= value <= 1.0 else f"{name} {value} not in [0,1]"


def _contrast(value) -> str | None:  # None: unset
    return "EOM contrast must exceed 1" if value is not None and value <= 1 else None


# A row of CONFIG_KEYS: parse maps the key's INI text to its value or raises ValueError; check returns what
# is wrong with a value, or None; overridden_by names the key that replaces this one away from its default.
_Key = collections.namedtuple("_Key", "section parse default check overridden_by", defaults=(None, None))

# Every key a config may hold, in the order validate checks them; a key's name is its RunConfig attribute.
# The table checks every value: ChannelModel and resonance_wavelength take what they are given.
CONFIG_KEYS = {
    "seed": _Key("run", int, 0, lambda seed: f"seed must be >= 0, got {seed}" if seed < 0 else None),
    "out": _Key("run", lambda text: Path(text) if text else None, Path("results"),  # Path("") would be "."
                lambda out: "out must name a directory, got an empty value" if out is None else None),
    "calibration": _Key("channel", str, "none", lambda name: None if name in ("none", "with_spp", "without_spp")
                        else f"unknown calibration {name!r}"),
    "werner_visibility": _Key("channel", _finite_float, 1.0, _unit_interval("werner_visibility"), "calibration"),
    "depolarizing_extra": _Key("channel", _finite_float, 0.0, _unit_interval("depolarizing_extra"), "calibration"),
    "contrast_x": _Key("channel", _finite_float, None, _contrast, "calibration"),  # None: see build_channel
    "contrast_z": _Key("channel", _finite_float, None, _contrast, "calibration"),
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
    "period_nm": _Key("design", _finite_float, 700.0, lambda p: None if p > 0 else "need period > 0",
                      "period_sweep"),
    "eps_substrate": _Key("design", _finite_float, 2.25),
    "modes": _Key("design", _parse_modes, ((1, 1), (1, 0)),
                  lambda m: f"modes must not repeat a mode, got {list(m)}" if len(set(m)) < len(m)
                  else "mode (0, 0) does not excite a plasmon" if (0, 0) in m else None),
    "period_sweep": _Key("design", _parse_sweep, None,  # (start, stop, step), so every period is >= start
                         lambda sweep: "need period > 0" if sweep and sweep[0] <= 0 else None),
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
        if self.calibration != "none":
            return channel_mod.calibrated_channel(with_spp=self.calibration == "with_spp")
        # with one contrast set the other takes its nominal value; with neither, both flips are perfect
        given = {key: getattr(self, key) for key in channel_mod.EOM_CONTRASTS if getattr(self, key) is not None}
        contrasts = {**channel_mod.EOM_CONTRASTS, **given} if given else {}
        return channel_mod.ChannelModel(werner_visibility=self.werner_visibility,
                                        depolarizing_extra=self.depolarizing_extra, **contrasts)


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


def cmd_simulate(cfg: RunConfig) -> dict:
    ch = cfg.build_channel()
    campaign = protocol.Campaign.run(ch, cfg.inputs, cfg.shots, cfg.seed, cfg.max_likelihood)

    targets = np.array([protocol.INPUT_STATES[label].amplitudes for label in cfg.inputs])
    fid_qst = clamp_unit(expectation(campaign.estimates, targets[:, None]).real)
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

    # one row per branch, input-major
    branches = {"input": [label for label in cfg.inputs for _ in protocol.OUTCOMES],
                "outcome": [outcome.label for outcome in protocol.OUTCOMES] * len(cfg.inputs)}
    files = {"records.json": output.write_json_rows({
        **branches,
        "port": [outcome.port for outcome in protocol.OUTCOMES] * len(cfg.inputs),
        "shots": campaign.shots.ravel().tolist(),
        "density_matrix": complex_matrix_to_json(campaign.states.reshape(-1, 2, 2)),
        "fidelity": campaign.fidelities.ravel().tolist(),
    })}
    # a branch with too few shots for every basis has no estimate
    ok = estimated.ravel().tolist()
    files["tomography.json"] = output.write_json_rows({
        **branches,
        "density_matrix": [rho if has else None
                           for rho, has in zip(complex_matrix_to_json(campaign.estimates.reshape(-1, 2, 2)), ok)],
        "fidelity": [f if has else None for f, has in zip(fid_qst.ravel().tolist(), ok)],
    })
    files["fidelity_table.csv"] = output.write_rows([
        ["outcome", *cfg.inputs],
        *([o.label, *campaign.fidelities[:, k].tolist()] for k, o in enumerate(protocol.OUTCOMES)),
        ["mean", mean_exact],
    ])

    if chi is not None:
        files["chi.json"] = output.write_json({
            "chi": complex_matrix_to_json(chi),
            "process_fidelity": f_proc,
            "bloch_map": {"linear": ptm[1:, 1:].tolist(), "offset": ptm[1:, 0].tolist()},
        })
        names = ("in_x", "in_y", "in_z", "out_x", "out_y", "out_z")
        files["bloch_map_samples.csv"] = output.write_table(dict(zip(names, samples.T)))[0]

    budget = channel_mod.BUDGET_WITH_SPP if cfg.calibration == "with_spp" else channel_mod.BUDGET_WITHOUT_SPP
    summary = {
        "channel": {"calibration": cfg.calibration, **vars(ch)},
        "budget": {
            "components": budget,
            "total_without_spp": channel_mod.fidelity_budget_total(with_spp=False),
            "total_with_spp": channel_mod.fidelity_budget_total(with_spp=True),
        },
        "mean_fidelity_exact": mean_exact,
        "mean_fidelity_qst": float(np.mean(fid_qst[estimated])) if estimated.any() else None,
        "process_fidelity": f_proc,
        "seed": cfg.seed,
        "shots": cfg.shots,
    }
    return {**files, "summary.json": output.write_json(summary)}


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(cfg: RunConfig) -> dict:
    blocks = counts_mod.BLOCKS
    tables = counts_mod.CountsFile(counts_mod.bundled_counts_path() if cfg.counts == "bundled" else cfg.counts)
    values, parts, fids = [], [], []  # of the four statistics, in use order; each block's (4, 6) fidelities
    for block in blocks:
        table = tables.table("chsh", block)
        values.append(counts_mod.chsh_s(table))
        parts.append(counts_mod.chsh_counts(table))
    for block in blocks:
        table = tables.table("fidelity", block)
        fids.append(counts_mod.fidelity_table(table))
        values.append(float(fids[-1].mean()))
        parts.append(np.array(table.counts, dtype=float).ravel())  # (phi, perp) per cell: mean_fidelity_values' input
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

    files = {"chsh.json": output.write_json({block: {"S": v, "std": std, "sigma_vs_local_bound": sigma}
                                             for block, v, std, sigma in zip(blocks, values, stds, sigmas)})}
    for block, fid, mean, std in zip(blocks, fids, values[len(blocks):], stds[len(blocks):]):
        files[f"fidelity_{block}.csv"] = output.write_rows([
            ["outcome", *protocol.INPUT_LABELS],
            *([o.label, *row] for o, row in zip(protocol.OUTCOMES, fid.tolist())),
            ["mean", mean],
            ["mean_std", std],
        ])
    return {**files, "summary.json": output.write_json([
        {"statistic": name, "value": v, "std": std, "sigma_vs_bound": sigma}
        for name, v, std, sigma in zip(names, values, stds, sigmas)])}


# ---------------------------------------------------------------------------
# design


def cmd_design(cfg: RunConfig) -> dict:
    # a missing file is an OSError, as for analyze's counts
    table = (channel_mod.gold_dielectric_table() if cfg.dielectric == "bundled"
             else channel_mod.load_dielectric_table(cfg.dielectric))
    sweep = cfg.period_sweep  # (start, stop, step)
    periods = np.arange(sweep[0], sweep[1] + sweep[2] / 2, sweep[2]) if sweep else np.array([cfg.period_nm])
    # one solve over every row; row i * n_modes + j is period i, mode j
    modes = np.array(cfg.modes, dtype=np.int64)
    # validate has checked every period and mode
    period_nm, mode = np.repeat(periods, len(modes)), np.tile(modes, (len(periods), 1))
    lam = channel_mod.resonance_wavelength(period_nm, mode, cfg.eps_substrate, table)
    k_spp = channel_mod.dispersion_match(period_nm, mode)
    columns = {"period_nm": period_nm, "m1": mode[:, 0], "m2": mode[:, 1], "resonance_nm": lam,
               "k_spp_x": k_spp[:, 0], "k_spp_y": k_spp[:, 1], "k_spp_mag": vector_norms(k_spp)}
    return dict(zip(("design.csv", "design.json"), output.write_table(columns, with_json=True)))


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
        files = {"simulate": cmd_simulate, "analyze": cmd_analyze, "design": cmd_design}[args.command](cfg)
        # every file is built before --out is created, so a run that fails in a command leaves none
        cfg.out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (cfg.out / name).write_text(text, newline="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (counts_mod.CountsDataError, channel_mod.ResonanceSolveError, tomo.TomographyError, OSError,
            UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array the configured sizes ask for cannot be allocated
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
