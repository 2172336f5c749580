import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport import channel, tomo
from spp_teleport import counts as counts_mod
from spp_teleport.cli import CONFIG_KEYS, ConfigError, RunConfig, build_parser, load_config, main
from spp_teleport.output import DataError

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

try:
    from importlib import resources

    _SCHEMA_ROOT = resources.files("spp_teleport.data") / "schemas"
except Exception:  # pragma: no cover
    _SCHEMA_ROOT = None


def _schema(name):
    return json.loads((_SCHEMA_ROOT / name).read_text())


def _hash_dir(path):
    digest = hashlib.sha256()
    for p in sorted(path.iterdir()):
        digest.update(p.name.encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def complex_matrix_from_json(data):
    """The complex matrix of nested [re, im] pairs."""
    return np.array(data) @ [1, 1j]


def write_config(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    return cfg


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.build_channel().werner_visibility == 1.0

    def test_load_full_config(self, tmp_path):
        path = write_config(
            tmp_path,
            """
[run]
seed = 7
out = results

[channel]
werner_visibility = 0.95
contrast_x = 60.0

[simulate]
shots = 500

[tomography]
max_likelihood = true
mc_trials = 300
""",
        )
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.max_likelihood is True
        ch = cfg.build_channel()
        assert ch.werner_visibility == 0.95
        assert ch.contrast_x == 60.0
        assert ch.contrast_z is None

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.ini")

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path, "[simulate]\nshots = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_calibration_channel(self):
        cfg = RunConfig(calibration="with_spp")
        ch = cfg.build_channel()
        assert ch.transmittance == pytest.approx(0.008)
        assert ch.depolarizing_extra > 0

    # under calibration = none a [channel] key sets its own ChannelModel field and nothing else, so an unset
    # contrast stays None, a flip that never fails, whichever other key is set
    @pytest.mark.parametrize("key, value", [("werner_visibility", 0.9), ("depolarizing_extra", 0.1),
                                            ("contrast_x", 60.0), ("contrast_z", 10.0)])
    def test_each_channel_key_sets_only_its_field(self, key, value):
        assert RunConfig(**{key: value}).build_channel() == dataclasses.replace(channel.ChannelModel(), **{key: value})

    def test_bad_mode_spec(self, tmp_path):
        path = write_config(tmp_path, "[design]\nmodes = 1;2,3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("mode", ["1" + "0" * 400 + ",0", "99999999999999999999,0", "0,-9223372036854775809",
                                      "9223372036854775808,1"])
    def test_mode_outside_int64_exits_2(self, tmp_path, capsys, mode):
        path = write_config(tmp_path, f"[design]\nmodes = 1,1;{mode}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: bad value for [design] modes: bad mode spec {mode!r}, "
                                           "components must fit in int64\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["9223372036854775807,0", "-9223372036854775808,-9223372036854775808"],
                             ids=["9223372036854775807,0", "-9223372036854775808,-9223372036854775808"])
    def test_int64_extreme_mode_has_no_resonance_in_the_table(self, tmp_path, capsys, mode):
        path = write_config(tmp_path, f"[design]\nmodes = {mode}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no resonance inside [500, 1300] nm\n"
        assert not out.exists()

    def test_huge_period_has_no_resonance_inside_the_table(self, tmp_path, capsys):
        path = write_config(tmp_path, "[design]\nperiod_nm = 1e308\nmodes = 1,0\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no resonance inside [500, 1300] nm\n"
        assert not out.exists()

    def test_short_period_has_no_resonance_inside_the_table(self, tmp_path, capsys):
        path = write_config(tmp_path, "[design]\nperiod_nm = 100\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no resonance inside [500, 1300] nm\n"
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["600:700:0", "600:700:-5", "700:600:10", ""])  # no sweep: leave the key out
    def test_bad_period_sweep(self, tmp_path, sweep):
        path = write_config(tmp_path, f"[design]\nperiod_sweep = {sweep}\n")
        with pytest.raises(ConfigError, match="period_sweep"):
            load_config(path)
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, match", [
        ("[simulate]\nshot = 5\n", "unknown config key 'shot' in \\[simulate\\]"),
        ("[desing]\nmodes = 1,1\n", "unknown config section \\[desing\\]"),
        ("[DEFAULT]\nseed = 3\n", "unknown config section \\[DEFAULT\\]"),
        ("[channel]\ntransmittance = 0.5\n", "unknown config key 'transmittance' in \\[channel\\]"),
        ("[design]\nhole_diameter_nm = 200\n", "unknown config key 'hole_diameter_nm' in \\[design\\]"),
    ])
    def test_unknown_key_or_section(self, tmp_path, capsys, text, match):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=match):
            load_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config") and err.count("\n") == 1

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(b"[design]\nmodes = 1,1 \xff\n")
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: bad config value")

    def test_every_documented_key_loads(self, tmp_path):
        path = write_config(tmp_path, """
[run]
seed = 4
out = elsewhere
[channel]
calibration = none
werner_visibility = 0.9
depolarizing_extra = 0.1
contrast_x = 50
contrast_z = 20
[simulate]
shots = 100
[tomography]
max_likelihood = yes
cp_projection = on
mc_trials = 200
[analyze]
counts = bundled
[design]
dielectric = bundled
period_nm = 710
eps_substrate = 2.0
modes = 1,0
""")
        cfg = load_config(path)
        assert (cfg.seed, cfg.out) == (4, Path("elsewhere"))
        assert (cfg.werner_visibility, cfg.depolarizing_extra) == (0.9, 0.1)
        assert (cfg.contrast_x, cfg.contrast_z, cfg.shots) == (50.0, 20.0, 100)
        assert (cfg.max_likelihood, cfg.cp_projection, cfg.mc_trials) == (True, True, 200)
        assert (cfg.counts, cfg.dielectric, cfg.period_nm) == ("bundled", "bundled", 710.0)
        assert (cfg.eps_substrate, cfg.modes) == (2.0, ((1, 0),))
        # a period_sweep overrides period_nm, so it loads from a file of its own
        path = write_config(tmp_path, "[design]\nperiod_sweep = 600:700:50\n")
        assert load_config(path).period_sweep == (600.0, 700.0, 50.0)

    def test_readme_names_every_config_key_and_no_other(self):
        readme = (ROOT / "README.md").read_text()
        paragraph = readme[readme.index("Config sections:"):].split("\n\n")[0]
        # each section as `[name]` (key, key = choices, ...)
        sections = re.findall(r"`\[(\w+)\]`\s+\(([^)]*)\)", paragraph)
        documented = {(section, item.split("=")[0].strip()) for section, items in sections for item in items.split(",")}
        assert documented == {(key.section, name) for name, key in CONFIG_KEYS.items()}

    @pytest.mark.parametrize("command, text, key, over", [
        ("simulate", "[channel]\ncalibration = with_spp\nwerner_visibility = 0.5\n", "[channel] werner_visibility",
         "[channel] calibration"),
        ("simulate", "[channel]\ndepolarizing_extra = 0.1\ncalibration = with_spp\n", "[channel] depolarizing_extra",
         "[channel] calibration"),
        ("simulate", "[channel]\ncalibration = with_spp\ncontrast_x = 60\n", "[channel] contrast_x",
         "[channel] calibration"),
        ("analyze", "[channel]\ncalibration = without_spp\ncontrast_z = 20\n", "[channel] contrast_z",
         "[channel] calibration"),
        ("design", "[design]\nperiod_nm = 5000\nperiod_sweep = 600:700:50\n", "[design] period_nm",
         "[design] period_sweep"),
    ])
    def test_key_the_run_would_override_exits_2(self, tmp_path, capsys, command, text, key, over):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(f"{key} is overridden by {over}")):
            load_config(path)  # the pair parses; building its RunConfig rejects it
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {key} is overridden by {over}\n"
        assert not out.exists()

    def test_override_check_covers_keys_set_by_keyword(self):
        message = "[channel] werner_visibility is overridden by [channel] calibration"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(calibration="with_spp", werner_visibility=0.5)
        RunConfig(calibration="none", werner_visibility=0.5)
        RunConfig(period_nm=5000.0, period_sweep=None)
        with pytest.raises(TypeError, match="unexpected keyword arguments \\['shot'\\]"):
            RunConfig(shot=5)

    @pytest.mark.parametrize("command", ["simulate", "analyze", "design"])
    def test_one_config_serves_every_command_and_argv_overrides_run(self, tmp_path, command):
        # channel knobs under calibration = none, every other command's keys, and a [run] that argv replaces
        path = write_config(tmp_path, f"""
[run]
seed = 3
out = {tmp_path / "from_config"}
[channel]
calibration = none
werner_visibility = 0.9
contrast_x = 60
[simulate]
shots = 300
[tomography]
mc_trials = 200
[analyze]
counts = bundled
[design]
period_nm = 710
modes = 1,0
""")
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--seed", "5", "--out", str(out)]) == 0
        assert out.is_dir() and not (tmp_path / "from_config").exists()
        if command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            assert (summary["seed"], summary["channel"]["werner_visibility"]) == (5, 0.9)

    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, which would take the outputs
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, "[run]\nout =\n")
        assert main(["design", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: out must name a directory, got an empty value\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]
        with pytest.raises(ConfigError, match="^out must name a directory"):
            RunConfig(out=None)
        assert main(["design", "--config", str(path), "--out", "o"]) == 0  # as --seed does, --out replaces [run]

    def test_empty_out_on_the_command_line_exits_2(self, tmp_path, capsys, monkeypatch):
        # --out '' is given and empty, as [run] out = is; leaving --out out keeps the config's directory
        monkeypatch.chdir(tmp_path)
        assert main(["design", "--out", ""]) == 2
        assert capsys.readouterr().err == "config error: out must name a directory, got an empty value\n"
        assert list(tmp_path.iterdir()) == []
        path = write_config(tmp_path, "[run]\nout = from_config\n")
        assert main(["design", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from_config", "run.ini"]

    def test_run_mode_key_exits_2(self, tmp_path, capsys):
        # the subcommand chooses what runs; a [run] mode key would do nothing
        path = write_config(tmp_path, "[run]\nmode = design\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'mode' in [run]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze", "design"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, source):
        out = tmp_path / "o"
        if source == "flag":
            argv = [command, "--seed", "-1", "--out", str(out)]
        else:
            argv = [command, "--config", str(write_config(tmp_path, "[run]\nseed = -1\n")), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_shots_must_fit_int64(self, tmp_path, capsys):
        RunConfig(shots=2**63 - 1)
        for shots in (2**63, 10**20, 0):
            with pytest.raises(ConfigError, match=r"^shots must be in \[1, 2\*\*63 - 1\], got "):
                RunConfig(shots=shots)
        out = tmp_path / "o"
        path = write_config(tmp_path, "[simulate]\nshots = 100000000000000000000\n")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: shots must be in [1, 2**63 - 1], got 100000000000000000000\n"
        assert not out.exists()

    # beyond what numpy can even index: a config error, not a traceback
    @pytest.mark.parametrize("command, text, message", [
        ("analyze", "[tomography]\nmc_trials = 9007199254740993\n", "mc_trials must be <= 2**53, got 9007199254740993"),
        ("analyze", "[tomography]\nmc_trials = 99999999999999999999\n",
         "mc_trials must be <= 2**53, got 99999999999999999999"),
        ("design", "[design]\nperiod_sweep = 600:700:1e-300\n",
         "bad value for [design] period_sweep: needs fewer than 2**62 periods"),
        ("design", "[design]\nperiod_sweep = 600:1.7e308:1e308\n",
         "bad value for [design] period_sweep: needs fewer than 2**62 periods"),
    ])
    def test_unindexable_size_exits_2(self, tmp_path, capsys, command, text, message):
        path = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_mc_trials_below_100_exits_2(self, tmp_path, capsys):
        for n in (100, 2**53):  # both bounds are valid values
            RunConfig(mc_trials=n)
        path = write_config(tmp_path, "[tomography]\nmc_trials = 0\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: mc_trials must be >= 100, got 0\n"
        assert not out.exists()

    def test_inputs_key_is_unknown(self, tmp_path, capsys):
        # simulate teleports all six inputs: their mean is the average state fidelity, and QPT needs four of them
        path = write_config(tmp_path, "[simulate]\ninputs = H, V\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'inputs' in [simulate]\n"
        assert not out.exists()

    # stop == start with a step whose half is lost in stop + step / 2: np.arange would give no period
    @pytest.mark.parametrize("sweep", ["700:700:1e-13", "1e300:1e300:1"])
    def test_sweep_without_a_period_exits_2(self, tmp_path, capsys, sweep):
        path = write_config(tmp_path, f"[design]\nperiod_sweep = {sweep}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: bad value for [design] period_sweep: "
                                           "needs at least one period, but stop + step / 2 rounds to start\n")
        assert not out.exists()

    def test_sweep_of_one_period_gives_one_row(self, tmp_path):
        path = write_config(tmp_path, "[design]\nperiod_sweep = 700:700:1e-12\nmodes = 1,1\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        assert [row["period_nm"] for row in json.loads((out / "design.json").read_text())] == [700.0]

    def test_repeated_modes_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[design]\nmodes = 1,1;1,1\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: modes must not repeat a mode, got [(1, 1), (1, 1)]\n"
        assert not out.exists()

    # sizes whose first allocation is EiB or PiB, so it fails at once and never allocates
    @pytest.mark.parametrize("command, text, size", [
        ("design", "[design]\nperiod_sweep = 1:1e18:1\n", "EiB"),
        ("analyze", "[tomography]\nmc_trials = 1000000000000000\n", "PiB"),
    ])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, command, text, size):
        path = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate") and size in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("simulate", "[channel]\ncontrast_x = nan\n"),
        ("simulate", "[channel]\ncontrast_z = inf\n"),
        ("design", "[design]\nperiod_sweep = 600:nan:25\n"),
        ("design", "[design]\nperiod_sweep = 600:inf:25\n"),
        ("design", "[design]\neps_substrate = inf\n"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, text):
        path = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err and err.count("\n") == 1
        assert not out.exists()

    # per key with a check: config texts it rejects, each with the message every command gives for it
    BAD_VALUES = {
        "seed": {"[run]\nseed = -1\n": "seed must be >= 0, got -1"},
        "out": {"[run]\nout =\n": "out must name a directory, got an empty value"},
        "calibration": {"[channel]\ncalibration = both\n": "unknown calibration 'both'"},
        "werner_visibility": {"[channel]\nwerner_visibility = 1.5\n": "werner_visibility 1.5 not in [0,1]"},
        "depolarizing_extra": {"[channel]\ndepolarizing_extra = -0.1\n": "depolarizing_extra -0.1 not in [0,1]"},
        "contrast_x": {"[channel]\ncontrast_x = 0.5\n": "EOM contrast must exceed 1"},
        "contrast_z": {"[channel]\ncontrast_z = 1\n": "EOM contrast must exceed 1"},
        "shots": {"[simulate]\nshots = 0\n": "shots must be in [1, 2**63 - 1], got 0"},
        "mc_trials": {"[tomography]\nmc_trials = 99\n": "mc_trials must be >= 100, got 99"},
        "period_nm": {"[design]\nperiod_nm = 0\n": "need period > 0"},
        "eps_substrate": {"[design]\neps_substrate = 0\n": "eps_substrate must be > 0, got 0.0",
                          "[design]\neps_substrate = -0.0\n": "eps_substrate must be > 0, got -0.0",
                          "[design]\neps_substrate = -1\n": "eps_substrate must be > 0, got -1.0"},
        "modes": {"[design]\nmodes = 1,1;0,0\n": "mode (0, 0) does not excite a plasmon",
                  "[design]\nmodes = 0,0;1,1\n": "mode (0, 0) does not excite a plasmon",
                  "[design]\nmodes = 1,1;1,1\n": "modes must not repeat a mode, got [(1, 1), (1, 1)]"},
        "period_sweep": {"[design]\nperiod_sweep = -150:700:50\n": "need period > 0",
                         "[design]\nperiod_sweep = 0:700:50\n": "need period > 0",
                         "[design]\nperiod_sweep =\n": "bad value for [design] period_sweep: expected 'start:stop:step'"},
    }

    @pytest.mark.parametrize("command", ["simulate", "analyze", "design"])
    def test_every_check_exits_2_under_every_command(self, tmp_path, capsys, monkeypatch, command):
        # every check runs before any command does: one config gets one answer from every command
        assert {name for name, key in CONFIG_KEYS.items() if key.check} <= self.BAD_VALUES.keys()
        monkeypatch.chdir(tmp_path)  # where [run] out = results, the default, would go
        for cases in self.BAD_VALUES.values():
            for text, message in cases.items():
                path = write_config(tmp_path, text)
                assert main([command, "--config", str(path)]) == 2, text
                assert capsys.readouterr().err == f"config error: {message}\n"
                assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


    @pytest.mark.parametrize("text, message", [
        ("[channel]\ncontrast_x = nan\n", "bad value for [channel] contrast_x: 'nan' is not a finite number"),
        ("[simulate]\nshots = many\n",
         "bad value for [simulate] shots: invalid literal for int() with base 10: 'many'"),
        ("[tomography]\nmax_likelihood = maybe\n", "bad value for [tomography] max_likelihood: Not a boolean: 'maybe'"),
        # an indented line continues the value, and the message quotes it, so it stays on one line
        ("[tomography]\ncp_projection = true\n  false\n",
         "bad value for [tomography] cp_projection: Not a boolean: 'true\\nfalse'"),
        ("[design]\nperiod_sweep = 600:700\n", "bad value for [design] period_sweep: expected 'start:stop:step'"),
        ("[design]\nmodes =\n", "bad value for [design] modes: empty mode list"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # a value is the literal text after '=': ';' and '#' start only whole-line comments, and '%' is a character
    def test_semicolon_inside_a_value_is_part_of_it(self, tmp_path):
        path = write_config(tmp_path, "[design]\nmodes = 1,1 ; 1,0\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        assert [row[1:3] for row in csv.reader(io.StringIO((out / "design.csv").read_text()))][1:] == [
            ["1", "1"], ["1", "0"]]

    def test_percent_in_a_counts_path_is_literal(self, tmp_path):
        counts = tmp_path / "my%20counts.csv"
        counts.write_bytes(counts_mod.bundled_counts_path().read_bytes())
        path = write_config(tmp_path, f"[tomography]\nmc_trials = 100\n[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_percent_in_out_is_not_interpolated(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, "[run]\nseed = 3\nout = res_%(seed)s\n")
        assert main(["design", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res_%(seed)s", "run.ini"]

    def test_hash_after_a_value_is_part_of_it(self, tmp_path, capsys):
        path = write_config(tmp_path, "[simulate]\nshots = 100 # quick\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: bad value for [simulate] shots: "
                                           "invalid literal for int() with base 10: '100 # quick'\n")
        assert not out.exists()

    def test_command_line_keys_are_explicit(self, tmp_path):
        path = write_config(tmp_path, "[run]\nseed = 3\n[simulate]\nshots = 100\n")
        cfg = load_config(path, out=tmp_path / "o")
        assert (cfg.seed, cfg.out, cfg.explicit) == (3, tmp_path / "o", {"seed", "shots", "out"})
        assert load_config(path, seed=5).seed == 5


# printable one-line text, with the characters an INI reader could take for a comment or an interpolation
_LINE_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs"))
                     | st.sampled_from(" %;#Δ"))


@settings(max_examples=100, deadline=None)
@given(text=_LINE_TEXT)
def test_a_value_loads_as_its_literal_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("literal") / "run.ini"
    path.write_text(f"[analyze]\ncounts = {text}\n", encoding="utf-8")
    assert load_config(path).counts == text.strip()


def test_config_reads_the_same_under_the_c_locale(tmp_path):
    # a config file is UTF-8 whatever the locale; an ASCII locale without UTF-8 mode would fail to decode it
    path = tmp_path / "run.ini"
    path.write_text("# Δ: the (1,1) and (1,0) resonances, ε_d = 2.25\n[design]\nperiod_sweep = 600:800:25\n",
                    encoding="utf-8")
    assert main(["design", "--config", str(path), "--out", str(tmp_path / "in_process")]) == 0
    env = {**os.environ, "PYTHONPATH": str(SRC), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    proc = subprocess.run([sys.executable, "-m", "spp_teleport.cli", "design", "--config", str(path),
                           "--out", str(tmp_path / "c_locale")], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _hash_dir(tmp_path / "c_locale") == _hash_dir(tmp_path / "in_process")


_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write at the start of a file


# a config, or a data file its config names ({} in the config text), read with and without a leading mark
@pytest.mark.parametrize("command, source, text", [
    ("design", ROOT / "examples" / "design_scan.ini", None),
    ("analyze", counts_mod.bundled_counts_path(), "[tomography]\nmc_trials = 100\n[analyze]\ncounts = {}\n"),
    ("design", resources.files("spp_teleport.data") / "gold_dielectric.csv", "[design]\ndielectric = {}\n"),
], ids=["config", "counts", "dielectric"])
def test_byte_order_mark_is_dropped(tmp_path, command, source, text):
    hashes = []
    for mark in (b"", _BOM):
        path = tmp_path / f"{len(mark)}_{source.name}"
        path.write_bytes(mark + source.read_bytes())
        cfg = path if text is None else write_config(tmp_path, text.format(path))
        out = tmp_path / f"out_{len(mark)}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        hashes.append(_hash_dir(out))
    assert hashes[0] == hashes[1]


class TestSimulateCommand:
    def test_ideal_run_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = main(["simulate", "--seed", "1", "--out", str(out)])
        assert code == 0
        for name in ("records.json", "tomography.json", "fidelity_table.csv",
                     "chi.json", "bloch_map_samples.csv", "summary.json"):
            assert (out / name).exists()
        records = json.loads((out / "records.json").read_text())
        assert len(records) == 24
        for rec in records:
            assert rec["fidelity"] == pytest.approx(1.0, abs=1e-12)
            rho = complex_matrix_from_json(rec["density_matrix"])
            assert abs(np.trace(rho).real - 1.0) < 1e-9
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_fidelity_exact"] == pytest.approx(1.0, abs=1e-12)

    def test_records_schema(self, tmp_path):
        out = tmp_path / "res"
        assert main(["simulate", "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads((out / "records.json").read_text())
        jsonschema.validate(payload, _schema("simulate_records.json"))
        chi = json.loads((out / "chi.json").read_text())
        jsonschema.validate(chi, _schema("process_matrix.json"))
        jsonschema.validate(json.loads((out / "tomography.json").read_text()),
                            _schema("simulate_tomography.json"))
        jsonschema.validate(json.loads((out / "summary.json").read_text()),
                            _schema("simulate_summary.json"))

    def test_deterministic_across_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[channel]\ncalibration = with_spp\n\n[simulate]\nshots = 2000\n",
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--seed", "5",
                         "--out", str(out)]) == 0
            outs.append(_hash_dir(out))
        assert outs[0] == outs[1]
        jsonschema.validate(json.loads((tmp_path / "a" / "summary.json").read_text()),
                            _schema("simulate_summary.json"))

    def test_seed_changes_sampled_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "[channel]\nwerner_visibility = 0.9\n")
        hashes = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            assert main(["simulate", "--config", str(cfg), "--seed", seed,
                         "--out", str(out)]) == 0
            hashes.append(_hash_dir(out))
        assert hashes[0] != hashes[1]

    def test_one_contrast_leaves_the_other_flip_perfect(self, tmp_path):
        # contrast_x alone: the X flips can fail, but PsiMinus (no flip) and PsiPlus (Z only) never do
        cfg = write_config(tmp_path, "[channel]\ncontrast_x = 60\n\n[simulate]\nshots = 1000\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["channel"]["contrast_x"], summary["channel"]["contrast_z"]) == (60.0, None)
        unflipped = [r for r in json.loads((out / "records.json").read_text())
                     if r["outcome"] in ("PsiMinus", "PsiPlus")]
        assert [r["fidelity"] for r in unflipped] == [1.0] * 12

    def test_fidelity_table_layout(self, tmp_path):
        out = tmp_path / "res"
        assert main(["simulate", "--seed", "0", "--out", str(out)]) == 0
        with open(out / "fidelity_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outcome", "H", "V", "D", "A", "R", "L"]
        assert rows[-1][0] == "mean"

    def test_branches_without_a_shot_per_basis_get_no_estimate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[channel]\ncalibration = without_spp\n\n[simulate]\nshots = 3\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ("warning: no process tomography: input V has no Bell outcome "
                                           "with 3 or more shots, so no state estimate\n")
        records = json.loads((out / "records.json").read_text())
        estimates = json.loads((out / "tomography.json").read_text())
        jsonschema.validate(estimates, _schema("simulate_tomography.json"))
        assert [r["shots"] for r in records] == [0, 3, 0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 0, 1, 2, 0, 0, 0, 2, 1, 1, 0, 1, 1]
        assert [e["density_matrix"] is None for e in estimates] == [True, False] + [True] * 22
        assert [e["fidelity"] is None for e in estimates] == [True, False] + [True] * 22
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_fidelity_qst"] == estimates[1]["fidelity"]

    @pytest.mark.parametrize("shots, seed, bare", [(2, 0, "H"), (5, 0, "D")])
    def test_qpt_input_without_estimate_skips_chi(self, tmp_path, capsys, shots, seed, bare):
        cfg = write_config(tmp_path, f"[simulate]\nshots = {shots}\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (f"warning: no process tomography: input {bare} has no Bell outcome "
                                           "with 3 or more shots, so no state estimate\n")
        assert sorted(p.name for p in out.iterdir()) == ["fidelity_table.csv", "records.json", "summary.json",
                                                        "tomography.json"]
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, _schema("simulate_summary.json"))
        assert summary["process_fidelity"] is None
        estimates = json.loads((out / "tomography.json").read_text())
        fids = [e["fidelity"] for e in estimates if e["fidelity"] is not None]
        assert summary["mean_fidelity_qst"] == (float(np.mean(fids)) if fids else None)

    @pytest.mark.parametrize("seed", [0, 1, 2613022947])
    def test_ml_keeps_estimates_inside_the_ball(self, tmp_path, seed):
        # the benchmark's simulate-tomo config: every linear estimate lies inside
        # the ball, where it already is the maximum-likelihood state
        text = "[channel]\ncalibration = with_spp\n\n[simulate]\nshots = 100000\n\n[tomography]\ncp_projection = true\n"
        outs = []
        for ml in ("false", "true"):
            cfg = write_config(tmp_path, f"{text}max_likelihood = {ml}\n")
            outs.append(tmp_path / ml)
            assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(outs[-1])]) == 0
        assert (outs[0] / "tomography.json").read_bytes() == (outs[1] / "tomography.json").read_bytes()
        assert _hash_dir(outs[0]) == _hash_dir(outs[1])

    @pytest.mark.parametrize("shots", [30, 100_000])
    def test_cp_projection_of_ideal_channel(self, tmp_path, shots):
        # sampling noise gives the identity channel's chi negative eigenvalues
        cfg = write_config(tmp_path, f"[simulate]\nshots = {shots}\n\n[tomography]\ncp_projection = true\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        chi = complex_matrix_from_json(json.loads((out / "chi.json").read_text())["chi"])
        assert np.linalg.eigvalsh(chi).min() >= -1e-12


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


_SIMULATE_SCHEMAS = {"records.json": "simulate_records.json", "tomography.json": "simulate_tomography.json",
                     "summary.json": "simulate_summary.json", "chi.json": "process_matrix.json"}


@settings(max_examples=25, deadline=None)
@given(shots=st.integers(1, 200), calibration=st.sampled_from(["none", "with_spp", "without_spp"]),
       cp_projection=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simulate_configs_exit_0_with_valid_outputs(tmp_path_factory, shots, calibration, cp_projection, seed):
    root = tmp_path_factory.mktemp("sim")
    records = []
    for ml in ("false", "true"):
        cfg = write_config(root, f"[channel]\ncalibration = {calibration}\n\n"
                                 f"[simulate]\nshots = {shots}\n\n"
                                 f"[tomography]\nmax_likelihood = {ml}\ncp_projection = {cp_projection}\n")
        out = root / f"ml_{ml}"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
        for path in out.glob("*.json"):
            jsonschema.validate(_strict_json(path), _schema(_SIMULATE_SCHEMAS[path.name]))
        # a branch gets a state estimate iff it has a shot for every basis, and
        # process tomography needs one for each of its inputs
        branches = json.loads((out / "records.json").read_text())
        estimates = json.loads((out / "tomography.json").read_text())
        has_estimate = [rec["shots"] >= len(tomo.BASES) for rec in branches]
        assert [est["fidelity"] is not None for est in estimates] == has_estimate
        estimated = {rec["input"] for rec, ok in zip(branches, has_estimate) if ok}
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["mean_fidelity_qst"] is None) == (not estimated)
        assert (out / "chi.json").exists() == (set(tomo.QPT_INPUT_LABELS) <= estimated)
        records.append((out / "records.json").read_bytes())
    assert records[0] == records[1]


_OUTPUT_SCHEMAS = {"simulate": _SIMULATE_SCHEMAS,
                   "analyze": {"chsh.json": "analyze_chsh.json", "summary.json": "analyze_summary.json"},
                   "design": {"design.json": "design_output.json"}}
# valid, invalid, extreme and empty values, for every key; {dir} is a directory
# holding bad.csv, a CSV of neither counts nor permittivities
_FUZZ_VALUES = (
    "", "0", "1", "2", "-1", "30", "99", "100", "1000", "0.5", "1.5", "-0.0", "2.25", "700", "1e308", "5e-324",
    "nan", "inf", "abc", "true", "false", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "99999999999999999999", "1" + "0" * 400, "1,1", "1,0;1,1", "0,0", "2,1", "1,1;1,1", "47,28;1,0",
    "1" + "0" * 400 + ",0", "99999999999999999999,0", "9223372036854775807,0", "-9223372036854775808,1",
    "600:700:25", "500:1300:5", "600:700:0", "700:600:10", "600:700:1e-300", "1:1e18:1", "H,V,D,A,R,L", "H",
    "H,H", "X", "with_spp", "without_spp", "none", "bundled", "{dir}", "{dir}/bad.csv", "{dir}/missing.csv",
)
# and a valid value of each key, so that more runs get past the config
_FUZZ_VALID = {
    "seed": "7", "out": "{dir}/elsewhere", "calibration": "with_spp", "werner_visibility": "0.9",
    "depolarizing_extra": "0.1", "contrast_x": "77.5", "contrast_z": "29.7", "shots": "300",
    "max_likelihood": "true", "cp_projection": "true", "mc_trials": "200", "counts": "bundled",
    "dielectric": "bundled", "period_nm": "800", "eps_substrate": "1.0", "modes": "1,0;2,1",
    "period_sweep": "650:750:10",
}
_FUZZ_ENTRY = st.sampled_from([(key.section, name) for name, key in CONFIG_KEYS.items()]).flatmap(
    lambda entry: st.tuples(st.just(entry), st.sampled_from(_FUZZ_VALUES) | st.just(_FUZZ_VALID[entry[1]])))
# and faults in the file's structure, each at a line index: a key line before the first header, a line without
# '=', an indented line that continues the value above, and a line repeated (a section header or a key)
_FUZZ_FAULT = st.one_of(st.just(("seed = 3", 0)),
                        st.tuples(st.sampled_from(["foo", "  false", "repeat"]), st.integers(0, 20)))


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["simulate", "analyze", "design"]),
       entries=st.lists(_FUZZ_ENTRY, max_size=5, unique_by=lambda entry: entry[0]),
       faults=st.lists(_FUZZ_FAULT, max_size=2), mark=st.sampled_from([b"", _BOM]))
def test_fuzzed_config_exits_0_2_or_3_and_keeps_the_contract(tmp_path_factory, command, entries, faults, mark):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "bad.csv").write_text("a,b\n1,2\n")
    sections = {}
    for (section, key), value in entries:
        sections.setdefault(section, []).append(f"{key} = {value.format(dir=root)}")
    lines = [line for name, keys in sections.items() for line in (f"[{name}]", *keys)]
    for fault, at in faults:
        if fault != "repeat":
            lines.insert(at % (len(lines) + 1), fault)
        elif lines:
            lines.insert(at % len(lines), lines[at % len(lines)])
    cfg = root / "run.ini"
    cfg.write_bytes(mark + "".join(line + "\n" for line in lines).encode())
    _run_keeps_the_contract(command, cfg, root / "o")


def _run_keeps_the_contract(command, cfg, out):
    """Run a command: it exits 0 with schema-valid outputs, or 2 or 3 with one stderr line and no `out`."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]  # each would be one more stderr line
    if code:
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
        assert not out.exists()
        return code
    for path in out.iterdir():
        if path.suffix == ".json":
            jsonschema.validate(_strict_json(path), _schema(_OUTPUT_SCHEMAS[command][path.name]))
        else:
            assert not {"nan", "inf"} & set(path.read_text().lower().replace(",", "\n").split())
    return code


# the bundled counts CSV's lines, as the fields of each, and the text a fuzzed field may take:
# NUL, bytes that are not UTF-8, huge integers, an over-long field, a quote and a line break
_COUNTS_ROWS = [line.encode().split(b",") for line in counts_mod.bundled_counts_path().read_text().splitlines()]
_FUZZ_FIELDS = st.sampled_from([
    b"", b"\0", b"\xff\xfe", b"0", b"-1", b"12.5", b" 7", b"1_000", b"9" * 20, str(counts_mod.MAX_COUNT).encode(),
    str(counts_mod.MAX_COUNT + 1).encode(), b"1" * 5000, b'"', b"a\nb", b"with_spp", b"chsh", b"fidelity", b"phi",
    b"++", b"0-22.5", b"PsiPlus/H",
]) | st.binary(max_size=6) | st.just(b"7" * 200_000)


def _csv_edits(rows, fields):
    """Edits of a CSV's rows: drop, duplicate or swap a row, rewrite one of its cells with one of `fields`,
    add a column to every row or one more field to a row."""
    n = len(rows)
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), st.integers(0, n - 1)),
        st.tuples(st.just("duplicate"), st.integers(0, n - 1)),
        st.tuples(st.just("swap"), st.integers(1, n - 1), st.integers(1, n - 1)),
        st.tuples(st.just("rewrite"), st.integers(0, n - 1), st.integers(0, len(rows[0]) - 1), fields),
        st.tuples(st.just("add column"), fields),
        st.tuples(st.just("add field"), st.integers(0, n - 1), fields),
    ), max_size=4)


def _edited_csv(path, rows, edits):
    """Write `rows`, as `edits` changed them, to `path`."""
    rows = [list(row) for row in rows]
    for op, *args in edits:  # at most 4 drops, so rows is never empty
        if op == "drop":
            del rows[args[0] % len(rows)]
        elif op == "duplicate":
            rows.insert(args[0] % len(rows), list(rows[args[0] % len(rows)]))
        elif op == "swap":
            i, j = args[0] % len(rows), args[1] % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "rewrite":
            row = rows[args[0] % len(rows)]
            row[args[1] % len(row)] = args[2]
        elif op == "add field":
            rows[args[0] % len(rows)].append(args[1])
        else:
            for row in rows:
                row.append(args[0])
    path.write_bytes(b"".join(b",".join(row) + b"\n" for row in rows))
    return path


@settings(max_examples=100, deadline=None)
@given(edits=_csv_edits(_COUNTS_ROWS, _FUZZ_FIELDS))
def test_fuzzed_counts_csv_exits_0_or_3_and_keeps_the_contract(tmp_path_factory, edits):
    root = tmp_path_factory.mktemp("fuzz")
    counts = _edited_csv(root / "counts.csv", _COUNTS_ROWS, edits)
    cfg = write_config(root, f"[tomography]\nmc_trials = 100\n\n[analyze]\ncounts = {counts}\n")
    assert _run_keeps_the_contract("analyze", cfg, root / "o") in (0, 3)


# the bundled gold table's lines, as the fields of each, and the text a fuzzed field may take: the fields
# above and numbers at and beyond float's range
_DIELECTRIC_ROWS = [line.encode().split(b",") for line in
                    (resources.files("spp_teleport.data") / "gold_dielectric.csv").read_text().splitlines()]
_DIELECTRIC_FIELDS = _FUZZ_FIELDS | st.sampled_from([
    b"500", b"-2.55", b"1300", b"-2.25", b"0", b"1e308", b"-1e308", b"1e400", b"5e-324", b"nan", b"-inf", b"1e3",
])


@settings(max_examples=100, deadline=None)
@given(edits=_csv_edits(_DIELECTRIC_ROWS, _DIELECTRIC_FIELDS))
def test_fuzzed_dielectric_csv_exits_0_or_3_and_keeps_the_contract(tmp_path_factory, edits):
    root = tmp_path_factory.mktemp("fuzz")
    table = _edited_csv(root / "eps.csv", _DIELECTRIC_ROWS, edits)
    # every (period, mode) row of this sweep has its resonance inside the bundled table
    cfg = write_config(root, f"[design]\ndielectric = {table}\nmodes = 1,1;1,0\nperiod_sweep = 400:800:100\n")
    assert _run_keeps_the_contract("design", cfg, root / "o") in (0, 3)


# the bundled gold table's range on a 0.01 nm grid, for an oracle of where a resonance exists
_GOLD = channel.gold_dielectric_table()
_FINE_WL = np.linspace(_GOLD.wavelengths_nm[0], _GOLD.wavelengths_nm[-1], 80001)


def _resonance_residual(period, mode, eps_d, lam):
    """h = P/|m| sqrt(f) - lambda, f = eps_d eps_m / (eps_d + eps_m), at lam; NaN where f < 0."""
    eps_m = np.interp(lam, _GOLD.wavelengths_nm, _GOLD.eps_re)
    with np.errstate(invalid="ignore"):
        return period / np.hypot(*mode) * np.sqrt(eps_d * eps_m / (eps_d + eps_m)) - lam


@settings(max_examples=80, deadline=None)
@given(period=st.floats(201.0, 2000.0), mode=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
       eps_d=st.floats(1.0, 10.0))
def test_design_exits_0_exactly_where_the_resonance_condition_changes_sign(tmp_path_factory, period, mode, eps_d):
    # eps_d above 2.55 puts a pole of f inside the table's first segment, with roots right of it
    h = _resonance_residual(period, mode, eps_d, _FINE_WL)
    has_root = bool(np.any((h[:-1] >= 0) & (h[1:] <= 0)))
    root = tmp_path_factory.mktemp("root")
    cfg = write_config(root, f"[design]\nperiod_nm = {period!r}\nmodes = {mode[0]},{mode[1]}\n"
                             f"eps_substrate = {eps_d!r}\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["design", "--config", str(cfg), "--out", str(root / "o")])
    if has_root:
        assert code == 0, stderr.getvalue()
        lam = json.loads((root / "o" / "design.json").read_text())[0]["resonance_nm"]
        assert abs(_resonance_residual(period, mode, eps_d, lam)) <= 1e-9 * lam
    else:
        assert code == 3 and stderr.getvalue() == "data error: no resonance inside [500, 1300] nm\n"
        assert not (root / "o").exists()


class TestAnalyzeCommand:
    def test_reproduces_published_statistics(self, tmp_path):
        out = tmp_path / "res"
        assert main(["analyze", "--seed", "0", "--out", str(out)]) == 0
        summary = {s["statistic"]: s for s in json.loads((out / "summary.json").read_text())}
        assert summary["chsh_s_without_spp"]["value"] == pytest.approx(2.551, abs=1e-3)
        assert summary["chsh_s_with_spp"]["value"] == pytest.approx(2.281, abs=1e-3)
        assert summary["mean_fidelity_without_spp"]["value"] == pytest.approx(0.9267, abs=1e-4)
        assert summary["mean_fidelity_with_spp"]["value"] == pytest.approx(0.8891, abs=1e-4)
        jsonschema.validate(json.loads((out / "summary.json").read_text()),
                            _schema("analyze_summary.json"))
        jsonschema.validate(json.loads((out / "chsh.json").read_text()), _schema("analyze_chsh.json"))

    def test_sigma_violations_large(self, tmp_path):
        out = tmp_path / "res"
        assert main(["analyze", "--out", str(out)]) == 0
        stats = {s["statistic"]: s for s in json.loads((out / "summary.json").read_text())}
        for key in ("mean_fidelity_without_spp", "mean_fidelity_with_spp"):
            assert stats[key]["sigma_vs_bound"] > 50
        chsh = json.loads((out / "chsh.json").read_text())
        for block in ("without_spp", "with_spp"):
            assert chsh[block]["sigma_vs_local_bound"] > 10

    def test_degenerate_fidelity_cell_exits_3(self, tmp_path, capsys):
        # a cell of phi=1, perp=0 resamples to 0/0; that must not reach summary.json as NaN
        counts = tmp_path / "counts.csv"
        lines = [line for line in counts_mod.bundled_counts_path().read_text().splitlines()
                 if not line.startswith("fidelity,with_spp,PsiPlus/H,")]
        lines += ["fidelity,with_spp,PsiPlus/H,phi,1", "fidelity,with_spp,PsiPlus/H,perp,0"]
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "resamples" in err
        assert "RuntimeWarning" not in err
        assert not (out / "summary.json").exists()

    def test_degenerate_chsh_setting_exits_3(self, tmp_path):
        counts = tmp_path / "counts.csv"
        text = counts_mod.bundled_counts_path().read_text()
        lines = [line if not line.startswith("chsh,with_spp,0-22.5,") else line.rsplit(",", 1)[0] + ",0"
                 for line in text.splitlines()]
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind, block, zeroed, name", [
        ("fidelity", "with_spp", ("perp",), "mean_fidelity_with_spp"),
        ("chsh", "without_spp", ("+-", "-+"), "chsh_s_without_spp"),
    ])
    def test_statistic_with_zero_spread_exits_3_naming_it(self, tmp_path, capsys, kind, block, zeroed, name):
        # with these outcomes at 0 every resample of the block gives the same value
        lines = [line.rsplit(",", 1)[0] + ",0" if line.split(",")[:2] == [kind, block]
                 and line.split(",")[3] in zeroed else line
                 for line in counts_mod.bundled_counts_path().read_text().splitlines()]
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: {name}: Monte Carlo std is 0, so its sigma is undefined\n"
        assert not out.exists()

    def test_equal_resamples_off_their_float_mean_exit_3(self, tmp_path, capsys):
        # every resample gives mean_fidelity_with_spp = 8/24, and numpy's mean of them is an
        # ulp off 1/3: the spread must come from the resamples, not from their distance to that mean
        lines, cells = [], []
        for line in counts_mod.bundled_counts_path().read_text().splitlines():
            kind, block, cell, outcome, _ = line.split(",")
            if (kind, block) == ("fidelity", "with_spp"):
                if cell not in cells:
                    cells.append(cell)
                if outcome == ("perp" if cells.index(cell) < 8 else "phi"):
                    line = f"{kind},{block},{cell},{outcome},0"
            lines.append(line)
        assert len(cells) == 24
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("data error: mean_fidelity_with_spp: Monte Carlo std is 0, "
                                           "so its sigma is undefined\n")
        assert not out.exists()

    def test_missing_counts_file_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "[analyze]\ncounts = /no/such/counts.csv\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("kind, block", [("chsh", "without_spp"), ("chsh", "with_spp"),
                                             ("fidelity", "without_spp"), ("fidelity", "with_spp")])
    def test_bad_row_in_each_block_exits_3_with_its_line(self, tmp_path, capsys, kind, block):
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        bad = [i for i, line in enumerate(lines) if line.startswith(f"{kind},{block},")][-1]
        lines[bad] = lines[bad].rsplit(",", 1)[0] + ",many"
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: line {bad + 1}: count 'many' is not an integer\n"

    @pytest.mark.parametrize("count", [str(10**30), str(counts_mod.MAX_COUNT + 1)])
    def test_count_above_the_poisson_limit_exits_3_with_its_line(self, tmp_path, capsys, count):
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if line.startswith("fidelity,with_spp,"))
        lines[bad] = lines[bad].rsplit(",", 1)[0] + "," + count
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (f"data error: line {bad + 1}: count {count} is above the Poisson limit "
                                           f"{counts_mod.MAX_COUNT}\n")

    def test_first_problem_in_use_order_is_reported(self, tmp_path, capsys):
        # a zero chsh/with_spp setting is met in use before the missing fidelity/without_spp row,
        # and bad lines, in file order, before either
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        lines = [line.rsplit(",", 1)[0] + ",0" if line.startswith("chsh,with_spp,0-22.5,") else line
                 for line in lines if not line.startswith("fidelity,without_spp,PhiPlus/H,")]
        counts = tmp_path / "counts.csv"
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        for bad_lines, message in (((), "chsh block 'with_spp', setting '0-22.5': zero total counts"),
                                   ((len(lines) - 10, len(lines)), "line {}: count '1.5' is not an integer")):
            for n in bad_lines:
                lines[n - 1] = lines[n - 1].rsplit(",", 1)[0] + ",1.5"
            counts.write_text("\n".join(lines) + "\n")
            assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
            assert capsys.readouterr().err == f"data error: {message.format(*bad_lines)}\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit,message", [
        ({"fidelity,with_spp,PhiPlus/D,phi,": "0", "fidelity,with_spp,PhiPlus/D,perp,": "0"},
         "fidelity block 'with_spp', cell 'PhiPlus/D': zero total counts"),
        ({f"chsh,with_spp,45-67.5,{o},": "0" for o in counts_mod.CHSH_OUTCOMES},
         "chsh block 'with_spp', setting '45-67.5': zero total counts"),
        ({"fidelity,with_spp,PsiMinus/L,phi,": None, "fidelity,with_spp,PsiMinus/L,perp,": None},
         "fidelity block 'with_spp', cell 'PsiMinus/L': no row"),
        ({"fidelity,with_spp,PsiMinus/L,phi,": None},
         "fidelity block 'with_spp', cell 'PsiMinus/L': missing outcomes ['phi']"),
        # a bad count is a problem of its line
        ({"fidelity,with_spp,PsiMinus/L,phi,": "-1"}, "line {}: negative count for outcome 'phi'"),
        ({"chsh,without_spp,0-67.5,+-,": "-5"}, "line {}: negative count for outcome '+-'"),
    ], ids=["zero-cell", "zero-setting", "missing-row", "missing-outcome", "negative-cell", "negative-setting"])
    def test_counts_problem_names_its_kind_block_and_setting_or_cell(self, tmp_path, capsys, edit, message):
        # each edit maps a row prefix to its new count, or to None to delete the row
        lines, edited = [], []  # and the line number of each rewritten row
        for line in counts_mod.bundled_counts_path().read_text().splitlines():
            prefix = line.rsplit(",", 1)[0] + ","
            if prefix not in edit:
                lines.append(line)
            elif edit[prefix] is not None:
                lines.append(prefix + edit[prefix])
                edited.append(len(lines))
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {message.format(*edited)}\n"
        assert not (tmp_path / "o").exists()

    def test_pooled_count_above_the_poisson_limit_exits_3(self, tmp_path, capsys):
        # each count is within the limit, but N++ + N-- of one setting is not
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        lines = [line.rsplit(",", 1)[0] + f",{counts_mod.MAX_COUNT}"
                 if line.startswith(("chsh,with_spp,45-67.5,++,", "chsh,with_spp,45-67.5,--,")) else line
                 for line in lines]
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"data error: chsh block 'with_spp', setting '45-67.5': pooled count {2 * counts_mod.MAX_COUNT} "
            f"is above the Poisson limit {counts_mod.MAX_COUNT}\n")
        assert not out.exists()

    # complete extra rows, each of a kind, block, setting, cell or outcome that no statistic reads
    @pytest.mark.parametrize("extra", [
        lambda lines: ["fidelity,with_spp,Q/PhiPlus,phi,2746", "fidelity,with_spp,Q/PhiPlus,perp,120"],
        lambda lines: [f"chsh,with_spp,90-0,{o},1000" for o in counts_mod.CHSH_OUTCOMES],
        lambda lines: ["chsh,with_spp,0-22.5,00,1000"],
        lambda lines: [line.replace(",with_spp,", ",other,") for line in lines if line.startswith("chsh,with_spp,")],
        lambda lines: [line.replace("chsh,", "notes,") for line in lines if line.startswith("chsh,with_spp,")],
        lambda lines: ["fidelity,with_spp,0-22.5,phi,1000", "fidelity,with_spp,0-22.5,perp,1000"],
        lambda lines: ["chsh,with_spp,0-22.5,phi,1000"],
    ], ids=["cell", "setting", "outcome", "block", "kind", "chsh-setting-as-cell", "fidelity-outcome-in-chsh"])
    def test_row_no_statistic_reads_exits_3_naming_its_line(self, tmp_path, capsys, extra):
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        rows = extra(lines)
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines + rows) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        out = tmp_path / "o"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 3
        key = tuple(rows[0].split(",")[:4])
        assert capsys.readouterr().err == f"data error: line {len(lines) + 1}: no statistic reads the row {key!r}\n"
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path):
        # the Monte Carlo chunks are drawn on one thread per CPU the process may use
        code = ("import os, sys\n"
                "if sys.argv[1] == 'pin':\n"
                "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "sys.path.insert(0, sys.argv[2])\n"
                "from spp_teleport.cli import main\n"
                "sys.exit(main(['analyze', '--config', sys.argv[3], '--seed', '7', '--out', sys.argv[4]]))\n")
        cfg = write_config(tmp_path, "[tomography]\nmc_trials = 4000\n")
        for mode in ("pin", "free"):
            proc = subprocess.run([sys.executable, "-c", code, mode, str(SRC), str(cfg), str(tmp_path / mode)],
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert _hash_dir(tmp_path / "pin") == _hash_dir(tmp_path / "free")
        assert sorted(p.name for p in (tmp_path / "pin").iterdir()) == [
            "chsh.json", "fidelity_with_spp.csv", "fidelity_without_spp.csv", "summary.json"]


class TestDesignCommand:
    def test_default_design(self, tmp_path):
        out = tmp_path / "res"
        assert main(["design", "--out", str(out)]) == 0
        rows = json.loads((out / "design.json").read_text())
        jsonschema.validate(rows, _schema("design_output.json"))
        by_mode = {(r["m1"], r["m2"]): r for r in rows}
        assert 769 <= by_mode[(1, 1)]["resonance_nm"] <= 849
        assert by_mode[(1, 0)]["resonance_nm"] > by_mode[(1, 1)]["resonance_nm"]

    def test_period_sweep_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[design]\nmodes = 1,1\nperiod_sweep = 650:750:25\n",
        )
        out = tmp_path / "res"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "design.json").read_text())
        lams = [r["resonance_nm"] for r in rows]
        assert len(lams) == 5
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_sweep_rows_equal_scalar_solver(self, tmp_path):
        cfg = write_config(tmp_path, "[design]\nperiod_sweep = 600.1234:800.1234:0.25\nmodes = 1,0;1,1\n")
        out = tmp_path / "res"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "design.json").read_text())
        assert len(rows) == 2 * 801
        assert [(r["m1"], r["m2"]) for r in rows[:4]] == [(1, 0), (1, 1), (1, 0), (1, 1)]
        table = channel.gold_dielectric_table()
        for row in rows:
            period, mode = np.array([row["period_nm"]]), (row["m1"], row["m2"])
            assert row["resonance_nm"] == channel.resonance_wavelength(period, mode, 2.25, table)[0]
            k = channel.dispersion_match(period, mode)[0]
            assert [row["k_spp_x"], row["k_spp_y"], row["k_spp_mag"]] == [k[0], k[1], np.linalg.norm(k)]

    def test_out_of_range_period_in_sweep_exits_3(self, tmp_path, capsys):
        # the (1,1) resonance of the 1300 nm period lies beyond the table
        cfg = write_config(tmp_path, "[design]\nmodes = 1,1\nperiod_sweep = 1000:1300:100\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no resonance inside [500, 1300] nm\n"
        assert not (out / "design.json").exists()

    @pytest.mark.parametrize("row, problem", [
        ("500,abc,1", "non-numeric value"),
        ("500,nan,1", "non-finite value"),
        ("500,-2,inf", "non-finite value"),
        ("1300,-70,6", "repeated wavelength"),
        ("500,-2.55,3.90,junk", "more fields than the header"),
        ("-500,-2.55,3.9", "wavelength -500 nm is not positive"),
        ("0,-2.55,3.9", "wavelength 0 nm is not positive"),
    ])
    def test_bad_dielectric_csv_exits_3(self, tmp_path, capsys, row, problem):
        eps = tmp_path / "eps.csv"
        eps.write_text(f"wavelength_nm,eps_re,eps_im\n1300,-71.5,6.7\n{row}\n900,-30,1.2\n")
        cfg = write_config(tmp_path, f"[design]\ndielectric = {eps}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: dielectric CSV line 3: {problem}") and err.count("\n") == 1
        assert not out.exists()

    # float() takes each of these first cells as 500 nm; a dielectric CSV holds plain ASCII numbers only
    @pytest.mark.parametrize("first", ["5_00", " 500", "５００"])
    def test_number_that_is_not_plain_ascii_exits_3(self, tmp_path, capsys, first):
        lines = (resources.files("spp_teleport.data") / "gold_dielectric.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "500,-2.55,3.90"
        eps = tmp_path / "eps.csv"
        eps.write_text("\n".join([lines[0], f"{first},-2.55,3.90", *lines[2:]]) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, f"[design]\ndielectric = {eps}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: dielectric CSV line 2: {first!r} is not a plain ASCII number\n"
        assert not out.exists()

    # the geometry checks of CONFIG_KEYS: every mode is checked before the first solve
    @pytest.mark.parametrize("text, message", [
        ("[design]\nmodes = 1,1;0,0\n", "mode (0, 0) does not excite a plasmon"),
        ("[design]\nperiod_nm = 0\n", "need period > 0"),
    ])
    def test_geometry_rejected_by_the_hole_array_exits_2(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (out / "design.json").exists()

    def test_missing_dielectric_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "[design]\ndielectric = /no/such/eps.csv\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestStartup:
    def test_cli_import_does_not_load_the_thread_pool(self):
        code = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport spp_teleport.cli\n"
                "print('concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_analyze_leaves_only_the_main_thread(self, tmp_path):
        # the Monte Carlo draw threads end with the call that started them
        code = ("import sys, threading\nsys.path.insert(0, sys.argv[1])\nfrom spp_teleport.cli import main\n"
                "code = main(['analyze', '--config', sys.argv[2], '--out', sys.argv[3]])\n"
                "print(code, [t.name for t in threading.enumerate()])\n")
        cfg = write_config(tmp_path, "[tomography]\nmc_trials = 100\n")
        proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(cfg), str(tmp_path / "o")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 ['MainThread']\n"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


class TestExitCodes:
    # a command returns all its files before main creates the output directory, so a run that fails in a
    # check, a computation or while it builds a file, the last one included, leaves no directory
    @pytest.mark.parametrize("case", ["modes 0,0", "non-numeric dielectric row", "bad fidelity row",
                                      "no resonance at 1300 nm, mode (1,1)", "summary.json fails to build"])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys, monkeypatch, case):
        eps = tmp_path / "eps.csv"
        eps.write_text("wavelength_nm,eps_re,eps_im\n1300,-71.5,6.7\n500,abc,1\n900,-30,1.2\n")
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        first_fid = next(i for i, line in enumerate(lines) if line.startswith("fidelity,"))
        lines[first_fid] = lines[first_fid].rsplit(",", 1)[0] + ",1.5"
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        command, text, code = {
            "modes 0,0": ("design", "[design]\nmodes = 0,0\n", 2),
            "non-numeric dielectric row": ("design", f"[design]\ndielectric = {eps}\n", 3),
            "bad fidelity row": ("analyze", f"[analyze]\ncounts = {counts}\n", 3),
            "no resonance at 1300 nm, mode (1,1)": (
                "design", "[design]\nperiod_nm = 1300\nmodes = 1,1\neps_substrate = 2.25\n", 3),
            "summary.json fails to build": ("simulate", "[simulate]\nshots = 100\n", 3),
        }[case]
        if case == "summary.json fails to build":  # after every other file of simulate is built

            def fail(*args, **kwargs):
                raise DataError("budget unavailable")

            monkeypatch.setattr(channel, "fidelity_budget_total", fail)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, key, message", [
        ("design", "dielectric", "dielectric table needs >= 2 matching rows"),
        ("analyze", "counts", "no rows with kind='fidelity', block='without_spp'"),
    ])
    def test_too_few_data_rows_exit_3(self, tmp_path, capsys, command, key, message):
        # a dielectric table with one row; a counts table without its fidelity rows
        lines = (["wavelength_nm,eps_re,eps_im", "800,-24,1.5"] if key == "dielectric" else
                 [line for line in counts_mod.bundled_counts_path().read_text().splitlines()
                  if not line.startswith("fidelity,")])
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[{command}]\n{key} = {data}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    def test_substrate_without_a_bound_mode_exit_3(self, tmp_path, capsys):
        # eps_substrate > 0 passes the config check, but eps_d + eps_m > 0 at every node makes f < 0 there
        cfg = write_config(tmp_path, "[design]\neps_substrate = 1e308\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no bound surface mode for these dielectric constants\n"
        assert not out.exists()

    def test_dielectric_that_binds_no_mode_exit_3(self, tmp_path, capsys):
        # eps_m = +5 gives f = eps_d eps_m / (eps_d + eps_m) > 0, but a bound mode needs eps_m < -eps_d
        data = tmp_path / "eps.csv"
        data.write_text("wavelength_nm,eps_re,eps_im\n500,5,1\n1300,5,1\n")
        cfg = write_config(tmp_path, f"[design]\ndielectric = {data}\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "data error: no bound surface mode for these dielectric constants\n"
        assert not out.exists()

    def test_value_error_in_a_command_is_a_traceback(self, tmp_path, monkeypatch):
        # only ConfigError and DataError map to exit codes; any other ValueError is a fault in the package
        def fault(cfg):
            raise ValueError("matrix is not Hermitian")

        monkeypatch.setattr("spp_teleport.cli.cmd_design", fault)
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            main(["design", "--out", str(out)])
        assert not out.exists()

    def test_design_skips_a_root_where_no_mode_is_bound(self, tmp_path):
        # h = 0 at 560.6 nm, where eps_m = +5; the first root with eps_m < -eps_d is at 751 nm
        data = tmp_path / "eps.csv"
        data.write_text("wavelength_nm,eps_re,eps_im\n500,5,0\n600,5,0\n700,-10,0\n1300,-30,0\n")
        cfg = write_config(tmp_path, f"[design]\ndielectric = {data}\nperiod_nm = 450\nmodes = 1,0\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "design.csv", newline="") as fh:
            assert [row["resonance_nm"] for row in csv.DictReader(fh)] == ["751.056320162"]

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[simulate]\nshots = 0\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_bad_channel_value_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[channel]\nwerner_visibility = 1.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, section, key, header", [
        ("design", "design", "dielectric", b"wavelength_nm,eps_re,eps_im\n"),
        ("analyze", "analyze", "counts", b"kind,block,setting,outcome,count\n"),
    ])
    def test_non_utf8_data_file_exit_3(self, tmp_path, capsys, command, section, key, header):
        data = tmp_path / "data.csv"
        data.write_bytes(header + b"500,\xff,1\n")
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {data}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    # a field over csv.field_size_limit() (131072 characters)
    @pytest.mark.parametrize("command, section, key", [("design", "design", "dielectric"),
                                                       ("analyze", "analyze", "counts")])
    def test_over_long_field_exits_3_naming_its_line(self, tmp_path, capsys, command, section, key):
        lines = (["wavelength_nm,eps_re,eps_im", "1300,-71.5,6.7", "500,-2,1", "900,-30,1.2"] if key == "dielectric"
                 else counts_mod.bundled_counts_path().read_text().splitlines())
        lines[2] += "0" * 200_000
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {data}\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        where = "dielectric CSV line 3" if key == "dielectric" else "line 3"
        assert capsys.readouterr().err == f"data error: {where}: field larger than field limit (131072)\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, problem", [
        (["design", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["design", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_bad_command_line_exits_2_with_one_line(self, capsys, argv, problem):
        # argparse's own errors, without the usage line it prints by default
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("spp-teleport") and err.endswith(f": error: {problem}\n")

    def test_unknown_calibration_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[channel]\ncalibration = maybe\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
