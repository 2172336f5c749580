import csv
import hashlib
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from spp_teleport import channel
from spp_teleport import counts as counts_mod
from spp_teleport.cli import ConfigError, RunConfig, _write_json, load_config, main
from spp_teleport.qcore import complex_matrix_from_json

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


def write_config(tmp_path, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    return cfg


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        cfg.validate()
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
inputs = H, V
shots = 500

[tomography]
max_likelihood = true
mc_trials = 300
""",
        )
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.inputs == ("H", "V")
        assert cfg.max_likelihood is True
        ch = cfg.build_channel()
        assert ch.werner_visibility == 0.95
        assert ch.eom.contrast_x == 60.0
        assert ch.eom.contrast_z == 29.7

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.ini")

    def test_bad_value_type(self, tmp_path):
        path = write_config(tmp_path, "[simulate]\nshots = many\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_validate_rejects_bad_inputs(self):
        cfg = RunConfig(inputs=("H", "Q"))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_calibration_channel(self):
        cfg = RunConfig(calibration="with_spp")
        ch = cfg.build_channel()
        assert ch.transmittance == pytest.approx(0.008)
        assert ch.depolarizing_extra > 0

    def test_bad_mode_spec(self, tmp_path):
        path = write_config(tmp_path, "[design]\nmodes = 1;2,3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("sweep", ["600:700:0", "600:700:-5", "700:600:10"])
    def test_bad_period_sweep(self, tmp_path, sweep):
        path = write_config(tmp_path, f"[design]\nperiod_sweep = {sweep}\n")
        with pytest.raises(ConfigError, match="period_sweep"):
            load_config(path)
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, match", [
        ("[simulate]\nshot = 5\n", "unknown config key 'shot' in \\[simulate\\]"),
        ("[desing]\nmodes = 1,1\n", "unknown config section \\[desing\\]"),
        ("[DEFAULT]\nseed = 3\n", "unknown config section \\[DEFAULT\\]"),
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
mode = design
seed = 4
out = elsewhere
[channel]
calibration = none
werner_visibility = 0.9
transmittance = 0.5
depolarizing_extra = 0.1
contrast_x = 50
contrast_z = 20
[simulate]
inputs = H, D
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
hole_diameter_nm = 180
eps_substrate = 2.0
modes = 1,0
period_sweep = 600:700:50
""")
        cfg = load_config(path)
        assert (cfg.mode, cfg.seed, cfg.out_dir) == ("design", 4, Path("elsewhere"))
        assert (cfg.werner_visibility, cfg.transmittance, cfg.depolarizing_extra) == (0.9, 0.5, 0.1)
        assert (cfg.contrast_x, cfg.contrast_z, cfg.inputs, cfg.shots) == (50.0, 20.0, ("H", "D"), 100)
        assert (cfg.max_likelihood, cfg.cp_projection, cfg.mc_trials) == (True, True, 200)
        assert (cfg.counts_source, cfg.dielectric, cfg.period_nm) == ("bundled", "bundled", 710.0)
        assert (cfg.hole_diameter_nm, cfg.eps_substrate, cfg.modes) == (180.0, 2.0, ((1, 0),))
        assert cfg.period_sweep == (600.0, 700.0, 50.0)

    def test_empty_inputs(self, tmp_path):
        path = write_config(tmp_path, "[simulate]\ninputs = ,\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()


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

    def test_fidelity_table_layout(self, tmp_path):
        out = tmp_path / "res"
        assert main(["simulate", "--seed", "0", "--out", str(out)]) == 0
        with open(out / "fidelity_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outcome", "H", "V", "D", "A", "R", "L"]
        assert rows[-1][0] == "mean"

    def test_subset_inputs_skip_qpt(self, tmp_path):
        cfg = write_config(tmp_path, "[simulate]\ninputs = H, V\nshots = 100\n")
        out = tmp_path / "res"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert not (out / "chi.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["process_fidelity"] is None
        jsonschema.validate(summary, _schema("simulate_summary.json"))


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
        lines = [line for line in open(counts_mod.bundled_counts_path()).read().splitlines()
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
        text = open(counts_mod.bundled_counts_path()).read()
        lines = [line if not line.startswith("chsh,with_spp,0-22.5,") else line.rsplit(",", 1)[0] + ",0"
                 for line in text.splitlines()]
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    def test_missing_counts_file_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "[analyze]\ncounts = /no/such/counts.csv\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


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
            geom = channel.HoleArrayGeometry(row["period_nm"], 200.0, (row["m1"], row["m2"]), 2.25,
                                             metal=table)
            assert row["resonance_nm"] == channel.resonance_wavelength(geom)
            k = channel.dispersion_match(geom, (0.0, 0.0))
            assert [row["k_spp_x"], row["k_spp_y"], row["k_spp_mag"]] == [k[0], k[1], np.linalg.norm(k)]

    def test_out_of_range_period_in_sweep_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[design]\nmodes = 1,1\nperiod_sweep = 300:800:50\n")
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: wavelength") and err.count("\n") == 1
        assert not (out / "design.json").exists()

    @pytest.mark.parametrize("row, problem", [
        ("500,abc,1", "non-numeric value"),
        ("500,nan,1", "non-finite value"),
        ("500,-2,inf", "non-finite value"),
        ("1300,-70,6", "repeated wavelength"),
    ])
    def test_bad_dielectric_csv_exits_3(self, tmp_path, capsys, row, problem):
        eps = tmp_path / "eps.csv"
        eps.write_text(f"wavelength_nm,eps_re,eps_im\n1300,-71.5,6.7\n{row}\n900,-30,1.2\n")
        cfg = write_config(tmp_path, f"[design]\ndielectric = {eps}\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: dielectric CSV line 3: {problem}") and err.count("\n") == 1

    def test_missing_dielectric_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, "[design]\ndielectric = /no/such/eps.csv\n")
        assert main(["design", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": float("nan")})


class TestExitCodes:
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

    def test_unknown_calibration_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "[channel]\ncalibration = maybe\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
