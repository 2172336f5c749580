import csv
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport import channel, protocol, tomo
from spp_teleport import counts as counts_mod
from spp_teleport.cli import ConfigError, RunConfig, build_parser, load_config, main
from spp_teleport.qcore import complex_matrix_from_json

SRC = Path(__file__).resolve().parents[1] / "src"

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

    def test_repeated_inputs_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "[simulate]\ninputs = H, H, V\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: inputs must not repeat a label") and err.count("\n") == 1
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


    @pytest.mark.parametrize("text, message", [
        ("[channel]\ncontrast_x = nan\n", "bad value for [channel] contrast_x: 'nan' is not a finite number"),
        ("[simulate]\nshots = many\n",
         "bad value for [simulate] shots: invalid literal for int() with base 10: 'many'"),
        ("[tomography]\nmax_likelihood = maybe\n", "bad value for [tomography] max_likelihood: Not a boolean: maybe"),
        ("[design]\nperiod_sweep = 600:700\n", "bad value for [design] period_sweep: expected 'start:stop:step'"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, text, message):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


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

    def test_branches_without_a_shot_per_basis_get_no_estimate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[channel]\ncalibration = without_spp\n\n[simulate]\nshots = 3\ninputs = H, D\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        records = json.loads((out / "records.json").read_text())
        estimates = json.loads((out / "tomography.json").read_text())
        jsonschema.validate(estimates, _schema("simulate_tomography.json"))
        assert [r["shots"] for r in records] == [0, 3, 0, 0, 1, 0, 2, 0]
        assert [e["density_matrix"] is None for e in estimates] == [True, False] + [True] * 6
        assert [e["fidelity"] is None for e in estimates] == [True, False] + [True] * 6
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

    def test_ml_not_converged_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tomo, "qst_reconstruct", functools.partial(tomo.qst_reconstruct, ml_max_iter=1))
        cfg = write_config(tmp_path, "[tomography]\nmax_likelihood = true\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("data error: 24 of 24 maximum-likelihood reconstructions "
                       "did not converge within 1 iterations\n")
        assert not (tmp_path / "o" / "records.json").exists()

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
@given(shots=st.integers(1, 200),
       inputs=st.one_of(st.just(list(protocol.INPUT_LABELS)),
                        st.lists(st.sampled_from(protocol.INPUT_LABELS), min_size=1, unique=True)),
       calibration=st.sampled_from(["none", "with_spp", "without_spp"]),
       cp_projection=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_simulate_configs_exit_0_with_valid_outputs(tmp_path_factory, shots, inputs, calibration,
                                                    cp_projection, seed):
    root = tmp_path_factory.mktemp("sim")
    records = []
    for ml in ("false", "true"):
        cfg = write_config(root, f"[channel]\ncalibration = {calibration}\n\n"
                                 f"[simulate]\nshots = {shots}\ninputs = {', '.join(inputs)}\n\n"
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

    def test_first_problem_in_use_order_is_reported(self, tmp_path, capsys):
        # a zero chsh/with_spp setting is met before the bad fidelity row and
        # the short chsh row of a block analyze does not read
        lines = counts_mod.bundled_counts_path().read_text().splitlines()
        lines = [line.rsplit(",", 1)[0] + ",0" if line.startswith("chsh,with_spp,0-22.5,") else line
                 for line in lines]
        first_fid = next(i for i, line in enumerate(lines) if line.startswith("fidelity,"))
        lines[first_fid] = lines[first_fid].rsplit(",", 1)[0] + ",1.5"
        lines.append("chsh,other_block,0-22.5,++")
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "data error: zero total counts\n"
        assert not (tmp_path / "o" / "chsh.json").exists()

    def test_rows_of_unused_blocks_are_not_validated(self, tmp_path):
        text = counts_mod.bundled_counts_path().read_text()
        counts = tmp_path / "counts.csv"
        counts.write_text(text + "chsh,other_block,0-22.5,++,many\nnotes,with_spp,x,y\n")
        cfg = write_config(tmp_path, f"[analyze]\ncounts = {counts}\n")
        for name, argv in (("bundled", []), ("extra", ["--config", str(cfg)])):
            assert main(["analyze", *argv, "--out", str(tmp_path / name)]) == 0
        assert _hash_dir(tmp_path / "bundled") == _hash_dir(tmp_path / "extra")

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


class TestStartup:
    def test_cli_import_does_not_load_the_thread_pool(self):
        code = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport spp_teleport.cli\n"
                "print('concurrent.futures' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()


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
