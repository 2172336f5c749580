"""The output encoders against the writers they replaced.

Each encoder returns the text of a file; ``cli.main`` writes it.

The references below are the encoders the commands used before
``spp_teleport.output`` existed: ``json.dumps`` for JSON, and
``csv.DictWriter`` / ``csv.writer`` with floats preformatted as ``.12g``.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spp_teleport import channel, output, protocol
from spp_teleport.cli import load_config, main
from spp_teleport.qcore import clamp_unit, complex_matrix_to_json, expectation

DESIGN_COLUMNS = ["period_nm", "m1", "m2", "resonance_nm", "k_spp_x", "k_spp_y", "k_spp_mag"]


def reference_json(rows):
    return json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"


def reference_csv(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (f"{v:.12g}" if isinstance(v, float) else v) for k, v in row.items()})
    return buf.getvalue()


def reference_design_rows(periods, modes, eps_substrate):
    """Rows of ``design`` as they were built before it wrote from columns."""
    table = channel.gold_dielectric_table()
    columns = []
    for mode in modes:
        lam = channel.resonance_wavelength(periods, mode, eps_substrate, table)
        k_spp = channel.dispersion_match(periods, mode)
        k_mag = np.sqrt(k_spp[:, None, :] @ k_spp[:, :, None])[:, 0, 0]
        columns.append((mode, lam.tolist(), k_spp.tolist(), k_mag.tolist()))
    return [
        {"period_nm": period, "m1": mode[0], "m2": mode[1], "resonance_nm": lam[i],
         "k_spp_x": k_spp[i][0], "k_spp_y": k_spp[i][1], "k_spp_mag": k_mag[i]}
        for i, period in enumerate(periods.tolist()) for mode, lam, k_spp, k_mag in columns
    ]


# The benchmark's design sweep: 600-800 nm in 0.25 nm steps shifted by an
# offset below 0.24 nm, modes (1,0) and (1,1), glass substrate.
@pytest.mark.parametrize("offset", [0.0, 0.1234567, 0.2399])
def test_design_sweep_matches_reference_writers(tmp_path, offset):
    start, stop, step = 600.0 + offset, 800.0 + offset, 0.25
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[design]\nperiod_sweep = {start!r}:{stop!r}:{step!r}\nmodes = 1,0;1,1\n"
                   "eps_substrate = 2.25\n")
    out = tmp_path / "o"
    assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    rows = reference_design_rows(np.arange(start, stop + step / 2, step), ((1, 0), (1, 1)), 2.25)
    assert len(rows) == 1602
    assert (out / "design.json").read_bytes() == reference_json(rows).encode()
    assert (out / "design.csv").read_bytes() == reference_csv(DESIGN_COLUMNS, rows).encode()


def test_default_design_matches_reference_writers(tmp_path):
    out = tmp_path / "o"
    assert main(["design", "--out", str(out)]) == 0
    rows = reference_design_rows(np.array([700.0]), ((1, 1), (1, 0)), 2.25)
    assert (out / "design.json").read_bytes() == reference_json(rows).encode()
    assert (out / "design.csv").read_bytes() == reference_csv(DESIGN_COLUMNS, rows).encode()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1e300])
_INTS = st.integers(min_value=-10**20, max_value=10**20)
_INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=6))
    names = draw(st.lists(st.sampled_from(["period_nm", "m1", "Z", "k_spp_x", "b_2"]),
                          min_size=1, max_size=4, unique=True))
    kinds = {name: draw(st.sampled_from([(_FLOATS, np.float64), (_INT64, np.int64)])) for name in names}
    return {name: np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)), dtype=dtype)
            for name, (values, dtype) in kinds.items()}


def _f64(*values):
    return np.array(values, dtype=np.float64)


def _i64(*values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=50, deadline=None)
@given(columns=tables())
@example(columns={"k_spp_x": _f64(-0.0, 5e-324, 1e16, 1e-7, 1e300), "m1": _i64(-3, 0, 5, -2**63, 2**63 - 1)})
@example(columns={"k_spp_x": _f64(0.0, -0.0, 0.0), "k_spp_y": _f64(-0.0, 0.0, -0.0)})  # 0.0 == -0.0, bits differ
@example(columns={"period_nm": _f64(700.0, 1.5, 700.0), "resonance_nm": _f64(1.5, 700.0, 0.1)})  # shared
@example(columns={"m1": _i64(1, -2, 1), "Z": _i64(0, 2**63 - 1, 0)})
@example(columns={"m1": _i64(0, 1), "k_spp_x": _f64(0.0, 5e-324)})  # an int and a float with the same bits
@example(columns={"period_nm": _f64(), "m1": _i64()})
@example(columns={"b_2": np.arange(12.0).reshape(3, 4).T[1], "m1": np.arange(6)[::2]})  # strided views
def test_table_matches_reference_writers(columns):
    csv_text, json_text = output.write_table(columns, with_json=True)
    rows = [dict(zip(columns, values)) for values in zip(*(col.tolist() for col in columns.values()))]
    assert json_text == reference_json(rows)
    assert csv_text == reference_csv(list(columns), rows)
    assert output.write_table(columns) == (csv_text, None)


def _design_like_columns():
    return {"period_nm": _f64(600.0, 600.25), "m1": _i64(1, 1), "resonance_nm": _f64(790.5, 791.0),
            "k_spp_x": _f64(0.0105, 0.0104)}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["period_nm", "resonance_nm", "k_spp_x"])
def test_non_finite_column_writes_neither_file(bad, name):
    columns = _design_like_columns()
    columns[name][1] = bad
    with pytest.raises(ValueError, match=f"column '{name}' holds NaN or infinity"):
        output.write_table(columns, with_json=True)


@pytest.mark.parametrize("name, values", [
    ("period_nm", [600.0, 600.25]),
    ("m1", np.array([True, True])),
    ("m1", np.array([1.0, 1.0], dtype=np.float32)),
    ("resonance_nm", np.array([790.5, 791.0], dtype=object)),
    ("k_spp_x", _f64(0.0105)),
    ("k_spp_x", _f64(0.0105, 0.0104)[None]),
    ("m1", np.array([1, 1], dtype=np.int32)),
    ("period_nm", _f64(600.0, 600.25).astype(">f8")),
    ("m1", np.int64(1)),
])
def test_column_types_and_lengths_are_checked(name, values):
    columns = _design_like_columns()
    columns[name] = values
    with pytest.raises(ValueError, match=rf"column '{name}' must be a 1-D float64 or int64 array|differ in length"):
        output.write_table(columns, with_json=True)


def test_rows_match_reference_writer():
    rows = [["outcome", "H", "V"], ["PhiPlus", 0.5, np.float64(1 / 3)], ["PhiMinus", -0.0, 1e-7],
            ["mean", 0.123456789012345], ["count", 7]]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    assert output.write_rows(rows) == buf.getvalue()


@pytest.mark.parametrize("cell", [float("nan"), float("-inf"), "a,b", 'say "x"'])
def test_rows_reject_non_finite_values_and_quoted_labels(cell):
    with pytest.raises(ValueError):
        output.write_rows([["outcome", cell]])


def test_write_json_rejects_nan():
    with pytest.raises(ValueError):
        output.write_json({"value": float("nan")})


def reference_simulate_rows(config):
    """``records.json`` and ``tomography.json`` rows of ``simulate`` as it built
    them before it wrote them from columns."""
    cfg = load_config(config)
    campaign = protocol.Campaign.run(cfg.build_channel(), cfg.shots, cfg.seed, cfg.max_likelihood)
    targets = np.array([protocol.INPUT_STATES[label] for label in protocol.INPUT_LABELS])
    fid_qst = clamp_unit(expectation(campaign.estimates, targets[:, None]).real)
    branches = [(label, outcome) for label in protocol.INPUT_LABELS for outcome in protocol.OUTCOMES]
    records = [
        {"input": label, "outcome": outcome.label, "port": outcome.port, "shots": n, "density_matrix": rho,
         "fidelity": f}
        for (label, outcome), n, rho, f in zip(branches, campaign.shots.ravel().tolist(),
                                               complex_matrix_to_json(campaign.states.reshape(-1, 2, 2)),
                                               campaign.fidelities.ravel().tolist())
    ]
    tomography = [
        {"input": label, "outcome": outcome.label, "density_matrix": rho if ok else None,
         "fidelity": f if ok else None}
        for (label, outcome), ok, rho, f in zip(branches, campaign.estimated.ravel().tolist(),
                                                complex_matrix_to_json(campaign.estimates.reshape(-1, 2, 2)),
                                                fid_qst.ravel().tolist())
    ]
    return records, tomography


# The benchmark's simulate-tomo config (at seed 0 and at the --seed the benchmark
# derives for its first invocation), and 30-shot runs whose seeds 0 and 2
# leave a branch with fewer than 3 shots, so without an estimate.
@pytest.mark.parametrize("text, seed, nulls", [
    ("[channel]\ncalibration = with_spp\n\n[simulate]\nshots = 100000\n\n"
     "[tomography]\nmax_likelihood = true\ncp_projection = true\n", 0, 0),
    ("[channel]\ncalibration = with_spp\n\n[simulate]\nshots = 100000\n\n"
     "[tomography]\nmax_likelihood = true\ncp_projection = true\n", 2613022947, 0),
    ("[channel]\ncalibration = without_spp\n\n[simulate]\nshots = 30\n\n[tomography]\nmax_likelihood = true\n",
     0, 1),
    ("[simulate]\nshots = 30\n", 2, 1),
])
def test_simulate_rows_match_reference_writer(tmp_path, text, seed, nulls):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nseed = {seed}\n\n{text}")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    records, tomography = reference_simulate_rows(cfg)
    assert sum(row["density_matrix"] is None for row in tomography) == nulls
    assert (out / "records.json").read_bytes() == reference_json(records).encode()
    assert (out / "tomography.json").read_bytes() == reference_json(tomography).encode()


_STATE = [[[0.5, 0.0], [-0.0, -0.5]], [[-0.0, 0.5], [0.5, -0.0]]]


def test_json_rows_match_reference_writer():
    columns = {
        "density_matrix": [_STATE, None, [[[1.0, -0.0], [5e-324, 1e300]], [[1e16, 1e-7], [-0.0, 0.0]]]],
        "fidelity": [-0.0, None, 1.0],
        "input": ["H", "V", 'say "\u00e9" 100%'],
        "shots": [0, -10**20, 10**20],
        "empty": [[], None, []],
        "%s": [None, None, None],
    }
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert output.write_json_rows(columns) == reference_json(rows)
    assert output.write_json_rows({"fidelity": []}) == "[]\n"


_LEAVES = st.one_of(_FLOATS, st.none())


@settings(max_examples=50, deadline=None)
@given(n_rows=st.integers(0, 5), shape=st.lists(st.integers(0, 3), max_size=3),
       kinds=st.lists(st.sampled_from(["float", "int", "str", "nested"]), min_size=1, max_size=4), data=st.data())
def test_json_rows_match_reference_writer_property(n_rows, shape, kinds, data):
    def nested(depth):
        if depth == len(shape):
            return _FLOATS
        return st.lists(nested(depth + 1), min_size=shape[depth], max_size=shape[depth])

    values = {"float": _FLOATS, "int": _INTS, "str": st.text(max_size=4), "nested": nested(0)}
    columns = {f"c{i}": data.draw(st.lists(st.one_of(values[kind], st.none()), min_size=n_rows, max_size=n_rows))
               for i, kind in enumerate(kinds)}
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert output.write_json_rows(columns) == reference_json(rows)


@pytest.mark.parametrize("values, match", [
    ([_STATE, [[[0.5, 0.0], [0.0, 0.5]]]], "different shapes"),
    ([_STATE, [[[0.5, 0.0], [0.0, 0.5, 0.0]], [[0.0, 0.5], [0.5, 0.0]]]], "different shapes"),
    ([[[1, 0.0]]], "plain floats"),
    ([[[True, 0.0]]], "plain floats"),
    ([[[np.float64(1.0), 0.0]]], "plain floats"),
    ([[[0.5, float("nan")]]], "NaN or infinity"),
    ([float("inf"), None], "NaN or infinity"),
    ([1, 1.0], "plain"),
    ([True, False], "plain"),
    ([0.5, [0.5]], "plain"),
    (["H", 1], "plain"),
])
def test_json_rows_are_checked_before_writing(values, match):
    with pytest.raises(ValueError, match=match):
        output.write_json_rows({"input": ["H"] * len(values), "v": values})
    with pytest.raises(ValueError, match="one length"):
        output.write_json_rows({"input": ["H"], "v": [0.5, 0.5]})
    with pytest.raises(ValueError, match="one length"):
        output.write_json_rows({})
