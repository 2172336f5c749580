import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport.counts import (
    CHSH_OUTCOMES,
    CHSH_SETTINGS,
    CLASSICAL_STATE_FIDELITY_BOUND,
    CountsDataError,
    CountsTable,
    INPUT_LABELS,
    LAYOUT,
    MAX_COUNT,
    chsh_s,
    correlation,
    fidelity_table,
    CountsFile,
    bundled_counts_path,
    chsh_counts,
    chsh_s_values,
    load_counts_csv,
    mean_fidelity_values,
    sigma_violation,
)
from spp_teleport.protocol import OUTCOMES
from spp_teleport.tomo import monte_carlo_errors

from conftest import projector, random_pure
from reference import chsh_s_16

# Published per-cell fidelities (percent), row order PUBLISHED_ROWS; column
# order H, V, D, A, R, L.
PUBLISHED_ROWS = ("PsiPlus", "PsiMinus", "PhiMinus", "PhiPlus")
PUBLISHED_WITHOUT_SPP = [
    [95.81, 97.22, 95.17, 95.90, 95.20, 97.98],
    [88.22, 91.25, 92.71, 88.37, 93.99, 96.85],
    [89.47, 91.48, 91.40, 87.50, 92.32, 94.03],
    [88.02, 86.46, 95.28, 96.83, 90.18, 92.43],
]
PUBLISHED_WITH_SPP = [
    [94.80, 93.62, 93.97, 97.44, 86.95, 85.75],
    [85.32, 89.25, 90.55, 84.50, 84.68, 85.34],
    [86.94, 89.04, 88.64, 81.09, 88.98, 88.88],
    [85.85, 84.66, 95.67, 97.04, 85.58, 89.31],
]


def published_in_outcome_order(published):
    """The rows of a published table in OUTCOMES order, the order fidelity_table gives."""
    return np.array([published[PUBLISHED_ROWS.index(outcome.label)] for outcome in OUTCOMES])


PUBLISHED_S = {"without_spp": 2.551, "with_spp": 2.281}
PUBLISHED_MEAN = {"without_spp": 92.67, "with_spp": 88.91}


def _chsh_probabilities(rho4, theta1_deg, theta2_deg):
    """Outcome probabilities for polarizers at the given angles."""

    def proj(theta_deg, sign):
        th = np.deg2rad(theta_deg) + (np.pi / 2 if sign < 0 else 0.0)
        v = np.array([np.cos(th), np.sin(th)])
        return np.outer(v, v.conj())

    probs = []  # in CHSH_OUTCOMES order
    for o in CHSH_OUTCOMES:
        pa = proj(theta1_deg, +1 if o[0] == "+" else -1)
        pb = proj(theta2_deg, +1 if o[1] == "+" else -1)
        probs.append(float(np.trace(np.kron(pa, pb) @ rho4).real))
    return tuple(probs)


def _analytic_chsh_table(rho4):
    """A CHSH table of exact outcome probabilities at the angles each setting label names."""
    counts = tuple(_chsh_probabilities(rho4, *map(float, lbl.split("-"))) for lbl in CHSH_SETTINGS)
    return CountsTable(kind="chsh", block="analytic", counts=counts)


def _row(table, label):
    """The {outcome: count} of one setting or cell of a table."""
    labels, outcomes = LAYOUT[table.kind]
    return dict(zip(outcomes, table.counts[labels.index(label)]))


def cell_fidelity_std(table, cell, mc_trials):
    """Monte Carlo (mean, std) of one cell's phi / (phi + perp)."""
    row = _row(table, cell)
    return monte_carlo_errors([row["phi"], row["perp"]], lambda c: c[:, 0] / (c[:, 0] + c[:, 1]), trials=mc_trials)


def _bundled_with(tmp_path, edit=lambda lines: lines):
    """The path of a copy of the bundled counts CSV whose lines `edit` rewrote."""
    path = tmp_path / "counts.csv"
    path.write_text("\n".join(edit(bundled_counts_path().read_text().splitlines())) + "\n")
    return path


class TestCorrelation:
    def test_perfect_correlation(self):
        assert correlation({"++": 50, "+-": 0, "-+": 0, "--": 50}) == 1.0

    def test_perfect_anticorrelation(self):
        assert correlation({"++": 0, "+-": 70, "-+": 30, "--": 0}) == -1.0

    def test_missing_outcome(self):
        with pytest.raises(CountsDataError):
            correlation({"++": 1, "+-": 1, "-+": 1})

    def test_zero_total(self):
        with pytest.raises(CountsDataError):
            correlation({o: 0 for o in CHSH_OUTCOMES})

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=4),
           st.integers(min_value=2, max_value=50))
    def test_scale_invariance(self, counts, k):
        if sum(counts) == 0:
            counts[0] = 1
        base = dict(zip(CHSH_OUTCOMES, counts))
        scaled = {o: k * c for o, c in base.items()}
        assert correlation(scaled) == pytest.approx(correlation(base), abs=1e-12)
        assert -1.0 <= correlation(base) <= 1.0


class TestChsh:
    def test_setting_labels(self):
        assert CHSH_SETTINGS == ("0-22.5", "0-67.5", "45-22.5", "45-67.5")

    def test_singlet_reaches_tsirelson(self):
        vec = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert chsh_s(_analytic_chsh_table(np.outer(vec, vec))) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_product_states_stay_classical(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pure(rng), random_pure(rng)
        rho = np.kron(projector(a).matrix, projector(b).matrix)
        assert chsh_s(_analytic_chsh_table(rho)) <= 2.0 + 1e-10

    @pytest.mark.parametrize("block", ["without_spp", "with_spp"])
    def test_bundled_reproduces_published(self, block):
        table = load_counts_csv(bundled_counts_path(), "chsh", block)
        assert chsh_s(table) == pytest.approx(PUBLISHED_S[block], abs=1e-3)


def _chsh_table(counts16, block="b"):
    """A CHSH table of 16 counts, (N++, N+-, N-+, N--) per setting in CHSH_SETTINGS order."""
    return CountsTable(kind="chsh", block=block, counts=tuple(tuple(counts16[i:i + 4]) for i in range(0, 16, 4)))


class TestPooledChsh:
    # every per-setting total, and so every partial sum of either formula, is an integer below 2**53
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 50), st.integers(0, 2**51 - 1)), min_size=16, max_size=16))
    def test_pooled_counts_give_the_16_count_bits(self, counts16):
        for i in range(0, 16, 4):
            if sum(counts16[i:i + 4]) == 0:
                counts16[i] = 1
        table = _chsh_table(counts16)
        want = chsh_s_16(np.array(counts16, dtype=float))
        assert chsh_s_values(chsh_counts(table)).tobytes() == want.tobytes()
        assert chsh_s(table) == float(want)

    def test_pooled_batch_gives_the_16_count_bits(self):
        # the Monte Carlo path: int64 Poisson resamples, pooled before the float conversion
        table = load_counts_csv(bundled_counts_path(), "chsh", "with_spp")
        c16 = np.random.default_rng(7).poisson(np.ravel(table.counts), size=(500, 16))
        pooled = np.stack([c16[:, 0::4] + c16[:, 3::4], c16[:, 1::4] + c16[:, 2::4]], axis=-1).reshape(500, 8)
        assert chsh_s_values(pooled).tobytes() == chsh_s_16(c16).tobytes()

    def test_pooled_counts_follow_the_settings(self):
        table = _chsh_table(list(range(1, 17)))
        assert chsh_counts(table).tolist() == [5, 5, 13, 13, 21, 21, 29, 29]

    @pytest.mark.parametrize("block", ["without_spp", "with_spp"])
    def test_pooled_std_matches_16_count_std_and_delta_method(self, block):
        table = load_counts_csv(bundled_counts_path(), "chsh", block)
        c16 = np.array(table.counts, dtype=float).ravel()
        _, std16 = monte_carlo_errors(c16, chsh_s_16, trials=20_000, seed=1)
        _, std8 = monte_carlo_errors(chsh_counts(table), chsh_s_values, trials=20_000, seed=2)
        total = c16.reshape(4, 4).sum(axis=1)
        e = (c16[0::4] - c16[1::4] - c16[2::4] + c16[3::4]) / total
        delta = np.sqrt(np.sum((1 - e**2) / total))  # delta method, Poisson counts
        assert std8 == pytest.approx(std16, rel=0.03)
        assert std8 == pytest.approx(delta, rel=0.05)
        assert std16 == pytest.approx(delta, rel=0.05)

    def test_pooled_count_above_the_poisson_limit_names_block_and_setting(self):
        counts16 = [10] * 16
        counts16[12], counts16[15] = MAX_COUNT, 1  # 45-67.5: N++ + N-- = MAX_COUNT + 1
        table = _chsh_table(counts16, block="with_spp")
        with pytest.raises(CountsDataError, match=(r"^chsh block 'with_spp', setting '45-67.5': pooled count "
                                                   rf"{MAX_COUNT + 1} is above the Poisson limit {MAX_COUNT}$")):
            chsh_counts(table)
        counts16[15] = 0
        assert chsh_counts(_chsh_table(counts16))[6] == float(MAX_COUNT)


class TestBundledFidelityTables:
    @pytest.mark.parametrize(
        "block,published,mean",
        [("without_spp", PUBLISHED_WITHOUT_SPP, 92.67),
         ("with_spp", PUBLISHED_WITH_SPP, 88.91)],
    )
    def test_all_cells_and_mean(self, block, published, mean):
        fids = fidelity_table(load_counts_csv(bundled_counts_path(), "fidelity", block))
        published = published_in_outcome_order(published)
        for i in range(4):
            for j in range(6):
                assert 100 * fids[i, j] == pytest.approx(
                    published[i][j], abs=0.005 + 1e-9)
        assert 100 * fids.mean() == pytest.approx(mean, abs=0.01)

    def test_mean_std_scale(self):
        table = load_counts_csv(bundled_counts_path(), "fidelity", "without_spp")
        counts = np.array(table.counts, dtype=float).ravel()
        mean, std = monte_carlo_errors(counts, mean_fidelity_values, trials=1000)
        # the published mean carries +-0.32%; the count-only resampling std
        # must come out positive and not larger than that
        assert mean == pytest.approx(fidelity_table(table).mean(), abs=3 * std)
        assert 0.0 < std < 0.0032

    def test_rows_follow_the_protocol_outcome_order(self):
        table = load_counts_csv(bundled_counts_path(), "fidelity", "with_spp")
        fids = fidelity_table(table)
        labels = tuple(outcome.label for outcome in OUTCOMES)
        assert labels == ("PhiPlus", "PhiMinus", "PsiMinus", "PsiPlus")
        for k, outcome in enumerate(labels):
            for j, inp in enumerate(INPUT_LABELS):
                row = _row(table, f"{outcome}/{inp}")
                assert fids[k, j] == row["phi"] / (row["phi"] + row["perp"])

    def test_counts_are_the_cells_phi_perp_pairs(self):
        # the flat (phi, perp) counts analyze resamples give the table's mean, bit for bit
        table = load_counts_csv(bundled_counts_path(), "fidelity", "with_spp")
        counts = np.array(table.counts, dtype=float).ravel()
        want = [_row(table, f"{o.label}/{i}")[k] for o in OUTCOMES for i in INPUT_LABELS for k in ("phi", "perp")]
        assert counts.tolist() == want
        assert mean_fidelity_values(counts) == float(fidelity_table(table).mean())

    def test_cell_std_psiplus_h(self):
        table = load_counts_csv(bundled_counts_path(), "fidelity", "without_spp")
        mean, std = cell_fidelity_std(table, "PsiPlus/H", mc_trials=4000)
        assert mean == pytest.approx(2746 / 2866, abs=3 * std)
        assert 0.002 < std < 0.006


class TestSigmaViolation:
    def test_published_state_violations(self):
        assert sigma_violation(0.9267, CLASSICAL_STATE_FIDELITY_BOUND, 0.0032) >= 81
        assert sigma_violation(0.8891, CLASSICAL_STATE_FIDELITY_BOUND, 0.0038) >= 58


class TestLoading:
    def test_missing_block(self, tmp_path):
        path = _bundled_with(tmp_path, lambda lines: [line for line in lines if not line.startswith("chsh,with_spp,")])
        assert chsh_s(load_counts_csv(path, "chsh", "without_spp")) == pytest.approx(PUBLISHED_S["without_spp"],
                                                                                     abs=1e-3)
        with pytest.raises(CountsDataError, match=r"^no rows with kind='chsh', block='with_spp'$"):
            load_counts_csv(path, "chsh", "with_spp")

    def test_bad_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting\nchsh,x,y\n")
        with pytest.raises(CountsDataError):
            load_counts_csv(path, "chsh", "x")

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "c.csv"
        # int() alone takes all but the first: a count is ASCII digits
        for count in ("12.5", "71_100", " 71100", "71100 ", "+71100", "\u0667\u0661\u0661\u0660\u0660"):
            path.write_text(f"kind,block,setting,outcome,count\nchsh,with_spp,0-22.5,++,{count}\n", encoding="utf-8")
            with pytest.raises(CountsDataError, match=f"^line 2: count {re.escape(repr(count))} is not an integer$"):
                load_counts_csv(path, "chsh", "with_spp")

    def test_row_longer_than_the_header_is_a_data_error(self, tmp_path):
        path = _bundled_with(tmp_path, lambda lines: [
            line + ",99" if line.startswith("chsh,without_spp,0-22.5,++,") else line for line in lines])
        with pytest.raises(CountsDataError, match="^line 2: more fields than the header$"):
            CountsFile(path)

    def test_max_count_is_the_poisson_limit(self, tmp_path):
        def edit(lines, count):
            first = next(i for i, line in enumerate(lines) if line.startswith("fidelity,with_spp,PsiPlus/H,perp,"))
            lines[first - 1:first + 1] = [f"fidelity,with_spp,PsiPlus/H,phi,{MAX_COUNT}",
                                          f"fidelity,with_spp,PsiPlus/H,perp,{count}"]
            return lines

        with pytest.raises(CountsDataError, match=rf"^line \d+: count {MAX_COUNT + 1} is above the Poisson limit"):
            CountsFile(_bundled_with(tmp_path, lambda lines: edit(lines, MAX_COUNT + 1)))
        table = load_counts_csv(_bundled_with(tmp_path, lambda lines: edit(lines, 1)), "fidelity", "with_spp")
        mean, std = cell_fidelity_std(table, "PsiPlus/H", mc_trials=100)
        assert np.isfinite([mean, std]).all()
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(float(MAX_COUNT), np.inf))

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\n"
                        "chsh,with_spp,0-22.5,++,12\nchsh,with_spp,0-22.5,+-,3\nchsh,with_spp,0-22.5,++,13\n")
        with pytest.raises(CountsDataError, match="^line 4: duplicate row for setting '0-22.5', outcome '\\+\\+'$"):
            CountsFile(path)

    def test_short_row_is_a_data_error(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\nchsh,with_spp,0-22.5,++,12\nchsh,with_spp,0-22.5,+-\n")
        with pytest.raises(CountsDataError, match="^line 3: count None is not an integer$"):
            CountsFile(path)

    def test_missing_outcome_in_row(self):
        counts = ((1, None, 1, None), *((1, 1, 1, 1),) * 3)
        message = "chsh block 'b', setting '0-22.5': missing outcomes ['+-', '--']"
        with pytest.raises(CountsDataError, match=f"^{re.escape(message)}$"):
            CountsTable(kind="chsh", block="b", counts=counts)

    def test_tables_hold_their_counts_in_layout_order(self):
        tables = CountsFile(bundled_counts_path())
        rows = {}
        for line in bundled_counts_path().read_text().splitlines()[1:]:
            kind, block, setting, outcome, count = line.split(",")
            rows.setdefault((kind, block), {}).setdefault(setting, {})[outcome] = int(count)
        for (kind, block), table_rows in rows.items():
            labels, outcomes = LAYOUT[kind]
            assert tables.table(kind, block).counts == tuple(
                tuple(table_rows[label][out] for out in outcomes) for label in labels)
        assert LAYOUT["fidelity"][0][:7] == ("PhiPlus/H", "PhiPlus/V", "PhiPlus/D", "PhiPlus/A", "PhiPlus/R",
                                             "PhiPlus/L", "PhiMinus/H")
