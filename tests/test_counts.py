import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spp_teleport.counts import (
    BELL_LABELS,
    CHSH_OUTCOMES,
    CLASSICAL_STATE_FIDELITY_BOUND,
    ChshSettings,
    CountsDataError,
    CountsTable,
    INPUT_LABELS,
    cell_fidelity_std,
    chsh_s,
    correlation,
    fidelity_from_counts,
    fidelity_table,
    load_bundled,
    CountsFile,
    load_counts_csv,
    sigma_violation,
)

from conftest import random_pure

# Published per-cell fidelities (percent), row order PsiPlus, PsiMinus,
# PhiMinus, PhiPlus; column order H, V, D, A, R, L.
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

PUBLISHED_S = {"without_spp": 2.551, "with_spp": 2.281}
PUBLISHED_MEAN = {"without_spp": 92.67, "with_spp": 88.91}


def _chsh_probabilities(rho4, theta1_deg, theta2_deg):
    """Outcome probabilities for polarizers at the given angles."""

    def proj(theta_deg, sign):
        th = np.deg2rad(theta_deg) + (np.pi / 2 if sign < 0 else 0.0)
        v = np.array([np.cos(th), np.sin(th)])
        return np.outer(v, v.conj())

    probs = {}
    for o in CHSH_OUTCOMES:
        pa = proj(theta1_deg, +1 if o[0] == "+" else -1)
        pb = proj(theta2_deg, +1 if o[1] == "+" else -1)
        probs[o] = float(np.trace(np.kron(pa, pb) @ rho4).real)
    return probs


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
        assert ChshSettings().setting_labels() == ("0-22.5", "0-67.5", "45-22.5", "45-67.5")

    def test_singlet_reaches_tsirelson(self):
        singlet = np.zeros((4, 4))
        vec = np.array([0, 1, -1, 0]) / np.sqrt(2)
        singlet = np.outer(vec, vec)
        s = ChshSettings()
        rows = tuple(
            (lbl, _chsh_probabilities(singlet, t1, t2))
            for lbl, (t1, t2) in zip(
                s.setting_labels(),
                [(s.theta1, s.theta2), (s.theta1, s.theta2_prime),
                 (s.theta1_prime, s.theta2), (s.theta1_prime, s.theta2_prime)],
            )
        )
        table = CountsTable(kind="chsh", block="analytic", rows=rows)
        assert chsh_s(table) == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_product_states_stay_classical(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pure(rng), random_pure(rng)
        rho = np.kron(a.projector().matrix, b.projector().matrix)
        s = ChshSettings()
        rows = tuple(
            (lbl, _chsh_probabilities(rho, t1, t2))
            for lbl, (t1, t2) in zip(
                s.setting_labels(),
                [(s.theta1, s.theta2), (s.theta1, s.theta2_prime),
                 (s.theta1_prime, s.theta2), (s.theta1_prime, s.theta2_prime)],
            )
        )
        table = CountsTable(kind="chsh", block="analytic", rows=rows)
        assert chsh_s(table) <= 2.0 + 1e-10

    @pytest.mark.parametrize("block", ["without_spp", "with_spp"])
    def test_bundled_reproduces_published(self, block):
        table = load_bundled("chsh", block)
        assert chsh_s(table) == pytest.approx(PUBLISHED_S[block], abs=1e-3)


class TestFidelityFromCounts:
    def test_basic(self):
        assert fidelity_from_counts(2746, 120) == pytest.approx(2746 / 2866, abs=1e-15)

    def test_zero_total(self):
        with pytest.raises(CountsDataError):
            fidelity_from_counts(0, 0)

    def test_negative(self):
        with pytest.raises(CountsDataError):
            fidelity_from_counts(-1, 2)


class TestBundledFidelityTables:
    @pytest.mark.parametrize(
        "block,published,mean",
        [("without_spp", PUBLISHED_WITHOUT_SPP, 92.67),
         ("with_spp", PUBLISHED_WITH_SPP, 88.91)],
    )
    def test_all_cells_and_mean(self, block, published, mean):
        result = fidelity_table(load_bundled("fidelity", block), mc_trials=200)
        assert result.outcomes == BELL_LABELS
        assert result.inputs == INPUT_LABELS
        for i in range(4):
            for j in range(6):
                assert 100 * result.fidelities[i, j] == pytest.approx(
                    published[i][j], abs=0.005 + 1e-9)
        assert 100 * result.mean == pytest.approx(mean, abs=0.01)

    def test_mean_std_scale(self):
        result = fidelity_table(load_bundled("fidelity", "without_spp"), mc_trials=1000)
        # the published mean carries +-0.32%; the count-only resampling std
        # must come out positive and not larger than that
        assert 0.0 < result.mean_std < 0.0032

    def test_cell_std_psiplus_h(self):
        mean, std = cell_fidelity_std(load_bundled("fidelity", "without_spp"),
                                      "PsiPlus", "H", mc_trials=4000)
        assert mean == pytest.approx(2746 / 2866, abs=3 * std)
        assert 0.002 < std < 0.006


class TestSigmaViolation:
    def test_published_state_violations(self):
        assert sigma_violation(0.9267, CLASSICAL_STATE_FIDELITY_BOUND, 0.0032) >= 81
        assert sigma_violation(0.8891, CLASSICAL_STATE_FIDELITY_BOUND, 0.0038) >= 58

    def test_zero_std(self):
        with pytest.raises(CountsDataError):
            sigma_violation(1.0, 0.5, 0.0)


class TestLoading:
    def test_missing_block(self):
        with pytest.raises(CountsDataError):
            load_bundled("chsh", "no_such_block")

    def test_bad_csv(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting\nchsh,x,y\n")
        with pytest.raises(CountsDataError):
            load_counts_csv(path, "chsh", "x")

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\nchsh,x,0-22.5,++,12.5\n")
        with pytest.raises(CountsDataError):
            load_counts_csv(path, "chsh", "x")

    def test_duplicate_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\n"
                        "chsh,x,0-22.5,++,12\nchsh,x,0-22.5,+-,3\nchsh,x,0-22.5,++,13\n")
        with pytest.raises(CountsDataError, match="line 4: duplicate"):
            load_counts_csv(path, "chsh", "x")

    def test_short_row_is_a_data_error(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\nchsh,x,0-22.5,++,12\nchsh,x,0-22.5,+-\n")
        with pytest.raises(CountsDataError, match="line 3: count None is not an integer"):
            load_counts_csv(path, "chsh", "x")

    def test_one_read_gives_each_table_and_its_own_first_problem(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,block,setting,outcome,count\n"
                        "chsh,x,s,++,1\nchsh,y,s,++,oops\nchsh,x,s,+-,2\nchsh,y,s,++,1.5\n"
                        "chsh,x,s,-+,3\nchsh,x,s,--,4\nfidelity,x,a,phi,many\n")
        keys = [("chsh", "x"), ("chsh", "y"), ("chsh", "z")]
        tables = CountsFile(path, keys)
        assert tables.table("chsh", "x") == load_counts_csv(path, "chsh", "x")
        assert tables.table("chsh", "x").row("s") == {"++": 1, "+-": 2, "-+": 3, "--": 4}
        for kind, block in keys[1:]:
            with pytest.raises(CountsDataError) as single:
                load_counts_csv(path, kind, block)
            with pytest.raises(CountsDataError) as batched:
                tables.table(kind, block)
            assert str(batched.value) == str(single.value)
        assert str(single.value).startswith("no rows with kind='chsh', block='z'")

    def test_missing_outcome_in_row(self):
        with pytest.raises(CountsDataError):
            CountsTable(kind="chsh", block="b", rows=(("0-22.5", {"++": 1}),))

    def test_row_lookup(self):
        table = load_bundled("fidelity", "with_spp")
        row = table.row("PsiPlus/H")
        assert set(row) == {"phi", "perp"}
        with pytest.raises(CountsDataError):
            table.row("PsiPlus/Q")
