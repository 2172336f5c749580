import math

import numpy as np
import pytest

from spp_teleport.channel import (
    BUDGET_WITH_SPP,
    BUDGET_WITHOUT_SPP,
    ChannelModel,
    DielectricTable,
    EOM_CONTRASTS,
    SPP_TRANSMITTANCE,
    apply_channel,
    calibrated_channel,
    fidelity_budget_total,
    gold_dielectric_table,
    load_dielectric_table,
    resonance_wavelength,
    dispersion_match,
)
from spp_teleport.output import DataError
from spp_teleport.qcore import MixedState, fidelity_pure

from conftest import random_mixed
from reference import SINGLET, werner

GOLD = gold_dielectric_table()


def _h(period, mode, eps_d, lam):
    """The resonance condition's residual P/|m| sqrt(eps_d eps_m / (eps_d + eps_m)) - lambda on GOLD."""
    eps_m = float(np.interp(lam, GOLD.wavelengths_nm, GOLD.eps_re))
    return period / math.hypot(*mode) * math.sqrt(eps_d * eps_m / (eps_d + eps_m)) - lam


def _solve(period, mode, eps_d, metal=GOLD):
    """The resonance of one period, solved as a one-element array."""
    return float(resonance_wavelength(np.array([period], dtype=float), mode, eps_d, metal)[0])


class TestFlipError:
    """The EOM flips of ChannelModel: a contrast c fails a flip with probability 1/(1 + c)."""

    def test_epsilons(self):
        ch = ChannelModel(**EOM_CONTRASTS)
        assert ch.flip_error("X") == pytest.approx(1 / 78.5, abs=1e-15)
        assert ch.flip_error("Z") == pytest.approx(1 / 30.7, abs=1e-15)

    def test_no_contrast_is_a_perfect_flip(self):
        ch = ChannelModel(contrast_x=3.0)
        assert (ch.flip_error("X"), ch.flip_error("Z")) == (0.25, 0.0)


class TestWerner:
    """The Werner state the brute-force teleportation oracle starts from."""

    def test_eigenvalues(self):
        v = 0.9
        evals = np.sort(np.linalg.eigvalsh(werner(v)))
        assert np.allclose(evals[:3], (1 - v) / 4, atol=1e-12)
        assert evals[3] == pytest.approx((1 + 3 * v) / 4, abs=1e-12)

    def test_singlet_fidelity(self):
        v = 0.9734
        assert fidelity_pure(MixedState(werner(v)), SINGLET) == pytest.approx(0.98005, abs=1e-12)

    def test_endpoints(self):
        assert np.allclose(werner(1.0), np.outer(SINGLET, SINGLET), atol=1e-12)
        assert np.allclose(werner(0.0), np.eye(4) / 4, atol=1e-12)


class TestChannelModel:
    def test_ideal_passthrough(self, rng):
        rho = random_mixed(rng)
        out, t = apply_channel(rho, ChannelModel())
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)
        assert t == 1.0

    def test_full_depolarizing(self, rng):
        out, _ = apply_channel(random_mixed(rng), ChannelModel(werner_visibility=0.0))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_shrink_composes_multiplicatively(self):
        m = ChannelModel(werner_visibility=0.9, depolarizing_extra=0.2)
        assert m.bloch_shrink == pytest.approx(0.9 * 0.8, abs=1e-15)

    def test_transmittance_reported_not_applied(self, rng):
        rho = random_mixed(rng)
        out, t = apply_channel(rho, ChannelModel(transmittance=0.008))
        assert t == 0.008
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12


class TestDielectricTable:
    def test_interpolation(self):
        table = DielectricTable([500, 600], [-2, -4])
        assert table(550) == -3.0

    def test_too_short(self):
        with pytest.raises(DataError):
            DielectricTable([500], [-2])

    def test_csv_round_trip(self, tmp_path):
        table = GOLD
        path = tmp_path / "eps.csv"
        path.write_text("wavelength_nm,eps_re,eps_im\n" + "".join(
            f"{wl:g},{eps:g},1.5\n" for wl, eps in zip(table.wavelengths_nm, table.eps_re)))
        back = load_dielectric_table(path)
        assert np.allclose(back.wavelengths_nm, table.wavelengths_nm)
        assert np.allclose(back.eps_re, table.eps_re)

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,n\n500,0.5\n")
        with pytest.raises(DataError):
            load_dielectric_table(path)

    @pytest.mark.parametrize("row, problem", [
        ("500,abc,1", "non-numeric"),
        ("500,-2.5", "non-numeric"),
        ("500,nan,1", "non-finite"),
        ("500,-2.5,nan", "non-finite"),  # eps_im is checked although only eps_re is kept
        ("500,-2.5,abc", "non-numeric"),
        ("inf,-2.5,1", "non-finite"),
        ("5_00,-2.5,1", "'5_00' is not a plain ASCII number"),  # float() takes each of these
        ("500,-2.5, 1", "' 1' is not a plain ASCII number"),
        ("５００,-2.5,1", "'５００' is not a plain ASCII number"),
        ("600,-3,1", "repeated wavelength"),
        ("0,-2.5,1", "wavelength 0 nm is not positive"),
        ("-500,-2.5,1", "wavelength -500 nm is not positive"),
        ("500,-2.5,1,junk", "more fields than the header"),
    ])
    def test_csv_bad_row_names_its_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"wavelength_nm,eps_re,eps_im\n600,-9,1.5\n{row}\n700,-15,1\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"line 3: {problem}"):
            load_dielectric_table(path)

    def test_csv_repeat_in_the_last_row_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,eps_re,eps_im\n600,-9,1.5\n700,-15,1\n800,-20,1.2\n700.0,-15,1\n")
        with pytest.raises(DataError, match=r"^dielectric CSV line 5: repeated wavelength 700 nm$"):
            load_dielectric_table(path)

    def test_array_lookup_equals_scalar_calls(self):
        table = GOLD
        wl = np.concatenate([np.linspace(500, 1300, 321), [517.3, 1299.999]])
        out = table(wl)
        assert out.dtype == float and out.shape == wl.shape
        assert isinstance(table(700.0), float)
        for w, v in zip(wl, out):
            assert v == table(float(w))

    def test_bundled_gold_is_read_once_and_read_only(self):
        assert gold_dielectric_table() is GOLD
        for column in (GOLD.wavelengths_nm, GOLD.eps_re):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0

    def test_bundled_gold_is_metallic_in_nir(self):
        for wl in (600, 800, 1000):
            assert GOLD(wl) < -5


class TestResonance:
    def test_reference_geometry_near_809(self):
        lam = _solve(700, (1, 1), 2.25)
        assert 769 <= lam <= 849

    def test_mode_ratio_fixed_eps(self):
        # constant metal permittivity removes the dispersion, so the ratio
        # of the (1,1) and (1,0) wavelengths is exactly 1/sqrt(2)
        table = DielectricTable([300, 2000], [-25.0, -25.0])
        lam = {}
        for mode in ((1, 1), (1, 0)):
            lam[mode] = _solve(700, mode, 2.25, table)
        assert lam[(1, 1)] / lam[(1, 0)] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_scales_with_period_at_fixed_eps(self):
        table = DielectricTable([300, 4000], [-25.0, -25.0])
        a = _solve(700, (1, 1), 2.25, table)
        b = _solve(1400, (1, 1), 2.25, table)
        assert b == pytest.approx(2 * a, abs=1e-9)

    def test_fixed_point_is_self_consistent(self):
        lam = _solve(700, (1, 1), 2.25)
        eps_m = GOLD(lam)
        rhs = 700 / math.sqrt(2) * math.sqrt(
            2.25 * eps_m / (2.25 + eps_m))
        assert lam == pytest.approx(rhs, abs=1e-5)

    @pytest.mark.parametrize("periods, modes, eps", [
        (np.arange(600.1234, 800.1234, 0.25), ((1, 0), (1, 1)), 2.25),
        (np.arange(1000.0, 1150.0, 0.37), ((2, 1), (1, 2), (2, 2)), 2.1),
    ])
    def test_array_solve_equals_scalar_solves(self, periods, modes, eps):
        table = GOLD
        for mode in modes:
            lam = resonance_wavelength(periods, mode, eps, table)
            assert isinstance(lam, np.ndarray) and lam.shape == periods.shape
            for period, value in zip(periods, lam):
                assert value == _solve(period, mode, eps, table)

    # a period range per mode with its resonance inside the bundled table
    PER_ROW_MODES = {(1, 0): (560.0, 760.0), (1, 1): (700.0, 900.0), (47, 28): (26000.0, 36000.0)}

    def _per_row_geometry(self, n=40):
        """Periods and modes whose rows cycle through PER_ROW_MODES, and the period
        array of each mode's rows."""
        table = GOLD
        spans = {mode: np.linspace(lo, hi, n) for mode, (lo, hi) in self.PER_ROW_MODES.items()}
        periods = np.stack(list(spans.values()), axis=1).ravel()  # row i * 3 + j: period i of mode j
        modes = np.tile(np.array(list(self.PER_ROW_MODES), dtype=np.int64), (n, 1))
        return periods, modes, spans

    def test_per_row_modes_equal_per_mode_solves(self):
        periods, modes, spans = self._per_row_geometry()
        lam = resonance_wavelength(periods, modes, 2.25, GOLD)
        k = dispersion_match(periods, modes)
        assert lam.shape == (120,) and k.shape == (120, 2)
        for j, (mode, mode_periods) in enumerate(spans.items()):
            assert np.array_equal(lam[j::3], resonance_wavelength(mode_periods, mode, 2.25, GOLD))
            assert np.array_equal(k[j::3], dispersion_match(mode_periods, mode))
            assert lam[j] == _solve(mode_periods[0], mode, 2.25)

    def test_mode_norm_is_math_hypot(self):
        # np.hypot(47, 28) is one ulp below math.hypot(47, 28); with a constant
        # permittivity the fixed point is P / |m| * sqrt(eps_d eps_m / (eps_d + eps_m))
        assert np.hypot(47, 28) != math.hypot(47, 28)
        table = DielectricTable([300, 2000], [-25.0, -25.0])
        lam = resonance_wavelength(np.array([700.0, 40000.0]), np.array([[1, 1], [47, 28]]), 2.25, table)
        factor = math.sqrt(2.25 * -25.0 / (2.25 - 25.0))
        assert lam.tolist() == [700.0 / math.hypot(1, 1) * factor,
                                                       40000.0 / math.hypot(47, 28) * factor]

    @pytest.mark.parametrize("eps_m, message", [
        (-2.25, "degenerate dielectric/metal combination"),  # eps_d + eps_m == 0
        (-1.0, "no bound surface mode for these dielectric constants"),  # eps_d eps_m / (eps_d + eps_m) < 0
        (5.0, "no bound surface mode for these dielectric constants"),  # 0 < f < eps_d: no metal
    ])
    def test_metal_without_a_resonance_condition_says_why(self, eps_m, message):
        table = DielectricTable([500, 1300], [eps_m, eps_m])
        with pytest.raises(DataError, match=rf"^{message}$"):
            _solve(700.0, (1, 1), 2.25, table)

    def test_one_period_returns_a_one_element_array(self):
        lam = resonance_wavelength(np.array([700.0]), (1, 1), 2.25, GOLD)
        assert isinstance(lam, np.ndarray) and lam.shape == (1,)

    def test_out_of_range_period_inside_sweep_raises(self):
        # at 1300 nm the (1,1) resonance lies beyond the table: h > 0 at every node
        periods = np.array([700.0, 710.0, 1300.0, 720.0])
        with pytest.raises(DataError, match=r"^no resonance inside \[500, 1300\] nm$"):
            resonance_wavelength(periods, (1, 1), 2.25, GOLD)

    def test_root_where_the_right_hand_side_is_steeper_than_one(self):
        # a plain fixed-point iteration oscillates about this root and never converges
        lam = resonance_wavelength(np.array([760.0, 740.0, 800.0]), (2, 1), 2.25, GOLD)
        assert np.round(lam, 4).tolist() == [591.0156, 582.7665, 609.0306]
        assert abs(_h(740.0, (2, 1), 2.25, lam[1])) <= 1e-12 * lam[1]

    @pytest.mark.parametrize("eps_d, period, root", [(2.6, 205.0, 526.473), (4.0, 230.0, 602.300)])
    def test_root_beside_a_pole_of_the_resonance_condition(self, eps_d, period, root):
        # eps_m = -eps_d inside the table's first segment, so h is undefined at 500 nm and tends to
        # +inf right of the pole; the root lies between the pole and the next node
        lam = _solve(period, (1, 0), eps_d)
        assert round(lam, 3) == root and abs(_h(period, (1, 0), eps_d, lam)) <= 1e-9 * lam

    def test_root_next_to_the_pole_at_a_2_nm_period(self):
        # h is so steep beside the pole that h(lambda) is about 1e-4 nm, yet lambda lies within 1e-9
        # relative of the root that bisecting h in floats finds (h is +inf left of the pole, where f < 0)
        def h(lam):
            eps_m = float(np.interp(lam, GOLD.wavelengths_nm, GOLD.eps_re))
            f = 3.0 * eps_m / (3.0 + eps_m)
            return 2.0 * math.sqrt(f) - lam if f >= 0 else math.inf

        lo, hi = 500.0, 550.0
        assert h(lo) > 0 > h(hi)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if h(mid) > 0 else (lo, mid)
        lam = _solve(2.0, (0, 1), 3.0)
        assert abs(lam - lo) <= 1e-9 * lo and abs(h(lam)) > 1e-9 * lam

    def test_root_of_the_squared_condition_alone_is_rejected(self):
        # eps_m runs from -10 to +1 across one segment, so h goes from + to - over its nodes through
        # a pole of f without a root: the Newton steps end on a point that does not solve h = 0
        table = DielectricTable([500, 1300], [-10.0, 1.0])
        with pytest.raises(DataError, match=r"^no resonance inside \[500, 1300\] nm$"):
            _solve(700.0, (1, 0), 2.25, table)

    @pytest.mark.parametrize("period, root", [(100.0, 668.441), (450.0, 796.627), (800.0, 1251.563)])
    def test_root_in_a_segment_from_a_node_without_a_bound_mode(self, period, root):
        # eps_m runs from +5 to -30 across one segment; h = 0 also where eps_m > 0, but a surface plasmon
        # is bound only where eps_m < -eps_d, past the pole, and the solve stays there
        table = DielectricTable([500, 1300], [5.0, -30.0])
        lam = _solve(period, (1, 0), 2.25, table)
        eps_m = float(table(lam))
        assert round(lam, 3) == root and eps_m < -2.25
        assert abs(period * math.sqrt(2.25 * eps_m / (2.25 + eps_m)) - lam) <= 1e-9 * lam

    def test_grid_of_periods_modes_and_substrates(self):
        # every grid row with a root solves to it, and every other row raises
        solved, raised = 0, 0
        for eps_d in (1.0, 2.25):
            for mode in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
                for period in np.arange(300.0, 1300.0, 5.0).tolist():
                    try:
                        lam = _solve(period, mode, eps_d)
                    except DataError as exc:
                        assert str(exc) == "no resonance inside [500, 1300] nm"
                        raised += 1
                    else:
                        assert abs(_h(period, mode, eps_d, lam)) <= 1e-9 * lam
                        solved += 1
        assert (solved, raised) == (1446, 554)


class TestDispersion:
    def test_normal_incidence(self):
        k = dispersion_match(np.array([700.0]), (1, 1))
        g = 2 * math.pi / 700
        assert np.allclose(k, [g, g], atol=1e-15)

    def test_array_of_periods_matches_scalar_rows(self):
        periods = np.array([650.0, 700.0, 733.3])
        k = dispersion_match(periods, (2, 1))
        assert k.shape == (3, 2)
        for row, period in zip(k, periods):
            assert np.array_equal(row, dispersion_match(np.array([period]), (2, 1))[0])


class TestBudget:
    def test_totals_match_published_products(self):
        total_wo = fidelity_budget_total(with_spp=False)
        total_w = fidelity_budget_total(with_spp=True)
        assert total_wo == pytest.approx(0.9175, abs=1e-4)
        assert total_w == pytest.approx(0.8535, abs=1e-4)

    def test_spp_factor_only_when_present(self):
        others = ("f_source", "f_bsm", "f_eom_x", "f_eom_z", "f_oe")
        assert fidelity_budget_total(True) == pytest.approx(
            math.prod(BUDGET_WITH_SPP[k] for k in others) * BUDGET_WITH_SPP["f_spp"], abs=1e-15)
        assert fidelity_budget_total(False) == pytest.approx(
            math.prod(BUDGET_WITHOUT_SPP[k] for k in others), abs=1e-15)


class TestCalibratedChannel:
    def test_without_spp(self):
        ch = calibrated_channel(with_spp=False)
        assert ch.werner_visibility == pytest.approx(0.9834)
        assert ch.transmittance == 1.0
        assert (ch.contrast_x, ch.contrast_z) == (77.5, 29.7)

    def test_with_spp_noisier(self):
        a = calibrated_channel(with_spp=False)
        b = calibrated_channel(with_spp=True)
        assert b.depolarizing_extra > a.depolarizing_extra
        assert b.transmittance == SPP_TRANSMITTANCE
