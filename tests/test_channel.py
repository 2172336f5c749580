import math

import numpy as np
import pytest

from spp_teleport.channel import (
    BUDGET_WITH_SPP,
    BUDGET_WITHOUT_SPP,
    ChannelModel,
    ChannelParameterError,
    DielectricTable,
    EomModel,
    FidelityBudget,
    HoleArrayGeometry,
    ResonanceSolveError,
    SINGLET,
    SPP_DECAY_LENGTH_UM,
    SPP_TRANSMITTANCE,
    apply_channel,
    calibrated_channel,
    decay_profile,
    fidelity_budget_total,
    fit_decay,
    gold_dielectric_table,
    load_dielectric_table,
    resonance_wavelength,
    dispersion_match,
    werner,
    write_dielectric_csv,
)
from spp_teleport.qcore import MixedState, fidelity_pure

from conftest import random_mixed


class TestEomModel:
    def test_epsilons(self):
        eom = EomModel()
        assert eom.epsilon_x == pytest.approx(1 / 78.5, abs=1e-15)
        assert eom.epsilon_z == pytest.approx(1 / 30.7, abs=1e-15)

    def test_contrast_must_exceed_one(self):
        with pytest.raises(ChannelParameterError):
            EomModel(contrast_x=0.5)


class TestWerner:
    def test_eigenvalues(self):
        v = 0.9
        evals = np.sort(np.linalg.eigvalsh(werner(v).matrix))
        assert np.allclose(evals[:3], (1 - v) / 4, atol=1e-12)
        assert evals[3] == pytest.approx((1 + 3 * v) / 4, abs=1e-12)

    def test_singlet_fidelity(self):
        v = 0.9734
        assert fidelity_pure(werner(v), SINGLET) == pytest.approx(0.98005, abs=1e-12)

    def test_endpoints(self):
        assert np.allclose(werner(1.0).matrix, SINGLET.projector().matrix, atol=1e-12)
        assert np.allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-12)

    def test_range(self):
        with pytest.raises(ChannelParameterError):
            werner(1.1)


class TestChannelModel:
    def test_validation(self):
        with pytest.raises(ChannelParameterError):
            ChannelModel(werner_visibility=1.2)
        with pytest.raises(ChannelParameterError):
            ChannelModel(transmittance=0.0)
        with pytest.raises(ChannelParameterError):
            ChannelModel(depolarizing_extra=-0.1)

    def test_ideal_passthrough(self, rng):
        rho = random_mixed(rng)
        out, t = apply_channel(rho, ChannelModel.ideal())
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
        table = DielectricTable([500, 600], [-2 + 1j, -4 + 2j])
        assert table(550) == pytest.approx(-3 + 1.5j)

    def test_out_of_range(self):
        table = DielectricTable([500, 600], [-2, -4])
        with pytest.raises(ResonanceSolveError):
            table(499)

    def test_too_short(self):
        with pytest.raises(ChannelParameterError):
            DielectricTable([500], [-2])

    def test_csv_round_trip(self, tmp_path):
        table = gold_dielectric_table()
        path = tmp_path / "eps.csv"
        write_dielectric_csv(path, table)
        back = load_dielectric_table(path)
        assert np.allclose(back.wavelengths_nm, table.wavelengths_nm)
        assert np.allclose(back.eps, table.eps)

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,n\n500,0.5\n")
        with pytest.raises(ChannelParameterError):
            load_dielectric_table(path)

    @pytest.mark.parametrize("row, problem", [
        ("500,abc,1", "non-numeric"),
        ("500,-2.5", "non-numeric"),
        ("500,nan,1", "non-finite"),
        ("inf,-2.5,1", "non-finite"),
        ("600,-3,1", "repeated wavelength"),
    ])
    def test_csv_bad_row_names_its_line(self, tmp_path, row, problem):
        path = tmp_path / "bad.csv"
        path.write_text(f"wavelength_nm,eps_re,eps_im\n600,-9,1.5\n{row}\n700,-15,1\n")
        with pytest.raises(ChannelParameterError, match=f"line 3: {problem}"):
            load_dielectric_table(path)

    def test_array_lookup_equals_scalar_calls(self):
        table = gold_dielectric_table()
        wl = np.concatenate([np.linspace(500, 1300, 321), [517.3, 1299.999]])
        out = table(wl)
        assert out.dtype == complex and out.shape == wl.shape
        assert isinstance(table(700.0), complex)
        for w, v in zip(wl, out):
            assert v == table(float(w))

    @pytest.mark.parametrize("wl", [float("nan"), [600.0, float("nan")], [600.0, 1300.5, 700.0]])
    def test_nan_or_out_of_range_raises(self, wl):
        with pytest.raises(ResonanceSolveError, match="outside table range"):
            gold_dielectric_table()(wl)

    def test_bundled_gold_is_metallic_in_nir(self):
        table = gold_dielectric_table()
        for wl in (600, 800, 1000):
            assert table(wl).real < -5


class TestResonance:
    def test_reference_geometry_near_809(self):
        geom = HoleArrayGeometry(period_nm=700, hole_diameter_nm=200, mode=(1, 1),
                                 eps_substrate=2.25)
        lam = resonance_wavelength(geom, interface="substrate")
        assert 769 <= lam <= 849

    def test_mode_ratio_fixed_eps(self):
        # constant metal permittivity removes the dispersion, so the ratio
        # of the (1,1) and (1,0) wavelengths is exactly 1/sqrt(2)
        table = DielectricTable([300, 2000], [-25.0, -25.0])
        lam = {}
        for mode in ((1, 1), (1, 0)):
            geom = HoleArrayGeometry(700, 200, mode, eps_substrate=2.25, metal=table)
            lam[mode] = resonance_wavelength(geom)
        assert lam[(1, 1)] / lam[(1, 0)] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_scales_with_period_at_fixed_eps(self):
        table = DielectricTable([300, 4000], [-25.0, -25.0])
        a = resonance_wavelength(HoleArrayGeometry(700, 200, (1, 1), 2.25, metal=table))
        b = resonance_wavelength(HoleArrayGeometry(1400, 200, (1, 1), 2.25, metal=table))
        assert b == pytest.approx(2 * a, abs=1e-9)

    def test_fixed_point_is_self_consistent(self):
        geom = HoleArrayGeometry(700, 200, (1, 1), eps_substrate=2.25)
        lam = resonance_wavelength(geom)
        eps_m = geom.metal(lam).real
        rhs = geom.period_nm / math.sqrt(2) * math.sqrt(
            2.25 * eps_m / (2.25 + eps_m))
        assert lam == pytest.approx(rhs, abs=1e-5)

    def test_air_interface_shorter_wavelength(self):
        geom = HoleArrayGeometry(700, 200, (1, 1), eps_substrate=2.25)
        assert resonance_wavelength(geom, "air") < resonance_wavelength(geom, "substrate")

    def test_geometry_validation(self):
        with pytest.raises(ChannelParameterError):
            HoleArrayGeometry(100, 200, (1, 1), 2.25)
        with pytest.raises(ChannelParameterError):
            HoleArrayGeometry(np.array([700.0, 150.0]), 200, (1, 1), 2.25)
        with pytest.raises(ChannelParameterError):
            HoleArrayGeometry(np.full((2, 2), 700.0), 200, (1, 1), 2.25)
        with pytest.raises(ChannelParameterError):
            HoleArrayGeometry(700, 200, (0, 0), 2.25)

    @pytest.mark.parametrize("periods, modes, eps", [
        (np.arange(600.1234, 800.1234, 0.25), ((1, 0), (1, 1)), 2.25),
        (np.arange(1000.0, 1150.0, 0.37), ((2, 1), (1, 2), (2, 2)), 2.1),
    ])
    def test_array_solve_equals_scalar_solves(self, periods, modes, eps):
        table = gold_dielectric_table()
        for mode in modes:
            lam = resonance_wavelength(HoleArrayGeometry(periods, 200, mode, eps, metal=table))
            assert isinstance(lam, np.ndarray) and lam.shape == periods.shape
            for period, value in zip(periods, lam):
                assert value == resonance_wavelength(HoleArrayGeometry(float(period), 200, mode, eps,
                                                                       metal=table))

    def test_scalar_period_returns_float(self):
        assert isinstance(resonance_wavelength(HoleArrayGeometry(700.0, 200, (1, 1), 2.25)), float)

    def test_out_of_range_period_inside_sweep_raises(self):
        periods = np.array([700.0, 710.0, 300.0, 720.0])
        with pytest.raises(ResonanceSolveError, match="outside table range"):
            resonance_wavelength(HoleArrayGeometry(periods, 200, (1, 1), 2.25))

    def test_max_iter_exhausted_raises(self):
        geom = HoleArrayGeometry(np.array([700.0, 710.0]), 200, (1, 1), 2.25)
        with pytest.raises(ResonanceSolveError, match="no fixed point after 1 iterations"):
            resonance_wavelength(geom, max_iter=1)

    def test_unknown_interface(self):
        geom = HoleArrayGeometry(700, 200, (1, 1), 2.25)
        with pytest.raises(ChannelParameterError):
            resonance_wavelength(geom, "vacuum")


class TestDispersion:
    def test_normal_incidence(self):
        geom = HoleArrayGeometry(700, 200, (1, 1), 2.25)
        k = dispersion_match(geom, (0.0, 0.0))
        g = 2 * math.pi / 700
        assert np.allclose(k, [g, g], atol=1e-15)

    def test_oblique_offset(self):
        geom = HoleArrayGeometry(700, 200, (1, 0), 2.25)
        k = dispersion_match(geom, (0.001, -0.002))
        assert k[0] == pytest.approx(0.001 + 2 * math.pi / 700)
        assert k[1] == pytest.approx(-0.002)

    def test_array_of_periods_matches_scalar_rows(self):
        periods = np.array([650.0, 700.0, 733.3])
        k = dispersion_match(HoleArrayGeometry(periods, 200, (2, 1), 2.25), (0.001, -0.002))
        assert k.shape == (3, 2)
        for row, period in zip(k, periods):
            assert np.array_equal(row, dispersion_match(HoleArrayGeometry(period, 200, (2, 1), 2.25),
                                                        (0.001, -0.002)))

    def test_bad_k_parallel(self):
        geom = HoleArrayGeometry(700, 200, (1, 0), 2.25)
        with pytest.raises(ChannelParameterError):
            dispersion_match(geom, (0.0, 0.0, 0.0))


class TestDecay:
    def test_fit_recovers_length(self):
        x = np.linspace(0, 20, 40)
        y = decay_profile(SPP_DECAY_LENGTH_UM, x)
        assert fit_decay(x, y) == pytest.approx(SPP_DECAY_LENGTH_UM, rel=1e-9)

    def test_one_over_e_point(self):
        assert decay_profile(4.48, [4.48])[0] == pytest.approx(1 / math.e, rel=1e-12)

    def test_fit_with_noise(self, rng):
        x = np.linspace(0, 15, 60)
        y = decay_profile(4.48, x) * np.exp(rng.normal(scale=0.01, size=x.size))
        assert fit_decay(x, y) == pytest.approx(4.48, rel=0.05)

    def test_rejects_growth(self):
        with pytest.raises(ChannelParameterError):
            fit_decay([0, 1, 2], [1.0, 2.0, 4.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ChannelParameterError):
            fit_decay([0, 1], [1.0, 0.0])


class TestBudget:
    def test_component_bounds(self):
        with pytest.raises(ChannelParameterError):
            FidelityBudget(1.01, 0.9, 0.9, 0.9, 0.9, 0.9)

    def test_totals_match_published_products(self):
        total_wo = fidelity_budget_total(BUDGET_WITHOUT_SPP, with_spp=False)
        total_w = fidelity_budget_total(BUDGET_WITH_SPP, with_spp=True)
        assert total_wo == pytest.approx(0.9175, abs=1e-4)
        assert total_w == pytest.approx(0.8535, abs=1e-4)

    def test_spp_factor_only_when_present(self):
        b = BUDGET_WITHOUT_SPP
        assert fidelity_budget_total(b, True) == pytest.approx(
            fidelity_budget_total(b, False) * b.f_spp, abs=1e-15)


class TestCalibratedChannel:
    def test_without_spp(self):
        ch = calibrated_channel(with_spp=False)
        assert ch.werner_visibility == pytest.approx(0.9834)
        assert ch.transmittance == 1.0
        assert ch.eom is not None

    def test_with_spp_noisier(self):
        a = calibrated_channel(with_spp=False)
        b = calibrated_channel(with_spp=True)
        assert b.depolarizing_extra > a.depolarizing_extra
        assert b.transmittance == SPP_TRANSMITTANCE

    def test_custom_eom_forwarded(self):
        eom = EomModel(50.0, 20.0)
        assert calibrated_channel(True, eom=eom).eom == eom
