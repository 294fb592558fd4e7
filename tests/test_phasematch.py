import math
from dataclasses import replace

import numpy as np
import pytest

from qpmspdc.core import (CrystalSpec, FrequencyPair, VACUUM_LIGHT_SPEED,
                          angular_frequency, vacuum_wavelength)
from qpmspdc.dispersion import ConstantIndexModel
from qpmspdc.errors import (ParaxialityError, PhaseMatchingError,
                            ValidationError)
from qpmspdc.phasematch import (crystal_indices, delta_kz_paraxial,
                                design_poling_period,
                                efficiency_drop_over_scan, fourier_coefficient,
                                grating_vector, maker_efficiency)

C = VACUUM_LIGHT_SPEED

# Frozen by construction of the default dispersion model (degenerate type-II
# design at 40 C, first order).
DESIGN_POLING = 1.1468675954010512e-05
EFF_HALF_DEG_EXTERNAL = 0.41786548348961866
EFF_HALF_DEG_INTERNAL = 0.036810423061635615
DROP_3MM_1M_EXTERNAL = 0.0006957643659568635

DESIGN_KWARGS = dict(pump_axis="y", signal_axis="y", idler_axis="z",
                     temperature_c=40.0, qpm_order=1)


@pytest.fixture(scope="module")
def freqs():
    return FrequencyPair.degenerate(angular_frequency(413e-9))


@pytest.fixture(scope="module")
def designed_crystal(ktp):
    period = design_poling_period(413e-9, 826e-9, 826e-9, model=ktp, **DESIGN_KWARGS)
    return CrystalSpec(length=9.6e-3, poling_period=period, duty_cycle=0.5,
                       qpm_order=1, temperature_c=40.0, pump_axis="y",
                       signal_axis="y", idler_axis="z", type_ii=True)


def grating(poling_period, duty_cycle, order):
    return CrystalSpec(length=1e-3, poling_period=poling_period, duty_cycle=duty_cycle,
                       qpm_order=order, temperature_c=25.0)


def cone_mismatch(alpha, freqs, crystal, model, convention="external"):
    """delta_kz on the symmetric cone: q_s = -kappa_s sin(alpha), q_i = +kappa_i sin(alpha).

    kappa is the vacuum wavenumber for external angles and the crystal's for
    internal ones.
    """
    n_s = n_i = 1.0
    if convention == "internal":
        _, n_s, n_i = crystal_indices(freqs, crystal, model)
    sin_alpha = np.sin(alpha)
    return delta_kz_paraxial(freqs, -(n_s * freqs.omega_signal / C) * sin_alpha,
                             (n_i * freqs.omega_idler / C) * sin_alpha, crystal, model)


def first_maker_zero(freqs, crystal, model, convention="external"):
    """Smallest positive emission angle where the Maker profile vanishes, closed form.

    At degeneracy A = delta_kz, and on the symmetric cone
    A(alpha) = A0 + K sin^2(alpha) exactly (both q scale with sin(alpha)), so
    L A / 2 = pi at sin^2(alpha0) = (2 pi / L - A0) / K.
    """
    a0 = cone_mismatch(0.0, freqs, crystal, model, convention)
    alpha = 1e-3
    k = (cone_mismatch(alpha, freqs, crystal, model, convention)
         - a0) / math.sin(alpha) ** 2
    return math.asin(math.sqrt((2.0 * math.pi / crystal.length - a0) / k))


class TestGrating:
    def test_reference_grating_vector(self):
        crystal = grating(poling_period=11.4617e-6, duty_cycle=0.5, order=1)
        assert grating_vector(crystal) == pytest.approx(
            2.0 * math.pi / 11.4617e-6, rel=1e-14)
        assert grating_vector(crystal) == pytest.approx(5.4819e5, rel=1e-4)

    def test_order_doubles_vector(self):
        base = grating(11.4617e-6, 0.5, 1)
        doubled = grating(11.4617e-6, 0.5, 2)
        assert grating_vector(doubled) == pytest.approx(2 * grating_vector(base),
                                                        rel=1e-15)

    def test_two_pi_period_gives_unity(self):
        assert grating_vector(grating(2.0 * math.pi, 0.5, 1)) == pytest.approx(
            1.0, rel=1e-15)

    def test_fourier_coefficient_half_duty(self):
        assert fourier_coefficient(grating(1e-5, 0.5, 1)) == pytest.approx(
            2.0 / math.pi, rel=1e-14)

    def test_fourier_coefficient_second_order_vanishes(self):
        assert abs(fourier_coefficient(grating(1e-5, 0.5, 2))) < 1e-15

    def test_fourier_coefficient_thin_domain_limit(self):
        assert fourier_coefficient(grating(1e-5, 1e-9, 1)) == pytest.approx(
            1.0, abs=1e-12)


class TestDeltaKz:
    def test_design_round_trip_is_zero(self, ktp, freqs, designed_crystal):
        residual = delta_kz_paraxial(freqs, 0.0, 0.0, designed_crystal, ktp)
        assert abs(residual) < 1e-9

    def test_vacuum_limit_closed_form(self):
        # n = 1 everywhere, degenerate, grating contribution switched off,
        # opposite transverse wavevectors: only the photon curvature terms
        # survive and sum to 2 c q^2 / omega_pump.
        model = ConstantIndexModel(1.0)
        omega_pump = angular_frequency(413e-9)
        freqs = FrequencyPair.degenerate(omega_pump)
        crystal = CrystalSpec(length=1e-3, poling_period=math.inf, duty_cycle=0.5,
                              qpm_order=1, temperature_c=25.0)
        q = 5e4
        expected = 2.0 * C * q**2 / omega_pump
        assert delta_kz_paraxial(freqs, q, -q, crystal, model) == pytest.approx(
            expected, rel=1e-12)

    def test_matches_direct_expression(self, ktp, freqs, designed_crystal):
        # Independent re-evaluation of the paraxial mismatch formula.
        crystal = designed_crystal
        n_p = ktp.index(vacuum_wavelength(freqs.omega_pump), "y", 40.0)
        n_s = ktp.index(vacuum_wavelength(freqs.omega_signal), "y", 40.0)
        n_i = ktp.index(vacuum_wavelength(freqs.omega_idler), "z", 40.0)
        rng = np.random.default_rng(7)
        for _ in range(25):
            q_s, q_i = rng.uniform(-1e5, 1e5, size=2)
            expected = (
                (n_p * freqs.omega_pump - n_i * freqs.omega_idler
                 - n_s * freqs.omega_signal) / C
                - 2.0 * math.pi / crystal.poling_period
                + C * q_i**2 / (2 * n_i * freqs.omega_idler)
                + C * q_s**2 / (2 * n_s * freqs.omega_signal)
                - C * (q_i + q_s) ** 2 / (2 * n_p * freqs.omega_pump)
            )
            got = delta_kz_paraxial(freqs, q_s, q_i, crystal, ktp)
            assert got == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_paraxial_guard(self, ktp, freqs, designed_crystal):
        k_signal = 1.755 * freqs.omega_signal / C
        with pytest.raises(ParaxialityError) as err:
            delta_kz_paraxial(freqs, 0.3 * k_signal, 0.0, designed_crystal, ktp)
        assert err.value.ratio > 0.2

    def test_broadcasts_over_grids(self, ktp, freqs, designed_crystal):
        q = np.linspace(-5e4, 5e4, 7)
        out = delta_kz_paraxial(freqs, q[:, None], q[None, :], designed_crystal, ktp)
        assert out.shape == (7, 7)


class TestMismatchA:
    """The phase-matching function A = delta_kz."""

    def test_matches_symmetric_specialization(self, ktp, freqs, designed_crystal):
        # Independent oracle: the degenerate symmetric-cone form with internal
        # angles,
        #   A = (n0 w0 - ni wi - ns ws)/c
        #       + sin^2(a)/(2c) (ni wi + ns ws - (ni wi - ns ws)^2/(n0 w0))
        #       - 2 pi m / Lambda.
        crystal = designed_crystal
        n_p = ktp.index(vacuum_wavelength(freqs.omega_pump), "y", 40.0)
        n_s = ktp.index(vacuum_wavelength(freqs.omega_signal), "y", 40.0)
        n_i = ktp.index(vacuum_wavelength(freqs.omega_idler), "z", 40.0)
        pw = n_p * freqs.omega_pump
        sw = n_s * freqs.omega_signal
        iw = n_i * freqs.omega_idler
        for alpha in np.linspace(1e-4, 2e-2, 17):
            expected = ((pw - iw - sw) / C
                        + math.sin(alpha) ** 2 / (2 * C) * (iw + sw - (iw - sw) ** 2 / pw)
                        - 2.0 * math.pi / crystal.poling_period)
            got = cone_mismatch(alpha, freqs, crystal, ktp, convention="internal")
            # 1e-12 relative, floored at the rounding noise of the collinear
            # cancellation (terms of order 2 pi / Lambda).
            tolerance = 1e-12 * abs(expected) + 1e-9
            assert got == pytest.approx(expected, abs=tolerance)

    def test_cross_term_vanishes_for_matched_fields(self, freqs):
        # Same axis, same frequency, same index: the pump cross term must
        # cancel identically, leaving only the photon curvature terms.
        model = ConstantIndexModel(1.6)
        crystal = CrystalSpec(length=1e-3, poling_period=math.inf, duty_cycle=0.5,
                              qpm_order=1, temperature_c=25.0, pump_axis="y",
                              signal_axis="y", idler_axis="y")
        n = 1.6
        for alpha in (1e-3, 5e-3, 2e-2):
            q = (n * freqs.omega_signal / C) * math.sin(alpha)
            expected = ((n * freqs.omega_pump - 2 * n * freqs.omega_signal) / C
                        + 2 * C * q**2 / (2 * n * freqs.omega_signal))
            got = delta_kz_paraxial(freqs, -q, q, crystal, model)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_rejects_unknown_convention(self, ktp, freqs, designed_crystal):
        with pytest.raises(ValidationError):
            maker_efficiency(0.0, freqs, designed_crystal, ktp, convention="bogus")


class TestMakerEfficiency:
    def test_unity_at_design_point(self, ktp, freqs, designed_crystal):
        assert maker_efficiency(0.0, freqs, designed_crystal, ktp) == pytest.approx(
            1.0, abs=1e-15)

    def test_overflowing_argument_refused(self, ktp, freqs, designed_crystal):
        # An infinite L A / 2 once made every off-axis efficiency NaN.
        huge = replace(designed_crystal, length=1.7976931348623157e308)
        with pytest.raises(ValidationError, match="overflows L A / 2"):
            maker_efficiency(np.array([0.0, 1e-3]), freqs, huge, ktp)

    def test_first_zero(self, ktp, freqs, designed_crystal):
        for convention in ("external", "internal"):
            alpha0 = first_maker_zero(freqs, designed_crystal, ktp,
                                      convention=convention)
            eff = maker_efficiency(alpha0, freqs, designed_crystal, ktp,
                                   convention=convention)
            assert eff < 1e-12

    def test_half_degree_is_low_under_both_conventions(self, ktp, freqs,
                                                       designed_crystal):
        alpha = math.radians(0.5)
        external = maker_efficiency(alpha, freqs, designed_crystal, ktp)
        internal = maker_efficiency(alpha, freqs, designed_crystal, ktp,
                                    convention="internal")
        assert external == pytest.approx(EFF_HALF_DEG_EXTERNAL, rel=1e-9)
        assert internal == pytest.approx(EFF_HALF_DEG_INTERNAL, rel=1e-9)
        assert external < 0.5 and internal < 0.5

    def test_even_in_angle(self, ktp, freqs, designed_crystal):
        alphas = np.linspace(1e-4, 8e-3, 9)
        plus = maker_efficiency(alphas, freqs, designed_crystal, ktp)
        minus = maker_efficiency(-alphas, freqs, designed_crystal, ktp)
        np.testing.assert_allclose(plus, minus, rtol=1e-13)

    def test_strictly_decreasing_within_first_lobe(self, ktp, freqs,
                                                   designed_crystal):
        alpha0 = first_maker_zero(freqs, designed_crystal, ktp)
        alphas = np.linspace(0.0, alpha0 * 0.999, 300)
        eff = maker_efficiency(alphas, freqs, designed_crystal, ktp)
        assert np.all(np.diff(eff) < 0)

class TestDesignPolingPeriod:
    def test_reproduces_reference_crystal(self, ktp):
        period = design_poling_period(413e-9, 826e-9, 826e-9, model=ktp,
                                      **DESIGN_KWARGS)
        assert period == pytest.approx(DESIGN_POLING, rel=1e-12)
        assert abs(period - 11.4617e-6) / 11.4617e-6 < 0.05

    def test_pump_that_breaks_energy_conservation_refused(self, ktp):
        # The pump frequency is the pair's sum, so a pump wavelength that
        # disagrees with it would go unread; 413 nm against 826 + 800 nm is
        # refused instead.
        with pytest.raises(ValidationError, match="does not conserve energy"):
            design_poling_period(413e-9, 826e-9, 800e-9, model=ktp, **DESIGN_KWARGS)

    def test_no_phase_matching_for_constant_index(self):
        with pytest.raises(PhaseMatchingError):
            design_poling_period(0.5e-6, 1e-6, 1e-6, model=ConstantIndexModel(2.0),
                                 **DESIGN_KWARGS)

    def test_brute_force_scan_confirms_minimum(self, ktp, freqs, designed_crystal):
        periods = designed_crystal.poling_period * np.linspace(0.99, 1.01, 201)
        residuals = []
        for period in periods:
            crystal = CrystalSpec(length=9.6e-3, poling_period=float(period),
                                  duty_cycle=0.5, qpm_order=1, temperature_c=40.0,
                                  pump_axis="y", signal_axis="y", idler_axis="z")
            residuals.append(abs(delta_kz_paraxial(freqs, 0.0, 0.0, crystal, ktp)))
        assert int(np.argmin(residuals)) == 100


class TestEfficiencyDrop:
    def test_zero_range(self, ktp, freqs, designed_crystal):
        assert efficiency_drop_over_scan(0.0, 1.0, freqs, designed_crystal, ktp) == 0.0

    @pytest.mark.parametrize("scan_range,distance", [(4.0, 1.0), (2e-3, 1e-323)])
    def test_angles_past_90_degrees_refused(self, ktp, freqs, designed_crystal,
                                            scan_range, distance):
        # Past pi/2 the sine of the angle p / distance falls again; at
        # 1e-323 m the angle overflowed to NaN. Both are refused before the
        # paraxial guard reads the angles.
        with pytest.raises(ValidationError, match="passes 90 degrees"):
            efficiency_drop_over_scan(scan_range, distance, freqs, designed_crystal, ktp)

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    def test_requires_positive_distance(self, ktp, freqs, designed_crystal, distance):
        # Refused before the zero-range shortcut: a detector at no distance
        # sees no angle.
        with pytest.raises(ValidationError, match="distance must be positive"):
            efficiency_drop_over_scan(0.0, distance, freqs, designed_crystal, ktp)
        with pytest.raises(ValidationError, match="distance must be positive"):
            efficiency_drop_over_scan(3e-3, distance, freqs, designed_crystal, ktp)

    def test_reference_scan_stays_below_one_percent(self, ktp, freqs,
                                                   designed_crystal):
        drop = efficiency_drop_over_scan(3e-3, 1.0, freqs, designed_crystal, ktp)
        assert drop == pytest.approx(DROP_3MM_1M_EXTERNAL, rel=1e-9)
        assert drop < 0.01

    def test_monotone_in_scan_range_within_first_lobe(self, ktp, freqs,
                                                      designed_crystal):
        alpha0 = first_maker_zero(freqs, designed_crystal, ktp)
        ranges = np.linspace(1e-4, 1.8 * alpha0, 24)  # positions at z = 1 m
        drops = [efficiency_drop_over_scan(float(r), 1.0, freqs,
                                           designed_crystal, ktp)
                 for r in ranges]
        assert all(b >= a - 1e-15 for a, b in zip(drops, drops[1:]))
