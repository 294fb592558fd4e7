import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpmspdc.core import CrystalSpec, PumpSpec
from qpmspdc.errors import (GridSizeError, SamplingGuardError,
                            ValidationError)
from qpmspdc.fields import (MultiSlitAperture, SampledField, ThinLens,
                            apply_element, gaussian_source,
                            march_to_crystal_exit, propagate,
                            to_angular_spectrum, to_sampled_field)

WAVELENGTH = 413e-9
WAIST = 0.5e-3
RAYLEIGH = math.pi * WAIST**2 / WAVELENGTH  # 1.9017 m


def beam_width(field: SampledField) -> float:
    """1/e^2 intensity radius of a Gaussian-like field via second moments."""
    intensity = field.intensity
    return 2.0 * math.sqrt(float(np.sum(intensity * field.x**2) / np.sum(intensity)))


def gaussian_q(q_abcd: complex, wavelength: float) -> float:
    """Beam radius from the complex beam parameter."""
    inv = 1.0 / q_abcd
    return math.sqrt(-wavelength / (math.pi * inv.imag))


@pytest.fixture
def gaussian():
    return gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02, sample_count=4096)


class TestGaussianSource:
    def test_waist_definition(self, gaussian):
        intensity = np.interp(WAIST, gaussian.x, gaussian.intensity)
        # Linear interpolation between grid samples limits the agreement.
        assert intensity == pytest.approx(math.exp(-2.0), rel=5e-4)

    def test_rayleigh_range_arithmetic(self):
        assert RAYLEIGH == pytest.approx(1.902, rel=1e-3)

    def test_power_independent_of_sampling(self):
        coarse = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02,
                                 sample_count=2048)
        fine = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02,
                               sample_count=8192)
        assert fine.power == pytest.approx(coarse.power, rel=1e-8)

    def test_grid_too_small(self):
        with pytest.raises(GridSizeError):
            gaussian_source(3e-3, WAVELENGTH, grid_extent=0.02, sample_count=4096)

    def test_requires_power_of_two(self):
        with pytest.raises(ValidationError):
            gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02, sample_count=1000)


class TestTransforms:
    def test_round_trip_identity(self, gaussian):
        back = to_sampled_field(to_angular_spectrum(gaussian))
        np.testing.assert_allclose(back.values, gaussian.values, atol=1e-12)
        assert back.extent == pytest.approx(gaussian.extent, rel=1e-12)

    def test_parseval(self, gaussian):
        spectrum = to_angular_spectrum(gaussian)
        assert spectrum.power == pytest.approx(gaussian.power, rel=1e-10)

    def test_gaussian_transform_pair(self, gaussian):
        # exp(-x^2/w^2) maps to a Gaussian whose 1/e^2 intensity radius is 2/w.
        spectrum = to_angular_spectrum(gaussian)
        magnitude2 = np.abs(spectrum.values) ** 2
        radius = 2.0 * math.sqrt(float(
            np.sum(magnitude2 * spectrum.q**2) / np.sum(magnitude2)))
        assert radius == pytest.approx(2.0 / WAIST, rel=1e-6)

    def test_delta_gives_flat_magnitude(self):
        values = np.zeros(512, dtype=complex)
        values[256] = 1.0
        field = SampledField(values=values, extent=0.02, wavelength=WAVELENGTH)
        spectrum = to_angular_spectrum(field)
        magnitude = np.abs(spectrum.values)
        assert magnitude.std() / magnitude.mean() < 1e-12


class TestPropagate:
    def test_zero_distance_identity(self, gaussian):
        assert propagate(gaussian, 0.0) is gaussian

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    def test_gaussian_width_law(self, gaussian, factor):
        z = factor * RAYLEIGH
        out = propagate(gaussian, z)
        expected = WAIST * math.sqrt(1.0 + (z / RAYLEIGH) ** 2)
        assert beam_width(out) == pytest.approx(expected, rel=1e-4)

    def test_on_axis_intensity_at_rayleigh(self, gaussian):
        # One transverse dimension: the amplitude spreads as w^(-1/2), so the
        # on-axis intensity at the Rayleigh range is 2^(-1/2), not the 1/2 of
        # a full 2D beam.
        out = propagate(gaussian, RAYLEIGH)
        center = out.sample_count // 2
        assert out.intensity[center] == pytest.approx(2.0 ** -0.5, rel=1e-4)

    def test_power_conserved(self, gaussian):
        out = propagate(gaussian, 1.7)
        assert out.power == pytest.approx(gaussian.power, rel=1e-10)

    def test_additive(self, gaussian):
        split = propagate(propagate(gaussian, 0.4), 0.8)
        direct = propagate(gaussian, 1.2)
        assert np.max(np.abs(split.values - direct.values)) < 1e-10

    @given(waist=st.floats(0.1e-3, 1e-3),
           focal_length=st.one_of(st.none(), st.floats(0.5, 5.0)),
           d1=st.floats(-3.0, 3.0), d2=st.floats(-3.0, 3.0))
    def test_composition(self, waist, focal_length, d1, d2):
        # The propagator is one phase per spectral component, so two steps
        # compose into one, whatever the field and the signs of the steps.
        field = gaussian_source(waist, WAVELENGTH, grid_extent=0.02, sample_count=1024)
        if focal_length is not None:
            field = apply_element(field, ThinLens(focal_length))
        split = propagate(propagate(field, d1), d2)
        direct = propagate(field, d1 + d2)
        assert np.max(np.abs(split.values - direct.values)) <= 1e-10

    def test_backward_inverts(self, gaussian):
        back = propagate(propagate(gaussian, 0.9), -0.9)
        np.testing.assert_allclose(back.values, gaussian.values, atol=1e-12)

    def test_medium_index_rescales_distance(self, gaussian):
        in_medium = propagate(gaussian, 0.5, medium_index=2.0)
        equivalent = propagate(gaussian, 0.25)
        np.testing.assert_allclose(in_medium.values, equivalent.values, atol=1e-12)

    def test_sampling_invariant_under_refinement(self):
        coarse = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02,
                                 sample_count=4096)
        fine = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.02,
                               sample_count=8192)
        out_coarse = propagate(coarse, 0.75)
        out_fine = propagate(fine, 0.75)
        # The even-index fine samples sit on the coarse grid.
        np.testing.assert_allclose(out_fine.values[::2], out_coarse.values,
                                   atol=1e-8)

    def test_undersampled_source_raises_guard(self):
        values = np.zeros(256, dtype=complex)
        values[128] = 1.0
        spike = SampledField(values=values, extent=0.02, wavelength=WAVELENGTH)
        with pytest.raises(SamplingGuardError) as err:
            propagate(spike, 0.1)
        assert err.value.suggested_samples is not None
        assert err.value.suggested_samples > 256


class TestElements:
    def test_overflowing_lens_phase_refused(self, gaussian):
        # k x^2 / 2f at the grid edge once overflowed and filled the field with NaN.
        with pytest.raises(ValidationError, match="overflows the lens phase"):
            apply_element(gaussian, ThinLens(focal_length=1e-323))

    def test_huge_focal_length_is_identity(self, gaussian):
        out = apply_element(gaussian, ThinLens(focal_length=1e9))
        assert np.max(np.abs(out.values - gaussian.values)) < 1e-8

    def test_lens_then_flight_matches_abcd(self, gaussian):
        focal = 0.5
        out = propagate(apply_element(gaussian, ThinLens(focal)), focal)
        q = 1j * RAYLEIGH          # collimated waist at the lens
        q = q / (1.0 - q / focal)  # thin lens
        q = q + focal              # free flight
        assert beam_width(out) == pytest.approx(gaussian_q(q, WAVELENGTH), rel=1e-3)

    def test_plane_wave_focus_is_diffraction_limited(self):
        n = 8192
        extent = 0.02
        field = SampledField(values=np.ones(n, dtype=complex), extent=extent,
                             wavelength=WAVELENGTH)
        focal = 0.5
        out = propagate(apply_element(field, ThinLens(focal)), focal)
        intensity = out.intensity
        center = int(np.argmax(intensity))
        assert abs(out.x[center]) <= out.dx
        # First zeros of the focused top-hat at +- lambda f / extent.
        expected = WAVELENGTH * focal / extent
        left = center - 1 - int(np.argmin(intensity[center - 1::-1] > 0.01 * intensity[center]))
        right = center + 1 + int(np.argmin(intensity[center + 1:] > 0.01 * intensity[center]))
        for measured in (abs(out.x[left]), abs(out.x[right])):
            assert abs(measured - expected) <= 2.0 * out.dx

    def test_double_slit_transmitted_power_fraction(self):
        n = 8192
        extent = 0.02
        field = SampledField(values=np.ones(n, dtype=complex), extent=extent,
                             wavelength=WAVELENGTH)
        slit = MultiSlitAperture(slit_width=1e-4, center_separation=2e-4,
                                 slit_count=2)
        out = apply_element(field, slit)
        fraction = out.power / field.power
        assert fraction == pytest.approx(2 * 1e-4 / extent, abs=2 * out.dx / extent)

    def test_aperture_wider_than_grid(self, gaussian):
        with pytest.raises(GridSizeError):
            apply_element(gaussian, MultiSlitAperture(slit_width=0.03))

    def test_slit_between_samples_is_refused(self):
        # On a 40 mm grid of 256 samples (156 um step) the outer slits of
        # this aperture hold no sample; they once blocked their light
        # silently, leaving only the centre slit open.
        aperture = MultiSlitAperture(slit_width=1e-4, center_separation=2.5e-4,
                                     slit_count=3)
        coarse = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.04, sample_count=256)
        with pytest.raises(SamplingGuardError, match="slit 0.0001 m wide") as err:
            apply_element(coarse, aperture)
        assert "step 0.0001563 m" in str(err.value)
        suggested = err.value.suggested_samples
        assert suggested == 512 and 0.04 / suggested <= aperture.slit_width
        fine = gaussian_source(WAIST, WAVELENGTH, grid_extent=0.04, sample_count=suggested)
        opened = np.abs(apply_element(fine, aperture).values) > 0
        assert np.count_nonzero(np.diff(opened.astype(int)) == 1) == 3

    def test_two_slit_far_field_matches_closed_form(self):
        # Uniform illumination so the Fraunhofer cos^2 x sinc^2 form applies.
        # The frame is wide enough that even the grid's highest spatial
        # frequency cannot walk across it over this distance, so the unitary
        # propagator introduces no wrap-around light.
        n = 32768
        extent = 0.16
        z = 0.4
        width = 1e-4
        separation = 2e-4
        field = SampledField(values=np.ones(n, dtype=complex), extent=extent,
                             wavelength=WAVELENGTH)
        aperture = MultiSlitAperture(slit_width=width,
                                     center_separation=separation, slit_count=2)
        masked = apply_element(field, aperture)
        q_edge = math.pi / field.dx
        assert q_edge * z / (2 * math.pi / WAVELENGTH) + aperture.span < extent / 2
        # The sampled mask realizes slightly quantized slit geometry; the
        # closed form is evaluated for the aperture actually simulated.
        mask = np.abs(masked.values) > 0
        positive = field.x[mask & (field.x > 0)]
        width_eff = positive.size * field.dx
        separation_eff = 2.0 * float(positive.mean())
        out = propagate(masked, z)
        intensity = out.intensity
        period = WAVELENGTH * z / separation_eff
        window = np.abs(out.x) <= 2.5 * period
        x = out.x[window]

        def sinc(u):
            return np.sinc(u / np.pi)

        reference = (np.cos(np.pi * separation_eff * x / (WAVELENGTH * z)) ** 2
                     * sinc(np.pi * width_eff * x / (WAVELENGTH * z)) ** 2)
        scale = intensity[window][x.size // 2]
        assert np.max(np.abs(intensity[window] / scale - reference)) < 1e-2


def detection_plane_profile(pump, elements, crystal, model, distance, **grid):
    """Pump field marched to the crystal exit, then propagated to the detectors."""
    return propagate(march_to_crystal_exit(pump, elements, crystal, model, **grid),
                     distance)


class TestDetectionPlaneProfile:
    def _crystal(self):
        return CrystalSpec(length=9.6e-3, poling_period=11.4617e-6,
                           duty_cycle=0.5, qpm_order=1, temperature_c=40.0,
                           pump_axis="y", signal_axis="y", idler_axis="z")

    def test_bare_gaussian_width(self, ktp):
        pump = PumpSpec(center_wavelength=WAVELENGTH, waist_radius=WAIST,
                        waist_position=0.0, pulse_duration=200e-15)
        crystal = self._crystal()
        out = detection_plane_profile(pump, (), crystal, ktp, 0.5,
                                      grid_extent=0.02, sample_count=4096)
        n0 = ktp.index(WAVELENGTH, "y", 40.0)
        path = crystal.length / n0 + 0.5
        expected = WAIST * math.sqrt(1.0 + (path / RAYLEIGH) ** 2)
        assert beam_width(out) == pytest.approx(expected, rel=1e-4)
        assert expected / WAIST == pytest.approx(1.035, abs=2e-3)

    def test_double_slit_fringe_period(self, ktp):
        pump = PumpSpec(center_wavelength=WAVELENGTH, waist_radius=WAIST,
                        waist_position=-0.01, pulse_duration=200e-15)
        crystal = self._crystal()
        slit = MultiSlitAperture(slit_width=1e-4, center_separation=2e-4,
                                 slit_count=2)
        out = detection_plane_profile(pump, ((-0.01, slit),), crystal, ktp, 0.5,
                                      grid_extent=0.04, sample_count=8192)
        intensity = out.intensity / out.intensity.max()
        # Innermost minima straddle the axis half a period out.
        n0 = ktp.index(WAVELENGTH, "y", 40.0)
        z_eff = 0.01 + crystal.length / n0 + 0.5
        period = WAVELENGTH * z_eff / 2e-4
        window = (np.abs(out.x) < 0.75 * period) & (np.abs(out.x) > 0.25 * period)
        minima = out.x[window][np.argsort(intensity[window])[:4]]
        inner = np.sort(np.abs(minima))[0]
        assert 2 * inner == pytest.approx(1.053e-3, rel=0.03)

    def test_lens_config_single_lobe(self, ktp):
        pump = PumpSpec(center_wavelength=WAVELENGTH, waist_radius=WAIST,
                        waist_position=-0.03, pulse_duration=200e-15)
        out = detection_plane_profile(
            pump, ((-0.03, ThinLens(0.5)),), self._crystal(), ktp, 0.5,
            grid_extent=0.02, sample_count=4096)
        intensity = out.intensity / out.intensity.max()
        # Smooth single-lobed profile: one sign change of the gradient above
        # the 5% level.
        above = intensity > 0.05
        gradient_signs = np.sign(np.diff(intensity[above]))
        flips = np.sum(np.abs(np.diff(gradient_signs)) > 1)
        assert flips <= 1
        # Slightly past the focus: narrower than the source waist but wider
        # than the focal spot itself.
        assert 0.1e-3 < beam_width(out) < 0.2e-3

    def test_element_past_crystal_rejected(self, ktp):
        pump = PumpSpec(center_wavelength=WAVELENGTH, waist_radius=WAIST,
                        waist_position=0.0, pulse_duration=200e-15)
        with pytest.raises(ValidationError):
            detection_plane_profile(pump, ((0.01, ThinLens(0.5)),),
                                    self._crystal(), ktp, 0.5,
                                    grid_extent=0.02, sample_count=4096)

    def test_unsorted_elements_rejected(self, ktp):
        pump = PumpSpec(center_wavelength=WAVELENGTH, waist_radius=WAIST,
                        waist_position=-0.05, pulse_duration=200e-15)
        elements = ((-0.01, ThinLens(0.5)), (-0.03, ThinLens(0.5)))
        with pytest.raises(ValidationError):
            detection_plane_profile(pump, elements, self._crystal(), ktp, 0.5,
                                    grid_extent=0.02, sample_count=4096)
