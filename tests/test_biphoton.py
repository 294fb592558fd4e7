import math

import numpy as np
import pytest

from qpmspdc.biphoton import (ScanResult, build_joint_amplitude,
                              coincidence_scan_analytic,
                              coincidence_scan_oracle,
                              normalized_cross_correlation,
                              sample_pump_spectrum, scan_positions,
                              spectral_envelope)
from qpmspdc.cli import write_scan_csv
from qpmspdc.config import parse_scenario_text, scenario_to_text
from qpmspdc.core import (CrystalSpec, DetectionGeometry, FrequencyPair,
                          PumpSpec, angular_frequency)
from qpmspdc.dispersion import ConstantIndexModel
from qpmspdc.errors import GridCompatibilityError, ValidationError
from qpmspdc.fields import (AngularSpectrum, MultiSlitAperture, gaussian_source,
                            to_angular_spectrum)
from qpmspdc.scenarios import (estimate_fringe_period, joint_amplitude,
                               pump_profile, pump_spectrum, run_coincidence)

OMEGA_PUMP = angular_frequency(413e-9)
DEGENERATE = FrequencyPair.degenerate(OMEGA_PUMP)
PUMP = PumpSpec(center_wavelength=413e-9, waist_radius=0.5e-3,
                pulse_duration=200e-15)


def vacuum_crystal(length=9.6e-3):
    return CrystalSpec(length=length, poling_period=math.inf, duty_cycle=0.5,
                       qpm_order=1, temperature_c=25.0, pump_axis="y",
                       signal_axis="y", idler_axis="y")


def gaussian_spectrum(waist=0.5e-3):
    field = gaussian_source(waist, 413e-9, grid_extent=0.02, sample_count=4096)
    return to_angular_spectrum(field)


def geometry(**overrides):
    base = dict(distance=0.5, slit_width=1e-4, scan_range=2e-3, scan_step=2e-5)
    base.update(overrides)
    return DetectionGeometry(**base)


class TestSpectralEnvelope:
    def test_unity_on_degeneracy(self):
        assert spectral_envelope(DEGENERATE, PUMP) == 1.0

    def test_one_over_e_point(self):
        gamma = PUMP.gamma
        pair = FrequencyPair(OMEGA_PUMP / 2, OMEGA_PUMP / 2,
                             delta_omega=math.sqrt(2 * gamma))
        assert spectral_envelope(pair, PUMP) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_two_sigma_detuning(self):
        pair = FrequencyPair(OMEGA_PUMP / 2, OMEGA_PUMP / 2, delta_omega=1e13)
        assert spectral_envelope(pair, PUMP) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_cw_is_monochromatic(self):
        cw = PumpSpec(center_wavelength=413e-9, waist_radius=0.5e-3)
        assert spectral_envelope(DEGENERATE, cw) == 1.0
        detuned = FrequencyPair(OMEGA_PUMP / 2, OMEGA_PUMP / 2, delta_omega=1e5)
        assert spectral_envelope(detuned, cw) == 0.0


class TestBuildJointAmplitude:
    def test_plane_wave_pump_momentum_conservation(self):
        n = 4096
        values = np.zeros(n, dtype=complex)
        values[n // 2] = 1.0
        spectrum = AngularSpectrum(values=values, q_extent=2 * math.pi / 0.02 * n,
                                   wavelength=413e-9)
        amplitude = build_joint_amplitude(
            spectrum, PUMP, vacuum_crystal(length=1e-6), DEGENERATE,
            ConstantIndexModel(1.0), q_extent=2e5, samples=128)
        q_sum = np.abs(amplitude.q_signal[:, None] + amplitude.q_idler[None, :])
        outside = q_sum > spectrum.dq
        assert np.all(np.abs(amplitude.base_values[outside]) == 0.0)
        assert np.max(np.abs(amplitude.base_values)) == 1.0

    def test_thin_crystal_factorizes_to_pump(self):
        spectrum = gaussian_spectrum()
        amplitude = build_joint_amplitude(
            spectrum, PUMP, vacuum_crystal(length=1e-6), DEGENERATE,
            ConstantIndexModel(1.7), q_extent=2e5, samples=256)
        pump_part = sample_pump_spectrum(
            spectrum, amplitude.q_signal[:, None] + amplitude.q_idler[None, :])
        expected = np.abs(pump_part) / np.max(np.abs(pump_part))
        np.testing.assert_allclose(np.abs(amplitude.values), expected, atol=1e-6)

    def test_pump_swap_factorization(self):
        spectrum_a = gaussian_spectrum(0.5e-3)
        slit_field = gaussian_source(0.5e-3, 413e-9, grid_extent=0.02,
                                     sample_count=4096)
        from qpmspdc.fields import apply_element
        slit_field = apply_element(slit_field, MultiSlitAperture(
            slit_width=1e-4, center_separation=2e-4, slit_count=2))
        spectrum_b = to_angular_spectrum(slit_field)
        crystal = vacuum_crystal()
        kwargs = dict(q_extent=2e5, samples=192, include_phase=False)
        model = ConstantIndexModel(1.7)
        amp_a = build_joint_amplitude(spectrum_a, PUMP, crystal, DEGENERATE,
                                      model, **kwargs)
        amp_b = build_joint_amplitude(spectrum_b, PUMP, crystal, DEGENERATE,
                                      model, **kwargs)
        q_sum = amp_a.q_signal[:, None] + amp_a.q_idler[None, :]
        cross_ab = amp_a.values * sample_pump_spectrum(spectrum_b, q_sum)
        cross_ba = amp_b.values * sample_pump_spectrum(spectrum_a, q_sum)
        peak_ab = np.max(np.abs(cross_ab))
        peak_ba = np.max(np.abs(cross_ba))
        mask = np.abs(cross_ab) > 1e-8 * peak_ab
        np.testing.assert_allclose(cross_ab[mask] / peak_ab,
                                   cross_ba[mask] / peak_ba, atol=1e-10)

    def test_degenerate_exchange_symmetry(self):
        amplitude = build_joint_amplitude(
            gaussian_spectrum(), PUMP, vacuum_crystal(), DEGENERATE,
            ConstantIndexModel(1.7), q_extent=2e5, samples=128)
        np.testing.assert_allclose(amplitude.values, amplitude.values.T,
                                   rtol=0, atol=1e-14)

    def test_pump_grid_too_narrow(self):
        narrow = AngularSpectrum(values=np.ones(64, dtype=complex),
                                 q_extent=1e4, wavelength=413e-9)
        with pytest.raises(GridCompatibilityError) as err:
            build_joint_amplitude(narrow, PUMP, vacuum_crystal(), DEGENERATE,
                                  ConstantIndexModel(1.7), q_extent=1e5,
                                  samples=64)
        assert err.value.required_q_extent is not None

    def test_stored_value_invariant_spot_check(self, ktp, preset1):
        # Every stored node equals pump-transfer * sinc * envelope * phase.
        from qpmspdc.core import sinc
        from qpmspdc.phasematch import delta_kz_paraxial

        spectrum = pump_spectrum(preset1)
        amplitude = joint_amplitude(preset1, spectrum=spectrum)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, amplitude.q_signal.size, 12)
        cols = rng.integers(0, amplitude.q_idler.size, 12)
        envelope = spectral_envelope(amplitude.freqs, preset1.pump)
        raw = sample_pump_spectrum(
            spectrum, amplitude.q_signal[:, None] + amplitude.q_idler[None, :])
        dkz = delta_kz_paraxial(amplitude.freqs, amplitude.q_signal[:, None],
                                amplitude.q_idler[None, :], amplitude.crystal, ktp)
        full = raw * sinc(0.5 * amplitude.crystal.length * dkz) * envelope
        full = full / np.max(np.abs(full))
        expected = full * np.exp(1j * 0.5 * amplitude.crystal.length * dkz)
        for i, j in zip(rows, cols):
            assert amplitude.values[i, j] == pytest.approx(expected[i, j], abs=1e-12)


class TestScans:
    def test_phase_factor_irrelevance_bitwise(self, preset1):
        spectrum = pump_spectrum(preset1)
        with_phase = joint_amplitude(preset1, include_phase=True, spectrum=spectrum)
        without = joint_amplitude(preset1, include_phase=False, spectrum=spectrum)
        np.testing.assert_allclose(np.abs(with_phase.values),
                                   np.abs(without.values), atol=1e-12)
        for mode in ("both-together", "signal-only"):
            scan_a = coincidence_scan_oracle(with_phase, preset1.detection, mode)
            scan_b = coincidence_scan_oracle(without, preset1.detection, mode)
            assert np.array_equal(scan_a.rates, scan_b.rates)

    def test_plane_wave_pump_scan_is_translation_invariant(self):
        # An infinite uniform pump generates pairs everywhere, so co-moving
        # detectors see a position-independent coincidence rate.
        n = 4096
        values = np.zeros(n, dtype=complex)
        values[n // 2] = 1.0
        spectrum = AngularSpectrum(values=values, q_extent=2 * math.pi / 0.02 * n,
                                   wavelength=413e-9)
        amplitude = build_joint_amplitude(
            spectrum, PUMP, vacuum_crystal(length=1e-6), DEGENERATE,
            ConstantIndexModel(1.0), q_extent=1e5, samples=128)
        result = coincidence_scan_oracle(amplitude, geometry(), "both-together")
        np.testing.assert_allclose(result.rates, 1.0, atol=1e-9)

    def test_gaussian_pump_scan_follows_profile(self, preset1):
        # No elements: the scan is the propagated Gaussian intensity.
        from dataclasses import replace

        bare = replace(preset1, elements=(),
                       pump=replace(preset1.pump, waist_position=0.0))
        out = run_coincidence(bare, method="both")
        assert out.correlation > 0.999

    def test_slit_width_zero_reproduces_pointwise_profile(self, ktp, preset1):
        profile = pump_profile(preset1)
        geo = geometry(slit_width=0.0, scan_range=1.5e-3, scan_step=2.5e-5)
        result = coincidence_scan_analytic(
            profile, geo, "both-together", crystal=preset1.crystal, model=ktp,
            freqs=DEGENERATE)
        expected = np.interp(result.positions, profile.x, profile.intensity)
        np.testing.assert_allclose(result.rates, expected / expected.max(),
                                   rtol=1e-12)

    def test_signal_only_far_field_marginal(self, ktp):
        # Waist small enough that the detector plane is deep in the far field;
        # with a thin crystal the signal-only scan maps the pump spectrum.
        waist = 5e-5
        field = gaussian_source(waist, 413e-9, grid_extent=0.02,
                                sample_count=4096)
        spectrum = to_angular_spectrum(field)
        crystal = vacuum_crystal(length=1e-6)
        amplitude = build_joint_amplitude(
            spectrum, PUMP, crystal, DEGENERATE, ConstantIndexModel(1.0),
            q_extent=2e5, samples=512)
        geo = geometry(slit_width=0.0, scan_range=6e-3, scan_step=1e-4)
        result = coincidence_scan_oracle(amplitude, geo, "signal-only")
        k_signal = DEGENERATE.omega_signal / 299792458.0
        mapped = sample_pump_spectrum(spectrum,
                                      k_signal * result.positions / geo.distance)
        expected = np.abs(mapped) ** 2
        expected /= expected.max()
        assert normalized_cross_correlation(result.rates, expected) > 0.999
        np.testing.assert_allclose(result.rates, expected, atol=2e-2)

    def test_analytic_oracle_agreement_preset1(self, preset1_both):
        assert preset1_both.correlation >= 0.98

    def test_analytic_oracle_agreement_preset2(self, preset2_both):
        assert preset2_both.correlation >= 0.98

    def test_preset2_fringe_period(self, preset2_both):
        period = estimate_fringe_period(preset2_both.oracle.positions,
                                        preset2_both.oracle.rates)
        assert period == pytest.approx(1.0532e-3, rel=0.03)

    def test_regime_violation_warns_and_degrades(self, preset1):
        text = scenario_to_text(preset1).replace("distance_mm = 500.0",
                                                 "distance_mm = 25.0")
        violated = parse_scenario_text(text)
        out = run_coincidence(violated, detectors="signal-only", method="both")
        assert any("regime" in w for w in out.analytic.warnings)
        assert out.correlation < 0.98

    def test_no_warning_in_nominal_regime(self, preset1_both):
        assert all("regime violation" not in w
                   for w in preset1_both.analytic.warnings)

    def test_both_methods_share_one_pump_march(self, preset1):
        from unittest import mock

        from qpmspdc import scenarios

        with mock.patch.object(scenarios, "march_to_crystal_exit",
                               wraps=scenarios.march_to_crystal_exit) as march:
            run_coincidence(preset1, method="both")
        assert march.call_count == 1


class TestScanResult:
    def test_positions_must_increase(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 0.0, 1.0]),
                       rates=np.array([0.5, 1.0, 0.5]), mode="both-together",
                       metadata={})

    def test_rates_must_be_normalized(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 1.0]),
                       rates=np.array([0.2, 0.4]), mode="both-together",
                       metadata={})

    def test_mode_tag_checked(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 1.0]),
                       rates=np.array([0.5, 1.0]), mode="sideways", metadata={})

    def test_scan_positions_cover_range(self):
        geo = geometry(scan_range=2e-3, scan_step=1e-4)
        positions = scan_positions(geo)
        assert positions[0] == -1e-3
        assert positions[-1] == 1e-3
        assert positions.size == 21


class TestCsvOutputs:
    def test_scan_csv(self, tmp_path, preset1_both):
        path = tmp_path / "scan.csv"
        write_scan_csv(preset1_both.analytic, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert "# mode = both-together" in lines
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header] == "p_m,rate"
        row = lines[header + 1].split(",")
        assert float(row[0]) == preset1_both.analytic.positions[0]
        assert float(row[1]) == preset1_both.analytic.rates[0]

    def test_scan_csv_with_companion(self, tmp_path, preset1_both):
        path = tmp_path / "scan_both.csv"
        write_scan_csv(preset1_both.analytic, path, companion=preset1_both.oracle)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header] == "p_m,rate,rate_companion"
