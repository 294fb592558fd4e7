import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpmspdc.biphoton import (SCAN_MODES, JointAmplitude, ScanResult, _hankel,
                              _pair_sums, _position_phases, _row_layout,
                              _slit_offsets, build_joint_amplitude,
                              coincidence_scan_analytic,
                              coincidence_scan_oracle,
                              normalized_cross_correlation,
                              sample_pump_spectrum, scan_positions,
                              spectral_envelope, symmetric_q_grid)
from qpmspdc.cli import write_scan_csv
from qpmspdc.config import parse_scenario_text, scenario_to_text
from qpmspdc.core import VACUUM_LIGHT_SPEED as C
from qpmspdc.core import (CrystalSpec, DetectionGeometry, FrequencyPair,
                          PumpSpec, angular_frequency, sinc, vacuum_wavelength)
from qpmspdc.dispersion import ConstantIndexModel, group_index
from qpmspdc.errors import GridCompatibilityError, ValidationError
from qpmspdc.fields import (AngularSpectrum, MultiSlitAperture, ThinLens,
                            apply_element, gaussian_source, propagate,
                            to_angular_spectrum)
from qpmspdc.phasematch import delta_kz_paraxial
from qpmspdc.scenarios import (auto_joint_grid, degenerate_pair,
                               estimate_fringe_period, index_model_for,
                               joint_amplitude, pump_profile, pump_spectrum,
                               run_coincidence)

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


def brute_force_oracle_rates(amplitude, geometry, mode, slit_samples=8):
    """Reference oracle: every detector pair of the full transform, then the scan's.

    Each detector column carries exp(i q p) exp(-i z q^2 / 2k); the amplitude
    of every (signal column, idler column) pair is formed and the pairs the
    scan mode reads are slit-averaged.
    """
    c = 299792458.0
    k_signal = amplitude.freqs.omega_signal / c
    k_idler = amplitude.freqs.omega_idler / c
    z = geometry.distance
    q = amplitude.q_signal
    positions = scan_positions(geometry)
    offsets = _slit_offsets(geometry.slit_width, slit_samples)
    n_scan, n_off = positions.size, offsets.size
    scanned = (positions[:, None] + offsets[None, :]).ravel()

    def phases(points, wavenumber):
        chirp = np.exp(-1j * z * q**2 / (2.0 * wavenumber))
        return np.exp(1j * np.outer(q, points)) * chirp[:, None]

    e_signal = phases(offsets if mode == "idler-only" else scanned, k_signal)
    e_idler = phases(offsets if mode == "signal-only" else scanned, k_idler)
    detected = np.abs(e_signal.T @ (amplitude.base_values @ e_idler)) ** 2
    if mode == "both-together":
        blocks = detected.reshape(n_scan, n_off, n_scan, n_off)
        raw = blocks[np.arange(n_scan), :, np.arange(n_scan), :].mean(axis=(1, 2))
    elif mode == "signal-only":
        raw = detected.reshape(n_scan, n_off, n_off).mean(axis=(1, 2))
    else:
        raw = detected.T.reshape(n_scan, n_off, n_off).mean(axis=(1, 2))
    return raw / raw.max()


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

    @pytest.mark.parametrize("case", ["detuned-cw-pump", "zero-pump"])
    def test_identically_zero_amplitude_rejected(self, case):
        spectrum, pump, freqs = gaussian_spectrum(), PUMP, DEGENERATE
        if case == "detuned-cw-pump":
            pump = PumpSpec(center_wavelength=413e-9, waist_radius=0.5e-3)
            freqs = FrequencyPair(OMEGA_PUMP / 2, OMEGA_PUMP / 2, delta_omega=1e5)
        else:
            spectrum = AngularSpectrum(values=np.zeros(4096, dtype=complex),
                                       q_extent=spectrum.q_extent, wavelength=413e-9)
        with pytest.raises(ValidationError, match="identically zero"):
            build_joint_amplitude(spectrum, pump, vacuum_crystal(), freqs,
                                  ConstantIndexModel(1.7), q_extent=2e5, samples=64)

    def test_underflowing_amplitude_rejected_when_read(self):
        # A pump of the smallest subnormal times a sinc below 1/2 rounds to 0
        # in every cell, although the pump itself is not all zero, so only
        # the streamed peak can tell.
        q = symmetric_q_grid(2e4, 33)
        amplitude = JointAmplitude(
            q_signal=q, pump_sums=np.full(2 * q.size - 1, 5e-324 + 0j),
            signal_term=np.full(q.size, 100.0), idler_term=np.zeros(q.size),
            pair_term=np.zeros(2 * q.size - 1), freqs=DEGENERATE,
            crystal=vacuum_crystal())
        with pytest.raises(ValidationError, match="identically zero"):
            amplitude.base_values
        for mode in SCAN_MODES:
            with pytest.raises(ValidationError, match="identically zero"):
                coincidence_scan_oracle(amplitude, geometry(), mode)

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
        values = amplitude.values
        for i, j in zip(rows, cols):
            assert values[i, j] == pytest.approx(expected[i, j], abs=1e-12)


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

    @given(waist=st.floats(0.2e-3, 1e-3),
           focal_length=st.one_of(st.none(), st.floats(0.2, 2.0)),
           slits=st.one_of(st.none(), st.tuples(st.integers(1, 3),
                                                st.floats(50e-6, 200e-6),
                                                st.floats(1.0, 3.0))),
           distance=st.floats(0.2, 0.5))
    def test_mirror_symmetry_for_symmetric_pump(self, waist, focal_length, slits,
                                                distance):
        # A pump even in x gives scans even in the detector position, by
        # both routes and in every mode. An odd joint grid is symmetric node
        # for node, so only rounding separates rate(p) from rate(-p).
        field = gaussian_source(waist, 413e-9, grid_extent=0.02, sample_count=4096)
        if focal_length is not None:
            field = apply_element(field, ThinLens(focal_length))
        if slits is not None:
            count, width, spacing = slits
            field = apply_element(field, MultiSlitAperture(
                slit_width=width, center_separation=spacing * width, slit_count=count))
        crystal, model = vacuum_crystal(), ConstantIndexModel(1.7)
        amplitude = build_joint_amplitude(
            to_angular_spectrum(field), PUMP, crystal, DEGENERATE, model,
            q_extent=1e5, samples=129, include_phase=False)
        geo = geometry(distance=distance)
        profile = propagate(field, distance)
        for mode in SCAN_MODES:
            oracle = coincidence_scan_oracle(amplitude, geo, mode).rates
            analytic = coincidence_scan_analytic(profile, geo, mode, crystal=crystal,
                                                 model=model, freqs=DEGENERATE).rates
            assert np.max(np.abs(oracle - oracle[::-1])) <= 1e-9
            assert np.max(np.abs(analytic - analytic[::-1])) <= 1e-9

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

    def test_no_warning_in_nominal_regime(self, preset1_both, preset2_both):
        assert all("regime violation" not in w
                   for w in preset1_both.analytic.warnings)
        # Neither preset's automatic joint grid is clipped to the pump grid.
        assert preset1_both.oracle.warnings == preset2_both.oracle.warnings == ()

    def test_both_methods_share_one_pump_march(self, preset1):
        from unittest import mock

        from qpmspdc import scenarios

        with mock.patch.object(scenarios, "march_to_crystal_exit",
                               wraps=scenarios.march_to_crystal_exit) as march:
            run_coincidence(preset1, method="both")
        assert march.call_count == 1

    def test_both_methods_build_one_index_model(self, preset1):
        from unittest import mock

        from qpmspdc.config import DispersionConfig

        # The parsed preset already holds the model its design step built; an
        # equal DispersionConfig that has built none shows what the run builds.
        config = replace(preset1, dispersion=replace(preset1.dispersion))
        with mock.patch.object(DispersionConfig, "make_model", autospec=True,
                               side_effect=DispersionConfig.make_model) as make:
            run_coincidence(config, method="both")
        assert make.call_count == 1


_ORACLE_CASES = ("paper-config-1", "paper-config-2", "odd-joint-samples",
                 "zero-slit-width", "non-degenerate", "explicit-q-extent")


@pytest.fixture(scope="module", params=_ORACLE_CASES)
def oracle_case(request, preset1, preset2):
    """(joint amplitude, detection geometry) for one oracle reference case."""
    case = request.param
    if case == "non-degenerate":
        # k_s != k_i, so the two transport chirps differ.
        freqs = FrequencyPair.from_pump(OMEGA_PUMP, 0.52 * OMEGA_PUMP, 0.48 * OMEGA_PUMP)
        amplitude = build_joint_amplitude(
            gaussian_spectrum(), PUMP, vacuum_crystal(), freqs,
            ConstantIndexModel(1.7), q_extent=2e5, samples=512,
            include_phase=False)
        return amplitude, geometry()
    config = preset2 if case == "paper-config-2" else preset1
    text = scenario_to_text(config)
    if case == "odd-joint-samples":
        text = text.replace("joint_grid_samples = 0", "joint_grid_samples = 817")
    elif case == "explicit-q-extent":
        text = text.replace("joint_q_extent = 0.0", "joint_q_extent = 300000.0")
    config = parse_scenario_text(text)
    detection = config.detection
    if case == "zero-slit-width":
        detection = replace(detection, slit_width=0.0)
    return joint_amplitude(config, include_phase=False), detection


class TestOracleReference:
    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_matches_brute_force(self, oracle_case, mode):
        amplitude, detection = oracle_case
        rates = coincidence_scan_oracle(amplitude, detection, mode).rates
        expected = brute_force_oracle_rates(amplitude, detection, mode)
        assert np.max(np.abs(rates - expected)) <= 1e-12

    @pytest.mark.parametrize("samples", [816, 817])
    def test_hankel_pump_factor_matches_cellwise_interpolation(self, preset1, samples):
        spectrum = pump_spectrum(preset1)
        q = symmetric_q_grid(2.5e5, samples)
        gathered = _hankel(sample_pump_spectrum(spectrum, _pair_sums(q)), q.size)
        direct = sample_pump_spectrum(spectrum, q[:, None] + q[None, :])
        assert np.max(np.abs(gathered - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("count", [1, 2, 3, 81, 97])
    def test_position_phases_match_direct_table(self, count):
        # |q p| reaches 600 rad; paper-config-2's scan reaches 583.
        q = symmetric_q_grid(1.25e6, 2143)
        positions = np.linspace(-1e-3, 0.4e-3, count)
        angles = np.multiply.outer(q, positions)
        direct = np.cos(angles) + 1j * np.sin(angles)
        assert np.max(np.abs(angles)) >= 600.0
        table = _position_phases(q, positions, np.empty(direct.shape, dtype=complex))
        assert np.max(np.abs(table - direct)) <= 1e-12

    @pytest.mark.parametrize("temperature_c,crosses_zero", [(20.0, True), (70.0, False)])
    def test_off_design_fill_matches_whole_grid(self, preset1, temperature_c,
                                                crosses_zero):
        # Away from the design temperature the mismatch constant is nonzero.
        # Below it the sinc argument is negative at the centre and crosses 0
        # on an ellipse off the centre; above it every term is positive.
        crystal = replace(preset1.crystal, temperature_c=temperature_c)
        freqs, model = degenerate_pair(preset1), index_model_for(preset1)
        spectrum = pump_spectrum(preset1)
        amplitude = build_joint_amplitude(spectrum, preset1.pump, crystal, freqs,
                                          model, q_extent=6e5, samples=601,
                                          include_phase=False)
        q = amplitude.q_signal
        phase = 0.5 * crystal.length * delta_kz_paraxial(
            freqs, q[:, None], q[None, :], crystal, model)
        assert phase[q.size // 2, q.size // 2] != 0.0
        assert (np.min(phase) < 0.0 < np.max(phase)) == crosses_zero
        base = sample_pump_spectrum(spectrum, q[:, None] + q[None, :]) * sinc(phase)
        base /= np.max(np.abs(base))
        assert np.max(np.abs(amplitude.base_values - base)) <= 1e-12


    def test_blocked_fill_matches_whole_grid(self, preset1):
        # 817 rows fill in blocks of 320, the last one partial; the detuning
        # exercises the group-index term.
        freqs = FrequencyPair.from_pump(OMEGA_PUMP, 0.5005 * OMEGA_PUMP, 0.4995 * OMEGA_PUMP)
        crystal, model = preset1.crystal, index_model_for(preset1)
        spectrum = pump_spectrum(preset1)
        amplitude = build_joint_amplitude(spectrum, PUMP, crystal, freqs, model,
                                          q_extent=2.5e5, samples=817)
        q = amplitude.q_signal
        n_g = group_index(model, vacuum_wavelength(freqs.omega_pump),
                          crystal.pump_axis, crystal.temperature_c)
        phase = delta_kz_paraxial(freqs, q[:, None], q[None, :], crystal, model)
        phase -= n_g * freqs.delta_omega / C
        phase *= 0.5 * crystal.length
        base = (sample_pump_spectrum(spectrum, q[:, None] + q[None, :]) * sinc(phase)
                * spectral_envelope(freqs, PUMP))
        base /= np.max(np.abs(base))
        assert np.array_equal(amplitude.phase, phase)
        assert np.max(np.abs(amplitude.base_values - base)) <= 1e-12


    def test_transposed_rows_match_columns(self, preset1):
        # The idler-only stream reads the grid's columns as transposed rows:
        # odd grid, partial last block, detuned pair as in the blocked fill.
        freqs = FrequencyPair.from_pump(OMEGA_PUMP, 0.5005 * OMEGA_PUMP, 0.4995 * OMEGA_PUMP)
        amplitude = build_joint_amplitude(pump_spectrum(preset1), PUMP, preset1.crystal,
                                          freqs, index_model_for(preset1),
                                          q_extent=2.5e5, samples=817,
                                          include_phase=False)
        n = amplitude.q_signal.size
        buffers = [np.empty(shape, dtype) for shape, dtype in _row_layout(300, n)]
        grids, peaks = [], []
        for transpose in (False, True):
            grid = np.empty((n, n), dtype=complex)
            peak = 0.0
            for start in range(0, n, 300):
                block, block_peak = amplitude.sinc_rows(start, buffers, transpose=transpose)
                count = block.shape[0]
                np.multiply(_hankel(amplitude.pump_sums[start:], n, count), block,
                            out=grid[start:start + count])
                peak = max(peak, block_peak)
            grids.append(grid)
            peaks.append(peak)
        assert not np.array_equal(grids[0], grids[0].T)
        assert np.array_equal(grids[1], grids[0].T)
        assert peaks[1] == peaks[0]
        base = grids[0]
        base.view(float)[...] /= peaks[0]
        assert np.array_equal(amplitude.base_values, base)


class TestStreaming:
    def test_scan_memory_stays_below_half_a_grid(self, preset2):
        # The oracle streams the joint grid, so no scan mode holds the
        # N x N complex grid, even at twice the automatic sample count.
        text = scenario_to_text(preset2).replace("joint_grid_samples = 0",
                                                 "joint_grid_samples = 2144")
        config = parse_scenario_text(text)
        half_grid = 2144 * 2144 * 16 // 2
        for mode in SCAN_MODES:
            tracemalloc.start()
            try:
                run_coincidence(config, detectors=mode, method="oracle")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < half_grid, (mode, peak)

    @pytest.mark.parametrize("name,expected", [
        ("preset1", (249400.95752897154, 816, ())),
        ("preset2", (284392.0621452259, 1072, ())),
    ])
    def test_automatic_grids_pinned(self, request, name, expected):
        config = request.getfixturevalue(name)
        assert auto_joint_grid(config, degenerate_pair(config),
                               index_model_for(config)) == expected


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
