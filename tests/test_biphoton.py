import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpmspdc.biphoton import (SCAN_MODES, JointAmplitude, ScanResult, _buffers,
                              _first_column, _hankel, _pair_sums,
                              _position_phases, _row_layout,
                              _slit_offsets, build_joint_amplitude,
                              coincidence_scan_analytic,
                              coincidence_scan_oracle,
                              normalized_cross_correlation,
                              sample_pump_spectrum, scan_positions,
                              symmetric_q_grid)
from qpmspdc.cli import write_scan_csv
from qpmspdc.core import (CrystalSpec, DetectionGeometry, FrequencyPair,
                          PumpSpec, angular_frequency, sinc)
from qpmspdc.dispersion import ConstantIndexModel
from qpmspdc.errors import GridCompatibilityError, ValidationError
from qpmspdc.fields import (AngularSpectrum, MultiSlitAperture, ThinLens,
                            apply_element, gaussian_source, propagate,
                            to_angular_spectrum)
from qpmspdc.phasematch import delta_kz_paraxial
from qpmspdc.scenarios import (auto_joint_grid, degenerate_pair,
                               estimate_fringe_period, joint_amplitude,
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


def brute_force_oracle_rates(amplitude, geometry, mode):
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
    offsets = _slit_offsets(geometry.slit_width)
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

    @pytest.mark.parametrize("case", ["zero-pump"])
    def test_identically_zero_amplitude_rejected(self, case):
        spectrum = AngularSpectrum(values=np.zeros(4096, dtype=complex),
                                   q_extent=gaussian_spectrum().q_extent, wavelength=413e-9)
        with pytest.raises(ValidationError, match="identically zero"):
            build_joint_amplitude(spectrum, PUMP, vacuum_crystal(), DEGENERATE,
                                  ConstantIndexModel(1.7), q_extent=2e5, samples=64)

    def test_oversized_sample_count_refused(self):
        # A q axis of 1e11 samples would take 800 GB.
        with pytest.raises(ValidationError, match="integer from 2 to 16384"):
            symmetric_q_grid(2e5, 100000000000)

    def test_zero_pump_rejected_on_construction(self):
        # The amplitude is divided by the pump's peak magnitude, so an
        # all-zero pump is refused before any grid cell is computed.
        q = symmetric_q_grid(2e4, 33)
        with pytest.raises(ValidationError, match="identically zero"):
            JointAmplitude(q_signal=q, pump_sums=np.zeros(2 * q.size - 1, dtype=complex),
                           signal_term=np.zeros(q.size), idler_term=np.zeros(q.size),
                           pair_term=np.zeros(2 * q.size - 1), freqs=DEGENERATE)

    def test_stored_value_invariant_spot_check(self, ktp, preset1):
        # Every stored node equals pump-transfer * sinc * phase, divided by
        # the pump's peak magnitude.
        from qpmspdc.core import sinc
        from qpmspdc.phasematch import delta_kz_paraxial

        spectrum = pump_spectrum(preset1)
        amplitude = joint_amplitude(preset1, spectrum=spectrum)
        rng = np.random.default_rng(3)
        rows = rng.integers(0, amplitude.q_signal.size, 12)
        cols = rng.integers(0, amplitude.q_idler.size, 12)
        raw = sample_pump_spectrum(
            spectrum, amplitude.q_signal[:, None] + amplitude.q_idler[None, :])
        dkz = delta_kz_paraxial(amplitude.freqs, amplitude.q_signal[:, None],
                                amplitude.q_idler[None, :], preset1.crystal, ktp)
        full = raw * sinc(0.5 * preset1.crystal.length * dkz) / np.max(np.abs(raw))
        expected = full * np.exp(1j * 0.5 * preset1.crystal.length * dkz)
        values = amplitude.values
        for i, j in zip(rows, cols):
            assert values[i, j] == pytest.approx(expected[i, j], abs=1e-12)


class TestPumpSpectrumReach:
    def test_read_from_first_node_to_last(self):
        spectrum = gaussian_spectrum()
        ends = sample_pump_spectrum(spectrum, spectrum.q[[0, -1]])
        assert np.array_equal(ends, spectrum.values[[0, -1]])

    @pytest.mark.parametrize("end", [0, -1], ids=["below-first-node", "above-last-node"])
    def test_one_step_past_either_end_is_refused(self, end):
        # Past the last node the spectrum once read as 0, silently.
        spectrum = gaussian_spectrum()
        node = spectrum.q[end]
        outside = node + math.copysign(spectrum.dq, node)
        with pytest.raises(GridCompatibilityError, match="cannot supply") as err:
            sample_pump_spectrum(spectrum, np.array([0.0, outside]))
        assert err.value.required_q_extent > spectrum.q_extent

    @given(grid_samples=st.sampled_from([2048, 4096, 8192]),
           grid_extent_mm=st.floats(10.0, 60.0),
           scan_range_mm=st.floats(0.5, 8.0),
           distance_mm=st.floats(100.0, 2000.0))
    @example(grid_samples=4096, grid_extent_mm=80.0, scan_range_mm=2.0, distance_mm=500.0)
    def test_automatic_grids_stay_inside_the_pump_spectrum(
            self, preset1, grid_samples, grid_extent_mm, scan_range_mm, distance_mm):
        # The automatic grid is clipped to the pump spectrum's reach, so its
        # pair sums never leave the spectrum.
        config = replace(
            preset1,
            numerics=replace(preset1.numerics, grid_samples=grid_samples,
                             grid_extent=grid_extent_mm * 1e-3),
            detection=replace(preset1.detection, distance=distance_mm * 1e-3,
                              scan_range=scan_range_mm * 1e-3,
                              scan_step=scan_range_mm * 1e-5))
        spectrum = pump_spectrum(config)
        q_extent, _, warnings = auto_joint_grid(config, spectrum)
        assert q_extent <= spectrum.q[-1]
        assert bool(warnings) == (q_extent == spectrum.q[-1])
        joint_amplitude(config, include_phase=False, spectrum=spectrum)


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
        result = coincidence_scan_analytic(profile, geo, "both-together")
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
            analytic = coincidence_scan_analytic(profile, geo, mode).rates
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
        violated = replace(preset1, detection=replace(preset1.detection, distance=0.025))
        out = run_coincidence(violated, detectors="signal-only", method="both")
        assert any("regime" in w for w in out.analytic.warnings)
        assert out.correlation < 0.98

    def test_no_warning_in_nominal_regime(self, preset1_both, preset2_both):
        assert all("regime violation" not in w
                   for w in preset1_both.analytic.warnings)
        # Neither preset's automatic joint grid is clipped to the pump grid.
        assert preset1_both.oracle.warnings == preset2_both.oracle.warnings == ()

    def test_detectors_read_angles_in_air(self, preset2, preset2_both):
        # The detectors sit in air whatever angle axis the Maker curves use,
        # so the internal convention leaves the scan's efficiency check as it
        # is: a 3.5% notice, no regime violation.
        internal = replace(preset2, numerics=replace(preset2.numerics,
                                                     angle_convention="internal"))
        out = run_coincidence(internal, method="analytic")
        assert out.analytic.warnings == preset2_both.analytic.warnings == (
            "QPM efficiency varies by 3.5% across the scan (notice level 1.0%)",)

    def test_both_methods_share_one_pump_march(self, preset1):
        from unittest import mock

        from qpmspdc import scenarios

        with mock.patch.object(scenarios, "march_to_crystal_exit",
                               wraps=scenarios.march_to_crystal_exit) as march:
            run_coincidence(preset1, method="both")
        assert march.call_count == 1

    def test_both_methods_build_one_index_model(self, preset1):
        from qpmspdc.dispersion import KtpIndexModel

        # The parsed preset already holds the model its design step built; an
        # equal DispersionConfig that has built none shows what the run builds.
        config = replace(preset1, dispersion=replace(preset1.dispersion))
        with mock.patch("qpmspdc.config.KtpIndexModel", wraps=KtpIndexModel) as make:
            run_coincidence(config, method="both")
        assert make.call_count == 1


def nondegenerate_817(preset1, include_phase):
    """paper-config-1's joint amplitude for a non-degenerate pair on an odd 817-row grid."""
    freqs = FrequencyPair(0.5005 * OMEGA_PUMP, 0.4995 * OMEGA_PUMP)
    return build_joint_amplitude(pump_spectrum(preset1), PUMP, preset1.crystal, freqs,
                                 preset1.dispersion.model, q_extent=2.5e5, samples=817,
                                 include_phase=include_phase)


_ORACLE_CASES = ("paper-config-1", "paper-config-2", "odd-joint-samples",
                 "zero-slit-width", "non-degenerate", "explicit-q-extent")


@pytest.fixture(scope="module", params=_ORACLE_CASES)
def oracle_case(request, preset1, preset2):
    """(joint amplitude, detection geometry) for one oracle reference case."""
    case = request.param
    if case == "non-degenerate":
        # k_s != k_i, so the two transport chirps differ.
        freqs = FrequencyPair(0.52 * OMEGA_PUMP, 0.48 * OMEGA_PUMP)
        amplitude = build_joint_amplitude(
            gaussian_spectrum(), PUMP, vacuum_crystal(), freqs,
            ConstantIndexModel(1.7), q_extent=2e5, samples=512,
            include_phase=False)
        return amplitude, geometry()
    config = preset2 if case == "paper-config-2" else preset1
    detection = config.detection
    if case == "zero-slit-width":
        detection = replace(detection, slit_width=0.0)
    if case in ("odd-joint-samples", "explicit-q-extent"):
        # An odd count on the automatic extent, and a wider extent with the
        # count the automatic sizing gives it.
        spectrum = pump_spectrum(config)
        q_extent, samples = ((auto_joint_grid(config, spectrum)[0], 817)
                             if case == "odd-joint-samples" else (3e5, 1184))
        amplitude = build_joint_amplitude(
            spectrum, config.pump, config.crystal, degenerate_pair(config),
            config.dispersion.model, q_extent=q_extent, samples=samples,
            include_phase=False)
        assert amplitude.q_signal.size == samples
        return amplitude, detection
    return joint_amplitude(config, include_phase=False), detection


class TestOracleReference:
    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_matches_brute_force(self, oracle_case, mode):
        amplitude, detection = oracle_case
        rates = coincidence_scan_oracle(amplitude, detection, mode).rates
        expected = brute_force_oracle_rates(amplitude, detection, mode)
        assert np.max(np.abs(rates - expected)) <= 1e-12

    @given(samples=st.integers(48, 97),
           slit_width=st.sampled_from([0.0, 5e-5]),
           signal_fraction=st.floats(0.47, 0.53),
           element=st.sampled_from([None, ThinLens(0.5), MultiSlitAperture(
               slit_width=1e-4, center_separation=2e-4, slit_count=2)]),
           poling_period=st.just(math.inf) | st.floats(5e-3, 5e-2))
    def test_matches_brute_force_on_generated_grids(self, samples, slit_width,
                                                    signal_fraction, element,
                                                    poling_period):
        # Odd and even N, k_s != k_i, lens and slit pumps. A
        # finite poling period is off phase matching, where the amplitude
        # peaks below 1.
        field = gaussian_source(0.5e-3, 413e-9, grid_extent=0.02, sample_count=4096)
        if element is not None:
            field = apply_element(field, element)
        freqs = FrequencyPair(signal_fraction * OMEGA_PUMP,
                              (1.0 - signal_fraction) * OMEGA_PUMP)
        crystal = replace(vacuum_crystal(), poling_period=poling_period)
        amplitude = build_joint_amplitude(
            to_angular_spectrum(field), PUMP, crystal, freqs, ConstantIndexModel(1.7),
            q_extent=1e5, samples=samples, include_phase=False)
        detection = geometry(distance=0.2, slit_width=slit_width, scan_range=1e-3)
        for mode in SCAN_MODES:
            rates = coincidence_scan_oracle(amplitude, detection, mode).rates
            expected = brute_force_oracle_rates(amplitude, detection, mode)
            assert np.max(np.abs(rates - expected)) <= 1e-12, mode

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
        freqs, model = degenerate_pair(preset1), preset1.dispersion.model
        spectrum = pump_spectrum(preset1)
        amplitude = build_joint_amplitude(spectrum, preset1.pump, crystal, freqs,
                                          model, q_extent=6e5, samples=601,
                                          include_phase=False)
        q = amplitude.q_signal
        phase = 0.5 * crystal.length * delta_kz_paraxial(
            freqs, q[:, None], q[None, :], crystal, model)
        assert phase[q.size // 2, q.size // 2] != 0.0
        assert (np.min(phase) < 0.0 < np.max(phase)) == crosses_zero
        pump = sample_pump_spectrum(spectrum, q[:, None] + q[None, :])
        base = pump * sinc(phase) / np.max(np.abs(pump))
        assert np.max(np.abs(amplitude.base_values - base)) <= 1e-12
        assert np.max(np.abs(amplitude.base_values)) < 1.0


    def test_blocked_fill_matches_whole_grid(self, preset1):
        # An odd 817-row grid.
        amplitude = nondegenerate_817(preset1, include_phase=True)
        crystal, model = preset1.crystal, preset1.dispersion.model
        freqs = amplitude.freqs
        q = amplitude.q_signal
        phase = delta_kz_paraxial(freqs, q[:, None], q[None, :], crystal, model)
        phase *= 0.5 * crystal.length
        pump = sample_pump_spectrum(pump_spectrum(preset1), q[:, None] + q[None, :])
        base = pump * sinc(phase) / np.max(np.abs(pump))
        # The kept phase is summed from the sinc's 1D terms, not by the
        # whole-grid formula: equal to rounding (4.9e-15 rad measured).
        assert np.max(np.abs(amplitude.phase - phase)) <= 1e-13
        assert np.max(np.abs(amplitude.base_values - base)) <= 1e-12

    def test_kept_phase_is_the_sinc_argument(self, preset1):
        amplitude = nondegenerate_817(preset1, include_phase=True)
        n = amplitude.q_signal.size
        phase = amplitude.phase
        peak = np.max(np.abs(amplitude.pump_sums))
        assert amplitude.pump_peak == peak
        base = _hankel(amplitude.pump_sums, n) * sinc(phase)
        base.view(float)[...] /= peak
        assert np.array_equal(amplitude.base_values, base)
        assert np.array_equal(amplitude.values, np.exp(1j * phase) * base)
        assert nondegenerate_817(preset1, include_phase=False).phase is None

    def test_transposed_rows_match_columns(self, preset1):
        # The idler-only scan streams the rows of the amplitude with its
        # signal and idler terms swapped, which are the original's columns:
        # odd grid, partial last block, non-degenerate pair.
        amplitude = nondegenerate_817(preset1, include_phase=False)
        swapped = replace(amplitude, signal_term=amplitude.idler_term,
                          idler_term=amplitude.signal_term)
        n = amplitude.q_signal.size
        buffers = [np.empty(shape, dtype) for shape, dtype in _row_layout(300, n)]
        grids = []
        for streamed in (amplitude, swapped):
            grid = np.empty((n, n), dtype=complex)
            for start in range(0, n, 300):
                block = streamed.sinc_rows(start, buffers)
                count = block.shape[0]
                np.multiply(_hankel(streamed.pump_sums[start:], n, count), block,
                            out=grid[start:start + count])
            grids.append(grid)
        assert not np.array_equal(grids[0], grids[0].T)
        assert np.array_equal(grids[1], grids[0].T)
        assert swapped.pump_peak == amplitude.pump_peak
        base = grids[0]
        base.view(float)[...] /= amplitude.pump_peak
        assert np.array_equal(amplitude.base_values, base)

    def test_off_design_amplitude_peaks_below_one(self, preset1):
        # paper-config-1's poling period is designed at 40 C. Held at 30 C,
        # the phase-matched cell leaves the pump peak, and the amplitude,
        # divided by the pump's peak, keeps the efficiency drop.
        cooled = replace(preset1, crystal=replace(preset1.crystal, temperature_c=30.0))
        on_design = joint_amplitude(preset1, include_phase=False)
        off_design = joint_amplitude(cooled, include_phase=False)
        # |re + i im| after scaling re and im apart: 1 to the last bit.
        assert abs(np.max(np.abs(on_design.base_values)) - 1.0) <= 2.0**-52
        assert 0.39 < np.max(np.abs(off_design.base_values)) < 0.40


def mirror_case(samples):
    """An off-phase-matching joint amplitude, k_s != k_i, on N nodes 1000 rad/m apart."""
    freqs = FrequencyPair(0.52 * OMEGA_PUMP, 0.48 * OMEGA_PUMP)
    crystal = replace(vacuum_crystal(), poling_period=2e-2)
    return build_joint_amplitude(gaussian_spectrum(), PUMP, crystal, freqs,
                                 ConstantIndexModel(1.7), q_extent=1e3 * samples,
                                 samples=samples, include_phase=False)


class TestMirror:
    """The oracle streams rows 0..N // 2 and takes the rest from the point mirror."""

    @pytest.mark.parametrize("samples", [2, 3, 4, 5, 255, 256, 257])
    @pytest.mark.parametrize("slit_width", [0.0, 5e-5])
    def test_matches_brute_force_at_edge_sizes(self, samples, slit_width):
        # N = 2 streams every row and mirrors none; odd N mirrors every row
        # below the centre, even N all but row and column 0.
        amplitude = mirror_case(samples)
        detection = geometry(distance=0.05, slit_width=slit_width, scan_range=1e-3)
        for mode in SCAN_MODES:
            rates = coincidence_scan_oracle(amplitude, detection, mode).rates
            expected = brute_force_oracle_rates(amplitude, detection, mode)
            assert np.max(np.abs(rates - expected)) <= 1e-12, mode

    @pytest.mark.parametrize("samples", [816, 817])
    @pytest.mark.parametrize("swap", [False, True])
    def test_mirrored_rows_are_the_streamed_rows(self, preset1, samples, swap):
        # Row 2c - s is row s reversed, bit for bit, on both parities and
        # for the idler scan's swapped terms; on even N, column 0 is the 1D sinc.
        amplitude = build_joint_amplitude(
            pump_spectrum(preset1), PUMP, preset1.crystal,
            FrequencyPair(0.5005 * OMEGA_PUMP, 0.4995 * OMEGA_PUMP),
            preset1.dispersion.model, q_extent=2.5e5, samples=samples, include_phase=False)
        if swap:
            amplitude = replace(amplitude, signal_term=amplitude.idler_term,
                                idler_term=amplitude.signal_term)
        n, c, edge = samples, samples // 2, 1 - samples % 2
        direct = amplitude.sinc_rows(0, _buffers(_row_layout(n, n)))
        mirrored = direct[edge:c][::-1, edge:][:, ::-1]
        assert np.array_equal(direct[c + 1:, edge:], mirrored)
        if edge:
            assert np.array_equal(direct[:, 0], _first_column(amplitude))

    def test_pair_sums_are_exactly_odd(self):
        for samples in (816, 817):
            q = symmetric_q_grid(2.5e5, samples)
            q_sum = _pair_sums(q)
            centre = 2 * (samples // 2)
            assert q_sum[centre] == 0.0
            assert np.array_equal(q_sum[centre:], -q_sum[centre::-1][:q_sum.size - centre])

    def test_refuses_a_grid_without_its_mirror(self):
        amplitude = mirror_case(8)
        q = amplitude.q_signal
        with pytest.raises(ValidationError, match="centred uniform grid"):
            replace(amplitude, q_signal=q + 0.5 * (q[1] - q[0]))
        uneven = amplitude.signal_term.copy()
        uneven[2] = np.nextafter(uneven[2], np.inf)
        with pytest.raises(ValidationError, match="signal_term must be even"):
            replace(amplitude, signal_term=uneven)
        # Row and column 0 of an even grid have no mirror and may take any value.
        replace(amplitude, signal_term=np.r_[1.0, amplitude.signal_term[1:]])

    @pytest.mark.parametrize("name,samples", [("preset1", 816), ("preset2", 1072)])
    def test_a_scan_streams_half_the_rows(self, request, name, samples):
        config = request.getfixturevalue(name)
        amplitude = joint_amplitude(config, include_phase=False)
        assert amplitude.q_signal.size == samples
        streamed = []
        sinc_rows = JointAmplitude.sinc_rows

        def counted(self, start, buffers):
            block = sinc_rows(self, start, buffers)
            streamed[-1] += block.shape[0]
            return block

        with mock.patch.object(JointAmplitude, "sinc_rows", counted):
            for mode in SCAN_MODES:
                streamed.append(0)
                coincidence_scan_oracle(amplitude, config.detection, mode)
        assert all(0 < rows <= samples // 2 + 1 for rows in streamed), streamed


class TestStreaming:
    def test_scan_memory_stays_below_half_a_grid(self, preset2):
        # The oracle streams the joint grid, so no scan mode holds the
        # N x N complex grid, even at twice the automatic sample count.
        spectrum = pump_spectrum(preset2)
        q_extent = auto_joint_grid(preset2, spectrum)[0]
        half_grid = 2144 * 2144 * 16 // 2
        for mode in SCAN_MODES:
            tracemalloc.start()
            try:
                amplitude = build_joint_amplitude(
                    spectrum, preset2.pump, preset2.crystal, degenerate_pair(preset2),
                    preset2.dispersion.model, q_extent=q_extent, samples=2144,
                    include_phase=False)
                coincidence_scan_oracle(amplitude, preset2.detection, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert amplitude.q_signal.size == 2144
            assert peak < half_grid, (mode, peak)

    @pytest.mark.parametrize("name,expected", [
        ("preset1", (249400.95752897154, 816, ())),
        ("preset2", (284392.0621452259, 1072, ())),
    ])
    def test_automatic_grids_pinned(self, request, name, expected):
        config = request.getfixturevalue(name)
        assert auto_joint_grid(config, pump_spectrum(config)) == expected


class TestScanResult:
    def test_positions_must_increase(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 0.0, 1.0]),
                       rates=np.array([0.5, 1.0, 0.5]), mode="both-together",
                       method="analytic", normalization_peak=1.0)

    def test_rates_must_be_normalized(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 1.0]),
                       rates=np.array([0.2, 0.4]), mode="both-together",
                       method="analytic", normalization_peak=1.0)

    def test_mode_tag_checked(self):
        with pytest.raises(ValidationError):
            ScanResult(positions=np.array([0.0, 1.0]),
                       rates=np.array([0.5, 1.0]), mode="sideways",
                       method="analytic", normalization_peak=1.0)

    def test_scan_positions_cover_range(self):
        geo = geometry(scan_range=2e-3, scan_step=1e-4)
        positions = scan_positions(geo)
        assert positions[0] == -1e-3
        assert positions[-1] == 1e-3
        assert positions.size == 21


class TestCsvOutputs:
    def test_scan_csv(self, tmp_path, preset1, preset1_both):
        path = tmp_path / "scan.csv"
        write_scan_csv(preset1_both.analytic, path, preset1.detection)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert "# mode = both-together" in lines
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header] == "p_m,rate"
        row = lines[header + 1].split(",")
        assert float(row[0]) == preset1_both.analytic.positions[0]
        assert float(row[1]) == preset1_both.analytic.rates[0]

    def test_scan_csv_with_companion(self, tmp_path, preset1, preset1_both):
        # Every header line, in its place: the geometry comes from the config,
        # the rest from the scans. An 80 mm pump grid clips the joint grid.
        coarse = replace(preset1, numerics=replace(preset1.numerics, grid_extent=0.08))
        clipped = ("joint grid q extent clipped from 249401 to 160771 rad/m, the pump "
                   "spectrum's last node; oracle rates at the outer scan positions may "
                   "collapse")
        for config, output, warnings in (
                (preset1, preset1_both, ()),
                (coarse, run_coincidence(coarse, method="both"), (clipped,))):
            path = tmp_path / "scan_both.csv"
            write_scan_csv(output.analytic, path, config.detection, companion=output.oracle)
            lines = path.read_text(encoding="utf-8").splitlines()
            header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
            assert lines[:header] == [
                "# mode = both-together", "# method = analytic",
                "# detector_distance_m = 0.5", "# slit_width_m = 0.0001",
                f"# normalization_peak = {output.analytic.normalization_peak!r}",
                *(f"# warning = {warning}" for warning in warnings),
                "# companion_method = oracle"]
            assert lines[header] == "p_m,rate,rate_companion"
