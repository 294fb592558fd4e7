"""Analysis pipelines assembled from a validated ScenarioConfig.

These are the four flows the CLI exposes: Maker-fringe curves, poling-period
design reports, pump propagation to the detection plane, and coincidence
scans (transfer-law, joint-amplitude oracle, or both with their agreement
figure). Tests drive the same functions directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .biphoton import (JointAmplitude, ScanResult, build_joint_amplitude,
                       coincidence_scan_analytic, coincidence_scan_oracle,
                       detector_samples, normalized_cross_correlation)
from .config import ScenarioConfig, designed_period
from .core import VACUUM_LIGHT_SPEED as C
from .core import (MAX_JOINT_SAMPLES, MAX_SCAN_POSITIONS, FrequencyPair,
                   vacuum_wavelength)
from .errors import ValidationError
from .fields import (AngularSpectrum, SampledField, march_to_crystal_exit,
                     propagate, to_angular_spectrum)
from .phasematch import (crystal_indices, delta_kz_paraxial, efficiency_drop_over_scan,
                         fourier_coefficient, maker_efficiency, paraxial_mismatch_terms)

# QPM efficiency drops across a coincidence scan above which the analytic
# scan warns: a notice, then a regime violation of the pump-transfer law.
_NOTICE_DROP = 0.01
_REGIME_DROP = 0.05


def degenerate_pair(config: ScenarioConfig) -> FrequencyPair:
    return FrequencyPair.degenerate(config.pump.omega)


def _crystal_exit_field(config: ScenarioConfig) -> SampledField:
    """Pump field at the crystal exit face, marched through the optical train."""
    return march_to_crystal_exit(
        config.pump, config.elements, config.crystal, config.dispersion.model,
        grid_extent=config.numerics.grid_extent,
        sample_count=config.numerics.grid_samples)


def pump_profile(config: ScenarioConfig) -> SampledField:
    """Pump field at the detection plane (the power-meter measurement)."""
    return propagate(_crystal_exit_field(config), config.detection.distance)


def pump_spectrum(config: ScenarioConfig) -> AngularSpectrum:
    """Pump angular spectrum at the crystal exit face (biphoton source)."""
    return to_angular_spectrum(_crystal_exit_field(config))


def _regime_warnings(config: ScenarioConfig) -> tuple[str, ...]:
    """The scan's regime verdict: a refusal past 90 degrees or the paraxial
    guard, first at the scan's edges and then at the outermost point either
    detector reads (``detector_samples``), else the analytic scan's warnings
    on its QPM efficiency drop across +- scan_range/2. The detectors sit in
    air, so their angles are external ones."""
    detection, freqs, model = config.detection, degenerate_pair(config), config.dispersion.model
    drop = efficiency_drop_over_scan(detection.scan_range, detection.distance, freqs,
                                     config.crystal, model)
    positions, offsets = detector_samples(detection)
    reach = float(np.max(np.abs(positions[:, None] + offsets)))
    if not reach / detection.distance < 0.5 * math.pi:
        raise ValidationError(f"a detector point {reach!r} m off axis at "
                              f"{detection.distance!r} m passes 90 degrees")
    maker_efficiency(reach / detection.distance, freqs, config.crystal, model)
    if drop > _REGIME_DROP:
        return (f"regime violation: QPM efficiency varies by {drop:.1%} across the scan "
                f"(threshold {_REGIME_DROP:.1%}); the pump-transfer law is unreliable here",)
    if drop > _NOTICE_DROP:
        return (f"QPM efficiency varies by {drop:.1%} across the scan "
                f"(notice level {_NOTICE_DROP:.1%})",)
    return ()


def auto_joint_grid(config: ScenarioConfig, spectrum: AngularSpectrum
                    ) -> tuple[float, int, tuple[str, ...]]:
    """Joint (q_s, q_i) grid sized for the configured detection geometry.

    The half extent must cover three scales: the anti-diagonal reach of the
    phase-matching sinc (so its clipped tails stay below half a percent of
    the transform), the stationary wavevector of the farthest detector
    position, and half the pump-sum bandwidth the scan actually consumes.
    The sample count then resolves the transport chirp at the grid edge.
    This sizing is the only one a config gets; a grid study passes its own
    extent and count to ``build_joint_amplitude``. Returns (q_extent,
    samples, warnings); the warning reports an extent clipped to the pump
    spectrum. It only sizes: whether the scan is in the paraxial regime is
    judged by its callers, before they size.
    """
    detection = config.detection
    crystal = config.crystal
    freqs = degenerate_pair(config)
    z = detection.distance
    k_signal = freqs.omega_signal / C
    k_idler = freqs.omega_idler / C
    k_dc = min(k_signal, k_idler)
    k_pump = freqs.omega_pump / C
    _, a_signal, a_idler, _ = paraxial_mismatch_terms(freqs, 0.0, 0.0, crystal,
                                                      config.dispersion.model)
    # Quadratic sinc coefficient along the anti-diagonal, times L/2.
    beta = 0.5 * crystal.length * (a_signal + a_idler)
    # The sinc-tail curvature 2 beta (z / k_dc) * 0.005 sqrt(pi k_dc / z),
    # written so that no factor overflows where z underflows; one that
    # underflows to 0 asks for an unbounded extent.
    curvature = 0.01 * beta * math.sqrt(math.pi * z / k_dc)
    u_need = (1.0 / curvature) ** (1.0 / 3.0) if curvature else math.inf
    p_eff = 0.5 * detection.scan_range + 0.5 * detection.slit_width
    q_detector = 1.1 * k_dc * p_eff / z
    q_sum_half = 1.15 * k_pump * p_eff / z + 3.0 * math.sqrt(2.0 * math.pi * k_pump / z)
    half = max(u_need, q_detector) + 0.5 * q_sum_half
    # The pump spectrum supplies q_s + q_i only up to its last node, and the
    # pair sums of a joint grid of that q extent stay below it; clip the
    # automatic size to that, and say so. The stationary wavevector of outer
    # scan positions can then fall off the grid, yet the rates there need not
    # collapse: paper-config-1 on a 640 mm pump grid, clipped below it,
    # still meets the transfer law to 4e-4 at the scan ends, while the gap
    # near the centre grows to 0.061.
    pump_reach = float(spectrum.q[-1])
    q_extent = min(2.0 * half, pump_reach)
    warnings: tuple[str, ...] = ()
    if 2.0 * half > pump_reach:
        warnings = (
            f"joint grid q extent clipped from {2.0 * half:.6g} to {pump_reach:.6g} rad/m, "
            "the pump spectrum's last node; oracle rates at the outer scan positions "
            "may collapse",)
    edge_chirp = z * 0.5 * q_extent
    dq_chirp = 0.8 * math.pi * k_dc / edge_chirp if edge_chirp else math.inf
    dq_position = 0.8 * math.pi / p_eff
    needed = q_extent / min(dq_chirp, dq_position)
    if not needed <= MAX_JOINT_SAMPLES:
        raise ValidationError(
            f"joint grid q extent {q_extent:.6g} rad/m needs {needed:.6g} samples; "
            f"at most {MAX_JOINT_SAMPLES} are allowed")
    samples = max(256, 16 * math.ceil(needed / 16))
    return q_extent, samples, warnings


def _sized_joint_amplitude(config: ScenarioConfig, spectrum: AngularSpectrum,
                           include_phase: bool) -> tuple[JointAmplitude, tuple[str, ...]]:
    """Joint amplitude on the automatic grid, with the grid-sizing warnings."""
    q_extent, samples, warnings = auto_joint_grid(config, spectrum)
    amplitude = build_joint_amplitude(
        spectrum, config.pump, config.crystal, degenerate_pair(config),
        config.dispersion.model, q_extent=q_extent, samples=samples,
        include_phase=include_phase)
    return amplitude, warnings


def joint_amplitude(config: ScenarioConfig, *, include_phase: bool = True,
                    spectrum: AngularSpectrum | None = None) -> JointAmplitude:
    """Joint amplitude on the automatic grid, once the scan has passed its verdict."""
    if spectrum is None:
        spectrum = pump_spectrum(config)
    _regime_warnings(config)
    return _sized_joint_amplitude(config, spectrum, include_phase)[0]


@dataclass(frozen=True)
class CoincidenceOutput:
    """Coincidence pipeline result: one or both scan methods plus agreement."""

    analytic: ScanResult | None
    oracle: ScanResult | None
    correlation: float | None


def run_coincidence(config: ScenarioConfig, *, detectors: str = "both-together",
                    method: str = "analytic") -> CoincidenceOutput:
    """Coincidence scan by the transfer law, the oracle, or both, judged once
    (``_regime_warnings``) after the pump march, whatever the method."""
    if method not in ("analytic", "oracle", "both"):
        raise ValidationError(f"method must be analytic, oracle, or both, got {method!r}")
    exit_field = _crystal_exit_field(config)
    regime_warnings = _regime_warnings(config)
    analytic = None
    oracle = None
    if method in ("analytic", "both"):
        profile = propagate(exit_field, config.detection.distance)
        analytic = coincidence_scan_analytic(profile, config.detection, detectors,
                                             warnings=regime_warnings)
    if method in ("oracle", "both"):
        amplitude, grid_warnings = _sized_joint_amplitude(
            config, to_angular_spectrum(exit_field), include_phase=False)
        oracle = coincidence_scan_oracle(amplitude, config.detection, detectors,
                                         warnings=grid_warnings)
    correlation = None
    if analytic is not None and oracle is not None:
        correlation = normalized_cross_correlation(analytic.rates, oracle.rates)
    return CoincidenceOutput(analytic=analytic, oracle=oracle, correlation=correlation)


def maker_curve(config: ScenarioConfig, *, alpha_max: float,
                alpha_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Maker-fringe efficiency over [0, alpha_max] in alpha_step increments (rad)."""
    if not (math.isfinite(alpha_step) and alpha_step > 0):
        raise ValidationError(f"angle step must be positive, got {alpha_step!r}")
    if not (math.isfinite(alpha_max) and alpha_max >= alpha_step):
        raise ValidationError(f"angle maximum must be at least the step, got {alpha_max!r}")
    steps = alpha_max / alpha_step + 1e-9
    if not steps < MAX_SCAN_POSITIONS:
        raise ValidationError(
            f"angle step {alpha_step!r} rad up to {alpha_max!r} rad gives {steps + 1:.6g} "
            f"angles; at most {MAX_SCAN_POSITIONS} are allowed")
    count = int(math.floor(steps)) + 1
    alphas = alpha_step * np.arange(count)
    freqs = degenerate_pair(config)
    eff = maker_efficiency(alphas, freqs, config.crystal, config.dispersion.model,
                           convention=config.numerics.angle_convention)
    eff = np.asarray(eff, dtype=float)
    if not config.numerics.normalize:
        eff = eff * fourier_coefficient(config.crystal) ** 2
    return alphas, eff


def estimate_fringe_period(positions: np.ndarray, rates: np.ndarray) -> float:
    """Fringe period as the central-fringe width (innermost minima spacing).

    Interference minima are where the two-path phase difference is pi, so
    their spacing is envelope-insensitive, unlike peak positions, which slide
    down the single-slit envelope. Minima are refined parabolically.
    """
    positions = np.asarray(positions, dtype=float)
    rates = np.asarray(rates, dtype=float)
    threshold = 0.3 * float(rates.max())
    minima = []
    step = positions[1] - positions[0]
    for i in range(1, rates.size - 1):
        if rates[i] < rates[i - 1] and rates[i] <= rates[i + 1] and rates[i] < threshold:
            curvature = rates[i - 1] - 2.0 * rates[i] + rates[i + 1]
            offset = 0.5 * (rates[i - 1] - rates[i + 1]) / curvature if curvature else 0.0
            minima.append(positions[i] + offset * step)
    below = [m for m in minima if m < 0]
    above = [m for m in minima if m > 0]
    if not below or not above:
        raise ValidationError("no interference minima bracketing the axis; not a fringe pattern")
    return min(above) - max(below)


def design_report(config: ScenarioConfig) -> dict:
    """Collinear degenerate poling-period design plus its residual check.

    The period is the one a ``design`` config resolves to, so the residual is
    that of the crystal the scans use.
    """
    model = config.dispersion.model
    crystal = config.crystal
    pump_wavelength = config.pump.center_wavelength
    period = designed_period(crystal, pump_wavelength, model)
    freqs = degenerate_pair(config)
    designed = replace(crystal, poling_period=period)
    residual = delta_kz_paraxial(freqs, 0.0, 0.0, designed, model)
    n_p, n_s, n_i = crystal_indices(freqs, crystal, model)
    return {
        "model": model.model_id,
        "pump_wavelength": pump_wavelength,
        "signal_wavelength": vacuum_wavelength(freqs.omega_signal),
        "idler_wavelength": vacuum_wavelength(freqs.omega_idler),
        "temperature_c": crystal.temperature_c,
        "qpm_order": crystal.qpm_order,
        "n_pump": n_p,
        "n_signal": n_s,
        "n_idler": n_i,
        "poling_period": period,
        "collinear_residual": residual,
    }
