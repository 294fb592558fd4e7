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
                       normalized_cross_correlation)
from .config import ScenarioConfig
from .core import VACUUM_LIGHT_SPEED as C
from .core import FrequencyPair, vacuum_wavelength
from .dispersion import IndexModel
from .errors import ValidationError
from .fields import (AngularSpectrum, SampledField, march_to_crystal_exit,
                     propagate, to_angular_spectrum)
from .phasematch import (QpmGrating, _crystal_indices, design_poling_period,
                         delta_kz_paraxial, fourier_coefficient,
                         maker_efficiency, paraxial_coefficients)


def index_model_for(config: ScenarioConfig) -> IndexModel:
    return config.dispersion.model


def degenerate_pair(config: ScenarioConfig) -> FrequencyPair:
    return FrequencyPair.degenerate(config.pump.omega)


def _crystal_exit_field(config: ScenarioConfig, model: IndexModel) -> SampledField:
    """Pump field at the crystal exit face, marched through the optical train."""
    return march_to_crystal_exit(
        config.pump, config.elements, config.crystal, model,
        grid_extent=config.numerics.grid_extent,
        sample_count=config.numerics.grid_samples)


def pump_profile(config: ScenarioConfig) -> SampledField:
    """Pump field at the detection plane (the power-meter measurement)."""
    return propagate(_crystal_exit_field(config, index_model_for(config)),
                     config.detection.distance)


def pump_spectrum(config: ScenarioConfig) -> AngularSpectrum:
    """Pump angular spectrum at the crystal exit face (biphoton source)."""
    return to_angular_spectrum(_crystal_exit_field(config, index_model_for(config)))


def _round_up(value: float, multiple: int) -> int:
    return int(math.ceil(value / multiple)) * multiple


def auto_joint_grid(config: ScenarioConfig, freqs: FrequencyPair,
                    model: IndexModel) -> tuple[float, int, tuple[str, ...]]:
    """Joint (q_s, q_i) grid sized for the configured detection geometry.

    The half extent must cover three scales: the anti-diagonal reach of the
    phase-matching sinc (so its clipped tails stay below half a percent of
    the transform), the stationary wavevector of the farthest detector
    position, and half the pump-sum bandwidth the scan actually consumes.
    The sample count then resolves the transport chirp at the grid edge.
    Explicit numerics overrides win. Returns (q_extent, samples, warnings);
    the warning reports an automatic extent clipped to the pump grid.
    """
    detection = config.detection
    crystal = config.crystal
    z = detection.distance
    k_dc = min(freqs.omega_signal, freqs.omega_idler) / C
    k_pump = freqs.omega_pump / C
    a_signal, a_idler, _ = paraxial_coefficients(
        freqs, _crystal_indices(freqs, crystal, model))
    # Quadratic sinc coefficient along the anti-diagonal, times L/2.
    beta = 0.5 * crystal.length * (a_signal + a_idler)
    tail_target = 0.005 * math.sqrt(math.pi * k_dc / z)
    u_need = (1.0 / (2.0 * beta * (z / k_dc) * tail_target)) ** (1.0 / 3.0)
    p_eff = 0.5 * detection.scan_range + 0.5 * detection.slit_width
    q_detector = 1.1 * k_dc * p_eff / z
    q_sum_half = 1.15 * k_pump * p_eff / z + 3.0 * math.sqrt(2.0 * math.pi * k_pump / z)
    half = max(u_need, q_detector) + 0.5 * q_sum_half
    # The pump grid can only supply q_s + q_i up to its own q extent; clip the
    # automatic size to that, and say so. The stationary wavevector of outer
    # scan positions can then fall off the grid and the oracle rates collapse
    # there.
    pump_q_cap = math.pi * config.numerics.grid_samples / config.numerics.grid_extent
    q_extent = config.numerics.joint_q_extent or min(2.0 * half, pump_q_cap)
    warnings: tuple[str, ...] = ()
    if not config.numerics.joint_q_extent and 2.0 * half > pump_q_cap:
        warnings = (
            f"joint grid q extent clipped from {2.0 * half:.6g} to {pump_q_cap:.6g} rad/m, "
            "the pump grid's pi * grid_samples / grid_extent; oracle rates at the "
            "outer scan positions may collapse",)
    if config.numerics.joint_grid_samples:
        samples = config.numerics.joint_grid_samples
    else:
        dq_chirp = 0.8 * math.pi * k_dc / (z * 0.5 * q_extent)
        dq_position = 0.8 * math.pi / p_eff
        samples = max(256, _round_up(q_extent / min(dq_chirp, dq_position), 16))
    return q_extent, samples, warnings


def _sized_joint_amplitude(config: ScenarioConfig, model: IndexModel,
                           spectrum: AngularSpectrum, include_phase: bool
                           ) -> tuple[JointAmplitude, tuple[str, ...]]:
    """Joint amplitude on the automatic grid, with the grid-sizing warnings."""
    freqs = degenerate_pair(config)
    q_extent, samples, warnings = auto_joint_grid(config, freqs, model)
    amplitude = build_joint_amplitude(
        spectrum, config.pump, config.crystal, freqs, model,
        q_extent=q_extent, samples=samples, include_phase=include_phase,
        paraxial_bound=config.numerics.paraxial_bound)
    return amplitude, warnings


def joint_amplitude(config: ScenarioConfig, *, include_phase: bool = True,
                    spectrum: AngularSpectrum | None = None) -> JointAmplitude:
    model = index_model_for(config)
    if spectrum is None:
        spectrum = to_angular_spectrum(_crystal_exit_field(config, model))
    return _sized_joint_amplitude(config, model, spectrum, include_phase)[0]


@dataclass(frozen=True)
class CoincidenceOutput:
    """Coincidence pipeline result: one or both scan methods plus agreement."""

    analytic: ScanResult | None
    oracle: ScanResult | None
    correlation: float | None


def run_coincidence(config: ScenarioConfig, *, detectors: str = "both-together",
                    method: str = "analytic") -> CoincidenceOutput:
    if method not in ("analytic", "oracle", "both"):
        raise ValidationError(f"method must be analytic, oracle, or both, got {method!r}")
    model = index_model_for(config)
    freqs = degenerate_pair(config)
    exit_field = _crystal_exit_field(config, model)
    analytic = None
    oracle = None
    if method in ("analytic", "both"):
        profile = propagate(exit_field, config.detection.distance)
        analytic = coincidence_scan_analytic(
            profile, config.detection, detectors, crystal=config.crystal,
            model=model, freqs=freqs,
            convention=config.numerics.angle_convention)
    if method in ("oracle", "both"):
        amplitude, grid_warnings = _sized_joint_amplitude(
            config, model, to_angular_spectrum(exit_field), include_phase=False)
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
    count = int(math.floor(alpha_max / alpha_step + 1e-9)) + 1
    alphas = alpha_step * np.arange(count)
    freqs = degenerate_pair(config)
    eff = maker_efficiency(alphas, freqs, config.crystal, index_model_for(config),
                           convention=config.numerics.angle_convention,
                           paraxial_bound=config.numerics.paraxial_bound)
    eff = np.asarray(eff, dtype=float)
    if not config.numerics.normalize:
        eff = eff * fourier_coefficient(QpmGrating.from_crystal(config.crystal)) ** 2
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
    """Collinear degenerate poling-period design plus its residual check."""
    model = index_model_for(config)
    crystal = config.crystal
    pump_wavelength = config.pump.center_wavelength
    degenerate = 2.0 * pump_wavelength
    period = design_poling_period(
        pump_wavelength, degenerate, degenerate,
        pump_axis=crystal.pump_axis, signal_axis=crystal.signal_axis,
        idler_axis=crystal.idler_axis, temperature_c=crystal.temperature_c,
        qpm_order=crystal.qpm_order, model=model)
    freqs = degenerate_pair(config)
    designed = replace(crystal, poling_period=period)
    residual = delta_kz_paraxial(freqs, 0.0, 0.0, designed, model)
    n_p, n_s, n_i = _crystal_indices(freqs, crystal, model)
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
