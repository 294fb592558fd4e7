"""Two-photon joint amplitude and transverse coincidence-scan prediction.

Two independent routes to the same curve:

* ``coincidence_scan_analytic`` uses the near-collinear transfer law: the
  coincidence rate for detectors at (p_s, p_i) follows the pump intensity at
  the detection plane evaluated at the mean position R = (p_s + p_i)/2.
* ``coincidence_scan_oracle`` works from the joint amplitude itself: each
  photon's mode is Fresnel-propagated from the crystal to the detection
  plane (spectral phase exp(-i z q^2 / 2k) plus exp(i q p)), and the
  detector-plane intensity is slit-integrated. The stationary phase of that
  transform sits at q_j = k_j p_j / z, the far-field angle mapping.

Spatial scans are evaluated at fixed degenerate frequencies (the detuning
enters only through the separately exposed spectral envelope). The
generation phase exp(i L_z A / 2), kept with the amplitude on request,
encodes the longitudinal birth position. Single-plane intensities depend on
it only weakly: transporting the phase-carrying amplitude moves normalized
oracle rates of the presets by up to 4.9e-4 (paper-config-2 signal-only;
2.7e-4 with both detectors together). The scan routines consume the
phase-stripped amplitude, which is why swapping the phase factor for 1
reproduces scans bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VACUUM_LIGHT_SPEED as C
from .core import (CrystalSpec, DetectionGeometry, FrequencyPair, PumpSpec,
                   frozen_array, sinc, vacuum_wavelength)
from .dispersion import IndexModel, group_index
from .errors import (GridCompatibilityError, SamplingGuardError,
                     ValidationError)
from .fields import AngularSpectrum, SampledField, _centered_grid
from .phasematch import delta_kz_paraxial, efficiency_drop_over_scan

SCAN_MODES = ("both-together", "signal-only", "idler-only")


def spectral_envelope(freqs: FrequencyPair, pump: PumpSpec) -> float:
    """Gaussian pulse spectrum factor exp(-delta_omega^2 / (2 gamma)).

    A CW pump is monochromatic: 1 at zero detuning, 0 anywhere else (the
    gamma -> 0 limit is bypassed, not evaluated).
    """
    if pump.is_cw:
        return 1.0 if freqs.delta_omega == 0.0 else 0.0
    return math.exp(-freqs.delta_omega**2 / (2.0 * pump.gamma))


def sample_pump_spectrum(spectrum: AngularSpectrum, q_values: np.ndarray) -> np.ndarray:
    """Pump spectrum amplitude at arbitrary q by complex linear interpolation.

    Zero outside the tabulated grid; callers guard the range beforehand.
    """
    q_grid = spectrum.q
    flat = np.asarray(q_values, dtype=float).ravel()
    re = np.interp(flat, q_grid, spectrum.values.real, left=0.0, right=0.0)
    im = np.interp(flat, q_grid, spectrum.values.imag, left=0.0, right=0.0)
    return (re + 1j * im).reshape(np.shape(q_values))


@dataclass(frozen=True, eq=False)
class JointAmplitude:
    """Joint signal/idler amplitude on a symmetric (q_s, q_i) grid.

    base_values holds pump-transfer * sinc * spectral-envelope, normalized to
    unit peak magnitude, on the square grid q_signal x q_idler (one shared
    axis). phase, when kept, holds the generation phase L_z A / 2 in rad and
    ``values`` recombines the two.
    """

    base_values: np.ndarray
    q_signal: np.ndarray
    freqs: FrequencyPair
    crystal: CrystalSpec
    phase: np.ndarray | None = None

    def __post_init__(self) -> None:
        q = frozen_array(self.q_signal, float)
        base = frozen_array(self.base_values, complex)
        phase = None if self.phase is None else frozen_array(self.phase, float)
        if base.shape != (q.size, q.size) or (phase is not None and phase.shape != base.shape):
            raise ValidationError("joint amplitude arrays must be square 2D grids over q_signal")
        object.__setattr__(self, "q_signal", q)
        object.__setattr__(self, "base_values", base)
        object.__setattr__(self, "phase", phase)

    @property
    def q_idler(self) -> np.ndarray:
        return self.q_signal

    @property
    def values(self) -> np.ndarray:
        if self.phase is None:
            return self.base_values
        return self.base_values * np.exp(1j * self.phase)


def symmetric_q_grid(q_extent: float, samples: int) -> np.ndarray:
    """Centred uniform q grid of total extent q_extent with ``samples`` nodes."""
    if not (math.isfinite(q_extent) and q_extent > 0):
        raise ValidationError(f"q extent must be positive, got {q_extent!r}")
    if not (isinstance(samples, int) and samples >= 2):
        raise ValidationError(f"sample count must be an integer >= 2, got {samples!r}")
    return _centered_grid(samples, q_extent / samples)


def build_joint_amplitude(pump_spectrum: AngularSpectrum, pump: PumpSpec,
                          crystal: CrystalSpec, freqs: FrequencyPair,
                          model: IndexModel, *, q_extent: float, samples: int,
                          include_phase: bool = True,
                          paraxial_bound: float = 0.2) -> JointAmplitude:
    """Fill the joint amplitude grid from a pump spectrum at the crystal plane.

    Every node (q_s, q_i) needs the pump component at q_s + q_i, so the pump
    spectrum grid must span twice this grid's half extent; otherwise the
    required pump q extent is reported.
    """
    q = symmetric_q_grid(q_extent, samples)
    q_sum_max = 2.0 * float(np.max(np.abs(q)))
    pump_q_max = float(np.max(np.abs(pump_spectrum.q)))
    if q_sum_max > pump_q_max:
        raise GridCompatibilityError(
            f"pump spectrum grid (|q| <= {pump_q_max:.6g} rad/m) cannot supply "
            f"q_s + q_i up to {q_sum_max:.6g} rad/m",
            required_q_extent=2.0 * q_sum_max)
    qs = q[:, None]
    qi = q[None, :]
    pump_factor = sample_pump_spectrum(pump_spectrum, qs + qi)
    dkz = delta_kz_paraxial(freqs, qs, qi, crystal, model,
                            paraxial_bound=paraxial_bound)
    if freqs.delta_omega != 0.0:
        n_g = group_index(model, vacuum_wavelength(freqs.omega_pump),
                          crystal.pump_axis, crystal.temperature_c)
        mismatch = dkz - n_g * freqs.delta_omega / C
    else:
        mismatch = dkz
    phase = 0.5 * crystal.length * mismatch
    base = pump_factor * sinc(phase) * spectral_envelope(freqs, pump)
    peak = float(np.max(np.abs(base)))
    if peak == 0.0:
        raise ValidationError("joint amplitude is identically zero on this grid")
    return JointAmplitude(base_values=base / peak, q_signal=q, freqs=freqs,
                          crystal=crystal, phase=phase if include_phase else None)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Normalized coincidence rate versus detector position.

    positions strictly increase; rates are normalized to unit maximum with
    the raw peak recorded in metadata["normalization_peak"]. metadata also
    carries the method tag, the geometry snapshot, and any regime warnings.
    """

    positions: np.ndarray
    rates: np.ndarray
    mode: str
    metadata: dict

    def __post_init__(self) -> None:
        positions = frozen_array(self.positions, float)
        rates = frozen_array(self.rates, float)
        if self.mode not in SCAN_MODES:
            raise ValidationError(f"scan mode must be one of {SCAN_MODES}, got {self.mode!r}")
        if positions.ndim != 1 or positions.shape != rates.shape:
            raise ValidationError("positions and rates must be matching 1D arrays")
        if np.any(np.diff(positions) <= 0):
            raise ValidationError("scan positions must be strictly increasing")
        if not np.all(np.isfinite(rates)) or np.any(rates < 0):
            raise ValidationError("rates must be finite and non-negative")
        if abs(float(np.max(rates)) - 1.0) > 1e-12:
            raise ValidationError("rates must be normalized to unit maximum")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "rates", rates)

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(self.metadata.get("warnings", ()))


def scan_positions(geometry: DetectionGeometry) -> np.ndarray:
    """Detector positions spanning +- scan_range/2 in scan_step increments."""
    steps = round(geometry.scan_range / geometry.scan_step)
    return np.linspace(-0.5 * geometry.scan_range, 0.5 * geometry.scan_range,
                       steps + 1)


def _slit_offsets(slit_width: float, samples: int) -> np.ndarray:
    """Midpoint-rule sample offsets across one detector slit."""
    if slit_width == 0.0:
        return np.zeros(1)
    m = max(int(samples), 8)
    return ((np.arange(m) + 0.5) / m - 0.5) * slit_width


def _mean_position_map(mode: str, positions: np.ndarray) -> np.ndarray:
    """R = (p_s + p_i)/2 for the detector motion pattern of each scan mode."""
    if mode == "both-together":
        return positions
    return 0.5 * positions


def _finalize(positions: np.ndarray, raw: np.ndarray, mode: str,
              geometry: DetectionGeometry, method: str,
              warnings: tuple[str, ...], extra: dict | None = None) -> ScanResult:
    peak = float(np.max(raw))
    if peak <= 0.0:
        raise ValidationError("scan produced no signal; grids or geometry are inconsistent")
    metadata = {
        "method": method,
        "detector_distance_m": geometry.distance,
        "slit_width_m": geometry.slit_width,
        "scan_range_m": geometry.scan_range,
        "scan_step_m": geometry.scan_step,
        "normalization_peak": peak,
        "warnings": warnings,
    }
    if extra:
        metadata.update(extra)
    return ScanResult(positions=positions, rates=raw / peak, mode=mode,
                      metadata=metadata)


def coincidence_scan_analytic(profile: SampledField, geometry: DetectionGeometry,
                              mode: str, *, crystal: CrystalSpec,
                              model: IndexModel, freqs: FrequencyPair,
                              convention: str = "external",
                              warn_threshold: float = 0.01,
                              regime_threshold: float = 0.05,
                              slit_samples: int = 8) -> ScanResult:
    """Transfer-law scan: |W(R)|^2 sampled from the detection-plane pump profile.

    Valid in the nearly collinear regime; the QPM efficiency drop across the
    scan is evaluated and attached as a warning above warn_threshold, with a
    stronger regime warning above regime_threshold. The curve is averaged
    over the detector slit (midpoint rule).
    """
    if mode not in SCAN_MODES:
        raise ValidationError(f"scan mode must be one of {SCAN_MODES}, got {mode!r}")
    drop = efficiency_drop_over_scan(geometry.scan_range, geometry.distance,
                                     freqs, crystal, model, convention=convention)
    warnings: list[str] = []
    if drop > regime_threshold:
        warnings.append(
            f"regime violation: QPM efficiency varies by {drop:.1%} across the scan "
            f"(threshold {regime_threshold:.1%}); the pump-transfer law is unreliable here")
    elif drop > warn_threshold:
        warnings.append(
            f"QPM efficiency varies by {drop:.1%} across the scan "
            f"(notice level {warn_threshold:.1%})")
    positions = scan_positions(geometry)
    offsets = _slit_offsets(geometry.slit_width, slit_samples)
    sample_points = _mean_position_map(mode, positions[:, None] + offsets[None, :])
    intensity = np.interp(sample_points.ravel(), profile.x, profile.intensity,
                          left=0.0, right=0.0).reshape(sample_points.shape)
    raw = intensity.mean(axis=1)
    return _finalize(positions, raw, mode, geometry, "analytic", tuple(warnings),
                     extra={"efficiency_drop": drop, "angle_convention": convention})


def _detector_phases(q: np.ndarray, positions: np.ndarray, distance: float,
                     wavenumber: float) -> np.ndarray:
    """exp(i q p) exp(-i z q^2 / 2k) on the q grid for each detector position."""
    chirp = np.exp(-1j * distance * q**2 / (2.0 * wavenumber))
    return np.exp(1j * np.outer(q, positions)) * chirp[:, None]


def coincidence_scan_oracle(amplitude: JointAmplitude, geometry: DetectionGeometry,
                            mode: str, *, slit_samples: int = 8) -> ScanResult:
    """Scan from the joint amplitude by per-photon Fresnel transport to z_D.

    The coincidence amplitude at detector pair (p_s, p_i) is the double sum
    over the (q_s, q_i) grid of the phase-stripped joint amplitude times the
    two transport factors; the squared modulus is then averaged over each
    detector slit by the midpoint rule (incoherent integration).
    """
    if mode not in SCAN_MODES:
        raise ValidationError(f"scan mode must be one of {SCAN_MODES}, got {mode!r}")
    freqs = amplitude.freqs
    k_signal = freqs.omega_signal / C
    k_idler = freqs.omega_idler / C
    z = geometry.distance
    positions = scan_positions(geometry)
    offsets = _slit_offsets(geometry.slit_width, slit_samples)
    n_off = offsets.size
    scanned = (positions[:, None] + offsets[None, :]).ravel()
    fixed = offsets
    q = amplitude.q_signal
    dq = float(q[1] - q[0])
    q_max = float(np.max(np.abs(q)))
    p_max = float(np.max(np.abs(scanned)))
    k_min = min(k_signal, k_idler)
    chirp_step = z * q_max * dq / k_min
    if chirp_step >= math.pi:
        needed = int(math.ceil(q.size * chirp_step / math.pi))
        raise SamplingGuardError(
            f"transport chirp advances {chirp_step:.3f} rad per q sample at the grid "
            "edge; the joint grid is too coarse for this detection distance",
            suggested_samples=needed)
    if dq * p_max >= math.pi:
        needed = int(math.ceil(q.size * dq * p_max / math.pi))
        raise SamplingGuardError(
            f"detector position phase advances {dq * p_max:.3f} rad per q sample; "
            "the joint grid is too coarse for this scan range",
            suggested_samples=needed)

    if mode == "both-together":
        e_signal = _detector_phases(q, scanned, z, k_signal)
        e_idler = _detector_phases(q, scanned, z, k_idler)
    elif mode == "signal-only":
        e_signal = _detector_phases(q, scanned, z, k_signal)
        e_idler = _detector_phases(q, fixed, z, k_idler)
    else:
        e_signal = _detector_phases(q, fixed, z, k_signal)
        e_idler = _detector_phases(q, scanned, z, k_idler)

    partial = amplitude.base_values @ e_idler
    detected = np.abs(e_signal.T @ partial) ** 2
    n_scan = positions.size
    if mode == "both-together":
        blocks = detected.reshape(n_scan, n_off, n_scan, n_off)
        raw = blocks[np.arange(n_scan), :, np.arange(n_scan), :].mean(axis=(1, 2))
    elif mode == "signal-only":
        raw = detected.reshape(n_scan, n_off, n_off).mean(axis=(1, 2))
    else:
        raw = detected.T.reshape(n_scan, n_off, n_off).mean(axis=(1, 2))
    return _finalize(positions, raw, mode, geometry, "oracle", ())


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Zero-lag cosine similarity of two non-negative curves on the same grid."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError("curves must share a sampling grid")
    denom = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if denom == 0.0:
        raise ValidationError("cannot correlate an identically zero curve")
    return float(np.sum(a * b)) / denom
