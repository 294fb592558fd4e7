"""Physical constants, elementary math, and the shared domain value types.

Unit policy: everything inside this package is SI (m, s, rad/s) with
temperatures in degrees Celsius. Human-facing units (nm, mm, fs, ...) are
converted once, at the configuration boundary.

``sinc`` is the unnormalized convention sin(x)/x used throughout the
phase-matching literature. It is NOT numpy.sinc, which is the normalized
sin(pi x)/(pi x); mixing the two shifts every fringe zero by a factor pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VACUUM_LIGHT_SPEED = 299_792_458.0  # m/s, exact SI definition

AXES = ("x", "y", "z")


def sinc(x, out=None, zeros=None):
    """Unnormalized sinc, sin(x)/x, with sinc(0) = 1.

    Accepts scalars or arrays; even in x and bounded by 1 in magnitude. An
    array result is written into ``out`` when one is given, which must not
    be x itself; ``zeros``, a boolean array shaped like x, receives the
    x == 0 mask, so that with both given the call allocates no array.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(np.sin(arr) / arr) if arr else 1.0
    with np.errstate(invalid="ignore"):
        out = np.sin(arr, out=out)
        out /= arr
    np.copyto(out, 1.0, where=np.equal(arr, 0.0, out=zeros))
    return out


def angular_frequency(wavelength: float) -> float:
    """Vacuum angular frequency 2*pi*c/lambda for a wavelength in metres."""
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValidationError(f"wavelength must be positive and finite, got {wavelength!r}")
    return 2.0 * math.pi * VACUUM_LIGHT_SPEED / wavelength


def vacuum_wavelength(omega: float) -> float:
    """Inverse of :func:`angular_frequency`."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValidationError(f"angular frequency must be positive and finite, got {omega!r}")
    return 2.0 * math.pi * VACUUM_LIGHT_SPEED / omega


def gamma_from_pulse_width(tau: float) -> float:
    """Gaussian pulse chirp parameter 1/tau**2 for a pulse width in seconds."""
    if not (math.isfinite(tau) and tau > 0):
        raise ValidationError(f"pulse width must be positive and finite, got {tau!r}")
    return tau**-2


def frozen_array(values, dtype) -> np.ndarray:
    """Read-only copy of values as an array of dtype.

    An array of dtype that already owns read-only data is returned as it is;
    the package never writes to such an array, so sharing it is as safe as a
    copy and spares copying large grids.
    """
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _check_axis(name: str, value: str) -> None:
    _require(value in AXES, f"{name} must be one of {AXES}, got {value!r}")


@dataclass(frozen=True)
class CrystalSpec:
    """Periodically poled crystal geometry and axis assignment.

    length, poling_period in metres; poling_period may be math.inf to switch
    the grating contribution off in analytic tests. duty_cycle is the positive
    fraction of each poling period. Axis labels select which Sellmeier axis
    each interacting field sees.
    """

    length: float
    poling_period: float
    duty_cycle: float
    qpm_order: int
    temperature_c: float
    pump_axis: str = "y"
    signal_axis: str = "y"
    idler_axis: str = "z"
    type_ii: bool = False

    def __post_init__(self) -> None:
        _require(math.isfinite(self.length) and self.length > 0,
                 f"crystal length must be positive and finite, got {self.length!r}")
        _require(self.poling_period > 0,
                 f"poling period must be positive, got {self.poling_period!r}")
        _require(0.0 < self.duty_cycle < 1.0,
                 f"duty cycle must lie strictly inside (0, 1), got {self.duty_cycle!r}")
        _require(isinstance(self.qpm_order, int) and self.qpm_order >= 1,
                 f"QPM order must be an integer >= 1, got {self.qpm_order!r}")
        _require(math.isfinite(self.temperature_c),
                 f"temperature must be finite, got {self.temperature_c!r}")
        for name in ("pump_axis", "signal_axis", "idler_axis"):
            _check_axis(name, getattr(self, name))
        if self.type_ii:
            _require(self.signal_axis != self.idler_axis,
                     "type-II process requires distinct signal and idler axes")


@dataclass(frozen=True)
class PumpSpec:
    """Pump beam: centre wavelength, Gaussian waist, and pulse width.

    waist_radius is the radius at e^-2 of maximum irradiance. waist_position
    is the longitudinal coordinate of the waist plane (same frame as element
    positions; crystal entrance face at z = 0, upstream negative).
    pulse_duration is the Gaussian width tau in seconds, or None for a CW
    pump; the chirp parameter gamma = 1/tau**2 is undefined for CW.
    """

    center_wavelength: float
    waist_radius: float
    waist_position: float = 0.0
    pulse_duration: float | None = None

    def __post_init__(self) -> None:
        _require(math.isfinite(self.center_wavelength) and self.center_wavelength > 0,
                 f"centre wavelength must be positive, got {self.center_wavelength!r}")
        _require(math.isfinite(self.waist_radius) and self.waist_radius > 0,
                 f"waist radius must be positive, got {self.waist_radius!r}")
        _require(math.isfinite(self.waist_position),
                 f"waist position must be finite, got {self.waist_position!r}")
        if self.pulse_duration is not None:
            _require(math.isfinite(self.pulse_duration) and self.pulse_duration > 0,
                     f"pulse duration must be positive, got {self.pulse_duration!r}")

    @property
    def is_cw(self) -> bool:
        return self.pulse_duration is None

    @property
    def gamma(self) -> float | None:
        """1/tau**2 in s^-2 for a pulsed pump, None for CW."""
        if self.pulse_duration is None:
            return None
        return gamma_from_pulse_width(self.pulse_duration)

    @property
    def omega(self) -> float:
        return angular_frequency(self.center_wavelength)


@dataclass(frozen=True)
class DetectionGeometry:
    """Detector plane distance, slit, and scan extent.

    distance is crystal-to-detection-plane in metres. scan_range is the total
    scan extent centred on the axis; positions run over +-scan_range/2 in
    scan_step increments, so the step must divide the range.
    """

    distance: float
    slit_width: float
    scan_range: float
    scan_step: float

    def __post_init__(self) -> None:
        _require(math.isfinite(self.distance) and self.distance > 0,
                 f"detection distance must be positive, got {self.distance!r}")
        _require(math.isfinite(self.slit_width) and self.slit_width >= 0,
                 f"slit width must be >= 0, got {self.slit_width!r}")
        _require(math.isfinite(self.scan_step) and self.scan_step > 0,
                 f"scan step must be positive, got {self.scan_step!r}")
        _require(math.isfinite(self.scan_range) and self.scan_step <= self.scan_range,
                 f"scan step {self.scan_step!r} must not exceed scan range {self.scan_range!r}")
        ratio = self.scan_range / self.scan_step
        _require(math.isfinite(ratio),
                 f"scan step {self.scan_step!r} is too small for scan range {self.scan_range!r}")
        steps = round(ratio)
        _require(abs(steps * self.scan_step - self.scan_range) <= 1e-9 * self.scan_range,
                 f"scan step {self.scan_step!r} m does not divide scan range "
                 f"{self.scan_range!r} m; nearest valid step is {self.scan_range / steps!r} m")


@dataclass(frozen=True)
class FrequencyPair:
    """Signal/idler angular frequencies plus the pump detuning.

    delta_omega = omega_pump - omega_signal - omega_idler; downstream code
    recovers the pump frequency from the three stored values, so the pair is
    consistent with its pump by construction.
    """

    omega_signal: float
    omega_idler: float
    delta_omega: float = 0.0

    def __post_init__(self) -> None:
        _require(math.isfinite(self.omega_signal) and self.omega_signal > 0,
                 f"signal frequency must be positive, got {self.omega_signal!r}")
        _require(math.isfinite(self.omega_idler) and self.omega_idler > 0,
                 f"idler frequency must be positive, got {self.omega_idler!r}")
        _require(math.isfinite(self.delta_omega),
                 f"detuning must be finite, got {self.delta_omega!r}")

    @classmethod
    def degenerate(cls, omega_pump: float) -> "FrequencyPair":
        """Both photons at half the pump frequency, zero detuning exactly."""
        half = 0.5 * omega_pump
        return cls(omega_signal=half, omega_idler=half, delta_omega=0.0)

    @classmethod
    def from_pump(cls, omega_pump: float, omega_signal: float, omega_idler: float) -> "FrequencyPair":
        return cls(
            omega_signal=omega_signal,
            omega_idler=omega_idler,
            delta_omega=omega_pump - omega_signal - omega_idler,
        )

    @property
    def omega_pump(self) -> float:
        return self.omega_signal + self.omega_idler + self.delta_omega
