"""Longitudinal phase mismatch, QPM grating factors, and Maker-fringe profiles.

Angle conventions. The conserved quantity across the crystal exit face is the
transverse wavevector q, so two emission-angle conventions coexist:

* ``external`` (default): alpha is the propagation angle outside the crystal,
  q = (omega/c) * sin(alpha); for a detector at transverse position p and
  distance z this is q = (2*pi/lambda_vac) * (p/z) in the small-angle limit.
* ``internal``: alpha is the angle inside the crystal,
  q = (n * omega/c) * sin(alpha).

Signal and idler angles count from opposite sides of the axis, so the
symmetric emission cone alpha_i = alpha_s has q_s + q_i ~ 0 and the pump
cross term nearly cancels.
"""
from __future__ import annotations

import math

import numpy as np

from .core import VACUUM_LIGHT_SPEED as C
from .core import CrystalSpec, FrequencyPair, angular_frequency, sinc, vacuum_wavelength
from .dispersion import IndexModel
from .errors import ParaxialityError, PhaseMatchingError, ValidationError

CONVENTIONS = ("external", "internal")

# Detector positions at which efficiency_drop_over_scan samples the scan.
_DROP_SAMPLES = 513
# Largest |q| / (n w / c) of any beam the paraxial mismatch is evaluated at.
PARAXIAL_BOUND = 0.2


def grating_vector(crystal: CrystalSpec) -> float:
    """Grating wavevector 2*pi*m/Lambda in rad/m."""
    return 2.0 * math.pi * crystal.qpm_order / crystal.poling_period


def fourier_coefficient(crystal: CrystalSpec) -> float:
    """Fourier coefficient sinc(m*pi*D) of the selected grating order."""
    return float(sinc(crystal.qpm_order * math.pi * crystal.duty_cycle))


def _field_indices(freqs: FrequencyPair, pump_axis: str, signal_axis: str,
                   idler_axis: str, temperature_c: float, model: IndexModel):
    """Index triple (n_pump, n_signal, n_idler) at the pair's wavelengths."""
    n_p = model.index(vacuum_wavelength(freqs.omega_pump), pump_axis, temperature_c)
    n_s = model.index(vacuum_wavelength(freqs.omega_signal), signal_axis, temperature_c)
    n_i = model.index(vacuum_wavelength(freqs.omega_idler), idler_axis, temperature_c)
    return n_p, n_s, n_i


def crystal_indices(freqs: FrequencyPair, crystal: CrystalSpec, model: IndexModel):
    """The crystal's index triple (n_pump, n_signal, n_idler) at the pair's wavelengths."""
    return _field_indices(freqs, crystal.pump_axis, crystal.signal_axis,
                          crystal.idler_axis, crystal.temperature_c, model)


def _collinear_density(freqs: FrequencyPair, indices) -> float:
    """(n0*w0 - n_i*w_i - n_s*w_s)/c, the collinear wavevector imbalance.

    ``indices`` is the (n_pump, n_signal, n_idler) triple at the pair's
    frequencies. Shared between the mismatch evaluation and the
    poling-period design so the design round-trip cancels to floating-point
    accuracy.
    """
    n_p, n_s, n_i = indices
    return (n_p * freqs.omega_pump - n_i * freqs.omega_idler - n_s * freqs.omega_signal) / C


def _paraxial_check(q, k: float) -> None:
    qmax = float(np.max(np.abs(q))) if np.ndim(q) else abs(float(q))
    ratio = qmax / k
    if not ratio < PARAXIAL_BOUND:
        raise ParaxialityError(ratio, PARAXIAL_BOUND)


def paraxial_mismatch_terms(freqs: FrequencyPair, q_signal, q_idler,
                            crystal: CrystalSpec, model: IndexModel
                            ) -> tuple[float, float, float, float]:
    """The paraxial mismatch as a constant plus three quadratic coefficients.

    Returns (constant, a_s, a_i, a_p) with a_j = c / (2 n_j w_j) and the
    constant the collinear imbalance less the grating vector, so that the
    mismatch is constant + a_s q_s^2 + a_i q_i^2 - a_p (q_s + q_i)^2. The
    crystal's index triple is looked up once. The guard
    |q| < PARAXIAL_BOUND * (n w / c) is enforced per beam on the given signal
    and idler wavevectors.
    """
    indices = crystal_indices(freqs, crystal, model)
    n_p, n_s, n_i = indices
    _paraxial_check(q_signal, n_s * freqs.omega_signal / C)
    _paraxial_check(q_idler, n_i * freqs.omega_idler / C)
    return (_collinear_density(freqs, indices) - grating_vector(crystal),
            C / (2.0 * n_s * freqs.omega_signal),
            C / (2.0 * n_i * freqs.omega_idler),
            C / (2.0 * n_p * freqs.omega_pump))


def delta_kz_paraxial(freqs: FrequencyPair, q_signal, q_idler,
                      crystal: CrystalSpec, model: IndexModel):
    """Paraxial longitudinal mismatch for given transverse wavevectors.

    Returns (n0 w0 - n_i w_i - n_s w_s)/c - 2 pi m / Lambda
    + a_s q_s^2 + a_i q_i^2 - a_p (q_s + q_i)^2 from
    ``paraxial_mismatch_terms``, broadcasting over array-valued q.
    """
    constant, a_s, a_i, a_p = paraxial_mismatch_terms(freqs, q_signal, q_idler, crystal, model)
    qs = np.asarray(q_signal, dtype=float)
    qi = np.asarray(q_idler, dtype=float)
    out = constant + a_s * qs**2 + a_i * qi**2 - a_p * (qs + qi) ** 2
    if out.ndim == 0:
        return float(out)
    return out


def maker_efficiency(alpha, freqs: FrequencyPair, crystal: CrystalSpec,
                     model: IndexModel, *, convention: str = "external"):
    """Normalized QPM efficiency sinc^2(L_z A(alpha)/2) on the symmetric cone.

    A = delta_kz is the phase-matching function. The angle maps to
    transverse wavevectors with opposite signs (q_i = +kappa_i sin alpha,
    q_s = -kappa_s sin alpha), so the symmetric emission cone nearly cancels
    the pump cross term; the wavenumbers kappa are the vacuum ones (external
    angles) or the crystal's (internal angles). Equals 1 at alpha = 0 when
    the poling period solves the collinear design; the first zero is the
    edge of the central Maker lobe.
    """
    if convention not in CONVENTIONS:
        raise ValidationError(f"angle convention must be one of {CONVENTIONS}, got {convention!r}")
    n_s = n_i = 1.0
    if convention == "internal":
        _, n_s, n_i = crystal_indices(freqs, crystal, model)
    kappa_s, kappa_i = n_s * freqs.omega_signal / C, n_i * freqs.omega_idler / C
    sin_alpha = np.sin(np.asarray(alpha, dtype=float))
    a_val = delta_kz_paraxial(freqs, -kappa_s * sin_alpha, kappa_i * sin_alpha,
                              crystal, model)
    if not math.isfinite(crystal.length * float(np.max(np.abs(a_val)))):
        raise ValidationError(f"crystal length {crystal.length!r} m overflows L A / 2")
    return sinc(crystal.length * np.asarray(a_val) / 2.0) ** 2


def design_poling_period(pump_wavelength: float, signal_wavelength: float,
                         idler_wavelength: float, *, pump_axis: str,
                         signal_axis: str, idler_axis: str,
                         temperature_c: float, qpm_order: int = 1,
                         model: IndexModel) -> float:
    """Poling period cancelling the collinear mismatch at the given wavelengths.

    Lambda = 2 pi m / [(n0 w0 - n_i w_i - n_s w_s)/c], equivalently
    m / (n_p/lambda_p - n_s/lambda_s - n_i/lambda_i). The pump frequency is
    the pair's sum, so a pump wavelength that does not conserve energy with
    the pair (to 1e-12 relative) raises ValidationError. Raises
    PhaseMatchingError when the collinear imbalance is not positive.
    """
    if not (isinstance(qpm_order, int) and qpm_order >= 1):
        raise ValidationError(f"QPM order must be an integer >= 1, got {qpm_order!r}")
    omega_pump = angular_frequency(pump_wavelength)
    freqs = FrequencyPair(angular_frequency(signal_wavelength),
                          angular_frequency(idler_wavelength))
    if not abs(freqs.omega_pump - omega_pump) <= 1e-12 * omega_pump:
        raise ValidationError(
            f"pump wavelength {pump_wavelength!r} m does not conserve energy with signal "
            f"{signal_wavelength!r} m and idler {idler_wavelength!r} m")
    density = _collinear_density(freqs, _field_indices(
        freqs, pump_axis, signal_axis, idler_axis, temperature_c, model))
    if not density > 0.0:
        raise PhaseMatchingError(
            "no quasi-phase-matching solution: collinear wavevector imbalance "
            f"{density:.6g} rad/m is not positive for this wavelength/axis choice"
        )
    return 2.0 * math.pi * qpm_order / density


def efficiency_drop_over_scan(scan_range: float, distance: float,
                              freqs: FrequencyPair, crystal: CrystalSpec,
                              model: IndexModel, *, convention: str = "external") -> float:
    """Worst QPM efficiency loss across a detector scan of total extent scan_range.

    The scan is centred on the axis: ``_DROP_SAMPLES`` positions span
    +- scan_range/2, and a detector at offset p sees the emission angle
    p / distance. A scan whose outer angle reaches 90 degrees, where the
    angle wraps and its sine falls again, or overflows, is refused first.
    Returns 1 - min over the scan of maker_efficiency at those angles, whose
    paraxial guard holds them below PARAXIAL_BOUND; this is the regime
    verdict ``scenarios`` gives every coincidence scan.
    """
    if scan_range < 0:
        raise ValidationError(f"scan range must be >= 0, got {scan_range!r}")
    if not distance > 0:
        raise ValidationError(f"detection distance must be positive, got {distance!r}")
    if scan_range == 0.0:
        return 0.0
    if not 0.5 * scan_range / distance < 0.5 * math.pi:
        raise ValidationError(f"a {scan_range!r} m scan at {distance!r} m passes 90 degrees")
    angles = np.linspace(-0.5 * scan_range, 0.5 * scan_range, _DROP_SAMPLES) / distance
    eff = maker_efficiency(angles, freqs, crystal, model, convention=convention)
    return float(1.0 - np.min(eff))
