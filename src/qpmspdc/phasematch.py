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
from dataclasses import dataclass

import numpy as np

from .core import VACUUM_LIGHT_SPEED as C
from .core import CrystalSpec, FrequencyPair, angular_frequency, sinc, vacuum_wavelength
from .dispersion import IndexModel, group_index
from .errors import ParaxialityError, PhaseMatchingError, ValidationError

CONVENTIONS = ("external", "internal")


@dataclass(frozen=True)
class QpmGrating:
    """Periodic sign-reversal grating: period, duty cycle, QPM order."""

    poling_period: float
    duty_cycle: float
    order: int

    def __post_init__(self) -> None:
        if not self.poling_period > 0:
            raise ValidationError(f"poling period must be positive, got {self.poling_period!r}")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValidationError(f"duty cycle must lie in (0, 1), got {self.duty_cycle!r}")
        if not (isinstance(self.order, int) and self.order >= 1):
            raise ValidationError(f"QPM order must be an integer >= 1, got {self.order!r}")

    @classmethod
    def from_crystal(cls, crystal: CrystalSpec) -> "QpmGrating":
        return cls(crystal.poling_period, crystal.duty_cycle, crystal.qpm_order)


def grating_vector(grating: QpmGrating) -> float:
    """Grating wavevector 2*pi*m/Lambda in rad/m."""
    return 2.0 * math.pi * grating.order / grating.poling_period


def fourier_coefficient(grating: QpmGrating) -> float:
    """Fourier coefficient sinc(m*pi*D) of the selected grating order."""
    return float(sinc(grating.order * math.pi * grating.duty_cycle))


def _field_indices(freqs: FrequencyPair, pump_axis: str, signal_axis: str,
                   idler_axis: str, temperature_c: float, model: IndexModel):
    """Index triple (n_pump, n_signal, n_idler) at the pair's wavelengths."""
    n_p = model.index(vacuum_wavelength(freqs.omega_pump), pump_axis, temperature_c)
    n_s = model.index(vacuum_wavelength(freqs.omega_signal), signal_axis, temperature_c)
    n_i = model.index(vacuum_wavelength(freqs.omega_idler), idler_axis, temperature_c)
    return n_p, n_s, n_i


def _crystal_indices(freqs: FrequencyPair, crystal: CrystalSpec, model: IndexModel):
    return _field_indices(freqs, crystal.pump_axis, crystal.signal_axis,
                          crystal.idler_axis, crystal.temperature_c, model)


def _collinear_density(freqs: FrequencyPair, pump_axis: str, signal_axis: str,
                       idler_axis: str, temperature_c: float,
                       model: IndexModel) -> float:
    """(n0*w0 - n_i*w_i - n_s*w_s)/c, the collinear wavevector imbalance.

    Shared between the mismatch evaluation and the poling-period design so
    the design round-trip cancels to floating-point accuracy.
    """
    n_p, n_s, n_i = _field_indices(freqs, pump_axis, signal_axis, idler_axis,
                                   temperature_c, model)
    return (n_p * freqs.omega_pump - n_i * freqs.omega_idler - n_s * freqs.omega_signal) / C


def _collinear_mismatch(freqs: FrequencyPair, crystal: CrystalSpec,
                        model: IndexModel) -> float:
    """Collinear wavevector imbalance less the grating vector, in rad/m.

    The q-independent part of the paraxial mismatch; zero when the poling
    period solves the collinear design at these frequencies.
    """
    return (_collinear_density(freqs, crystal.pump_axis, crystal.signal_axis,
                               crystal.idler_axis, crystal.temperature_c, model)
            - grating_vector(QpmGrating.from_crystal(crystal)))


def _paraxial_check(q, k: float, bound: float) -> None:
    qmax = float(np.max(np.abs(q))) if np.ndim(q) else abs(float(q))
    if k <= 0:
        raise ValidationError("wavevector must be positive")
    ratio = qmax / k
    if ratio >= bound:
        raise ParaxialityError(ratio, bound)


def delta_kz_paraxial(freqs: FrequencyPair, q_signal, q_idler,
                      crystal: CrystalSpec, model: IndexModel,
                      *, paraxial_bound: float = 0.2):
    """Paraxial longitudinal mismatch for given transverse wavevectors.

    Returns (n0 w0 - n_i w_i - n_s w_s)/c - 2 pi m / Lambda
    + c q_i^2/(2 n_i w_i) + c q_s^2/(2 n_s w_s) - c (q_i+q_s)^2/(2 n0 w0),
    broadcasting over array-valued q. The guard |q| < bound * (n w / c) is
    enforced per beam.
    """
    n_p, n_s, n_i = _crystal_indices(freqs, crystal, model)
    _paraxial_check(q_signal, n_s * freqs.omega_signal / C, paraxial_bound)
    _paraxial_check(q_idler, n_i * freqs.omega_idler / C, paraxial_bound)
    qs = np.asarray(q_signal, dtype=float)
    qi = np.asarray(q_idler, dtype=float)
    out = (
        _collinear_mismatch(freqs, crystal, model)
        + C * qi**2 / (2.0 * n_i * freqs.omega_idler)
        + C * qs**2 / (2.0 * n_s * freqs.omega_signal)
        - C * (qi + qs) ** 2 / (2.0 * n_p * freqs.omega_pump)
    )
    if out.ndim == 0:
        return float(out)
    return out


def paraxial_coefficients(freqs: FrequencyPair, indices) -> tuple[float, float, float]:
    """Quadratic coefficients (a_s, a_i, a_p) = c / (2 n_j w_j) of the paraxial mismatch.

    ``indices`` is the (n_pump, n_signal, n_idler) triple of the crystal at
    the pair's frequencies. The sinc's reach along the anti-diagonal, which
    sizes the joint grid, and the joint fill both read them from here.
    """
    n_p, n_s, n_i = indices
    return (C / (2.0 * n_s * freqs.omega_signal),
            C / (2.0 * n_i * freqs.omega_idler),
            C / (2.0 * n_p * freqs.omega_pump))


def paraxial_mismatch_terms(freqs: FrequencyPair, q, crystal: CrystalSpec,
                           model: IndexModel, *, paraxial_bound: float = 0.2
                           ) -> tuple[float, float, float, float]:
    """The paraxial mismatch as a sum of 1D terms over a transverse grid q.

    Returns (constant, a_s, a_i, a_p) such that delta_kz_paraxial equals
    constant + a_s q_s^2 + a_i q_i^2 - a_p (q_s + q_i)^2 with the
    ``paraxial_coefficients`` a_j, up to rounding. Signal and idler both take
    their wavevectors from q, which is checked against the paraxial bound per
    beam as delta_kz_paraxial checks its arguments.
    """
    indices = _crystal_indices(freqs, crystal, model)
    _, n_s, n_i = indices
    _paraxial_check(q, n_s * freqs.omega_signal / C, paraxial_bound)
    _paraxial_check(q, n_i * freqs.omega_idler / C, paraxial_bound)
    return (_collinear_mismatch(freqs, crystal, model),
            *paraxial_coefficients(freqs, indices))


def _angle_wavenumbers(freqs: FrequencyPair, crystal: CrystalSpec, model: IndexModel,
                       convention: str) -> tuple[float, float]:
    """Wavenumbers mapping emission angles to q, per convention."""
    if convention not in CONVENTIONS:
        raise ValidationError(f"angle convention must be one of {CONVENTIONS}, got {convention!r}")
    if convention == "external":
        return freqs.omega_signal / C, freqs.omega_idler / C
    _, n_s, n_i = _crystal_indices(freqs, crystal, model)
    return n_s * freqs.omega_signal / C, n_i * freqs.omega_idler / C


def mismatch_a(alpha_idler, alpha_signal, freqs: FrequencyPair,
               crystal: CrystalSpec, model: IndexModel,
               pump_group_index: float = 0.0,
               *, convention: str = "external", paraxial_bound: float = 0.2):
    """Phase-matching function A = delta_kz - n_g * delta_omega / c.

    Angles map to transverse wavevectors with opposite signs
    (q_i = +kappa_i sin alpha_i, q_s = -kappa_s sin alpha_s) so the symmetric
    emission cone nearly cancels the pump cross term. ``pump_group_index``
    only matters off frequency degeneracy.
    """
    kappa_s, kappa_i = _angle_wavenumbers(freqs, crystal, model, convention)
    q_i = kappa_i * np.sin(np.asarray(alpha_idler, dtype=float))
    q_s = -kappa_s * np.sin(np.asarray(alpha_signal, dtype=float))
    dkz = delta_kz_paraxial(freqs, q_s, q_i, crystal, model, paraxial_bound=paraxial_bound)
    out = dkz - pump_group_index * freqs.delta_omega / C
    if np.ndim(out) == 0:
        return float(out)
    return out


def maker_efficiency(alpha, freqs: FrequencyPair, crystal: CrystalSpec,
                     model: IndexModel, *, convention: str = "external",
                     paraxial_bound: float = 0.2):
    """Normalized QPM efficiency sinc^2(L_z A(alpha)/2) on the symmetric cone.

    Equals 1 at alpha = 0 when the poling period solves the collinear design;
    the first zero is the edge of the central Maker lobe.
    """
    if freqs.delta_omega != 0.0:
        n_g = group_index(model, vacuum_wavelength(freqs.omega_pump),
                          crystal.pump_axis, crystal.temperature_c)
    else:
        n_g = 0.0
    a_val = mismatch_a(alpha, alpha, freqs, crystal, model, n_g,
                       convention=convention, paraxial_bound=paraxial_bound)
    return sinc(crystal.length * np.asarray(a_val) / 2.0) ** 2


def design_poling_period(pump_wavelength: float, signal_wavelength: float,
                         idler_wavelength: float, *, pump_axis: str,
                         signal_axis: str, idler_axis: str,
                         temperature_c: float, qpm_order: int = 1,
                         model: IndexModel) -> float:
    """Poling period cancelling the collinear mismatch at the given wavelengths.

    Lambda = 2 pi m / [(n0 w0 - n_i w_i - n_s w_s)/c], equivalently
    m / (n_p/lambda_p - n_s/lambda_s - n_i/lambda_i). Raises
    PhaseMatchingError when the collinear imbalance is not positive.
    """
    if not (isinstance(qpm_order, int) and qpm_order >= 1):
        raise ValidationError(f"QPM order must be an integer >= 1, got {qpm_order!r}")
    freqs = FrequencyPair.from_pump(
        angular_frequency(pump_wavelength),
        angular_frequency(signal_wavelength),
        angular_frequency(idler_wavelength),
    )
    density = _collinear_density(freqs, pump_axis, signal_axis, idler_axis,
                                 temperature_c, model)
    if not density > 0.0:
        raise PhaseMatchingError(
            "no quasi-phase-matching solution: collinear wavevector imbalance "
            f"{density:.6g} rad/m is not positive for this wavelength/axis choice"
        )
    return 2.0 * math.pi * qpm_order / density


def detector_angle(position, distance: float):
    """Small-angle mapping p/z from detector offset to emission angle."""
    if not distance > 0:
        raise ValidationError(f"detection distance must be positive, got {distance!r}")
    out = np.asarray(position, dtype=float) / distance
    if out.ndim == 0:
        return float(out)
    return out


def efficiency_drop_over_scan(scan_range: float, distance: float,
                              freqs: FrequencyPair, crystal: CrystalSpec,
                              model: IndexModel, *, convention: str = "external",
                              samples: int = 513) -> float:
    """Worst QPM efficiency loss across a detector scan of total extent scan_range.

    The scan is centred on the axis (positions +- scan_range/2); returns
    1 - min over the scan of maker_efficiency(detector_angle(p, distance)).
    """
    if scan_range < 0:
        raise ValidationError(f"scan range must be >= 0, got {scan_range!r}")
    if scan_range == 0.0:
        return 0.0
    positions = np.linspace(-0.5 * scan_range, 0.5 * scan_range, samples)
    eff = maker_efficiency(detector_angle(positions, distance), freqs, crystal,
                           model, convention=convention)
    return float(1.0 - np.min(eff))


def bisect_root(fn, lo: float, hi: float, *, rel_tol: float = 1e-10,
                max_iter: int = 200) -> float:
    """Robust bisection for a sign change of fn on [lo, hi]."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValidationError(f"no sign change on bracket [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= rel_tol * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def first_maker_zero(freqs: FrequencyPair, crystal: CrystalSpec,
                     model: IndexModel, *, convention: str = "external") -> float:
    """Smallest positive emission angle where the Maker profile vanishes.

    Solves L_z A(alpha)/2 = pi by bracket expansion plus bisection; A is
    smooth and monotone across the central lobe so bisection is unconditionally
    safe.
    """
    def gap(alpha: float) -> float:
        a_val = mismatch_a(alpha, alpha, freqs, crystal, model, 0.0,
                           convention=convention)
        return crystal.length * a_val / 2.0 - math.pi

    lo = 0.0
    hi = 1e-5
    for _ in range(60):
        if gap(hi) > 0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise PhaseMatchingError("no Maker zero found inside the paraxial regime")
    return bisect_root(gap, lo, hi)
