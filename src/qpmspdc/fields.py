"""Scalar 1D field synthesis and angular-spectrum propagation.

Transform conventions. A field E(x) and its angular spectrum S(q) form the
unitary pair

    S(q) = dx / sqrt(2 pi) * sum_x E(x) exp(-i q x)
    E(x) = dq / sqrt(2 pi) * sum_q S(q) exp(+i q x)

so power sum(|E|^2) dx equals sum(|S|^2) dq exactly (Parseval). Paraxial
propagation over a distance d in a medium of index n multiplies each spectral
component by exp(-i q^2 d / (2 k n)) with k = 2 pi / lambda_vac; the global
on-axis phase is dropped. With this propagator a converging thin lens is the
position-space factor exp(-i k x^2 / (2 f)) for f > 0 (the sign pair is what
makes lens + free flight of f focus a plane wave).

Sampling guard. The propagator is a pure phase, so it is exactly unitary;
what can go wrong is spectral content at the edge of the q grid (undersampled
source structure) wrapping around. ``propagate`` therefore measures the
spectral power near the grid edge and refuses to run when more than
``SPECTRAL_TAIL_TOL`` of it sits there; the error suggests the sample count
that would contain the same tail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CrystalSpec, PumpSpec, frozen_array
from .dispersion import IndexModel
from .errors import GridSizeError, SamplingGuardError, ValidationError

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Largest spectral power fraction near the q-grid edge that propagate accepts.
SPECTRAL_TAIL_TOL = 0.05


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _next_power_of_two(n: int) -> int:
    return 1 << max(1, int(n - 1).bit_length())


def _centered_grid(count: int, step: float) -> np.ndarray:
    return (np.arange(count) - count // 2) * step


def _freeze_samples(grid, what: str, extent: float) -> np.ndarray:
    """Validate a sampled grid's values, extent and wavelength; store values read-only."""
    values = frozen_array(grid.values, complex)
    if values.ndim != 1 or not _is_power_of_two(values.size):
        raise ValidationError(
            f"{what} values must be a 1D array with power-of-two length, got shape {values.shape}")
    if not (math.isfinite(extent) and extent > 0):
        raise ValidationError(f"{what} extent must be positive, got {extent!r}")
    if not (math.isfinite(grid.wavelength) and grid.wavelength > 0):
        raise ValidationError(f"wavelength must be positive, got {grid.wavelength!r}")
    object.__setattr__(grid, "values", values)
    return values


@dataclass(frozen=True, eq=False)
class SampledField:
    """Complex scalar field on a uniform, centred transverse grid.

    values has a power-of-two length; extent is the full grid width in metres;
    wavelength is the vacuum wavelength.
    """

    values: np.ndarray
    extent: float
    wavelength: float

    def __post_init__(self) -> None:
        values = _freeze_samples(self, "field", self.extent)
        if not np.all(np.isfinite(values.view(float))):
            raise ValidationError("field values must be finite")
        if not self.power > 0:
            raise ValidationError("field must carry positive total power")

    @property
    def sample_count(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return self.extent / self.values.size

    @property
    def x(self) -> np.ndarray:
        return _centered_grid(self.values.size, self.dx)

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)


@dataclass(frozen=True, eq=False)
class AngularSpectrum:
    """Complex amplitude over a uniform transverse-wavevector grid (rad/m)."""

    values: np.ndarray
    q_extent: float
    wavelength: float

    def __post_init__(self) -> None:
        _freeze_samples(self, "spectrum", self.q_extent)

    @property
    def sample_count(self) -> int:
        return self.values.size

    @property
    def dq(self) -> float:
        return self.q_extent / self.values.size

    @property
    def q(self) -> np.ndarray:
        return _centered_grid(self.values.size, self.dq)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dq)


def gaussian_source(waist_radius: float, wavelength: float, *, grid_extent: float,
                    sample_count: int) -> SampledField:
    """Flat-phase Gaussian at its waist: amplitude exp(-x^2 / w0^2).

    Irradiance falls to e^-2 of its peak at x = w0. The grid must hold the
    beam: extent >= 8 * waist.
    """
    if not (math.isfinite(waist_radius) and waist_radius > 0):
        raise ValidationError(f"waist radius must be positive, got {waist_radius!r}")
    if grid_extent < 8.0 * waist_radius:
        raise GridSizeError(
            f"grid extent {grid_extent:.4g} m too small for waist {waist_radius:.4g} m "
            f"(need extent >= {8.0 * waist_radius:.4g} m)")
    if not _is_power_of_two(sample_count):
        raise ValidationError(f"sample count must be a power of two, got {sample_count!r}")
    x = _centered_grid(sample_count, grid_extent / sample_count)
    values = np.exp(-(x / waist_radius) ** 2).astype(complex)
    return SampledField(values=values, extent=grid_extent, wavelength=wavelength)


def to_angular_spectrum(field: SampledField) -> AngularSpectrum:
    """Unitary transform of a field to its angular spectrum."""
    shifted = np.fft.ifftshift(field.values)
    spec = np.fft.fftshift(np.fft.fft(shifted)) * (field.dx / _SQRT2PI)
    dq = 2.0 * math.pi / field.extent
    return AngularSpectrum(values=spec, q_extent=dq * field.sample_count,
                           wavelength=field.wavelength)


def to_sampled_field(spectrum: AngularSpectrum) -> SampledField:
    """Inverse of :func:`to_angular_spectrum`."""
    n = spectrum.sample_count
    shifted = np.fft.ifftshift(spectrum.values)
    values = np.fft.fftshift(np.fft.ifft(shifted)) * (n * spectrum.dq / _SQRT2PI)
    extent = 2.0 * math.pi / spectrum.dq
    return SampledField(values=values, extent=extent, wavelength=spectrum.wavelength)


def _spectral_tail_fraction(spectrum: AngularSpectrum, edge_band: float = 0.1) -> float:
    """Fraction of spectral power within edge_band of the q-grid edge."""
    q = spectrum.q
    q_max = float(np.max(np.abs(q)))
    band = np.abs(q) >= (1.0 - edge_band) * q_max
    total = float(np.sum(np.abs(spectrum.values) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(spectrum.values[band]) ** 2)) / total


def propagate(field: SampledField, distance: float,
              medium_index: float = 1.0) -> SampledField:
    """Angular-spectrum propagation by exp(-i q^2 d / (2 k n)) per component.

    Exactly power conserving. distance = 0 is the identity. A negative
    distance back-propagates (conjugate phase). Propagating a geometric
    distance d in a medium of index n equals free space of d/n, which is how
    the crystal interior is traversed.
    """
    if not math.isfinite(distance):
        raise ValidationError(f"propagation distance must be finite, got {distance!r}")
    if not (math.isfinite(medium_index) and medium_index > 0):
        raise ValidationError(f"medium index must be positive, got {medium_index!r}")
    if distance == 0.0:
        return field
    spectrum = to_angular_spectrum(field)
    tail = _spectral_tail_fraction(spectrum)
    if tail > SPECTRAL_TAIL_TOL:
        suggested = _next_power_of_two(
            int(math.ceil(field.sample_count * tail / SPECTRAL_TAIL_TOL)))
        raise SamplingGuardError(
            f"spectral power fraction {tail:.3g} at the q-grid edge exceeds "
            f"{SPECTRAL_TAIL_TOL:.3g}; the source structure is undersampled",
            suggested_samples=suggested)
    k = 2.0 * math.pi / field.wavelength
    q = spectrum.q
    phase = np.exp(-1j * q**2 * distance / (2.0 * k * medium_index))
    return to_sampled_field(replace(spectrum, values=spectrum.values * phase))


@dataclass(frozen=True)
class ThinLens:
    """Ideal thin lens; focal_length > 0 converges."""

    focal_length: float

    def __post_init__(self) -> None:
        if self.focal_length == 0 or not math.isfinite(self.focal_length):
            raise ValidationError(f"focal length must be finite and nonzero, got {self.focal_length!r}")


@dataclass(frozen=True)
class MultiSlitAperture:
    """slit_count identical slits of slit_width, centres center_separation apart."""

    slit_width: float
    center_separation: float = 0.0
    slit_count: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slit_width) and self.slit_width > 0):
            raise ValidationError(f"slit width must be positive, got {self.slit_width!r}")
        if not (math.isfinite(self.center_separation) and self.center_separation >= 0):
            raise ValidationError(f"slit separation must be >= 0, got {self.center_separation!r}")
        if not (isinstance(self.slit_count, int) and self.slit_count >= 1):
            raise ValidationError(f"slit count must be an integer >= 1, got {self.slit_count!r}")

    @property
    def span(self) -> float:
        return (self.slit_count - 1) * self.center_separation + self.slit_width

    def mask(self, x: np.ndarray) -> np.ndarray:
        centers = (np.arange(self.slit_count) - (self.slit_count - 1) / 2.0) * self.center_separation
        open_region = np.zeros_like(x, dtype=bool)
        for c in centers:
            open_region |= np.abs(x - c) <= 0.5 * self.slit_width
        return open_region.astype(float)


OpticalElement = ThinLens | MultiSlitAperture


def apply_element(field: SampledField, element: OpticalElement) -> SampledField:
    """Apply a thin optical element at the field's plane."""
    if isinstance(element, ThinLens):
        k = 2.0 * math.pi / field.wavelength
        factor = np.exp(-1j * k * field.x**2 / (2.0 * element.focal_length))
        return replace(field, values=field.values * factor)
    if isinstance(element, MultiSlitAperture):
        if element.span > field.extent:
            raise GridSizeError(
                f"aperture span {element.span:.4g} m exceeds grid extent {field.extent:.4g} m")
        return replace(field, values=field.values * element.mask(field.x))
    raise ValidationError(f"unknown optical element {element!r}")


def march_to_crystal_exit(pump: PumpSpec, elements, crystal: CrystalSpec,
                          model: IndexModel, *, grid_extent: float,
                          sample_count: int) -> SampledField:
    """Source -> elements -> crystal entrance -> effective interior -> exit face.

    The exit-face field is the biphoton source (its angular spectrum feeds the
    joint amplitude) and, propagated on to the detection plane, the W whose
    squared modulus the near-collinear coincidence profile follows.

    Element positions are longitudinal coordinates with the crystal entrance
    face at z = 0 (upstream negative); they must be sorted, at or before the
    crystal, and not upstream of the pump waist. The crystal interior counts
    as free space of optical length L/n0 for the pump.
    """
    placed = list(elements)
    last = pump.waist_position
    for z_e, element in placed:
        if z_e > 0:
            raise ValidationError(
                f"element position {z_e!r} m is past the crystal entrance; pump-side "
                "elements must sit at z <= 0")
        if z_e < last:
            raise ValidationError(
                "element positions must be monotone and downstream of the pump waist "
                f"(waist at {pump.waist_position!r} m)")
        last = z_e
    field = gaussian_source(pump.waist_radius, pump.center_wavelength,
                            grid_extent=grid_extent, sample_count=sample_count)
    z = pump.waist_position
    for z_e, element in placed:
        field = propagate(field, z_e - z)
        field = apply_element(field, element)
        z = z_e
    field = propagate(field, 0.0 - z)
    n0 = model.index(pump.center_wavelength, crystal.pump_axis, crystal.temperature_c)
    return propagate(field, crystal.length, medium_index=n0)
