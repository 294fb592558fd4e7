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

The oracle evaluates that double sum over the (q_s, q_i) grid exactly, for
only the detector pairs a scan reads; it does not use the transfer law.
With both detectors moving together it works in sum/difference
coordinates: the pump term and the common detector position enter through
q_s + q_i alone, so the sum runs over the 2N-1 pair sums and the 2n-1 slit
offset differences instead of over every detector pair. With one detector
scanning, the fixed detector's transform is contracted first. Both are
rearrangements of the same sum and match the full detector-pair transform
to rounding.

The scan path builds every two-dimensional phase from one-dimensional
factors, and never holds the N x N joint grid. The joint amplitude is the
pump at q_s + q_i times sinc(L A / 2), and the paraxial mismatch A is a sum
of a signal term, an idler term and a pair-sum term. ``JointAmplitude``
keeps these 1D factors; the oracle computes the sinc a block of rows at a
time, adding three vectors (the pair-sum one through the same Hankel view
as the pump), just before it transports that block, and applies the pump
and the unit-peak normalization where they factor out of its contractions.
A scan's memory thus grows as N, not N^2; ``base_values`` fills the whole
grid only for a caller that asks for it. The oracle's detector-position
phases exp(i q p) on the evenly spaced scan positions are the product of
two short tables. Only the generation phase kept on request is evaluated
cell by cell, by ``delta_kz_paraxial``.

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
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import VACUUM_LIGHT_SPEED as C
from .core import (CrystalSpec, DetectionGeometry, FrequencyPair, PumpSpec,
                   frozen_array, sinc, vacuum_wavelength)
from .dispersion import IndexModel, group_index
from .errors import (GridCompatibilityError, SamplingGuardError,
                     ValidationError)
from .fields import AngularSpectrum, SampledField, _centered_grid
from .phasematch import (delta_kz_paraxial, efficiency_drop_over_scan,
                         paraxial_mismatch_terms)

SCAN_MODES = ("both-together", "signal-only", "idler-only")

# Joint-grid cells a whole-grid fill (``base_values``, the kept phase)
# computes at a time, so its temporaries stay at a few MB besides the grid.
_FILL_CELLS = 1 << 18

# Joint-grid rows the oracle streams at a time. Its buffers then take a few
# MB; the both-together shear array is 128 x (N + 127) instead of
# N x (2N - 1), mostly zeros.
_STREAM_ROWS = 128


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
    """Joint signal/idler amplitude on a symmetric (q_s, q_i) grid, kept factored.

    The amplitude is the pump at q_s + q_i times sinc(L A / 2), normalized to
    unit peak magnitude, on the square grid q_signal x q_idler (one shared
    axis). It is held as 1D factors: ``pump_sums``, the pump at the 2N-1 pair
    sums (index s + i), and the signal, idler and pair-sum terms of the sinc
    argument L A / 2. Scans stream the grid a block of rows at a time
    (``sinc_rows``) and apply the pump and the normalization around their
    contractions; ``base_values`` fills the whole grid only when asked for.
    phase, when kept, holds the generation phase L_z A / 2 in rad and
    ``values`` recombines the two.
    """

    q_signal: np.ndarray
    pump_sums: np.ndarray
    signal_term: np.ndarray
    idler_term: np.ndarray
    pair_term: np.ndarray
    freqs: FrequencyPair
    crystal: CrystalSpec
    phase: np.ndarray | None = None
    pump_magnitude: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q = frozen_array(self.q_signal, float)
        if q.ndim != 1:
            raise ValidationError("joint amplitude q_signal must be a 1D grid")
        n = q.size
        arrays = {"pump_sums": (complex, 2 * n - 1), "signal_term": (float, n),
                  "idler_term": (float, n), "pair_term": (float, 2 * n - 1)}
        for name, (dtype, size) in arrays.items():
            line = frozen_array(getattr(self, name), dtype)
            if line.shape != (size,):
                raise ValidationError(f"joint amplitude {name} must hold {size} values")
            object.__setattr__(self, name, line)
        phase = None if self.phase is None else frozen_array(self.phase, float)
        if phase is not None and phase.shape != (n, n):
            raise ValidationError("joint amplitude phase must be a square 2D grid over q_signal")
        object.__setattr__(self, "q_signal", q)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "pump_magnitude", frozen_array(np.abs(self.pump_sums), float))

    @property
    def q_idler(self) -> np.ndarray:
        return self.q_signal

    def sinc_rows(self, start: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
                  *, transpose: bool = False) -> tuple[np.ndarray, float]:
        """sinc(L A / 2) on the grid rows from ``start``, and their peak |P| |sinc|.

        ``buffers`` are three rows x N arrays: float for the argument (then
        the magnitudes), float for the sinc and bool for the sinc's zero
        mask; the block holds as many rows as they have, up to the grid's
        last. With ``transpose`` the rows belong to the idler, which swaps
        the signal and idler terms: the rows are then exactly the columns of
        the untransposed grid, because float addition commutes and the
        pair-sum and pump factors depend on s + i alone.
        """
        argument, profile, zeros = buffers
        n = self.q_signal.size
        count = min(argument.shape[0], n - start)
        row_term, column_term = ((self.idler_term, self.signal_term) if transpose
                                 else (self.signal_term, self.idler_term))
        block = np.add(row_term[start:start + count, None], column_term,
                       out=argument[:count])
        block += _hankel(self.pair_term[start:], n, count)
        block_sinc = sinc(block, out=profile[:count], zeros=zeros[:count])
        # |P| |sinc| on real arrays is the block's magnitude, to rounding.
        magnitude = np.abs(block_sinc, out=block)
        magnitude *= _hankel(self.pump_magnitude[start:], n, count)
        return block_sinc, float(np.max(magnitude))

    @property
    def base_values(self) -> np.ndarray:
        """The phase-stripped grid, filled a block of rows at a time."""
        n = self.q_signal.size
        rows = max(1, _FILL_CELLS // n)
        buffers = _buffers(_row_layout(rows, n))
        grid = np.empty((n, n), dtype=complex)
        peak = 0.0
        for start in range(0, n, rows):
            block, block_peak = self.sinc_rows(start, buffers)
            np.multiply(_hankel(self.pump_sums[start:], n, block.shape[0]), block,
                        out=grid[start:start + block.shape[0]])
            peak = max(peak, block_peak)
        # Real scalings act on the (re, im) float pairs, sparing complex arithmetic.
        grid.view(float)[...] /= _nonzero_peak(peak)
        return grid

    @property
    def values(self) -> np.ndarray:
        if self.phase is None:
            return self.base_values
        return np.exp(1j * self.phase) * self.base_values


def _nonzero_peak(peak: float) -> float:
    if peak == 0.0:
        raise ValidationError("joint amplitude is identically zero on this grid")
    return peak


def _row_layout(rows: int, n: int) -> tuple:
    """Layout of the ``sinc_rows`` buffers for blocks of ``rows`` rows."""
    return (((rows, n), float), ((rows, n), float), ((rows, n), bool))


def _buffers(layout) -> list[np.ndarray]:
    """Uninitialized arrays of the given (shape, dtype) pairs, carved from one allocation.

    A call's buffers come from one block of memory instead of one each, so
    the allocator hands back the same memory call after call instead of
    mapping fresh pages.
    """
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout]
    # Each array starts on a 64-byte boundary.
    starts = list(accumulate((-(-size // 64) * 64 for size in sizes), initial=0))
    memory = np.empty(starts[-1], dtype=np.uint8)
    return [memory[start:start + size].view(dtype).reshape(shape)
            for (shape, dtype), start, size in zip(layout, starts, sizes)]


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
    """Joint amplitude, in its 1D factors, from a pump spectrum at the crystal plane.

    Every node (q_s, q_i) needs the pump component at q_s + q_i, so the pump
    spectrum grid must span twice this grid's half extent; otherwise the
    required pump q extent is reported. On the uniform grid that sum takes
    2N-1 values, so the pump is interpolated once per value, to be read
    through a Hankel view. The sinc argument L A / 2 is likewise kept as 1D
    terms, a signal term plus an idler term plus a pair-sum term read through
    the same Hankel view (``paraxial_mismatch_terms``). No N x N grid is
    filled here but the kept phase. The spectral envelope is one scalar,
    which the unit-peak normalization cancels, so it only decides whether the
    amplitude is identically zero, as an all-zero pump does; a grid on which
    the pump and the sinc never overlap is rejected when it is read. The
    kept phase comes from ``delta_kz_paraxial`` itself and equals the
    whole-grid formula bit for bit.
    """
    q = symmetric_q_grid(q_extent, samples)
    q_sum_max = 2.0 * float(np.max(np.abs(q)))
    pump_q_max = float(np.max(np.abs(pump_spectrum.q)))
    if q_sum_max > pump_q_max:
        raise GridCompatibilityError(
            f"pump spectrum grid (|q| <= {pump_q_max:.6g} rad/m) cannot supply "
            f"q_s + q_i up to {q_sum_max:.6g} rad/m",
            required_q_extent=2.0 * q_sum_max)
    n = q.size
    q_sum = _pair_sums(q)
    pump_sums = sample_pump_spectrum(pump_spectrum, q_sum)
    detuning = 0.0
    if freqs.delta_omega != 0.0:
        n_g = group_index(model, vacuum_wavelength(freqs.omega_pump),
                          crystal.pump_axis, crystal.temperature_c)
        detuning = n_g * freqs.delta_omega / C
    constant, a_signal, a_idler, a_pump = paraxial_mismatch_terms(
        freqs, q, crystal, model, paraxial_bound=paraxial_bound)
    if spectral_envelope(freqs, pump) == 0.0 or not np.any(pump_sums):
        raise ValidationError("joint amplitude is identically zero on this grid")
    half_length = 0.5 * crystal.length
    phase = None
    if include_phase:
        phase = np.empty((n, n))
        rows = max(1, _FILL_CELLS // n)
        for start in range(0, n, rows):
            block_phase = delta_kz_paraxial(freqs, q[start:start + rows, None],
                                            q[None, :], crystal, model,
                                            paraxial_bound=paraxial_bound)
            if detuning:
                block_phase -= detuning
            block_phase *= half_length
            phase[start:start + rows] = block_phase
        # Frozen in place: JointAmplitude keeps it uncopied.
        phase.flags.writeable = False
    return JointAmplitude(q_signal=q, pump_sums=pump_sums,
                          signal_term=(constant - detuning + a_signal * q * q) * half_length,
                          idler_term=a_idler * q * q * half_length,
                          pair_term=-a_pump * q_sum * q_sum * half_length,
                          freqs=freqs, crystal=crystal, phase=phase)


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
    x = profile.x
    if sample_points.min() < x[0] or sample_points.max() > x[-1]:
        reach = float(np.max(np.abs(sample_points)))
        needed_mm = math.ceil(2e6 * reach / (1.0 - 2.0 / x.size)) / 1e3
        raise GridCompatibilityError(
            f"the scan reads the pump profile out to |x| = {reach * 1e3:.6g} mm, "
            f"beyond its grid [{x[0] * 1e3:.6g}, {x[-1] * 1e3:.6g}] mm; "
            f"grid_extent_mm must be at least {needed_mm:g}")
    intensity = np.interp(sample_points.ravel(), x, profile.intensity).reshape(
        sample_points.shape)
    raw = intensity.mean(axis=1)
    return _finalize(positions, raw, mode, geometry, "analytic", tuple(warnings),
                     extra={"efficiency_drop": drop, "angle_convention": convention})


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) evaluated as cos + 1j*sin."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _position_phases(q: np.ndarray, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i q p) over q x positions, for evenly spaced positions, into ``out``.

    With j = c u + v and c about the square root of the count, position j is
    p_(c u) + (p_v - p_0), so the table is the product of two short ones,
    exp(i q p_(c u)) and exp(i q (p_v - p_0)), instead of a cos and a sin per
    entry.
    """
    count = positions.size
    stride = math.isqrt(count - 1) + 1
    coarse = _expi(np.multiply.outer(q, positions[::stride]))
    fine = _expi(np.multiply.outer(q, positions[:stride] - positions[0]))
    for u, first in enumerate(range(0, count, stride)):
        width = min(stride, count - first)
        np.multiply(coarse[:, u, None], fine[:, :width], out=out[:, first:first + width])
    return out


def _pair_sums(q: np.ndarray) -> np.ndarray:
    """The 2N-1 distinct values of q_s + q_i on a uniform grid, index m = s + i."""
    return np.concatenate((q[0] + q, q[-1] + q[1:]))


def _hankel(line: np.ndarray, n: int, rows: int | None = None) -> np.ndarray:
    """Read-only rows x n view (n x n by default) with [s, i] = line[s + i]."""
    rows = n if rows is None else rows
    if line.size < rows + n - 1:
        raise ValueError("Hankel view would read past the end of its line")
    step = line.strides[0]
    return as_strided(line, shape=(rows, n), strides=(step, step), writeable=False)


def _one_scanned(amplitude: JointAmplitude, positions: np.ndarray,
                 offsets: np.ndarray, chirp_scanned: np.ndarray,
                 chirp_fixed: np.ndarray, transpose: bool) -> np.ndarray:
    """Amplitudes [scanned offset x fixed offset, scan position], one detector scanned.

    The scanned photon's grid rows (the idler's with ``transpose``) are
    streamed a block at a time, times the pump, and contracted with the fixed
    detector's phases; the normalization is applied to the contraction. The
    scanned detector's phase exp(i q (P + o)) splits into a per-position and
    a per-offset factor.
    """
    q = amplitude.q_signal
    n = q.size
    rows = min(_STREAM_ROWS, n)
    offset_phases = _expi(np.multiply.outer(q, offsets))
    fixed_phases = offset_phases * chirp_fixed[:, None]
    n_off = offsets.size
    *buffers, block, fixed, weighted, table, detected = _buffers(_row_layout(rows, n) + (
        ((rows, n), complex), ((n, n_off), complex), ((n, n_off, n_off), complex),
        ((n, positions.size), complex), ((n_off * n_off, positions.size), complex)))
    peak = 0.0
    for start in range(0, n, rows):
        block_sinc, block_peak = amplitude.sinc_rows(start, buffers, transpose=transpose)
        count = block_sinc.shape[0]
        pumped = np.multiply(_hankel(amplitude.pump_sums[start:], n, count), block_sinc,
                             out=block[:count])
        np.matmul(pumped, fixed_phases, out=fixed[start:start + count])
        peak = max(peak, block_peak)
    fixed.view(float)[...] /= _nonzero_peak(peak)
    scanned = offset_phases * chirp_scanned[:, None]
    np.multiply(scanned[:, :, None], fixed[:, None, :], out=weighted)
    return np.matmul(weighted.reshape(n, -1).T, _position_phases(q, positions, table),
                     out=detected)


def _both_scanned(amplitude: JointAmplitude, positions: np.ndarray,
                  offsets: np.ndarray, chirp_signal: np.ndarray,
                  chirp_idler: np.ndarray) -> np.ndarray:
    """Amplitudes [signal offset x idler offset, scan position], both detectors at P.

    With p_s = P + o_a and p_i = P + o_b the double sum becomes
    sum_m exp(i q+_m (P + o_b)) S[a - b, m] over the pair sums q+_m = q_s + q_i,
    where S[d, m] = P_m sum_s sinc[s, m - s] C_s C_i exp(i q_s (o_a - o_b))
    with the pump P_m and both transport chirps C (the signal chirp rides on
    the offset phases). Blocks of sinc rows times the idler chirp are written
    sheared into the (s, m = s + i) layout and contracted; the pump and the
    normalization scale S afterwards, once per pair sum. Every block writes
    the same band of one work array, so its zeros are written once.
    """
    q = amplitude.q_signal
    n = q.size
    n_off = offsets.size
    differences = np.concatenate((offsets[0] - offsets[:0:-1], offsets - offsets[0]))
    signal_phases = _expi(np.multiply.outer(differences, q))
    signal_phases *= chirp_signal
    rows = min(_STREAM_ROWS, n)
    *buffers, work, product, s, terms, table, detected = _buffers(_row_layout(rows, n) + (
        ((rows, rows + n - 1), complex), ((differences.size, rows + n - 1), complex),
        ((differences.size, 2 * n - 1), complex), ((n_off, n_off, 2 * n - 1), complex),
        ((2 * n - 1, positions.size), complex), ((n_off * n_off, positions.size), complex)))
    work.fill(0.0)
    s.fill(0.0)
    peak = 0.0
    for start in range(0, n, rows):
        block_sinc, block_peak = amplitude.sinc_rows(start, buffers)
        count = block_sinc.shape[0]
        sheared = work[:count, :count + n - 1]
        diagonals = as_strided(sheared, shape=block_sinc.shape,
                               strides=(sheared.strides[0] + sheared.strides[1],
                                        sheared.strides[1]))
        np.multiply(block_sinc, chirp_idler, out=diagonals)
        band = np.matmul(signal_phases[:, start:start + count], sheared,
                         out=product[:, :count + n - 1])
        s[:, start:start + count + n - 1] += band
        peak = max(peak, block_peak)
    s *= amplitude.pump_sums / _nonzero_peak(peak)
    q_sum = _pair_sums(q)
    a_minus_b = np.subtract.outer(np.arange(n_off), np.arange(n_off)) + n_off - 1
    np.take(s, a_minus_b, axis=0, out=terms)
    terms *= _expi(np.multiply.outer(offsets, q_sum))
    return np.matmul(terms.reshape(-1, 2 * n - 1), _position_phases(q_sum, positions, table),
                     out=detected)


def coincidence_scan_oracle(amplitude: JointAmplitude, geometry: DetectionGeometry,
                            mode: str, *, slit_samples: int = 8,
                            warnings: tuple[str, ...] = ()) -> ScanResult:
    """Scan from the joint amplitude by per-photon Fresnel transport to z_D.

    The coincidence amplitude at detector pair (p_s, p_i) is the double sum
    over the (q_s, q_i) grid of the phase-stripped joint amplitude times the
    two transport factors; the squared modulus is then averaged over each
    detector slit by the midpoint rule (incoherent integration). Only the
    detector pairs a scan reads are formed; ``warnings`` (from sizing the
    joint grid) are attached to the result.
    """
    if mode not in SCAN_MODES:
        raise ValidationError(f"scan mode must be one of {SCAN_MODES}, got {mode!r}")
    freqs = amplitude.freqs
    k_signal = freqs.omega_signal / C
    k_idler = freqs.omega_idler / C
    z = geometry.distance
    positions = scan_positions(geometry)
    offsets = _slit_offsets(geometry.slit_width, slit_samples)
    q = amplitude.q_signal
    dq = float(q[1] - q[0])
    q_max = float(np.max(np.abs(q)))
    p_max = float(np.max(np.abs(positions[:, None] + offsets[None, :])))
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

    chirp_signal = _expi(q * q * (-z / (2.0 * k_signal)))
    chirp_idler = (chirp_signal if k_idler == k_signal
                   else _expi(q * q * (-z / (2.0 * k_idler))))
    if mode == "both-together":
        detected = _both_scanned(amplitude, positions, offsets, chirp_signal, chirp_idler)
    elif mode == "signal-only":
        detected = _one_scanned(amplitude, positions, offsets, chirp_signal, chirp_idler,
                                transpose=False)
    else:
        detected = _one_scanned(amplitude, positions, offsets, chirp_idler, chirp_signal,
                                transpose=True)
    raw = (np.abs(detected) ** 2).mean(axis=0)
    return _finalize(positions, raw, mode, geometry, "oracle", warnings)


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
