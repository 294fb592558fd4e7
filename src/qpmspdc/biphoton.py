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

Both routes only compute. Whether a scan lies in the near-collinear regime
is judged once per scan by the pipeline that runs it
(``scenarios.run_coincidence``), which hands each route its warnings.

The scan path builds every two-dimensional phase from one-dimensional
factors, and never holds the N x N joint grid. The joint amplitude is the
pump at q_s + q_i times sinc(L A / 2), and the paraxial mismatch A is a sum
of a signal term, an idler term and a pair-sum term. ``JointAmplitude``
keeps these 1D factors; the oracle computes the sinc a block of rows at a
time, adding three vectors (the pair-sum one through the same Hankel view
as the pump), just before it transports that block, and applies the pump
and the normalization, a division by the pump's peak magnitude, where they
factor out of its contractions. A scan's memory thus grows as N, not N^2;
``base_values`` fills the whole grid only for a caller that asks for it.
A scan streams only about half the rows. The sinc argument
const + a_s q_s^2 + a_i q_i^2 - a_p (q_s + q_i)^2 is even under
(q_s, q_i) -> (-q_s, -q_i) (Walborn et al., Phys. Rep. 495, 87, 2010), and
on the centred grid, with node c = N // 2 at q = 0, that is the point mirror
(s, i) -> (2c - s, 2c - i). The pair sums are written (m - 2c) dq, so the
pair-sum term is exactly even and a mirrored row is bitwise the streamed
one; ``JointAmplitude`` refuses a grid or terms without that symmetry. On
even N, row and column 0 have no mirror and are computed directly.
The oracle's detector-position phases exp(i q p) on the evenly spaced scan
positions are the product of two short tables.

Spatial scans are evaluated at one fixed frequency pair. The generation phase
exp(i L_z A / 2), kept with the amplitude on request, is that same sinc
argument and encodes the longitudinal birth position. Single-plane
intensities depend on it only weakly: transporting the phase-carrying
amplitude moves normalized oracle rates of the presets by up to 4.9e-4
(paper-config-2 signal-only; 2.7e-4 with both detectors together). The scan
routines consume the phase-stripped amplitude, which is why swapping the
phase factor for 1 reproduces scans bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import VACUUM_LIGHT_SPEED as C
from .core import (MAX_JOINT_SAMPLES, CrystalSpec, DetectionGeometry,
                   FrequencyPair, PumpSpec, centered_grid, frozen_array, sinc)
from .dispersion import IndexModel
from .errors import (GridCompatibilityError, SamplingGuardError,
                     ValidationError)
from .fields import AngularSpectrum, SampledField
from .phasematch import paraxial_mismatch_terms

SCAN_MODES = ("both-together", "signal-only", "idler-only")

# Joint-grid rows the oracle streams at a time. Its buffers then take a few
# MB; the both-together shear array is 128 x (N + 127) instead of
# N x (2N - 1), mostly zeros.
_STREAM_ROWS = 128

# Midpoint-rule samples across a detector slit of nonzero width.
_SLIT_SAMPLES = 8


def sample_pump_spectrum(spectrum: AngularSpectrum, q_values: np.ndarray) -> np.ndarray:
    """Pump spectrum amplitude at arbitrary q by complex linear interpolation.

    The spectrum is read only inside its grid, from its first node to its
    last; the FFT grid holds N/2 nodes below zero and N/2 - 1 above. Any q
    outside raises GridCompatibilityError with the q extent that a grid of
    the same step would need.
    """
    q_grid = spectrum.q
    flat = np.asarray(q_values, dtype=float).ravel()
    low, high = float(flat.min()), float(flat.max())
    if low < q_grid[0] or high > q_grid[-1]:
        raise GridCompatibilityError(
            f"pump spectrum grid [{q_grid[0]:.6g}, {q_grid[-1]:.6g}] rad/m cannot "
            f"supply q from {low:.6g} to {high:.6g} rad/m",
            required_q_extent=2.0 * (max(-low, high) + spectrum.dq))
    re = np.interp(flat, q_grid, spectrum.values.real)
    im = np.interp(flat, q_grid, spectrum.values.imag)
    return (re + 1j * im).reshape(np.shape(q_values))


@dataclass(frozen=True, eq=False)
class JointAmplitude:
    """Joint signal/idler amplitude on a symmetric (q_s, q_i) grid, kept factored.

    The amplitude is the pump at q_s + q_i times sinc(L A / 2), divided by
    the pump's peak magnitude ``pump_peak``, on the square grid q_signal x
    q_idler (one shared axis). Where the phase-matched cell sits at the pump
    peak, as on a designed crystal, the amplitude peaks at 1 to rounding;
    away from phase matching it peaks lower, with the generation efficiency.
    It is held as 1D factors: ``pump_sums``, the pump at the 2N-1 pair sums
    (index s + i), and the signal, idler and pair-sum terms of the sinc
    argument L A / 2. Scans stream the sinc a block of rows at a time
    (``sinc_rows``) and apply the pump and the normalization around their
    contractions; ``base_values`` fills the whole grid only when asked for.
    With ``include_phase`` the amplitude carries the generation phase
    exp(i L_z A / 2), whose argument is the sinc argument itself: ``phase``
    sums the three terms as ``sinc_rows`` does, and ``values`` recombines it
    with ``base_values``.
    """

    q_signal: np.ndarray
    pump_sums: np.ndarray
    signal_term: np.ndarray
    idler_term: np.ndarray
    pair_term: np.ndarray
    freqs: FrequencyPair
    include_phase: bool = False
    pump_peak: float = field(init=False, repr=False)

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
        object.__setattr__(self, "q_signal", q)
        # The scans stream half the grid and take the rest from its point
        # mirror (s, i) -> (2c - s, 2c - i), c = N // 2, which needs the
        # centred grid and exactly even sinc terms.
        step = -q[n // 2 - 1] if n >= 2 else 0.0
        if not (step > 0.0 and np.array_equal(q, centered_grid(n, step))):
            raise ValidationError("joint amplitude q_signal must be a centred uniform grid "
                                  "of at least 2 nodes, node N // 2 at q = 0")
        edge = _unmirrored(n)
        for name, start in (("signal_term", edge), ("idler_term", edge),
                            ("pair_term", 2 * edge)):
            line = getattr(self, name)[start:]
            if not np.array_equal(line, line[::-1], equal_nan=True):
                raise ValidationError(f"joint amplitude {name} must be even in q")
        peak = float(np.max(np.abs(self.pump_sums)))
        if peak == 0.0:
            raise ValidationError("joint amplitude is identically zero on this grid")
        object.__setattr__(self, "pump_peak", peak)

    @property
    def q_idler(self) -> np.ndarray:
        return self.q_signal

    def sinc_rows(self, start: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]
                  ) -> np.ndarray:
        """sinc(L A / 2) on the grid rows from ``start``.

        ``buffers`` are three rows x N arrays: float for the argument, float
        for the sinc and bool for the sinc's zero mask; the block holds as
        many rows as they have, up to the grid's last.
        """
        argument, profile, zeros = buffers
        n = self.q_signal.size
        count = min(argument.shape[0], n - start)
        block = np.add(self.signal_term[start:start + count, None], self.idler_term,
                       out=argument[:count])
        block += _hankel(self.pair_term[start:], n, count)
        return sinc(block, out=profile[:count], zeros=zeros[:count])

    @property
    def phase(self) -> np.ndarray | None:
        """The generation phase L_z A / 2 in rad on the whole grid, if kept."""
        if not self.include_phase:
            return None
        n = self.q_signal.size
        return self.signal_term[:, None] + self.idler_term + _hankel(self.pair_term, n)

    @property
    def base_values(self) -> np.ndarray:
        """The phase-stripped grid: the pump times all N ``sinc_rows`` at once."""
        n = self.q_signal.size
        grid = np.multiply(_hankel(self.pump_sums, n),
                           self.sinc_rows(0, _buffers(_row_layout(n, n))))
        # Real scalings act on the (re, im) float pairs, sparing complex arithmetic.
        grid.view(float)[...] /= self.pump_peak
        return grid

    @property
    def values(self) -> np.ndarray:
        if self.phase is None:
            return self.base_values
        return np.exp(1j * self.phase) * self.base_values


def _unmirrored(n: int) -> int:
    """Nodes at the low end of a centred n-node axis that have no mirror image.

    Node j mirrors to 2c - j, c = n // 2; on even n node 0, at
    q = -(n / 2) dq, would mirror to node n, off the grid.
    """
    return 1 - n % 2


def _first_column(amplitude: JointAmplitude) -> np.ndarray:
    """sinc(L A / 2) down grid column 0, summed in the order of ``sinc_rows``."""
    n = amplitude.q_signal.size
    return sinc(amplitude.signal_term + amplitude.idler_term[0] + amplitude.pair_term[:n])


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
    if not (isinstance(samples, int) and 2 <= samples <= MAX_JOINT_SAMPLES):
        raise ValidationError(f"sample count must be an integer from 2 to "
                              f"{MAX_JOINT_SAMPLES}, got {samples!r}")
    # A positive extent can still be too small to part its samples.
    if not (math.isfinite(q_extent) and q_extent / samples > 0):
        raise ValidationError(f"q extent must part {samples} samples, got {q_extent!r}")
    return centered_grid(samples, q_extent / samples)


def build_joint_amplitude(pump_spectrum: AngularSpectrum, pump: PumpSpec,
                          crystal: CrystalSpec, freqs: FrequencyPair,
                          model: IndexModel, *, q_extent: float, samples: int,
                          include_phase: bool = True) -> JointAmplitude:
    """Joint amplitude, in its 1D factors, from a pump spectrum at the crystal plane.

    Every node (q_s, q_i) needs the pump component at q_s + q_i, so the pump
    spectrum grid must hold every pair sum (``sample_pump_spectrum`` reports
    the q extent it needs otherwise). On the uniform grid that sum takes
    2N-1 values, so the pump is interpolated once per value, to be read
    through a Hankel view. The sinc argument L A / 2 is likewise kept as 1D
    terms, a signal term plus an idler term plus a pair-sum term read through
    the same Hankel view (``paraxial_mismatch_terms``). No N x N grid is
    filled here. ``pump`` is accepted but no computation reads it: the
    pump's field is already in ``pump_spectrum``. ``include_phase`` marks
    the amplitude as carrying the generation phase, the sinc argument,
    which ``JointAmplitude.phase`` sums from the same three terms on request.
    """
    q = symmetric_q_grid(q_extent, samples)
    q_sum = _pair_sums(q)
    pump_sums = sample_pump_spectrum(pump_spectrum, q_sum)
    constant, a_signal, a_idler, a_pump = paraxial_mismatch_terms(
        freqs, q, q, crystal, model)
    half_length = 0.5 * crystal.length
    return JointAmplitude(q_signal=q, pump_sums=pump_sums,
                          signal_term=(constant + a_signal * q * q) * half_length,
                          idler_term=a_idler * q * q * half_length,
                          pair_term=-a_pump * q_sum * q_sum * half_length,
                          freqs=freqs, include_phase=include_phase)


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Normalized coincidence rate versus detector position, and how it was made.

    ``rates`` are normalized to unit maximum at strictly increasing
    ``positions``; ``normalization_peak`` is the raw peak, ``method`` the
    route ("analytic" or "oracle") and ``warnings`` its regime or grid-sizing
    warnings. The detection geometry is the config's, not copied here.
    """

    positions: np.ndarray
    rates: np.ndarray
    mode: str
    method: str
    normalization_peak: float
    warnings: tuple[str, ...] = ()

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


def scan_positions(geometry: DetectionGeometry) -> np.ndarray:
    """Detector positions spanning +- scan_range/2 in scan_step increments."""
    steps = round(geometry.scan_range / geometry.scan_step)
    return np.linspace(-0.5 * geometry.scan_range, 0.5 * geometry.scan_range,
                       steps + 1)


def _slit_offsets(slit_width: float) -> np.ndarray:
    """Midpoint-rule sample offsets across one detector slit."""
    if slit_width == 0.0:
        return np.zeros(1)
    return ((np.arange(_SLIT_SAMPLES) + 0.5) / _SLIT_SAMPLES - 0.5) * slit_width


def _mean_position_map(mode: str, positions: np.ndarray) -> np.ndarray:
    """R = (p_s + p_i)/2 for the detector motion pattern of each scan mode."""
    if mode == "both-together":
        return positions
    return 0.5 * positions


def _finalize(positions: np.ndarray, raw: np.ndarray, mode: str, method: str,
              warnings: tuple[str, ...]) -> ScanResult:
    """ScanResult of ``raw`` over its peak, with ``method``, ``normalization_peak``
    and ``warnings`` set; the detection geometry stays with the config."""
    peak = float(np.max(raw))
    if peak <= 0.0:
        raise ValidationError("scan produced no signal; grids or geometry are inconsistent")
    return ScanResult(positions=positions, rates=raw / peak, mode=mode, method=method,
                      normalization_peak=peak, warnings=warnings)


def coincidence_scan_analytic(profile: SampledField, geometry: DetectionGeometry,
                              mode: str, *, warnings: tuple[str, ...] = ()) -> ScanResult:
    """Transfer-law scan: |W(R)|^2 sampled from the detection-plane pump profile.

    Valid in the nearly collinear regime, which this routine does not judge;
    ``warnings`` (the caller's regime verdict) are attached to the result.
    The curve is averaged over the detector slit (midpoint rule).
    """
    if mode not in SCAN_MODES:
        raise ValidationError(f"scan mode must be one of {SCAN_MODES}, got {mode!r}")
    positions = scan_positions(geometry)
    offsets = _slit_offsets(geometry.slit_width)
    sample_points = _mean_position_map(mode, positions[:, None] + offsets[None, :])
    x = profile.x
    if sample_points.min() < x[0] or sample_points.max() > x[-1]:
        reach = float(np.max(np.abs(sample_points)))
        # np.ceil keeps an unbounded reach infinite, where math.ceil raises.
        needed_mm = np.ceil(2e6 * reach / (1.0 - 2.0 / x.size)) / 1e3
        raise GridCompatibilityError(
            f"the scan reads the pump profile out to |x| = {reach * 1e3:.6g} mm, "
            f"beyond its grid [{x[0] * 1e3:.6g}, {x[-1] * 1e3:.6g}] mm; "
            f"grid_extent_mm must be at least {needed_mm:g}")
    intensity = np.interp(sample_points.ravel(), x, profile.intensity).reshape(
        sample_points.shape)
    raw = intensity.mean(axis=1)
    return _finalize(positions, raw, mode, "analytic", warnings)


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
    """The 2N-1 distinct values of q_s + q_i on the centred grid, index m = s + i.

    Each is (m - 2c) dq with c = N // 2, so the line is exactly odd about
    m = 2c, the sum of two q = 0 nodes.
    """
    n = q.size
    return (np.arange(2 * n - 1) - 2 * (n // 2)) * -q[n // 2 - 1]


def _hankel(line: np.ndarray, n: int, rows: int | None = None) -> np.ndarray:
    """Read-only rows x n view (n x n by default) with [s, i] = line[s + i]."""
    rows = n if rows is None else rows
    if line.size < rows + n - 1:
        raise ValueError("Hankel view would read past the end of its line")
    step = line.strides[0]
    return as_strided(line, shape=(rows, n), strides=(step, step), writeable=False)


def _one_scanned(amplitude: JointAmplitude, positions: np.ndarray,
                 offsets: np.ndarray, chirp_scanned: np.ndarray,
                 chirp_fixed: np.ndarray) -> np.ndarray:
    """Amplitudes [scanned offset x fixed offset, scan position], one detector scanned.

    The grid's rows belong to the scanned photon (an idler scan is handed
    the amplitude with its signal and idler terms swapped). Every row is
    pumped and contracted with the fixed detector's phases, and the
    normalization is applied to the contraction; the scanned detector's
    phase exp(i q (P + o)) splits into a per-position and a per-offset
    factor. Only the sinc rows 0..c, c = N // 2, are streamed: the sinc
    argument is even under (q_s, q_i) -> (-q_s, -q_i), so on the centred
    grid row 2c - s is row s reversed, and each block's rows below the
    centre are pumped from the reversed view of the block before it is
    overwritten. On even N, column 0 has no mirror; the mirrored rows take
    it from ``_first_column``.
    """
    q = amplitude.q_signal
    n = q.size
    c = n // 2
    edge = _unmirrored(n)
    rows = min(_STREAM_ROWS, c + 1)
    offset_phases = _expi(np.multiply.outer(q, offsets))
    fixed_phases = offset_phases * chirp_fixed[:, None]
    n_off = offsets.size
    *buffers, block, fixed, weighted, table, detected = _buffers(_row_layout(rows, n) + (
        ((rows, n), complex), ((n, n_off), complex), ((n, n_off, n_off), complex),
        ((n, positions.size), complex), ((n_off * n_off, positions.size), complex)))
    pump = amplitude.pump_sums
    column = _first_column(amplitude) if edge else None
    for start in range(0, c + 1, rows):
        block_sinc = amplitude.sinc_rows(start, [b[:c + 1 - start] for b in buffers])
        count = block_sinc.shape[0]
        pumped = np.multiply(_hankel(pump[start:], n, count), block_sinc, out=block[:count])
        np.matmul(pumped, fixed_phases, out=fixed[start:start + count])
        # Rows low..high-1 mirror to rows top..2c-low, in that order reversed.
        low, high = max(start, edge), min(start + count, c)
        if low < high:
            mirrored = high - low
            top = 2 * c - high + 1
            reversed_sinc = block_sinc[low - start:high - start][::-1, edge:][:, ::-1]
            np.multiply(_hankel(pump[top + edge:], n - edge, mirrored), reversed_sinc,
                        out=block[:mirrored, edge:])
            if edge:
                np.multiply(pump[top:top + mirrored], column[top:top + mirrored],
                            out=block[:mirrored, 0])
            np.matmul(block[:mirrored], fixed_phases, out=fixed[top:top + mirrored])
    fixed.view(float)[...] /= amplitude.pump_peak
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

    Only rows 0..c, c = N // 2, are streamed. The sinc and both chirps are
    even under (q_s, q_i) -> (-q_s, -q_i), and on the centred grid that maps
    (s, i) to (2c - s, 2c - i), m to 4c - m and, since exp(i q_s delta) is
    odd, the offset difference d to D - 1 - d. So the rows s < c that have a
    mirror are contracted into a second accumulator M, which adds to S both
    as it is and as S[d, m] += M[D - 1 - d, 4c - m]; rows without a mirror
    (row c, which is its own, and row 0 on even N) go to S alone. On even N
    column 0 has no mirror either: it is left out of every block and added
    from ``_first_column``. M shares the memory of ``terms``, which is
    written only after M is folded into S.
    """
    q = amplitude.q_signal
    n = q.size
    c = n // 2
    edge = _unmirrored(n)
    n_off = offsets.size
    differences = np.concatenate((offsets[0] - offsets[:0:-1], offsets - offsets[0]))
    signal_phases = _expi(np.multiply.outer(differences, q))
    signal_phases *= chirp_signal
    rows = min(_STREAM_ROWS, c + 1)
    *buffers, work, product, s, terms, table, detected = _buffers(_row_layout(rows, n) + (
        ((rows, rows + n - 1), complex), ((differences.size, rows + n - 1), complex),
        ((differences.size, 2 * n - 1), complex), ((n_off, n_off, 2 * n - 1), complex),
        ((2 * n - 1, positions.size), complex), ((n_off * n_off, positions.size), complex)))
    mirror = terms.reshape(-1, 2 * n - 1)[:differences.size]
    work.fill(0.0)
    s.fill(0.0)
    mirror.fill(0.0)
    for start in range(0, c + 1, rows):
        block_sinc = amplitude.sinc_rows(start, [b[:c + 1 - start] for b in buffers])
        count = block_sinc.shape[0]
        sheared = work[:count, :count + n - 1]
        diagonals = as_strided(sheared, shape=block_sinc.shape,
                               strides=(sheared.strides[0] + sheared.strides[1],
                                        sheared.strides[1]))
        np.multiply(block_sinc, chirp_idler, out=diagonals)
        if edge:
            diagonals[:, 0] = 0.0
        low, high = max(start, edge), min(start + count, c)
        for first, last, into in ((start, low, s), (low, high, mirror),
                                  (high, start + count, s)):
            if first < last:
                band = np.matmul(signal_phases[:, first:last],
                                 sheared[first - start:last - start,
                                         first - start:last - start + n - 1],
                                 out=product[:, :last - first + n - 1])
                into[:, first:last + n - 1] += band
    s += mirror
    s[:, 2 * edge:] += mirror[::-1, 2 * edge:][:, ::-1]
    if edge:
        edge_column = np.multiply(signal_phases, _first_column(amplitude) * chirp_idler[0],
                                  out=product[:, :n])
        s[:, :n] += edge_column
    s *= amplitude.pump_sums / amplitude.pump_peak
    q_sum = _pair_sums(q)
    a_minus_b = np.subtract.outer(np.arange(n_off), np.arange(n_off)) + n_off - 1
    np.take(s, a_minus_b, axis=0, out=terms)
    terms *= _expi(np.multiply.outer(offsets, q_sum))
    return np.matmul(terms.reshape(-1, 2 * n - 1), _position_phases(q_sum, positions, table),
                     out=detected)


def coincidence_scan_oracle(amplitude: JointAmplitude, geometry: DetectionGeometry,
                            mode: str, *, warnings: tuple[str, ...] = ()) -> ScanResult:
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
    offsets = _slit_offsets(geometry.slit_width)
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
        detected = _one_scanned(amplitude, positions, offsets, chirp_signal, chirp_idler)
    else:
        # Swapping the signal and idler terms transposes the grid exactly,
        # since float addition commutes and the pump and pair-sum factors
        # depend on s + i alone: the idler's rows become the signal's.
        swapped = replace(amplitude, signal_term=amplitude.idler_term,
                          idler_term=amplitude.signal_term)
        detected = _one_scanned(swapped, positions, offsets, chirp_idler, chirp_signal)
    raw = (np.abs(detected) ** 2).mean(axis=0)
    return _finalize(positions, raw, mode, "oracle", warnings)


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
