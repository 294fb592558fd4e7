import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpmspdc.core import (CrystalSpec, DetectionGeometry, FrequencyPair,
                          PumpSpec, VACUUM_LIGHT_SPEED, angular_frequency,
                          sinc, vacuum_wavelength)
from qpmspdc.errors import ValidationError

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_zero_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_half_pi(self):
        assert sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_array_input(self):
        out = sinc(np.array([0.0, math.pi / 2, math.pi]))
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_buffers_match_allocating_call(self):
        x = np.array([[0.0, -2.5, math.pi], [1e-9, 0.0, 7.0]])
        out, zeros = np.empty_like(x), np.empty(x.shape, dtype=bool)
        result = sinc(x, out=out, zeros=zeros)
        assert result is out
        assert np.array_equal(out, sinc(x))
        assert np.array_equal(zeros, x == 0.0)

    @given(finite_floats)
    def test_even(self, x):
        assert sinc(x) == pytest.approx(sinc(-x), abs=1e-15)

    @given(finite_floats)
    def test_bounded(self, x):
        assert abs(sinc(x)) <= 1.0

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_strictly_below_one_away_from_zero(self, x):
        assert abs(sinc(x)) < 1.0


class TestAngularFrequency:
    def test_pump_wavelength(self):
        omega = angular_frequency(413e-9)
        assert omega == 2.0 * math.pi * VACUUM_LIGHT_SPEED / 413e-9
        assert omega == pytest.approx(4.5609e15, rel=1e-4)

    def test_degenerate_wavelength_is_half(self):
        assert angular_frequency(826e-9) == pytest.approx(
            angular_frequency(413e-9) / 2.0, rel=1e-15)

    @given(st.floats(min_value=1e-9, max_value=1e-3))
    def test_round_trip(self, wavelength):
        assert vacuum_wavelength(angular_frequency(wavelength)) == pytest.approx(
            wavelength, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValidationError):
            angular_frequency(bad)


def _crystal(**overrides):
    base = dict(length=9.6e-3, poling_period=11.4617e-6, duty_cycle=0.5,
                qpm_order=1, temperature_c=40.0)
    base.update(overrides)
    return CrystalSpec(**base)


class TestCrystalSpec:
    def test_valid(self):
        crystal = _crystal()
        assert crystal.length == 9.6e-3

    def test_infinite_poling_period_allowed(self):
        assert _crystal(poling_period=math.inf).poling_period == math.inf

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_nonpositive_length(self, value):
        with pytest.raises(ValidationError):
            _crystal(length=value)

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_nonpositive_poling_period(self, value):
        with pytest.raises(ValidationError):
            _crystal(poling_period=value)

    @given(st.one_of(st.floats(max_value=0.0, allow_nan=False),
                     st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)))
    def test_rejects_duty_cycle_outside_open_interval(self, value):
        with pytest.raises(ValidationError):
            _crystal(duty_cycle=value)

    @pytest.mark.parametrize("order", [0, -1, 2.0, "1"])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValidationError):
            _crystal(qpm_order=order)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValidationError):
            _crystal(pump_axis="a")

    def test_type_ii_requires_distinct_axes(self):
        with pytest.raises(ValidationError):
            _crystal(signal_axis="y", idler_axis="y", type_ii=True)
        _crystal(signal_axis="y", idler_axis="z", type_ii=True)


class TestPumpSpec:
    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_nonpositive_wavelength(self, value):
        with pytest.raises(ValidationError):
            PumpSpec(center_wavelength=value, waist_radius=1e-3)

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_nonpositive_waist(self, value):
        with pytest.raises(ValidationError):
            PumpSpec(center_wavelength=413e-9, waist_radius=value)

    @given(st.floats(max_value=0.0, allow_nan=False))
    @example(math.inf)
    def test_rejects_nonpositive_pulse(self, value):
        with pytest.raises(ValidationError):
            PumpSpec(center_wavelength=413e-9, waist_radius=1e-3,
                     pulse_duration=value)


def _geometry(**overrides):
    base = dict(distance=0.5, slit_width=1e-4, scan_range=4e-3, scan_step=5e-5)
    base.update(overrides)
    return DetectionGeometry(**base)


class TestDetectionGeometry:
    def test_valid(self):
        assert _geometry().distance == 0.5

    def test_zero_slit_allowed(self):
        assert _geometry(slit_width=0.0).slit_width == 0.0

    @pytest.mark.parametrize("field,value", [
        ("distance", 0.0), ("distance", -1.0), ("slit_width", -1e-6),
        ("scan_step", 0.0), ("scan_step", 1e-323),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValidationError):
            _geometry(**{field: value})

    def test_step_must_not_exceed_range(self):
        with pytest.raises(ValidationError):
            _geometry(scan_range=1e-5, scan_step=5e-5)

    def test_step_must_divide_range(self):
        # 2 mm in 0.03 mm steps is 66.67 steps; nothing may snap it silently.
        with pytest.raises(ValidationError, match="nearest valid step is 2.98507"):
            _geometry(scan_range=2e-3, scan_step=3e-5)
        assert _geometry(scan_range=2e-3, scan_step=2e-3 / 67).scan_step == 2e-3 / 67

    def test_position_count_capped(self):
        assert _geometry(scan_range=2e-3, scan_step=2e-7).scan_step == 2e-7
        with pytest.raises(ValidationError, match="gives 20001 positions; at most 10001"):
            _geometry(scan_range=2e-3, scan_step=1e-7)



class TestFrequencyPair:
    def test_degenerate_exact_zero_detuning(self):
        pair = FrequencyPair.degenerate(angular_frequency(413e-9))
        assert pair.omega_signal == pair.omega_idler
        assert pair.omega_pump == angular_frequency(413e-9)

    # Below 2**-1021 half of w is subnormal and drops w's last bit.
    @given(st.floats(min_value=2.0**-1021, allow_infinity=False))
    def test_degenerate_pair_sums_to_its_pump_bitwise(self, omega):
        assert FrequencyPair.degenerate(omega).omega_pump == omega

    @given(st.floats(min_value=0.40e-6, max_value=1.58e-6))
    def test_half_frequency_pair_sums_to_the_pump_bitwise(self, wavelength):
        # angular_frequency(2 lambda) is angular_frequency(lambda) / 2
        # exactly, so the degenerate design pair gives back the pump's double.
        half = angular_frequency(2.0 * wavelength)
        assert FrequencyPair(half, half).omega_pump == angular_frequency(wavelength)

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_nonpositive_frequencies(self, value):
        with pytest.raises(ValidationError):
            FrequencyPair(omega_signal=value, omega_idler=1e15)
        with pytest.raises(ValidationError):
            FrequencyPair(omega_signal=1e15, omega_idler=value)
