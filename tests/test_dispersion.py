import numpy as np
import pytest

from qpmspdc.dispersion import ConstantIndexModel, TabulatedIndexModel
from qpmspdc.errors import ValidationError, WavelengthWindowError
from qpmspdc.phasematch import design_poling_period

# Frozen from an independent re-evaluation of the published coefficient set
# (sympy script).
N_826_Z_40 = 1.8428295092249882
N_413_Y_40 = 1.8350023711397159


class TestConstantModel:
    def test_constant_everywhere(self):
        model = ConstantIndexModel(1.5)
        assert model.index(413e-9, "x", 20.0) == 1.5
        assert model.index(826e-9, "z", 80.0) == 1.5

    def test_unity_allowed_for_analytic_checks(self):
        assert ConstantIndexModel(1.0).index(500e-9, "y", 25.0) == 1.0

    def test_rejects_below_unity(self):
        with pytest.raises(ValidationError):
            ConstantIndexModel(0.9)

    def test_index_above_ten_is_non_physical(self):
        with pytest.raises(ValidationError, match="non-physical n = 1e"):
            ConstantIndexModel(1e300).index(500e-9, "y", 25.0)


class TestKtpModel:
    def test_frozen_oracle_values(self, ktp):
        assert ktp.index(826e-9, "z", 40.0) == pytest.approx(N_826_Z_40, abs=1e-9)
        assert ktp.index(413e-9, "y", 40.0) == pytest.approx(N_413_Y_40, abs=1e-9)

    def test_window_is_enforced(self, ktp):
        lo, hi = ktp.window("y")
        with pytest.raises(WavelengthWindowError) as err:
            ktp.index(lo * 0.9, "y", 40.0)
        assert err.value.window == (lo, hi)
        with pytest.raises(WavelengthWindowError):
            ktp.index(hi * 1.1, "y", 40.0)

    def test_rejects_unknown_axis(self, ktp):
        with pytest.raises(ValidationError):
            ktp.index(826e-9, "q", 40.0)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("temperature", [25.0, 40.0])
    def test_monotone_decreasing_over_window(self, ktp, axis, temperature):
        lo, hi = ktp.window(axis)
        wavelengths = np.linspace(lo, hi, 400)
        values = [ktp.index(w, axis, temperature) for w in wavelengths]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_temperature_raises_index(self, ktp):
        # Positive thermo-optic coefficients at visible wavelengths.
        assert ktp.index(826e-9, "z", 60.0) > ktp.index(826e-9, "z", 20.0)


class TestTabulatedModel:
    def _write_table(self, path, records):
        path.write_text("\n".join(records) + "\n", encoding="utf-8")
        return path

    def test_from_file_interpolates(self, tmp_path):
        table = self._write_table(tmp_path / "table.txt", [
            "# wavelength_nm axis index",
            "400 y 1.90",
            "800 y 1.80",
            "400 z 1.95",
            "800 z 1.85",
        ])
        model = TabulatedIndexModel.from_file(table)
        lo, hi = model.window("y")
        assert lo == pytest.approx(400e-9, rel=1e-15)
        assert hi == pytest.approx(800e-9, rel=1e-15)
        assert model.index(lo, "y", 25.0) == 1.90
        assert model.index(hi, "y", 25.0) == 1.80
        assert model.index(0.5 * (lo + hi), "y", 25.0) == pytest.approx(1.85, rel=1e-12)

    def test_no_extrapolation(self, tmp_path):
        table = self._write_table(tmp_path / "table.txt",
                                  ["400 y 1.9", "800 y 1.8"])
        model = TabulatedIndexModel.from_file(table)
        with pytest.raises(WavelengthWindowError):
            model.index(399e-9, "y", 25.0)
        with pytest.raises(WavelengthWindowError):
            model.index(801e-9, "y", 25.0)

    def test_missing_axis_is_error(self, tmp_path):
        table = self._write_table(tmp_path / "table.txt",
                                  ["400 y 1.9", "800 y 1.8"])
        model = TabulatedIndexModel.from_file(table)
        with pytest.raises(ValidationError):
            model.index(500e-9, "z", 25.0)

    @pytest.mark.parametrize("bad_line", [
        "400 y", "400 w 1.9", "400 y one", "400 y 0.99",
    ])
    def test_rejects_bad_records(self, tmp_path, bad_line):
        table = self._write_table(tmp_path / "table.txt",
                                  ["400 y 1.9", "800 y 1.8", bad_line])
        with pytest.raises(ValidationError):
            TabulatedIndexModel.from_file(table)

    def test_pluggability_reproduces_design(self, tmp_path, ktp):
        # A table holding the default model's own values at the sample points
        # must reproduce the poling-period design to 1e-9 relative.
        records = []
        for axis in ("y", "z"):
            for nm in (412.0, 413.0, 414.0, 825.0, 826.0, 827.0):
                records.append(f"{nm} {axis} {ktp.index(nm * 1e-9, axis, 40.0)!r}")
        model = TabulatedIndexModel.from_file(
            self._write_table(tmp_path / "ktp_snapshot.txt", records))
        kwargs = dict(pump_axis="y", signal_axis="y", idler_axis="z",
                      temperature_c=40.0, qpm_order=1)
        reference = design_poling_period(413e-9, 826e-9, 826e-9, model=ktp, **kwargs)
        substituted = design_poling_period(413e-9, 826e-9, 826e-9, model=model, **kwargs)
        assert substituted == pytest.approx(reference, rel=1e-9)
