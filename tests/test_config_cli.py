import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import rewrite
from hypothesis import example, given
from hypothesis import strategies as st

from qpmspdc import cli
from qpmspdc.biphoton import detector_samples
from qpmspdc.config import (PRESET_NAMES, _exact_unit_value, load_scenario,
                            parse_scenario_text, scenario_to_text)
from qpmspdc.core import DetectionGeometry
from qpmspdc.dispersion import KtpIndexModel
from qpmspdc.errors import (ConfigError, GuardError, ParaxialityError,
                            SimulationError, ValidationError,
                            WavelengthWindowError)
from qpmspdc.fields import MultiSlitAperture, ThinLens
from qpmspdc.phasematch import CONVENTIONS, efficiency_drop_over_scan, maker_efficiency
from qpmspdc.scenarios import (_regime_warnings, auto_joint_grid, degenerate_pair,
                               joint_amplitude, pump_spectrum, run_coincidence)

MINIMAL = """
[crystal]
length_mm = 9.6
poling_period_um = 11.4617
temperature_c = 40

[pump]
wavelength_nm = 413
waist_mm = 0.5

[detection]
distance_mm = 500
slit_width_mm = 0.1
scan_range_mm = 2.0
scan_step_mm = 0.02
"""


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "qpmspdc.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class TestParsing:
    def test_minimal_config(self):
        config = parse_scenario_text(MINIMAL)
        assert config.crystal.length == pytest.approx(9.6e-3)
        assert config.crystal.poling_period == pytest.approx(11.4617e-6)
        assert config.detection.scan_step == pytest.approx(2e-5)
        assert config.numerics.grid_samples == 4096
        assert config.dispersion.kind == "ktp"
        assert config.elements == ()

    def test_design_token_resolves_poling_period(self):
        config = parse_scenario_text(rewrite(MINIMAL, poling_period_um="design"))
        assert config.crystal.poling_period == pytest.approx(11.468676e-6, rel=1e-6)

    def test_cw_pump(self):
        # The format has no pump timing key; every parsed pump is CW.
        assert parse_scenario_text(MINIMAL).pump.pulse_duration is None

    @pytest.mark.parametrize("mutate,needle", [
        (lambda t: t + "\n[mystery]\nvalue = 1\n", "unknown section"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm = 9.6\nwidth_mm = 1"),
         "unknown key"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm = 9.6\nlength_mm = 2"),
         "duplicate key"),
        (lambda t: t.replace("length_mm = 9.6\n", ""), "missing required key"),
        (lambda t: t.replace("[pump]\n", ""), ""),
        (lambda t: rewrite(t, length_mm="long"), "number"),
        (lambda t: t.replace("[crystal]", "stray = 1\n[crystal]"), "outside"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm"), "key = value"),
    ])
    def test_strict_errors(self, mutate, needle):
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(mutate(MINIMAL))
        assert needle in str(err.value)

    def test_readme_example_is_preset_1(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example = readme.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_scenario_text(example) == load_scenario("paper-config-1")

    def test_embedded_invariants_revalidated(self):
        with pytest.raises(ConfigError):
            parse_scenario_text(rewrite(MINIMAL, length_mm="-1"))

    def test_element_sections(self):
        text = MINIMAL + (
            "\n[element.2]\ntype = multi_slit\nposition_mm = -10\n"
            "slit_width_um = 100\nseparation_um = 200\nslit_count = 2\n"
            "\n[element.1]\ntype = lens\nposition_mm = -30\nfocal_length_mm = 500\n")
        config = parse_scenario_text(text)
        assert len(config.elements) == 2
        (z1, first), (z2, second) = config.elements
        assert isinstance(first, ThinLens) and z1 == pytest.approx(-0.03)
        assert isinstance(second, MultiSlitAperture) and z2 == pytest.approx(-0.01)

    def test_bad_element_section_name(self):
        with pytest.raises(ConfigError):
            parse_scenario_text(MINIMAL + "\n[element.zero]\ntype = lens\n"
                                          "position_mm = -30\nfocal_length_mm = 500\n")

    def test_unknown_dispersion_model(self):
        text = MINIMAL + "\n[dispersion]\nmodel = glass\n"
        with pytest.raises(ConfigError):
            parse_scenario_text(text)


def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def config_texts(draw):
    """Valid scenario text over every section and key the parser accepts.

    Most draws march the pump: its degenerate pair lies inside the KTP
    window, the grid spans at least 8 waists, and the elements sit in order
    between the waist and the crystal. extreme_config_texts() draws the
    refusals.
    """
    step = draw(_num(1e-3, 1.0))
    waist = draw(_num(0.01, 10.0))
    waist_position = draw(_num(-1000.0, 0.0))
    lines = [
        "[crystal]",
        f"length_mm = {draw(_num(0.01, 100.0))!r}",
        f"poling_period_um = {draw(_num(0.1, 100.0))!r}",
        f"duty_cycle = {draw(_num(0.01, 0.99))!r}",
        f"qpm_order = {draw(st.integers(1, 9))}",
        f"temperature_c = {draw(_num(-50.0, 200.0))!r}",
        f"pump_axis = {draw(st.sampled_from('xyz'))}",
        f"signal_axis = {draw(st.sampled_from('xyz'))}",
        f"idler_axis = {draw(st.sampled_from('xyz'))}",
        "[pump]",
        # KTP's window is 400-1580 nm, so the degenerate pair at twice the
        # pump wavelength stays inside it.
        f"wavelength_nm = {draw(_num(400.0, 789.0))!r}",
        f"waist_mm = {waist!r}",
        f"waist_position_mm = {waist_position!r}",
        "[detection]",
        f"distance_mm = {draw(_num(1.0, 5000.0))!r}",
        f"slit_width_mm = {draw(_num(0.0, 1.0))!r}",
        f"scan_range_mm = {step * draw(st.integers(1, 400))!r}",
        f"scan_step_mm = {step!r}",
    ]
    positions = sorted(draw(st.lists(_num(waist_position, 0.0), max_size=3)))
    for index, position in enumerate(positions, start=1):
        lines += [f"[element.{index}]", f"position_mm = {position!r}"]
        if draw(st.booleans()):
            focal = draw(_num(1.0, 1e4) | _num(-1e4, -1.0))
            lines += ["type = lens", f"focal_length_mm = {focal!r}"]
        else:
            lines += ["type = multi_slit", f"slit_width_um = {draw(_num(1.0, 1e3))!r}",
                      f"separation_um = {draw(_num(0.0, 1e3))!r}",
                      f"slit_count = {draw(st.integers(1, 5))}"]
    model = draw(st.sampled_from(["ktp", "constant", "table"]))
    lines += ["[dispersion]", f"model = {model}"]
    if model == "constant":
        lines.append(f"constant_index = {draw(_num(1.0, 3.0))!r}")
    if model == "table":
        lines.append("table_path = tables/index.txt")
    lines += [
        "[numerics]",
        f"grid_samples = {2 ** draw(st.integers(8, 14))}",
        # Past 8 waists by a margin that survives the unit conversion.
        f"grid_extent_mm = {waist * draw(_num(8.5, 40.0))!r}",
        f"angle_convention = {draw(st.sampled_from(CONVENTIONS))}",
        f"normalize = {draw(st.sampled_from(['true', 'false']))}",
    ]
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets_round_trip(self, preset):
        config = load_scenario(preset)
        assert parse_scenario_text(scenario_to_text(config)) == config

    def test_custom_config_round_trips(self):
        text = MINIMAL + (
            "\n[element.1]\ntype = multi_slit\nposition_mm = -11.7\n"
            "slit_width_um = 93\nseparation_um = 212.5\nslit_count = 3\n"
            "\n[dispersion]\nmodel = constant\nconstant_index = 1.83\n"
            "\n[numerics]\ngrid_samples = 2048\ngrid_extent_mm = 17.3\n"
            "angle_convention = internal\nnormalize = false\n")
        config = parse_scenario_text(text)
        assert parse_scenario_text(scenario_to_text(config)) == config

    @given(config_texts())
    def test_generated_configs_round_trip(self, text):
        config = parse_scenario_text(text)
        assert parse_scenario_text(scenario_to_text(config)) == config

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/path.ini")

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.sampled_from([1e3, 1e6, 1e9, 1e15]))
    def test_unit_serialization_is_exact(self, human_value, divisor):
        # Any SI value that entered through the parser (human_value / divisor)
        # must serialize back to a human-unit number that reparses identically.
        si_value = human_value / divisor
        recovered = _exact_unit_value(si_value, divisor)
        assert recovered / divisor == si_value


    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_designed_period_round_trips_over_temperatures(self, preset):
        # The 'design' token resolves to the value its micrometre text parses
        # to; the raw design value has no such text at 22 of these 601
        # temperatures (20.4 C among them).
        text = rewrite(scenario_to_text(load_scenario(preset)), poling_period_um="design")
        misses = []
        for step in range(601):
            temperature = round(20.0 + 0.1 * step, 1)
            config = parse_scenario_text(rewrite(text, temperature_c=repr(temperature)))
            if parse_scenario_text(scenario_to_text(config)) != config:
                misses.append(temperature)
        assert misses == []

    def test_value_without_unit_text_is_refused(self):
        # The design value at 20.4 C: no micrometre text parses to it, and the
        # nearest one reparses one ulp lower.
        with pytest.raises(ConfigError, match="parses back"):
            _exact_unit_value(1.1533854999905874e-05, 1e6)

    def test_pulsed_pump_is_not_serialized(self):
        # Dropping the pulse duration silently would change the configuration.
        config = parse_scenario_text(MINIMAL)
        pulsed = replace(config, pump=replace(config.pump, pulse_duration=200e-15))
        with pytest.raises(ConfigError, match="pulse_duration"):
            scenario_to_text(pulsed)


class TestTabulatedDispersionConfig:
    def test_design_through_table_model(self, tmp_path, ktp):
        records = []
        for axis in ("y", "z"):
            for nm in (412.0, 413.0, 414.0, 825.0, 826.0, 827.0):
                records.append(f"{nm} {axis} {ktp.index(nm * 1e-9, axis, 40.0)!r}")
        table = tmp_path / "ktp.txt"
        table.write_text("\n".join(records) + "\n", encoding="utf-8")
        text = MINIMAL + f"\n[dispersion]\nmodel = table\ntable_path = {table}\n"
        config = parse_scenario_text(text)
        from qpmspdc.scenarios import design_report

        report = design_report(config)
        assert report["poling_period"] == pytest.approx(11.468676e-6, rel=1e-6)


class TestRawOutput:
    def test_unnormalized_maker_curve_scaled_by_grating_coefficient(self, tmp_path):
        text = MINIMAL + "\n[numerics]\nnormalize = false\n"
        config = tmp_path / "raw.ini"
        config.write_text(rewrite(text, poling_period_um="design"), encoding="utf-8")
        out = tmp_path / "maker.csv"
        res = run_cli("maker-fringes", "--config", str(config),
                      "--out", str(out), "--alpha-step-deg", "0.05",
                      "--alpha-max-deg", "0.2")
        assert res.returncode == 0, res.stderr
        first = next(ln for ln in out.read_text().splitlines()
                     if ln and not ln.startswith(("#", "alpha")))
        import math

        assert float(first.split(",")[1]) == pytest.approx((2 / math.pi) ** 2,
                                                           rel=1e-12)


class TestCliMakerFringes:
    def test_curve_peaks_on_axis(self, tmp_path):
        out = tmp_path / "maker.csv"
        res = run_cli("maker-fringes", "--config", "paper-config-1",
                      "--out", str(out), "--alpha-step-deg", "0.01")
        assert res.returncode == 0, res.stderr
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("alpha")]
        alphas = np.array([float(r[0]) for r in rows])
        eff = np.array([float(r[1]) for r in rows])
        assert alphas[0] == 0.0
        assert eff[0] == pytest.approx(1.0, abs=1e-12)
        assert eff.max() == eff[0]
        half_deg = int(np.argmin(np.abs(alphas - math.radians(0.5))))
        assert eff[half_deg] < 0.5

    def test_nonpositive_step_exits_2(self, tmp_path):
        res = run_cli("maker-fringes", "--config", "paper-config-1",
                      "--out", str(tmp_path / "x.csv"), "--alpha-step-deg", "0")
        assert res.returncode == 2
        assert res.stderr.strip()

    def test_plot_file_written(self, tmp_path):
        out = tmp_path / "maker.csv"
        svg = tmp_path / "maker.svg"
        res = run_cli("maker-fringes", "--config", "paper-config-1",
                      "--out", str(out), "--alpha-step-deg", "0.02",
                      "--plot", str(svg))
        assert res.returncode == 0, res.stderr
        assert svg.read_text().startswith("<svg")


class TestCliDesignPoling:
    def test_report(self, tmp_path):
        out = tmp_path / "design.txt"
        res = run_cli("design-poling", "--config", "paper-config-1",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        report = dict(
            line.split(" = ") for line in out.read_text().splitlines()
            if " = " in line)
        period = float(report["poling_period_um"])
        assert abs(period - 11.4617) / 11.4617 < 0.05
        assert abs(float(report["collinear_residual_rad_per_m"])) < 1e-9
        assert float(report["n_pump"]) > 1.0

    def test_stdout_when_no_out(self):
        res = run_cli("design-poling", "--config", "paper-config-1")
        assert res.returncode == 0
        assert "poling_period_um" in res.stdout

    def test_constant_index_exits_3(self, tmp_path):
        config = tmp_path / "flat.ini"
        config.write_text(MINIMAL + "\n[dispersion]\nmodel = constant\n"
                                    "constant_index = 2.0\n", encoding="utf-8")
        res = run_cli("design-poling", "--config", str(config))
        assert res.returncode == 3
        assert "phase" in res.stderr.lower()

    def test_plot_is_refused(self, tmp_path):
        # design-poling draws nothing, so --plot is not one of its options.
        svg = tmp_path / "design.svg"
        res = run_cli("design-poling", "--config", "paper-config-1",
                      "--plot", str(svg))
        assert res.returncode == 2
        assert "unrecognized arguments: --plot" in res.stderr
        assert not svg.exists()

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_reports_the_period_the_scans_use(self, preset):
        # The report's period is the one a 'design' config resolves to, so
        # its residual is that of the crystal the scans use. The raw design
        # value is one ulp off it at about 5% of these temperatures (30-50 C
        # in 7 mK steps).
        from qpmspdc.scenarios import design_report

        text = rewrite(scenario_to_text(load_scenario(preset)), poling_period_um="design")
        misses = []
        for step in range(2858):
            temperature = round(30.0 + 0.007 * step, 3)
            config = parse_scenario_text(rewrite(text, temperature_c=repr(temperature)))
            if design_report(config)["poling_period"] != config.crystal.poling_period:
                misses.append(temperature)
        assert misses == []


class TestCliPumpPropagate:
    def test_bare_gaussian_width(self, tmp_path, ktp):
        config = tmp_path / "bare.ini"
        config.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "pump.csv"
        res = run_cli("pump-propagate", "--config", str(config), "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("x_m")]
        x = np.array([float(r[0]) for r in rows])
        intensity = np.array([float(r[1]) for r in rows])
        width = 2.0 * math.sqrt(float(np.sum(intensity * x**2) / np.sum(intensity)))
        waist = 0.5e-3
        rayleigh = math.pi * waist**2 / 413e-9
        n0 = ktp.index(413e-9, "y", 40.0)
        path_length = 9.6e-3 / n0 + 0.5
        expected = waist * math.sqrt(1.0 + (path_length / rayleigh) ** 2)
        assert width == pytest.approx(expected, rel=1e-4)

    def test_preset2_profile_is_fringed(self, tmp_path):
        out = tmp_path / "pump2.csv"
        res = run_cli("pump-propagate", "--config", "paper-config-2",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("x_m")]
        x = np.array([float(r[0]) for r in rows])
        intensity = np.array([float(r[1]) for r in rows])
        window = np.abs(x) < 2e-3
        signs = np.sign(np.diff(intensity[window]))
        flips = int(np.sum(np.abs(np.diff(signs)) > 1))
        assert flips >= 4  # several interior extrema: an interference pattern


class TestCliCoincidenceScan:
    def test_both_mode_reports_correlation(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_cli("coincidence-scan", "--config", "paper-config-1",
                      "--out", str(out), "--mode", "both")
        assert res.returncode == 0, res.stderr
        line = next(ln for ln in res.stdout.splitlines()
                    if ln.startswith("cross_correlation"))
        assert float(line.split(" = ")[1]) >= 0.98
        header = [ln for ln in out.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header == "p_m,rate,rate_companion"

    def test_one_index_model_per_command(self, tmp_path, capsys):
        # The preset's design poling period and the scan share one model.
        with mock.patch("qpmspdc.config.KtpIndexModel", wraps=KtpIndexModel) as make:
            code = cli.main(["coincidence-scan", "--config", "paper-config-1",
                             "--out", str(tmp_path / "scan.csv"), "--mode", "both"])
        assert code == 0, capsys.readouterr().err
        assert make.call_count == 1

    def test_regime_violation_warns_but_succeeds(self, tmp_path):
        config_text = _preset_with("distance_mm", "25.0")
        config = tmp_path / "close.ini"
        config.write_text(config_text, encoding="utf-8")
        out = tmp_path / "scan.csv"
        res = run_cli("coincidence-scan", "--config", str(config),
                      "--out", str(out), "--mode", "analytic")
        assert res.returncode == 0, res.stderr
        assert "warning:" in res.stderr
        assert "regime" in res.stderr

    def test_unknown_mode_exits_2(self, tmp_path):
        res = run_cli("coincidence-scan", "--config", "paper-config-1",
                      "--out", str(tmp_path / "x.csv"), "--mode", "guess")
        assert res.returncode == 2

    def test_bad_config_path_exits_2(self, tmp_path):
        res = run_cli("coincidence-scan", "--config", str(tmp_path / "nope.ini"),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2


class TestGuardExitCodes:
    def test_wavelength_outside_model_window_exits_3(self, tmp_path):
        config = tmp_path / "uv.ini"
        config.write_text(rewrite(MINIMAL, wavelength_nm="350"), encoding="utf-8")
        res = run_cli("maker-fringes", "--config", str(config),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "window" in res.stderr


def _preset_with(key, value):
    """Preset 1 as text, with its one ``key`` line set to value."""
    return rewrite(scenario_to_text(load_scenario("paper-config-1")), **{key: value})


class TestExitCodeContract:
    """Every failure inside a command leaves cli.main with 2 or 3, never a traceback."""

    def _main(self, capsys, *argv):
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return code, err

    @pytest.mark.parametrize("poling", ["11.4617", "design"])
    def test_missing_table_file_exits_2(self, tmp_path, capsys, poling):
        config = tmp_path / "table.ini"
        config.write_text(
            rewrite(MINIMAL, poling_period_um=poling)
            + f"\n[dispersion]\nmodel = table\ntable_path = {tmp_path / 'absent.txt'}\n",
            encoding="utf-8")
        code, err = self._main(capsys, "pump-propagate", "--config", str(config),
                               "--out", str(tmp_path / "pump.csv"))
        assert code == 2
        assert "table_path" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        code, err = self._main(capsys, "maker-fringes", "--config", "paper-config-1",
                               "--out", str(tmp_path / "missing" / "maker.csv"))
        assert code == 2
        assert "missing" in err

    def test_scan_step_not_dividing_range_exits_2(self, tmp_path, capsys):
        config = tmp_path / "step.ini"
        config.write_text(rewrite(MINIMAL, scan_step_mm="0.03"), encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                               "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "nearest valid step is 2.98507" in err

    @pytest.mark.parametrize("step,count", [("1e-300", "2e+300"), ("1e-7", "2e+07")])
    def test_too_many_scan_positions_exits_2(self, tmp_path, capsys, step, count):
        # Both steps divide the 2 mm range; the position count is refused at
        # load time, before a scan array (160 MB at 2e7 positions) exists.
        config = tmp_path / "step.ini"
        config.write_text(rewrite(MINIMAL, scan_step_mm=step), encoding="utf-8")
        tracemalloc.start()
        try:
            code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                                   "--out", str(tmp_path / "scan.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"gives {count} positions; at most 10001 are allowed" in err
        assert peak < 16 * 2**20
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("alpha_max,alpha_step,count", [
        ("1e300", "1e-300", "inf"), ("1e30", "1e-3", "1e+33"), ("1", "1e-5", "100001")])
    def test_too_many_maker_angles_exits_2(self, tmp_path, capsys, alpha_max, alpha_step,
                                           count):
        # The angle count is refused before an angle array exists; the first
        # two once raised OverflowError and ValueError from the allocation.
        tracemalloc.start()
        try:
            code, err = self._main(capsys, "maker-fringes", "--config", "paper-config-1",
                                   "--alpha-max-deg", alpha_max,
                                   "--alpha-step-deg", alpha_step,
                                   "--out", str(tmp_path / "maker.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"gives {count} angles; at most 10001 are allowed" in err
        assert peak < 16 * 2**20
        assert not (tmp_path / "maker.csv").exists()

    @pytest.mark.parametrize("key,value,command,needle", [
        ("grid_samples", "1125899906842624", ["pump-propagate"],
         "power of two up to 1048576, got 1125899906842624"),
        ("grid_samples", "1125899906842624", ["coincidence-scan", "--mode", "analytic"],
         "power of two up to 1048576, got 1125899906842624"),
        ("grid_samples", "1125899906842624", ["coincidence-scan", "--mode", "oracle"],
         "power of two up to 1048576, got 1125899906842624"),
    ])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, key, value, command, needle):
        # numpy refuses each of these sizes outright (MemoryError, or
        # OverflowError from the sample count); the cap refuses them first.
        config = tmp_path / "huge.ini"
        config.write_text(_preset_with(key, value), encoding="utf-8")
        code, err = self._main(capsys, *command, "--config", str(config),
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert needle in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", [
        ["design-poling"], ["pump-propagate"], ["maker-fringes"], ["coincidence-scan"]])
    @pytest.mark.parametrize("key,value,needle", [
        ("grid_extent_mm", "-20", "grid_extent_mm must be positive and finite, got -20"),
        ("grid_extent_mm", "0", "grid_extent_mm must be positive and finite, got 0"),
        ("grid_extent_mm", "nan", "grid_extent_mm must be positive and finite, got nan"),
        ("grid_extent_mm", "inf", "grid_extent_mm must be positive and finite, got inf"),
        ("grid_samples", "0", "grid_samples must be a power of two up to 1048576, got 0"),
        ("grid_samples", "3", "grid_samples must be a power of two up to 1048576, got 3"),
        ("grid_samples", "-4096",
         "grid_samples must be a power of two up to 1048576, got -4096")])
    def test_invalid_numerics_exits_2_at_load(self, tmp_path, capsys, command, key, value,
                                              needle):
        # These values once loaded: design-poling exited 0 on each, and the
        # pump march reported the extents as guard errors (exit 3).
        config = tmp_path / "numerics.ini"
        config.write_text(_preset_with(key, value), encoding="utf-8")
        code, err = self._main(capsys, *command, "--config", str(config),
                               "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert err == f"error: [numerics] {needle}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_positive_extent_too_small_for_the_waist_exits_3(self, tmp_path, capsys):
        config = tmp_path / "narrow.ini"
        config.write_text(_preset_with("grid_extent_mm", "1"), encoding="utf-8")
        code, err = self._main(capsys, "pump-propagate", "--config", str(config),
                               "--out", str(tmp_path / "out.csv"))
        assert code == 3
        assert "grid extent 0.001 m too small for waist" in err

    def test_wide_scan_oversizes_the_joint_grid_exits_2(self, tmp_path, capsys):
        # The automatic joint grid resolves the position phase of the outer
        # detector: 100 mm off axis, that needs 25600.3 samples a side.
        config = tmp_path / "wide.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")),
                                  scan_range_mm="200", scan_step_mm="2"), encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--mode", "oracle",
                               "--config", str(config), "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "needs 25600.3 samples; at most 16384 are allowed" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_unphysical_index_exits_2(self, tmp_path, capsys):
        # KTP's thermo-optic fit at 1e300 C gives n ~ 1e294, whose wavevector
        # n w / c overflows; the Maker curve was once all NaN, with exit 0.
        config = tmp_path / "hot.ini"
        config.write_text(_preset_with("temperature_c", "1e300"), encoding="utf-8")
        code, err = self._main(capsys, "maker-fringes", "--config", str(config),
                               "--out", str(tmp_path / "maker.csv"))
        assert code == 2
        assert "non-physical n" in err

    def test_analytic_scan_off_pump_grid_exits_3(self, tmp_path, capsys):
        # A 30 mm scan at 500 mm reads the detection-plane profile beyond the
        # preset's 20 mm pump grid; those rates were once silently 0.
        config = tmp_path / "wide.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")),
                                  scan_range_mm="30.0", scan_step_mm="0.1"),
                          encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                               "--out", str(tmp_path / "scan.csv"))
        assert code == 3
        assert "grid_extent_mm must be at least 30.103" in err

    def test_slit_between_samples_exits_3(self, tmp_path, capsys):
        # At 256 samples the 40 mm grid steps 156 um, and both 100 um slits
        # of paper-config-2 fall between samples; the blank field once
        # exited 2 with "field must carry positive total power".
        config = tmp_path / "coarse.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-2")),
                                  grid_samples="256"),
                          encoding="utf-8")
        code, err = self._main(capsys, "pump-propagate", "--config", str(config),
                               "--out", str(tmp_path / "pump.csv"))
        assert code == 3
        assert "slit 0.0001 m wide" in err and "step 0.0001563 m" in err
        assert "sample_count >= 512" in err

    def test_joint_grid_past_the_pump_spectrum_exits_3(self, tmp_path, capsys):
        # A q extent of pi * grid_samples / grid_extent is one pump step past
        # the spectrum's last node: 2 of the 1023 pair sums fall beyond it,
        # and were once read as 0 while the scan exited 0. The automatic grid
        # stops at that node, so the grid is patched in, as a grid study
        # would pass it to build_joint_amplitude.
        config = tmp_path / "reach.ini"
        config.write_text(_preset_with("grid_samples", "256"), encoding="utf-8")
        with mock.patch("qpmspdc.scenarios.auto_joint_grid",
                        return_value=(40212.385965949354, 512, ())):
            code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                                   "--out", str(tmp_path / "scan.csv"), "--mode", "oracle")
        assert code == 3
        assert "pump spectrum grid [-40212.4, 39898.2] rad/m cannot supply" in err

    @pytest.mark.parametrize("command,options,ratio", [
        ("maker-fringes", ["--alpha-max-deg", "80", "--alpha-step-deg", "1"], "0.5611"),
        ("coincidence-scan", ["--mode", "analytic"], "0.2732")],
        ids=["maker-fringes", "coincidence-scan"])
    def test_tight_paraxial_bound_reaches_every_guard(self, tmp_path, capsys, command,
                                                      options, ratio):
        # PARAXIAL_BOUND is the one bound, and both guards read it: an 80
        # degree Maker curve and a 10 mm scan at 10 mm pass it. The analytic
        # scan's efficiency-drop check once ignored the configured bound.
        config = tmp_path / "wide.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")),
                                  distance_mm="10", scan_range_mm="10.0", scan_step_mm="0.1"),
                          encoding="utf-8")
        code, err = self._main(capsys, command, *options, "--config", str(config),
                               "--out", str(tmp_path / "out.csv"))
        assert code == 3
        assert f"|q|/k = {ratio} exceeds bound 0.2000" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("geometry,ratio", [
        (dict(distance_mm="10", scan_range_mm="10.0", scan_step_mm="0.1"), "0.2732"),
        (dict(distance_mm="1e-317", scan_range_mm="1e-317", scan_step_mm="1e-317",
              slit_width_mm="0"), "0.2732")],
        ids=["10-mm-at-10-mm", "subnormal-scan"])
    def test_every_mode_gets_one_paraxial_verdict(self, tmp_path, capsys, geometry, ratio):
        # The oracle holds the analytic scan's angles to the paraxial guard
        # before it sizes its grid. It once ran the 10 mm scan to exit 0 with
        # a clipping warning, and turned the subnormal one (0.5 rad) into
        # "joint grid q extent nan rad/m" (exit 2). The drop's samples once
        # overshot that subnormal edge and reported 0.2781.
        config = tmp_path / "wide.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")), **geometry),
                          encoding="utf-8")
        for mode in ("oracle", "analytic", "both"):
            code, err = self._main(capsys, "coincidence-scan", "--mode", mode, "--config",
                                   str(config), "--out", str(tmp_path / "scan.csv"))
            assert code == 3, mode
            assert err == (f"error: paraxiality guard violated: |q|/k = {ratio} "
                           "exceeds bound 0.2000\n"), mode
            assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("geometry,code,message", [
        (dict(scan_range_mm="7.0", slit_width_mm="0.4"), 3,
         "paraxiality guard violated: |q|/k = 0.2047 exceeds bound 0.2000"),
        (dict(scan_range_mm="6.0", slit_width_mm="58", grid_extent_mm="80"), 2,
         "a detector point 0.028375 m off axis at 0.01 m passes 90 degrees")],
        ids=["slit-past-the-paraxial-bound", "slit-past-90-degrees"])
    def test_verdict_holds_the_outermost_slit_point(self, tmp_path, capsys, geometry, code,
                                                     message):
        # Both scans' edges pass the verdict, but their slits read further
        # out: to 3.675 mm, where |q|/k = 0.2047, and to 28.375 mm, 2.84 rad
        # at 10 mm, where the sine has wrapped back under the bound. Both
        # once exited 0 in every mode.
        config = tmp_path / "slit.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")),
                                  distance_mm="10", scan_step_mm="0.1", **geometry),
                          encoding="utf-8")
        for mode in ("oracle", "analytic", "both"):
            got, err = self._main(capsys, "coincidence-scan", "--mode", mode, "--config",
                                  str(config), "--out", str(tmp_path / "scan.csv"))
            assert (got, err) == (code, f"error: {message}\n"), mode
            assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("method", ["analytic", "oracle", "both"])
    def test_run_coincidence_judges_the_scan_once(self, method):
        config = load_scenario("paper-config-1")
        with mock.patch("qpmspdc.scenarios.efficiency_drop_over_scan",
                        wraps=efficiency_drop_over_scan) as verdict:
            run_coincidence(config, method=method)
        assert verdict.call_count == 1

    def test_joint_amplitude_refuses_a_scan_past_the_paraxial_bound(self):
        # auto_joint_grid only sizes; joint_amplitude judges the scan first.
        config = parse_scenario_text(rewrite(
            scenario_to_text(load_scenario("paper-config-1")),
            distance_mm="10", scan_range_mm="10.0", scan_step_mm="0.1"))
        with pytest.raises(ParaxialityError, match=r"\|q\|/k = 0\.2732 exceeds"):
            joint_amplitude(config, include_phase=False)

    def test_loose_paraxial_bound_reaches_the_analytic_scan(self, tmp_path, capsys):
        # A 7 mm scan at 10 mm stays inside PARAXIAL_BOUND (a 7.2 mm one
        # reaches |q|/k = 0.2007), so the guard lets the analytic scan run,
        # and its efficiency drop is flagged as a regime violation.
        config = tmp_path / "wide.ini"
        config.write_text(rewrite(scenario_to_text(load_scenario("paper-config-1")),
                                  distance_mm="10", scan_range_mm="7.0", scan_step_mm="0.1"),
                          encoding="utf-8")
        code = cli.main(["coincidence-scan", "--mode", "analytic", "--config", str(config),
                         "--out", str(tmp_path / "scan.csv")])
        assert code == 0, capsys.readouterr().err
        assert "regime violation" in (tmp_path / "scan.csv").read_text()

    @pytest.mark.parametrize("mode", ["oracle", "analytic"])
    def test_subnormal_distance_exits_2_naming_the_scan(self, tmp_path, capsys, mode):
        # The oracle's grid sizing once turned 1e-323 m into a NaN extent and
        # refused it as "joint grid q extent nan rad/m needs nan samples".
        config = tmp_path / "near.ini"
        config.write_text(_preset_with("distance_mm", "1e-320"), encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--mode", mode, "--config",
                               str(config), "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "a 0.002 m scan at 1e-323 m passes 90 degrees" in err

    @pytest.mark.parametrize("line", ["pulse_fs = 200", "cw = true"])
    def test_removed_pump_timing_key_exits_2(self, tmp_path, capsys, line):
        # Every command runs at the degenerate pair, where a pulse's spectral
        # envelope is exactly 1, so these keys changed no output.
        config = tmp_path / "old.ini"
        config.write_text(MINIMAL.replace("waist_mm = 0.5", f"waist_mm = 0.5\n{line}"),
                          encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--mode", "analytic",
                               "--config", str(config), "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert f"[pump] unknown key(s): {line.split()[0]}" in err

    @pytest.mark.parametrize("value", ["inf", "1e300", "1", "0", "-1", "nan"])
    def test_paraxial_bound_outside_unit_interval_exits_2(self, tmp_path, capsys, value):
        # inf, 1e300 and 1 once switched the paraxial guards off (exit 0 at
        # |q|/k = 0.56 here); 0, -1 and nan tripped them (exit 3). The bound
        # is no longer a key, so no value reaches a guard; without the key
        # this call exits 3 (test_tight_paraxial_bound_reaches_every_guard).
        config = tmp_path / "bound.ini"
        text = scenario_to_text(load_scenario("paper-config-1"))
        config.write_text(f"{text}paraxial_bound = {value}\n", encoding="utf-8")
        code, err = self._main(capsys, "maker-fringes", "--alpha-max-deg", "80",
                               "--alpha-step-deg", "1", "--config", str(config),
                               "--out", str(tmp_path / "maker.csv"))
        assert code == 2
        assert "[numerics] unknown key(s): paraxial_bound" in err
        assert not (tmp_path / "maker.csv").exists()

    @pytest.mark.parametrize("key", ["filter_center_nm", "filter_fwhm_nm", "spectral_tail_tol",
                                     "type_ii", "joint_grid_samples", "joint_q_extent",
                                     "paraxial_bound"])
    def test_removed_key_exits_2_naming_it(self, tmp_path, capsys, key):
        # MINIMAL ends inside [detection], where the filter keys lived; the
        # tail tolerance, the joint grid overrides and the paraxial bound
        # lived in [numerics]. type_ii, in [crystal], only checked the axes,
        # which alone set the crystal type.
        if key == "type_ii":
            section = "crystal"
            text = MINIMAL.replace("[crystal]\n", "[crystal]\ntype_ii = true\n")
        elif key in ("spectral_tail_tol", "joint_grid_samples", "joint_q_extent",
                     "paraxial_bound"):
            section, text = "numerics", f"{MINIMAL}[numerics]\n{key} = 1\n"
        else:
            section, text = "detection", f"{MINIMAL}{key} = 1\n"
        config = tmp_path / "old.ini"
        config.write_text(text, encoding="utf-8")
        code, err = self._main(capsys, "pump-propagate", "--config", str(config),
                               "--out", str(tmp_path / "pump.csv"))
        assert code == 2
        assert f"[{section}] unknown key(s): {key}" in err


def _error_types(base=SimulationError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_types(sub)


_ERROR_ARGS = {WavelengthWindowError: (350e-9, (400e-9, 1580e-9), "ktp"),
               ParaxialityError: (0.3, 0.2)}
# The pipeline function each command calls, as cli looks it up.
_COMMAND_PIPELINES = {"maker-fringes": "maker_curve", "design-poling": "design_report",
                      "pump-propagate": "pump_profile",
                      "coincidence-scan": "run_coincidence"}


class TestErrorFamilies:
    @given(st.sampled_from(sorted(_error_types(), key=lambda t: t.__name__)),
           st.sampled_from(sorted(_COMMAND_PIPELINES)))
    def test_each_error_type_maps_to_its_exit_code(self, error_type, command):
        is_validation = issubclass(error_type, ValidationError)
        assert is_validation != issubclass(error_type, GuardError)
        error = error_type(*_ERROR_ARGS.get(error_type, ("injected failure",)))
        stderr = io.StringIO()
        with mock.patch.object(cli, _COMMAND_PIPELINES[command], side_effect=error), \
                redirect_stderr(stderr):
            code = cli.main([command, "--config", "paper-config-1", "--out", os.devnull])
        assert code == (2 if is_validation else 3)
        assert stderr.getvalue() == f"error: {error}\n"


# Values at and past the edges of every numeric key's range, the smallest
# subnormal and the largest double among them.
_EXTREMES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e-320", "1e-300", "1e300",
             "1.7976931348623157e308")
_NUMERIC_LINE = re.compile(r"(?m)^(\w+) = ([-+.\de]+)$")
# The commands besides the scan. The scan runs both methods where the joint
# grid has at most _SMALL_JOINT_GRID samples a side (a larger one takes
# seconds to fill), and the transfer law alone elsewhere.
_PROPERTY_COMMANDS = (["maker-fringes"], ["design-poling"], ["pump-propagate"])
_SMALL_JOINT_GRID = 1024
# An index table spanning every wavelength config_texts() can ask for.
_WIDE_TABLE = "".join(f"{nm} {axis} {n}\n" for axis in "xyz"
                      for nm, n in ((100, 2.0), (10000, 1.7)))


@st.composite
def extreme_config_texts(draw):
    """config_texts() with one numeric value replaced by an extreme."""
    text = draw(config_texts())
    match = draw(st.sampled_from(list(_NUMERIC_LINE.finditer(text))))
    value = draw(st.sampled_from(_EXTREMES))
    return f"{text[:match.start(2)]}{value}{text[match.end(2):]}"


def _joint_grid_is_small(path) -> bool:
    """Whether the scenario's joint grid has at most _SMALL_JOINT_GRID samples a side.

    A scenario that loading, the pump march or the grid sizing refuses counts
    as small: the scan stops at that refusal, before any joint grid exists.
    """
    try:
        config = load_scenario(str(path))
        samples = auto_joint_grid(config, pump_spectrum(config))[1]
    except (ValidationError, GuardError):
        return True
    return samples <= _SMALL_JOINT_GRID


class TestExitCodeProperty:
    @pytest.fixture(scope="class")
    def table_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tables") / "index.txt"
        path.write_text(_WIDE_TABLE, encoding="utf-8")
        return path

    @given(text=extreme_config_texts())
    @example(text=_preset_with("grid_samples", "1125899906842624"))
    @example(text=_preset_with("grid_extent_mm", "inf"))
    @example(text=_preset_with("grid_extent_mm", "1e300"))
    @example(text=_preset_with("length_mm", "1e300"))
    @example(text=_preset_with("wavelength_nm", "1e-300"))
    # Each of these once raised from the scan: a division by a zero sinc
    # curvature, or math.ceil of an infinite grid extent.
    @example(text=_preset_with("length_mm", "1e-320"))
    @example(text=_preset_with("slit_width_mm", "1.7976931348623157e308"))
    # Each of these once overflowed to inf and on to NaN: the Maker curve
    # (24 NaN rows, exit 0), the scan's detector angles and the lens phase.
    @example(text=_preset_with("length_mm", "1.7976931348623157e308"))
    @example(text=_preset_with("distance_mm", "1e-320"))
    @example(text=_preset_with("focal_length_mm", "1e-320"))
    def test_extreme_value_exits_0_2_or_3(self, table_path, text):
        # Each command either succeeds or reports the value; none raises.
        text = text.replace("tables/index.txt", str(table_path))
        config = table_path.with_name("scenario.ini")
        config.write_text(text, encoding="utf-8")
        method = "both" if _joint_grid_is_small(config) else "analytic"
        for command in (*_PROPERTY_COMMANDS, ["coincidence-scan", "--mode", method]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = cli.main([*command, "--config", str(config), "--out", os.devnull])
            assert code in (0, 2, 3), (command, text)


class TestRegimeVerdictProperty:
    # Edge angles around the paraxial bound (about 0.37 rad on paper-config-1)
    # and slits whose outer samples reach it or pass 90 degrees.
    @given(distance_mm=_num(5.0, 50.0), edge_angle=_num(0.25, 0.45),
           slit_angle=st.one_of(_num(0.0, 0.3), _num(2.5, 3.2)),
           steps=st.integers(1, 100))
    @example(distance_mm=10.0, edge_angle=0.35, slit_angle=0.01, steps=70)
    @example(distance_mm=10.0, edge_angle=0.35, slit_angle=0.04, steps=70)
    @example(distance_mm=10.0, edge_angle=0.3, slit_angle=5.8, steps=60)
    def test_verdict_passes_iff_every_detector_point_does(self, preset1, distance_mm,
                                                          edge_angle, slit_angle, steps):
        scan_range_mm = 2.0 * edge_angle * distance_mm
        config = replace(preset1, detection=DetectionGeometry(
            distance=distance_mm * 1e-3, slit_width=slit_angle * distance_mm * 1e-3,
            scan_range=scan_range_mm * 1e-3, scan_step=scan_range_mm * 1e-3 / steps))
        positions, offsets = detector_samples(config.detection)
        angles = (positions[:, None] + offsets).ravel() / config.detection.distance
        try:
            maker_efficiency(angles, degenerate_pair(config), config.crystal,
                             config.dispersion.model)
            inside = bool(np.all(np.abs(angles) < 0.5 * math.pi))
        except ParaxialityError:
            inside = False
        try:
            _regime_warnings(config)
            passed = True
        except (ParaxialityError, ValidationError):
            passed = False
        assert passed == inside


class TestJointGridClipping:
    def test_clipped_joint_grid_warns_on_stderr_and_in_csv(self, tmp_path, capsys):
        # An 80 mm pump grid of 4096 samples caps q_s + q_i at 1.61e5 rad/m,
        # below the 2.49e5 rad/m the automatic joint grid asks for.
        config = tmp_path / "coarse.ini"
        config.write_text(_preset_with("grid_extent_mm", "80.0"), encoding="utf-8")
        out = tmp_path / "scan.csv"
        code = cli.main(["coincidence-scan", "--config", str(config), "--out", str(out),
                         "--mode", "both"])
        assert code == 0
        message = "joint grid q extent clipped from 249401 to 160771 rad/m"
        assert f"warning: {message}" in capsys.readouterr().err
        assert f"# warning = {message}" in out.read_text(encoding="utf-8")


class TestCwPump:
    def test_cw_scan_end_to_end(self, tmp_path):
        config = tmp_path / "cw.ini"
        config.write_text(MINIMAL, encoding="utf-8")
        out = tmp_path / "scan.csv"
        res = run_cli("coincidence-scan", "--config", str(config),
                      "--out", str(out), "--mode", "both")
        assert res.returncode == 0, res.stderr
        line = next(ln for ln in res.stdout.splitlines()
                    if ln.startswith("cross_correlation"))
        assert float(line.split(" = ")[1]) >= 0.98


class TestEntryPoints:
    def test_python_m_qpmspdc(self):
        # ``python -m qpmspdc`` runs the same main as the installed script.
        res = subprocess.run([sys.executable, "-m", "qpmspdc", "design-poling",
                              "--config", "paper-config-1"],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert cli.main(["design-poling", "--config", "paper-config-1"]) == 0
        assert res.stdout == stdout.getvalue()
        assert res.stdout.startswith("# poling-period design report\n")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"pump_{tag}.csv"
            res = run_cli("pump-propagate", "--config", "paper-config-2",
                          "--out", str(out))
            assert res.returncode == 0, res.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
