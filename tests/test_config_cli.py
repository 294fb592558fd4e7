import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpmspdc import cli
from qpmspdc.config import (PRESET_NAMES, DispersionConfig, _exact_unit_value,
                            load_scenario, parse_scenario_text,
                            scenario_to_text)
from qpmspdc.errors import (ConfigError, GuardError, ParaxialityError,
                            SimulationError, ValidationError,
                            WavelengthWindowError)
from qpmspdc.fields import MultiSlitAperture, ThinLens
from qpmspdc.phasematch import CONVENTIONS

MINIMAL = """
[crystal]
length_mm = 9.6
poling_period_um = 11.4617
temperature_c = 40

[pump]
wavelength_nm = 413
waist_mm = 0.5
pulse_fs = 200

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
        assert config.pump.pulse_duration == pytest.approx(200e-15)
        assert config.detection.scan_step == pytest.approx(2e-5)
        assert config.numerics.grid_samples == 4096
        assert config.dispersion.kind == "ktp"
        assert config.elements == ()

    def test_design_token_resolves_poling_period(self):
        text = MINIMAL.replace("poling_period_um = 11.4617",
                               "poling_period_um = design")
        config = parse_scenario_text(text)
        assert config.crystal.poling_period == pytest.approx(11.468676e-6, rel=1e-6)

    def test_cw_pump(self):
        text = MINIMAL.replace("pulse_fs = 200", "cw = true")
        assert parse_scenario_text(text).pump.is_cw

    @pytest.mark.parametrize("mutate,needle", [
        (lambda t: t + "\n[mystery]\nvalue = 1\n", "unknown section"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm = 9.6\nwidth_mm = 1"),
         "unknown key"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm = 9.6\nlength_mm = 2"),
         "duplicate key"),
        (lambda t: t.replace("length_mm = 9.6\n", ""), "missing required key"),
        (lambda t: t.replace("[pump]\n", ""), ""),
        (lambda t: t.replace("length_mm = 9.6", "length_mm = long"), "number"),
        (lambda t: t.replace("pulse_fs = 200", "pulse_fs = 200\ncw = true"),
         "exactly one"),
        (lambda t: t.replace("pulse_fs = 200", "# no pump timing"), "exactly one"),
        (lambda t: t.replace("[crystal]", "stray = 1\n[crystal]"), "outside"),
        (lambda t: t.replace("length_mm = 9.6", "length_mm"), "key = value"),
    ])
    def test_strict_errors(self, mutate, needle):
        with pytest.raises(ConfigError) as err:
            parse_scenario_text(mutate(MINIMAL))
        assert needle in str(err.value)

    def test_embedded_invariants_revalidated(self):
        text = MINIMAL.replace("duty_cycle = 0.5", "")  # default fine
        text = MINIMAL.replace("length_mm = 9.6", "length_mm = -1")
        with pytest.raises(ConfigError):
            parse_scenario_text(text)

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
    """Valid scenario text over every section and key the parser accepts."""
    type_ii = draw(st.booleans())
    signal_axis = draw(st.sampled_from("xyz"))
    idler_axis = draw(st.sampled_from([a for a in "xyz" if not type_ii or a != signal_axis]))
    step = draw(_num(1e-3, 1.0))
    timing = draw(st.just("cw = true") | _num(10.0, 1e4).map(lambda t: f"pulse_fs = {t!r}"))
    lines = [
        "[crystal]",
        f"length_mm = {draw(_num(0.01, 100.0))!r}",
        f"poling_period_um = {draw(_num(0.1, 100.0))!r}",
        f"duty_cycle = {draw(_num(0.01, 0.99))!r}",
        f"qpm_order = {draw(st.integers(1, 9))}",
        f"temperature_c = {draw(_num(-50.0, 200.0))!r}",
        f"pump_axis = {draw(st.sampled_from('xyz'))}",
        f"signal_axis = {signal_axis}",
        f"idler_axis = {idler_axis}",
        f"type_ii = {str(type_ii).lower()}",
        "[pump]",
        f"wavelength_nm = {draw(_num(200.0, 2000.0))!r}",
        f"waist_mm = {draw(_num(0.01, 10.0))!r}",
        f"waist_position_mm = {draw(_num(-1000.0, 0.0))!r}",
        timing,
        "[detection]",
        f"distance_mm = {draw(_num(1.0, 5000.0))!r}",
        f"slit_width_mm = {draw(_num(0.0, 1.0))!r}",
        f"scan_range_mm = {step * draw(st.integers(1, 400))!r}",
        f"scan_step_mm = {step!r}",
    ]
    for index in range(1, draw(st.integers(0, 3)) + 1):
        lines += [f"[element.{index}]", f"position_mm = {draw(_num(-1000.0, 0.0))!r}"]
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
        f"grid_extent_mm = {draw(_num(1.0, 100.0))!r}",
        f"joint_grid_samples = {draw(st.integers(0, 4096))}",
        f"joint_q_extent = {draw(_num(0.0, 1e6))!r}",
        f"angle_convention = {draw(st.sampled_from(CONVENTIONS))}",
        f"paraxial_bound = {draw(_num(0.01, 0.5))!r}",
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
        config.write_text(text.replace("poling_period_um = 11.4617",
                                       "poling_period_um = design"),
                          encoding="utf-8")
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
        with mock.patch.object(DispersionConfig, "make_model", autospec=True,
                               side_effect=DispersionConfig.make_model) as make:
            code = cli.main(["coincidence-scan", "--config", "paper-config-1",
                             "--out", str(tmp_path / "scan.csv"), "--mode", "both"])
        assert code == 0, capsys.readouterr().err
        assert make.call_count == 1

    def test_regime_violation_warns_but_succeeds(self, tmp_path):
        config_text = scenario_to_text(load_scenario("paper-config-1")).replace(
            "distance_mm = 500.0", "distance_mm = 25.0")
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
        config.write_text(MINIMAL.replace("wavelength_nm = 413",
                                          "wavelength_nm = 350"),
                          encoding="utf-8")
        res = run_cli("maker-fringes", "--config", str(config),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 3
        assert "window" in res.stderr


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
            MINIMAL.replace("11.4617", poling)
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
        config.write_text(MINIMAL.replace("scan_step_mm = 0.02", "scan_step_mm = 0.03"),
                          encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                               "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "nearest valid step is 2.98507" in err

    def test_analytic_scan_off_pump_grid_exits_3(self, tmp_path, capsys):
        # A 30 mm scan at 500 mm reads the detection-plane profile beyond the
        # preset's 20 mm pump grid; those rates were once silently 0.
        config = tmp_path / "wide.ini"
        config.write_text(scenario_to_text(load_scenario("paper-config-1"))
                          .replace("scan_range_mm = 2.0", "scan_range_mm = 30.0")
                          .replace("scan_step_mm = 0.02", "scan_step_mm = 0.1"),
                          encoding="utf-8")
        code, err = self._main(capsys, "coincidence-scan", "--config", str(config),
                               "--out", str(tmp_path / "scan.csv"))
        assert code == 3
        assert "grid_extent_mm must be at least 30.103" in err

    @pytest.mark.parametrize("key", ["filter_center_nm", "filter_fwhm_nm", "spectral_tail_tol"])
    def test_removed_key_exits_2_naming_it(self, tmp_path, capsys, key):
        # MINIMAL ends inside [detection]; the tail tolerance lived in [numerics].
        section = "[numerics]\n" if key == "spectral_tail_tol" else ""
        config = tmp_path / "old.ini"
        config.write_text(f"{MINIMAL}{section}{key} = 1\n", encoding="utf-8")
        code, err = self._main(capsys, "pump-propagate", "--config", str(config),
                               "--out", str(tmp_path / "pump.csv"))
        assert code == 2
        assert f"unknown key(s): {key}" in err


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


class TestJointGridClipping:
    def test_clipped_joint_grid_warns_on_stderr_and_in_csv(self, tmp_path, capsys):
        # An 80 mm pump grid of 4096 samples caps q_s + q_i at 1.61e5 rad/m,
        # below the 2.49e5 rad/m the automatic joint grid asks for.
        config = tmp_path / "coarse.ini"
        config.write_text(scenario_to_text(load_scenario("paper-config-1"))
                          .replace("grid_extent_mm = 20.0", "grid_extent_mm = 80.0"),
                          encoding="utf-8")
        out = tmp_path / "scan.csv"
        code = cli.main(["coincidence-scan", "--config", str(config), "--out", str(out),
                         "--mode", "both"])
        assert code == 0
        message = "joint grid q extent clipped from 249401 to 160850 rad/m"
        assert f"warning: {message}" in capsys.readouterr().err
        assert f"# warning = {message}" in out.read_text(encoding="utf-8")


class TestCwPump:
    def test_cw_scan_end_to_end(self, tmp_path):
        config = tmp_path / "cw.ini"
        config.write_text(MINIMAL.replace("pulse_fs = 200", "cw = true"),
                          encoding="utf-8")
        out = tmp_path / "scan.csv"
        res = run_cli("coincidence-scan", "--config", str(config),
                      "--out", str(out), "--mode", "both")
        assert res.returncode == 0, res.stderr
        line = next(ln for ln in res.stdout.splitlines()
                    if ln.startswith("cross_correlation"))
        assert float(line.split(" = ")[1]) >= 0.98


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
