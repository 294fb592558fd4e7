"""Scenario configuration: strict INI-like text with unit-suffixed keys.

Format: ``[section]`` headers followed by ``key = value`` lines; full-line
``#`` comments and blank lines are ignored. Parsing is strict: unknown
sections or keys, duplicates, and missing required keys are all errors.
Keys carry their unit as a suffix (``wavelength_nm``); values are converted
to SI exactly once, here.

The crystal's ``poling_period_um`` accepts the literal token ``design``,
which resolves to the collinear degenerate design value under the configured
dispersion model at load time; the resolved number is what serialization
emits, so a round trip through text reproduces the validated configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .core import CrystalSpec, DetectionGeometry, PumpSpec
from .dispersion import (ConstantIndexModel, IndexModel, KtpIndexModel,
                         TabulatedIndexModel)
from .errors import ConfigError
from .fields import MultiSlitAperture, OpticalElement, ThinLens
from .phasematch import CONVENTIONS, design_poling_period

PRESET_NAMES = ("paper-config-1", "paper-config-2")

# Exact power-of-ten divisors (all are exactly representable doubles).
_MM = 1e3
_UM = 1e6
_NM = 1e9
_FS = 1e15


def _exact_unit_value(si_value: float, divisor: float) -> float:
    """Human-unit value whose reparse (value / divisor) reproduces si_value.

    Searches a few ulps around si_value * divisor. Every SI value that was
    itself parsed from text has a preimage (the original number), so
    configurations born from text round-trip exactly; extreme programmatic
    floats outside any sane unit range may fall back to the nearest value.
    """
    y0 = si_value * divisor
    if y0 / divisor == si_value:
        return y0
    up = y0
    down = y0
    for _ in range(64):
        up = math.nextafter(up, math.inf)
        if up / divisor == si_value:
            return up
        down = math.nextafter(down, -math.inf)
        if down / divisor == si_value:
            return down
    # No exact preimage within 64 ulps; round-trip tests will flag a miss.
    return y0


def _exact_repr(si_value: float, divisor: float) -> str:
    return repr(_exact_unit_value(si_value, divisor))


@dataclass(frozen=True)
class DispersionConfig:
    """Which refractive-index model the scenario runs on."""

    kind: str = "ktp"
    constant_index: float | None = None
    table_path: str | None = None

    @cached_property
    def model(self) -> IndexModel:
        """The index model, built on first use and shared by every later one.

        The ``design`` poling period and the scenario's pipelines then run on
        one model, so a table file is read once per configuration.
        """
        return self.make_model()

    def make_model(self) -> IndexModel:
        if self.kind == "ktp":
            return KtpIndexModel()
        if self.kind == "constant":
            return ConstantIndexModel(self.constant_index)
        if self.kind == "table":
            try:
                return TabulatedIndexModel.from_file(self.table_path)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"[dispersion] cannot read table_path: {exc}") from exc
        raise ConfigError(f"unknown dispersion model kind {self.kind!r}")


@dataclass(frozen=True)
class NumericsConfig:
    """Grid sizes, guard thresholds, and output conventions."""

    grid_samples: int = 4096
    grid_extent: float = 0.02
    joint_grid_samples: int = 0  # 0 selects automatic sizing
    joint_q_extent: float = 0.0  # rad/m; 0 selects automatic sizing
    angle_convention: str = "external"
    paraxial_bound: float = 0.2
    normalize: bool = True


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: crystal, pump, optical train, detection, numerics."""

    crystal: CrystalSpec
    pump: PumpSpec
    elements: tuple[tuple[float, OpticalElement], ...]
    detection: DetectionGeometry
    dispersion: DispersionConfig = DispersionConfig()
    numerics: NumericsConfig = NumericsConfig()


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if not current_name:
                raise ConfigError(f"line {lineno}: empty section name")
            if current_name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current_name}]")
            current = {}
            sections[current_name] = current
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]: {line!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current_name}]")
        current[key] = value
    return sections


class _Section:
    """One parsed section with strict typed extraction."""

    def __init__(self, name: str, data: dict[str, str]):
        self.name = name
        self._data = dict(data)
        self._seen: set[str] = set()

    def _take(self, key: str) -> str | None:
        self._seen.add(key)
        return self._data.get(key)

    def string(self, key: str, default: str | None = None, choices=None) -> str:
        raw = self._take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            raw = default
        if choices is not None and raw not in choices:
            raise ConfigError(f"[{self.name}] {key} must be one of {choices}, got {raw!r}")
        return raw

    def number(self, key: str, default: float | None = None) -> float:
        raw = self._take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} must be a number, got {raw!r}") from exc

    def integer(self, key: str, default: int | None = None) -> int:
        raw = self._take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key} must be an integer, got {raw!r}") from exc

    def boolean(self, key: str, default: bool | None = None) -> bool:
        raw = self._take(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        if raw not in ("true", "false"):
            raise ConfigError(f"[{self.name}] {key} must be 'true' or 'false', got {raw!r}")
        return raw == "true"

    def raw(self, key: str) -> str | None:
        return self._take(key)

    def reject_unknown(self) -> None:
        unknown = set(self._data) - self._seen
        if unknown:
            raise ConfigError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(unknown))}")


def _parse_crystal(section: _Section, dispersion: DispersionConfig,
                   pump_wavelength: float) -> CrystalSpec:
    length = section.number("length_mm") / _MM
    duty_cycle = section.number("duty_cycle", 0.5)
    qpm_order = section.integer("qpm_order", 1)
    temperature_c = section.number("temperature_c")
    pump_axis = section.string("pump_axis", "y")
    signal_axis = section.string("signal_axis", "y")
    idler_axis = section.string("idler_axis", "z")
    type_ii = section.boolean("type_ii", False)
    poling_raw = section.raw("poling_period_um")
    if poling_raw is None:
        raise ConfigError("[crystal] missing required key 'poling_period_um'")
    if poling_raw == "design":
        degenerate = 2.0 * pump_wavelength
        poling_period = design_poling_period(
            pump_wavelength, degenerate, degenerate,
            pump_axis=pump_axis, signal_axis=signal_axis, idler_axis=idler_axis,
            temperature_c=temperature_c, qpm_order=qpm_order,
            model=dispersion.model)
    else:
        try:
            poling_period = float(poling_raw) / _UM
        except ValueError as exc:
            raise ConfigError(
                f"[crystal] poling_period_um must be a number or 'design', got {poling_raw!r}"
            ) from exc
    section.reject_unknown()
    return CrystalSpec(
        length=length, poling_period=poling_period, duty_cycle=duty_cycle,
        qpm_order=qpm_order, temperature_c=temperature_c, pump_axis=pump_axis,
        signal_axis=signal_axis, idler_axis=idler_axis, type_ii=type_ii)


def _parse_pump(section: _Section) -> PumpSpec:
    wavelength = section.number("wavelength_nm") / _NM
    waist = section.number("waist_mm") / _MM
    waist_position = section.number("waist_position_mm", 0.0) / _MM
    pulse_raw = section.raw("pulse_fs")
    cw = section.boolean("cw", False)
    if (pulse_raw is None) == (not cw):
        raise ConfigError("[pump] exactly one of 'pulse_fs' or 'cw = true' is required")
    pulse = None
    if pulse_raw is not None:
        try:
            pulse = float(pulse_raw) / _FS
        except ValueError as exc:
            raise ConfigError(f"[pump] pulse_fs must be a number, got {pulse_raw!r}") from exc
    section.reject_unknown()
    return PumpSpec(center_wavelength=wavelength, waist_radius=waist,
                    waist_position=waist_position, pulse_duration=pulse)


def _parse_detection(section: _Section) -> DetectionGeometry:
    geometry = DetectionGeometry(
        distance=section.number("distance_mm") / _MM,
        slit_width=section.number("slit_width_mm") / _MM,
        scan_range=section.number("scan_range_mm") / _MM,
        scan_step=section.number("scan_step_mm") / _MM,
    )
    section.reject_unknown()
    return geometry


def _parse_element(section: _Section) -> tuple[float, OpticalElement]:
    kind = section.string("type", choices=("lens", "multi_slit"))
    position = section.number("position_mm") / _MM
    if kind == "lens":
        element: OpticalElement = ThinLens(
            focal_length=section.number("focal_length_mm") / _MM)
    else:
        element = MultiSlitAperture(
            slit_width=section.number("slit_width_um") / _UM,
            center_separation=section.number("separation_um", 0.0) / _UM,
            slit_count=section.integer("slit_count", 2),
        )
    section.reject_unknown()
    return position, element


def _parse_dispersion(section: _Section) -> DispersionConfig:
    kind = section.string("model", "ktp", choices=("ktp", "constant", "table"))
    constant_index = None
    table_path = None
    if kind == "constant":
        constant_index = section.number("constant_index")
    if kind == "table":
        table_path = section.string("table_path")
    section.reject_unknown()
    return DispersionConfig(kind=kind, constant_index=constant_index,
                            table_path=table_path)


def _parse_numerics(section: _Section) -> NumericsConfig:
    numerics = NumericsConfig(
        grid_samples=section.integer("grid_samples", 4096),
        grid_extent=section.number("grid_extent_mm", 20.0) / _MM,
        joint_grid_samples=section.integer("joint_grid_samples", 0),
        joint_q_extent=section.number("joint_q_extent", 0.0),
        angle_convention=section.string("angle_convention", "external",
                                        choices=CONVENTIONS),
        paraxial_bound=section.number("paraxial_bound", 0.2),
        normalize=section.boolean("normalize", True),
    )
    section.reject_unknown()
    return numerics


def parse_scenario_text(text: str) -> ScenarioConfig:
    """Parse and validate a scenario; every key is checked, unknowns rejected."""
    try:
        return _parse_scenario_sections(_parse_sections(text))
    except ConfigError:
        raise
    except ValueError as exc:
        # Embedded domain types re-validate their invariants on construction.
        raise ConfigError(str(exc)) from exc


def _parse_scenario_sections(sections: dict[str, dict[str, str]]) -> ScenarioConfig:
    known = {"crystal", "pump", "detection", "dispersion", "numerics"}
    element_names = []
    for name in sections:
        if name in known:
            continue
        if name.startswith("element."):
            suffix = name.split(".", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"element sections are [element.N] with N >= 1, got [{name}]")
            element_names.append((int(suffix), name))
            continue
        raise ConfigError(f"unknown section [{name}]")
    for required in ("crystal", "pump", "detection"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    dispersion = (_parse_dispersion(_Section("dispersion", sections["dispersion"]))
                  if "dispersion" in sections else DispersionConfig())
    numerics = (_parse_numerics(_Section("numerics", sections["numerics"]))
                if "numerics" in sections else NumericsConfig())
    pump = _parse_pump(_Section("pump", sections["pump"]))
    crystal = _parse_crystal(_Section("crystal", sections["crystal"]), dispersion,
                             pump.center_wavelength)
    detection = _parse_detection(_Section("detection", sections["detection"]))
    elements = []
    for _, name in sorted(element_names):
        elements.append(_parse_element(_Section(name, sections[name])))
    return ScenarioConfig(crystal=crystal, pump=pump, elements=tuple(elements),
                          detection=detection, dispersion=dispersion,
                          numerics=numerics)


def scenario_to_text(config: ScenarioConfig) -> str:
    """Canonical serialization; parsing it back reproduces the configuration."""
    c = config.crystal
    p = config.pump
    d = config.detection
    n = config.numerics
    lines = [
        "[crystal]",
        f"length_mm = {_exact_repr(c.length, _MM)}",
        f"poling_period_um = {_exact_repr(c.poling_period, _UM)}",
        f"duty_cycle = {c.duty_cycle!r}",
        f"qpm_order = {c.qpm_order}",
        f"temperature_c = {c.temperature_c!r}",
        f"pump_axis = {c.pump_axis}",
        f"signal_axis = {c.signal_axis}",
        f"idler_axis = {c.idler_axis}",
        f"type_ii = {'true' if c.type_ii else 'false'}",
        "",
        "[pump]",
        f"wavelength_nm = {_exact_repr(p.center_wavelength, _NM)}",
        f"waist_mm = {_exact_repr(p.waist_radius, _MM)}",
        f"waist_position_mm = {_exact_repr(p.waist_position, _MM)}",
    ]
    if p.is_cw:
        lines.append("cw = true")
    else:
        lines.append(f"pulse_fs = {_exact_repr(p.pulse_duration, _FS)}")
    lines += [
        "",
        "[detection]",
        f"distance_mm = {_exact_repr(d.distance, _MM)}",
        f"slit_width_mm = {_exact_repr(d.slit_width, _MM)}",
        f"scan_range_mm = {_exact_repr(d.scan_range, _MM)}",
        f"scan_step_mm = {_exact_repr(d.scan_step, _MM)}",
    ]
    for index, (position, element) in enumerate(config.elements, start=1):
        lines += ["", f"[element.{index}]"]
        if isinstance(element, ThinLens):
            lines += [
                "type = lens",
                f"position_mm = {_exact_repr(position, _MM)}",
                f"focal_length_mm = {_exact_repr(element.focal_length, _MM)}",
            ]
        elif isinstance(element, MultiSlitAperture):
            lines += [
                "type = multi_slit",
                f"position_mm = {_exact_repr(position, _MM)}",
                f"slit_width_um = {_exact_repr(element.slit_width, _UM)}",
                f"separation_um = {_exact_repr(element.center_separation, _UM)}",
                f"slit_count = {element.slit_count}",
            ]
        else:
            raise ConfigError(f"cannot serialize element {element!r}")
    lines += ["", "[dispersion]", f"model = {config.dispersion.kind}"]
    if config.dispersion.kind == "constant":
        lines.append(f"constant_index = {config.dispersion.constant_index!r}")
    if config.dispersion.kind == "table":
        lines.append(f"table_path = {config.dispersion.table_path}")
    lines += [
        "",
        "[numerics]",
        f"grid_samples = {n.grid_samples}",
        f"grid_extent_mm = {_exact_repr(n.grid_extent, _MM)}",
        f"joint_grid_samples = {n.joint_grid_samples}",
        f"joint_q_extent = {n.joint_q_extent!r}",
        f"angle_convention = {n.angle_convention}",
        f"paraxial_bound = {n.paraxial_bound!r}",
        f"normalize = {'true' if n.normalize else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled preset name."""
    if source in PRESET_NAMES:
        resource = source.replace("-", "_") + ".ini"
        text = resources.files("qpmspdc.presets").joinpath(resource).read_text("utf-8")
        return parse_scenario_text(text)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    return parse_scenario_text(text)
