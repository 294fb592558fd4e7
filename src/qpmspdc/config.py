"""Scenario configuration: strict INI-like text with unit-suffixed keys.

Format: ``[section]`` headers followed by ``key = value`` lines; full-line
``#`` comments and blank lines are ignored. Parsing is strict: unknown
sections or keys, duplicates, and missing required keys are all errors.
Keys carry their unit as a suffix (``wavelength_nm``); values are converted
to SI exactly once, here. Each section's keys are described once, in a
table that parsing, defaults and serialization all read.

The crystal's ``poling_period_um`` accepts the literal token ``design``,
which resolves at load time to the collinear degenerate design value under
the configured dispersion model, as its micrometre text parses back; the
resolved number is what serialization emits, so a round trip through text
reproduces the validated configuration.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property, partial
from importlib import resources
from typing import Any, Callable, NamedTuple

from .core import MAX_GRID_SAMPLES, CrystalSpec, DetectionGeometry, PumpSpec
from .dispersion import (ConstantIndexModel, IndexModel, KtpIndexModel,
                         TabulatedIndexModel)
from .errors import ConfigError
from .fields import MultiSlitAperture, OpticalElement, ThinLens
from .phasematch import CONVENTIONS, design_poling_period

PRESET_NAMES = ("paper-config-1", "paper-config-2")


def _exact_unit_value(si_value: float, divisor: float) -> float:
    """Human-unit value whose reparse (value / divisor) reproduces si_value.

    Searches a few ulps around si_value * divisor. Every SI value that was
    itself parsed from text has a preimage (the original number), so
    configurations born from text round-trip exactly. A computed value may
    have none, and is refused rather than written as a neighbour.
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
    raise ConfigError(f"{si_value!r} has no value in units of 1/{divisor:g} that "
                      "parses back to it")


class _Kind(NamedTuple):
    """How a key's value is read from text and written back."""

    expected: str  # completes "<key> must be ..." when ``parse`` fails
    parse: Callable[[str], Any]  # raises ValueError on a bad value
    format: Callable[[Any], str] = str


def _unit(divisor: float) -> _Kind:
    """A number in the key's unit, held in SI units as the text value / divisor."""
    return _Kind("a number", lambda raw: float(raw) / divisor,
                 lambda value: repr(_exact_unit_value(value, divisor)))


def _choice(*options: str) -> _Kind:
    # tuple.index raises ValueError for a word that is not an option.
    return _Kind(f"one of {options}", lambda raw: options[options.index(raw)])


# Exact power-of-ten divisors (all are exactly representable doubles).
_MM = _unit(1e3)
_UM = _unit(1e6)
_NM = _unit(1e9)
_NUMBER = _Kind("a number", float, repr)
_INTEGER = _Kind("an integer", int)
_TEXT = _Kind("text", str)
_BOOLEAN = _Kind("'true' or 'false'", lambda raw: _choice("true", "false").parse(raw) == "true",
                 lambda value: "true" if value else "false")


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
    """The pump grid, and what the outputs mean.

    The oracle's joint grid is sized from the detection geometry
    (``scenarios.auto_joint_grid``) and the paraxial guard holds at
    ``phasematch.PARAXIAL_BOUND``; neither is a key. The pump grid is checked
    on construction: a power-of-two sample count up to MAX_GRID_SAMPLES and
    a positive, finite extent.
    """

    grid_samples: int = 4096
    grid_extent: float = 0.02
    angle_convention: str = "external"
    normalize: bool = True

    def __post_init__(self) -> None:
        n = self.grid_samples
        if not (2 <= n <= MAX_GRID_SAMPLES and n & (n - 1) == 0):
            raise ConfigError(f"[numerics] grid_samples must be a power of two up to "
                              f"{MAX_GRID_SAMPLES}, got {n!r}")
        if not (math.isfinite(self.grid_extent) and self.grid_extent > 0):
            raise ConfigError(f"[numerics] grid_extent_mm must be positive and finite, "
                              f"got {self.grid_extent * 1e3:g}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: crystal, pump, optical train, detection, numerics."""

    crystal: CrystalSpec
    pump: PumpSpec
    elements: tuple[tuple[float, OpticalElement], ...]
    detection: DetectionGeometry
    dispersion: DispersionConfig = DispersionConfig()
    numerics: NumericsConfig = NumericsConfig()


class _Key(NamedTuple):
    """A key's name, the field it fills, its kind, and its default (``MISSING``: required)."""

    name: str
    field: str
    kind: _Kind
    default: Any = MISSING

    def text(self, value) -> str:
        return f"{self.name} = {self.kind.format(value)}"


def _keys(target, *specs) -> tuple[_Key, ...]:
    """Keys from (name, field, kind[, default]); a key without a default takes its field's."""
    defaults = {f.name: f.default for f in fields(target)}
    return tuple(_Key(name, field, kind, own[0] if own else defaults[field])
                 for name, field, kind, *own in specs)


def _lines(source, keys) -> list[str]:
    return [key.text(getattr(source, key.field)) for key in keys]


_CRYSTAL = _keys(CrystalSpec,
                 ("length_mm", "length", _MM),
                 ("duty_cycle", "duty_cycle", _NUMBER, 0.5),
                 ("qpm_order", "qpm_order", _INTEGER, 1),
                 ("temperature_c", "temperature_c", _NUMBER),
                 ("pump_axis", "pump_axis", _TEXT),
                 ("signal_axis", "signal_axis", _TEXT),
                 ("idler_axis", "idler_axis", _TEXT))
# Written second and read last, since the 'design' token needs the other keys.
_POLING = _Key("poling_period_um", "poling_period", _Kind(
    "a number or 'design'", lambda raw: raw if raw == "design" else _UM.parse(raw),
    _UM.format))
# Every command runs at the degenerate pair, which no pulse duration
# changes, so the file format has no pump timing key.
_PUMP = _keys(PumpSpec,
              ("wavelength_nm", "center_wavelength", _NM),
              ("waist_mm", "waist_radius", _MM),
              ("waist_position_mm", "waist_position", _MM))
_DETECTION = _keys(DetectionGeometry,
                   ("distance_mm", "distance", _MM),
                   ("slit_width_mm", "slit_width", _MM),
                   ("scan_range_mm", "scan_range", _MM),
                   ("scan_step_mm", "scan_step", _MM))
_ELEMENTS = {
    "lens": (ThinLens, _keys(ThinLens, ("focal_length_mm", "focal_length", _MM))),
    # The file format defaults to two slits, the class to one.
    "multi_slit": (MultiSlitAperture, _keys(MultiSlitAperture,
                                            ("slit_width_um", "slit_width", _UM),
                                            ("separation_um", "center_separation", _UM),
                                            ("slit_count", "slit_count", _INTEGER, 2))),
}
_TYPE = _Key("type", "type", _choice(*_ELEMENTS))
_POSITION = _Key("position_mm", "position", _MM)
# Keys that only the named dispersion model takes, and requires.
_MODEL_KEYS = {
    "constant": (_Key("constant_index", "constant_index", _NUMBER),),
    "table": (_Key("table_path", "table_path", _TEXT),),
}
(_MODEL,) = _keys(DispersionConfig, ("model", "kind", _choice("ktp", *_MODEL_KEYS)))
_NUMERICS = _keys(NumericsConfig,
                  ("grid_samples", "grid_samples", _INTEGER),
                  ("grid_extent_mm", "grid_extent", _MM),
                  ("angle_convention", "angle_convention", _choice(*CONVENTIONS)),
                  ("normalize", "normalize", _BOOLEAN))


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
    """One parsed section; the keys never read are unknown ones."""

    def __init__(self, sections: dict[str, dict[str, str]], name: str):
        self.name = name
        self._data = sections.get(name, {})
        self._seen: set[str] = set()

    def get(self, key: _Key):
        """The key's value, or its default when absent; strict about its kind."""
        self._seen.add(key.name)
        raw = self._data.get(key.name)
        if raw is None:
            if key.default is MISSING:
                raise ConfigError(f"[{self.name}] missing required key {key.name!r}")
            return key.default
        try:
            return key.kind.parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{self.name}] {key.name} must be {key.kind.expected}, got {raw!r}") from exc

    def read(self, keys) -> dict:
        """Field name -> value of each key, read in order."""
        return {key.field: self.get(key) for key in keys}

    def reject_unknown(self) -> None:
        unknown = set(self._data) - self._seen
        if unknown:
            raise ConfigError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(unknown))}")


def designed_period(crystal: CrystalSpec, pump_wavelength: float,
                    model: IndexModel) -> float:
    """Collinear degenerate design period, as its micrometre text parses back."""
    degenerate = 2.0 * pump_wavelength
    period = design_poling_period(
        pump_wavelength, degenerate, degenerate, pump_axis=crystal.pump_axis,
        signal_axis=crystal.signal_axis, idler_axis=crystal.idler_axis,
        temperature_c=crystal.temperature_c, qpm_order=crystal.qpm_order, model=model)
    return _UM.parse(repr(period * 1e6))


def _parse_crystal(section: _Section, dispersion: DispersionConfig,
                   pump_wavelength: float) -> CrystalSpec:
    values = section.read(_CRYSTAL)
    period = section.get(_POLING)
    section.reject_unknown()
    crystal = CrystalSpec(**values, poling_period=math.inf if period == "design" else period)
    if period != "design":
        return crystal
    return replace(crystal, poling_period=designed_period(
        crystal, pump_wavelength, dispersion.model))


def _build(section: _Section, target, keys):
    """``target`` built from the keys, once the section has no unknown key."""
    value = target(**section.read(keys))
    section.reject_unknown()
    return value


def _parse_element(section: _Section) -> tuple[float, OpticalElement]:
    kind = section.get(_TYPE)
    position = section.get(_POSITION)
    return position, _build(section, *_ELEMENTS[kind])


def _parse_dispersion(section: _Section) -> DispersionConfig:
    kind = section.get(_MODEL)
    return _build(section, partial(DispersionConfig, kind=kind), _MODEL_KEYS.get(kind, ()))


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
    element_names = []
    for name in sections:
        if name.startswith("element."):
            suffix = name.split(".", 1)[1]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"element sections are [element.N] with N >= 1, got [{name}]")
            element_names.append((int(suffix), name))
        elif name not in ("crystal", "pump", "detection", "dispersion", "numerics"):
            raise ConfigError(f"unknown section [{name}]")
    for required in ("crystal", "pump", "detection"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    dispersion = _parse_dispersion(_Section(sections, "dispersion"))
    numerics = _build(_Section(sections, "numerics"), NumericsConfig, _NUMERICS)
    pump = _build(_Section(sections, "pump"), PumpSpec, _PUMP)
    crystal = _parse_crystal(_Section(sections, "crystal"), dispersion, pump.center_wavelength)
    detection = _build(_Section(sections, "detection"), DetectionGeometry, _DETECTION)
    elements = tuple(_parse_element(_Section(sections, name)) for _, name in sorted(element_names))
    return ScenarioConfig(crystal=crystal, pump=pump, elements=elements,
                          detection=detection, dispersion=dispersion, numerics=numerics)


def _element_lines(position: float, element: OpticalElement) -> list[str]:
    for kind, (target, keys) in _ELEMENTS.items():
        if isinstance(element, target):
            return [_TYPE.text(kind), _POSITION.text(position), *_lines(element, keys)]
    raise ConfigError(f"cannot serialize element {element!r}")


def scenario_to_text(config: ScenarioConfig) -> str:
    """Canonical serialization; parsing it back reproduces the configuration."""
    crystal = _lines(config.crystal, _CRYSTAL)
    crystal.insert(1, _POLING.text(config.crystal.poling_period))
    if config.pump.pulse_duration is not None:
        raise ConfigError("cannot serialize a pump with a pulse_duration: the config "
                          "format has no pump timing key")
    dispersion = config.dispersion
    sections = [
        ("crystal", crystal),
        ("pump", _lines(config.pump, _PUMP)),
        ("detection", _lines(config.detection, _DETECTION)),
        *((f"element.{index}", _element_lines(position, element))
          for index, (position, element) in enumerate(config.elements, start=1)),
        ("dispersion", _lines(dispersion, (_MODEL, *_MODEL_KEYS.get(dispersion.kind, ())))),
        ("numerics", _lines(config.numerics, _NUMERICS)),
    ]
    return "\n\n".join("\n".join((f"[{name}]", *lines)) for name, lines in sections) + "\n"


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled preset name."""
    if source in PRESET_NAMES:
        resource = source.replace("-", "_") + ".ini"
        text = resources.files("qpmspdc.presets").joinpath(resource).read_text("utf-8")
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    return parse_scenario_text(text)
