"""Command-line front end.

Commands: ``maker-fringes``, ``design-poling``, ``pump-propagate``, and
``coincidence-scan``, each driven by a scenario config (``--config`` takes a
file path or a bundled preset name). CSV goes to ``--out``; on the three
commands that write a CSV, ``--plot`` also writes a best-effort SVG. Exit
codes: 0 success, 2 configuration error (including an unreadable input or
unwritable output path), 3 numerical or physical guard error. Diagnostics
and warnings go to stderr.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .biphoton import ScanResult
from .config import PRESET_NAMES, load_scenario
from .core import DetectionGeometry
from .errors import GuardError, ValidationError
from .scenarios import (design_report, maker_curve, pump_profile,
                        run_coincidence)
from .svg import write_line_plot

_MODE_TAGS = {"both": "both-together", "signal": "signal-only", "idler": "idler-only"}


def write_table(path, header, names, columns) -> None:
    """CSV: one ``# key = value`` line per header pair, the column names, then rows.

    String header values are written as they are, numbers by repr. Every
    column is written at full precision, each cell as the repr of its float.
    """
    lines = [f"# {key} = {value if isinstance(value, str) else repr(value)}"
             for key, value in header]
    lines.append(",".join(names))
    row = ",".join(["%r"] * len(columns))
    lines.extend(row % cells for cells in
                 zip(*(np.asarray(col, dtype=float).tolist() for col in columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_scan_csv(result: ScanResult, path, detection: DetectionGeometry, *,
                   raw: bool = False, companion: ScanResult | None = None) -> None:
    """Scan CSV: a header of how the scan was made, then p_m,rate rows.

    The header holds mode, method, the config's ``detection`` distance and slit
    width, normalization peak, each scan's warnings and the companion method.
    A companion scan (same positions, other method) adds a second rate column;
    ``raw`` undoes the unit-peak normalization using each ``normalization_peak``.
    """
    header = [("mode", result.mode), ("method", result.method),
              ("detector_distance_m", detection.distance),
              ("slit_width_m", detection.slit_width),
              ("normalization_peak", result.normalization_peak)]
    scans = [result] if companion is None else [result, companion]
    header += [("warning", warning) for scan in scans for warning in scan.warnings]
    names = ["p_m", "rate"]
    if companion is not None:
        if not np.array_equal(companion.positions, result.positions):
            raise ValidationError("companion scan must share the position grid")
        header.append(("companion_method", companion.method))
        names.append("rate_companion")
    rates = [scan.rates * (scan.normalization_peak if raw else 1.0) for scan in scans]
    write_table(path, header, names, [result.positions, *rates])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpmspdc",
        description="Biphoton generation in periodically poled crystals: "
                    "phase-matching profiles, pump propagation, and transverse "
                    "coincidence scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, plotting: bool = True) -> None:
        # Only design-poling prints without --out, and it draws nothing.
        p.add_argument("--config", required=True,
                       help=f"scenario config path or preset name {PRESET_NAMES}")
        p.add_argument("--out", required=plotting, default=None,
                       help="output file path")
        if plotting:
            p.add_argument("--plot", default=None, metavar="SVG",
                           help="also write an SVG plot to this path")

    p = sub.add_parser("maker-fringes",
                       help="QPM efficiency versus emission angle (CSV alpha_rad,efficiency)")
    common(p)
    p.add_argument("--alpha-max-deg", type=float, default=1.0,
                   help="largest emission angle in degrees (default 1.0)")
    p.add_argument("--alpha-step-deg", type=float, default=0.005,
                   help="angle step in degrees (default 0.005)")

    p = sub.add_parser("design-poling",
                       help="collinear degenerate poling-period design report")
    common(p, plotting=False)

    p = sub.add_parser("pump-propagate",
                       help="pump intensity profile at the detection plane (CSV x_m,intensity)")
    common(p)

    p = sub.add_parser("coincidence-scan",
                       help="transverse coincidence scan (CSV p_m,rate)")
    common(p)
    p.add_argument("--mode", choices=("analytic", "oracle", "both"), default="analytic",
                   help="prediction method (default analytic)")
    p.add_argument("--detectors", choices=tuple(_MODE_TAGS), default="both",
                   help="which detectors scan (default both, moved together)")
    return parser


def _cmd_maker_fringes(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    alphas, eff = maker_curve(config,
                              alpha_max=math.radians(args.alpha_max_deg),
                              alpha_step=math.radians(args.alpha_step_deg))
    write_table(args.out, [("angle_convention", config.numerics.angle_convention),
                           ("poling_period_m", config.crystal.poling_period)],
                ("alpha_rad", "efficiency"), (alphas, eff))
    if args.plot:
        write_line_plot(args.plot, alphas, [("efficiency", eff)],
                        title="QPM efficiency vs emission angle",
                        x_label="alpha (rad)", y_label="efficiency")
    return 0


def _cmd_design_poling(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    report = design_report(config)
    lines = [
        "# poling-period design report",
        f"model = {report['model']}",
        f"pump_wavelength_nm = {report['pump_wavelength'] * 1e9!r}",
        f"signal_wavelength_nm = {report['signal_wavelength'] * 1e9!r}",
        f"idler_wavelength_nm = {report['idler_wavelength'] * 1e9!r}",
        f"temperature_c = {report['temperature_c']!r}",
        f"qpm_order = {report['qpm_order']}",
        f"n_pump = {report['n_pump']!r}",
        f"n_signal = {report['n_signal']!r}",
        f"n_idler = {report['n_idler']!r}",
        f"poling_period_um = {report['poling_period'] * 1e6!r}",
        f"collinear_residual_rad_per_m = {report['collinear_residual']!r}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_pump_propagate(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    profile = pump_profile(config)
    intensity = profile.intensity
    if config.numerics.normalize:
        intensity = intensity * (1.0 / float(intensity.max()))
    write_table(args.out, [("wavelength_m", profile.wavelength),
                           ("detector_distance_m", config.detection.distance),
                           ("grid_extent_m", profile.extent),
                           ("sample_count", profile.sample_count)],
                ("x_m", "intensity"), (profile.x, intensity))
    if args.plot:
        write_line_plot(args.plot, profile.x * 1e3, [("intensity", intensity)],
                        title="Pump intensity at the detection plane",
                        x_label="x (mm)", y_label="intensity")
    return 0


def _cmd_coincidence_scan(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    output = run_coincidence(config, detectors=_MODE_TAGS[args.detectors],
                             method=args.mode)
    # The analytic scan leads; with --mode both the oracle's is its companion.
    scans = [scan for scan in (output.analytic, output.oracle) if scan is not None]
    for scan in scans:
        for warning in scan.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    write_scan_csv(scans[0], args.out, config.detection, raw=not config.numerics.normalize,
                   companion=scans[1] if len(scans) == 2 else None)
    if output.correlation is not None:
        print(f"cross_correlation = {output.correlation!r}")
    if args.plot:
        write_line_plot(args.plot, scans[0].positions * 1e3,
                        [(scan.method, scan.rates) for scan in scans],
                        title="Coincidence scan", x_label="p (mm)",
                        y_label="normalized rate")
    return 0


_COMMANDS = {
    "maker-fringes": _cmd_maker_fringes,
    "design-poling": _cmd_design_poling,
    "pump-propagate": _cmd_pump_propagate,
    "coincidence-scan": _cmd_coincidence_scan,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
