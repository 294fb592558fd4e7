"""Seeded workloads for the qpmspdc benchmark: config variants, ops, checks.

A workload is a base preset, a set of keys jittered per op, and the CLI
commands one op runs. Variants are made by rewriting `key = value` lines of
the preset text the package ships, so the program only ever sees the
generated files and a format change in the presets carries over.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

# Criterion 4 of the acceptance suite: analytic and oracle scans agree.
AGREEMENT_THRESHOLD = 0.98
# Relative tolerance against the values recorded at the default seed.
REFERENCE_RTOL = 1e-9
# Ops whose outputs are compared with the recorded reference values.
REFERENCE_OPS = 3
DEFAULT_SEED = 0
# A collinear design residual this small (rad/m, against k ~ 1e7 rad/m) is zero.
RESIDUAL_LIMIT = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    # (section, key) -> (low, high, decimals) drawn uniformly per op.
    jitter: dict
    # CLI argv templates; {cfg} and {out} are filled per op.
    commands: tuple
    # Percentile reported as op_tail_ms. Fixed per workload so that commits
    # with different op counts are compared at the same percentile; it leaves
    # at least ten ops beyond it even at half the op rate of a 2-CPU machine.
    tail_pct: int
    why: str


_SCAN_JITTER = {
    ("crystal", "temperature_c"): (30.0, 50.0, 3),
    ("detection", "distance_mm"): (450.0, 550.0, 2),
}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="scan-both",
            preset="paper-config-2",
            jitter=_SCAN_JITTER,
            commands=(
                ("coincidence-scan", "--config", "{cfg}", "--out", "{out}/scan.csv",
                 "--mode", "both", "--detectors", "both"),
            ),
            tail_pct=80,
            why="double-slit coincidence scan with both detectors moving "
                "together: joint fill and the oracle take ~90% of each op",
        ),
        Workload(
            name="scan-single",
            preset="paper-config-1",
            jitter=_SCAN_JITTER,
            commands=(
                ("coincidence-scan", "--config", "{cfg}", "--out", "{out}/signal.csv",
                 "--mode", "both", "--detectors", "signal"),
                ("coincidence-scan", "--config", "{cfg}", "--out", "{out}/idler.csv",
                 "--mode", "both", "--detectors", "idler"),
            ),
            tail_pct=80,
            why="lens scans with one detector fixed: the oracle's small-matmul "
                "path, where joint fill dominates",
        ),
        Workload(
            name="design-sweep",
            preset="paper-config-1",
            jitter={
                ("element.1", "focal_length_mm"): (300.0, 1000.0, 2),
                ("pump", "waist_mm"): (0.3, 0.7, 4),
                ("crystal", "temperature_c"): (30.0, 50.0, 3),
            },
            commands=(
                ("design-poling", "--config", "{cfg}", "--out", "{out}/design.txt"),
                ("maker-fringes", "--config", "{cfg}", "--out", "{out}/maker.csv"),
                ("pump-propagate", "--config", "{cfg}", "--out", "{out}/pump.csv",
                 "--plot", "{out}/pump.svg"),
                ("coincidence-scan", "--config", "{cfg}", "--out", "{out}/scan.csv",
                 "--mode", "analytic"),
            ),
            tail_pct=95,
            why="lens design iteration that never builds the joint grid: "
                "config, dispersion, the FFT march and CSV/SVG writing",
        ),
    )
}


def preset_text(preset: str) -> str:
    resource = preset.replace("-", "_") + ".ini"
    return resources.files("qpmspdc.presets").joinpath(resource).read_text("utf-8")


def _section_lines(text: str):
    """Yield (section, key, line) for each line; key is None off key lines."""
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            yield section, None, line
        elif "=" in stripped and not stripped.startswith("#"):
            yield section, stripped.split("=", 1)[0].strip(), line
        else:
            yield section, None, line


def draw_values(workload: Workload, seed: int, index: int) -> dict:
    """The jittered values of op `index`; independent of the ops before it."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    return {key: round(rng.uniform(lo, hi), decimals)
            for key, (lo, hi, decimals) in workload.jitter.items()}


def variant_text(base: str, values: dict) -> str:
    """Rewrite the `key = value` lines named in values; each must occur once."""
    out = []
    hits = dict.fromkeys(values, 0)
    for section, key, line in _section_lines(base):
        if (section, key) in values:
            hits[(section, key)] += 1
            line = f"{key} = {values[(section, key)]!r}"
        out.append(line)
    missing = [f"[{s}] {k}" for (s, k), n in hits.items() if n != 1]
    if missing:
        raise ValueError(f"preset lacks a unique line for {', '.join(missing)}")
    return "\n".join(out) + "\n"


def config_values(text: str) -> dict:
    """(section, key) -> raw value string of a generated config."""
    return {(section, key): line.split("=", 1)[1].split("#", 1)[0].strip()
            for section, key, line in _section_lines(text) if key is not None}


def op_argv(workload: Workload, cfg: Path, out: Path) -> list[list[str]]:
    return [[arg.format(cfg=cfg, out=out) for arg in cmd] for cmd in workload.commands]


# ---------------------------------------------------------------- checks

class CheckError(Exception):
    """An op's output does not meet the benchmark's correctness checks."""


def _read_csv(path: Path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise CheckError(f"{path.name}: no header row")
    header, body = rows[0], rows[1:]
    try:
        columns = list(zip(*[[float(v) for v in row] for row in body]))
    except ValueError as exc:
        raise CheckError(f"{path.name}: unparsable row: {exc}") from exc
    if any(len(row) != len(header) for row in body):
        raise CheckError(f"{path.name}: ragged rows")
    return {name: list(col) for name, col in zip(header, columns)}


def _require_rows(path: Path, table: dict, expected: int) -> None:
    got = len(next(iter(table.values()), []))
    if got != expected:
        raise CheckError(f"{path.name}: {got} rows, expected {expected}")


def _require_peak(path: Path, table: dict, column: str) -> None:
    if column not in table:
        raise CheckError(f"{path.name}: no column {column!r}")
    peak = max(table[column])
    if not abs(peak - 1.0) <= 1e-12:
        raise CheckError(f"{path.name}: {column} peaks at {peak!r}, not 1")


def _summary(prefix: str, table: dict) -> dict:
    """Order-sensitive moments of each column, for the reference comparison."""
    out = {}
    for name, col in table.items():
        n = len(col)
        out[f"{prefix}:{name}:abssum"] = math.fsum(abs(v) for v in col)
        out[f"{prefix}:{name}:ramp"] = math.fsum(v * (i + 1) / n for i, v in enumerate(col))
        out[f"{prefix}:{name}:sumsq"] = math.fsum(v * v for v in col)
    return out


def _key_values(text: str) -> dict[str, str]:
    return {k.strip(): v.strip() for k, sep, v in
            (line.partition("=") for line in text.splitlines())
            if sep and not k.startswith("#")}


def check_call(argv: list[str], stdout: str, config: dict,
               summarize: bool) -> tuple[dict, float | None]:
    """Check one CLI call's outputs.

    Returns the values kept for the reference comparison (the column
    summaries only when `summarize`) and the call's analytic-versus-oracle
    cross correlation (None when it has none). Raises CheckError on the first
    failed check.
    """
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    out = Path(opts["--out"])
    values: dict = {}
    correlation = None
    table = None
    if command == "coincidence-scan":
        table = _read_csv(out)
        steps = round(float(config[("detection", "scan_range_mm")])
                      / float(config[("detection", "scan_step_mm")]))
        _require_rows(out, table, steps + 1)
        _require_peak(out, table, "rate")
        if opts.get("--mode") == "both":
            _require_peak(out, table, "rate_companion")
            line = _key_values(stdout).get("cross_correlation")
            if line is None:
                raise CheckError("no cross_correlation on stdout")
            correlation = float(line)
            if not correlation >= AGREEMENT_THRESHOLD:
                raise CheckError(f"cross_correlation {correlation!r} < {AGREEMENT_THRESHOLD}")
            values[f"{out.name}:cross_correlation"] = correlation
    elif command == "maker-fringes":
        table = _read_csv(out)
        _require_rows(out, table, 201)  # CLI default: 0 to 1.0 deg in 0.005 deg steps
        _require_peak(out, table, "efficiency")
    elif command == "pump-propagate":
        table = _read_csv(out)
        _require_rows(out, table, int(config[("numerics", "grid_samples")]))
        _require_peak(out, table, "intensity")
        svg = Path(opts["--plot"]).read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
                and "<polyline" in svg):
            raise CheckError(f"{opts['--plot']}: not a complete SVG line plot")
    elif command == "design-poling":
        report = _key_values(out.read_text(encoding="utf-8"))
        try:
            for key in ("n_pump", "n_signal", "n_idler", "poling_period_um"):
                values[f"{out.name}:{key}"] = float(report[key])
            residual = float(report["collinear_residual_rad_per_m"])
        except (KeyError, ValueError) as exc:
            raise CheckError(f"{out.name}: incomplete design report: {exc}") from exc
        if not abs(residual) <= RESIDUAL_LIMIT:
            raise CheckError(f"{out.name}: collinear residual {residual!r} is not ~0")
    else:
        raise CheckError(f"no check for command {command!r}")
    if summarize and table is not None:
        values.update(_summary(out.name, table))
    return values, correlation


def compare_reference(values: dict, reference: dict) -> list[str]:
    """Names of reference values missing from values or off by > REFERENCE_RTOL."""
    bad = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None or not abs(got - ref) <= REFERENCE_RTOL * max(abs(got), abs(ref)):
            bad.append(f"{key}: {got!r} != {ref!r}")
    return bad
