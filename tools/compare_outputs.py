#!/usr/bin/env python3
"""Compare the CLI outputs of the working tree with those of another revision.

Run from anywhere in the repository:

    python3 tools/compare_outputs.py BASE_REV

``git archive`` extracts BASE_REV's ``src/`` into a temporary directory. A
fixed matrix of CLI calls (``call_matrix``) then runs against that tree and
against the working tree's ``src/``, each call in its own subprocess with
the tree's ``src`` as PYTHONPATH and one BLAS thread, two calls at a time.
For every call the tool compares each file the call writes (CSV, SVG,
design report), stdout, stderr and the exit code. For a CSV that differs it
gives the largest absolute and relative difference per column. Each
differing call gets its own line; the last line is the summary. The exit
status is 0 when every call is byte-identical, 1 when one differs and 2
when BASE_REV cannot be read.

The matrix:

- both presets, as shipped and with ``temperature_c = 20.4``,
  ``normalize = false``, ``angle_convention = internal``,
  ``grid_extent_mm = 80``, or a wide scan (``distance_mm = 10``,
  ``scan_range_mm = 7``, ``scan_step_mm = 0.1``) whose outer slit points
  sit just inside the paraxial bound;
- on each: ``maker-fringes`` and ``pump-propagate`` with ``--plot``,
  ``design-poling`` to stdout, and ``coincidence-scan`` with ``--plot`` in
  every ``--mode`` x ``--detectors``;
- every command of the first four seed-0 ops of each benchmark workload,
  on the configs ``bench/workloads.py`` draws for them.

Each tree's configs are written from its own presets.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads as wl  # noqa: E402

PRESETS = ("paper-config-1", "paper-config-2")
# Config variants as (section, key, value) edits of a preset.
VARIANTS = {
    "shipped": (),
    "temperature-20.4": (("crystal", "temperature_c", "20.4"),),
    "unnormalized": (("numerics", "normalize", "false"),),
    "internal-angles": (("numerics", "angle_convention", "internal"),),
    "grid-80mm": (("numerics", "grid_extent_mm", "80"),),
    # Warns of a regime violation and a clipped joint grid; its outer slit
    # points reach |q|/k = 0.198, just inside the paraxial bound.
    "wide-scan": (("detection", "distance_mm", "10"), ("detection", "scan_range_mm", "7"),
                  ("detection", "scan_step_mm", "0.1")),
}
MODES = ("analytic", "oracle", "both")
DETECTORS = ("both", "signal", "idler")
BENCH_OPS = 4
# Calls run at a time; each child uses one BLAS thread.
JOBS = 2


@dataclass(frozen=True)
class Call:
    """One CLI call: a name, the config file it reads and its argv."""

    name: str
    config: str
    argv: tuple[str, ...]


def _config_path(config: str) -> str:
    # Calls run in calls/<name>/ beside configs/, the same in either tree.
    return f"../../configs/{config}.ini"


def call_matrix() -> list[Call]:
    calls = []
    for preset, variant in product(PRESETS, VARIANTS):
        config = f"{preset}-{variant}"
        cfg = _config_path(config)
        plotted = ("--out", "out.csv", "--plot", "plot.svg")
        calls += [Call(f"{config}.maker-fringes", config,
                       ("maker-fringes", "--config", cfg, *plotted)),
                  Call(f"{config}.design-poling", config,
                       ("design-poling", "--config", cfg)),
                  Call(f"{config}.pump-propagate", config,
                       ("pump-propagate", "--config", cfg, *plotted))]
        calls += [Call(f"{config}.coincidence-scan.{mode}.{detectors}", config,
                       ("coincidence-scan", "--config", cfg, *plotted,
                        "--mode", mode, "--detectors", detectors))
                  for mode, detectors in product(MODES, DETECTORS)]
    for workload, index in product(wl.WORKLOADS.values(), range(BENCH_OPS)):
        config = f"bench-{workload.name}-{index}"
        argvs = wl.op_argv(workload, Path(_config_path(config)), Path("."))
        calls += [Call(f"{config}.{number}.{argv[0]}", config, tuple(argv))
                  for number, argv in enumerate(argvs)]
    return calls


def _edited(text: str, edits) -> str:
    """Preset text with each (section, key, value) set, added to its section if absent."""
    lines = text.splitlines()
    for section, key, value in edits:
        start = lines.index(f"[{section}]") + 1
        end = next((j for j in range(start, len(lines)) if lines[j].startswith("[")),
                   len(lines))
        hits = [j for j in range(start, end)
                if not lines[j].lstrip().startswith("#")
                and lines[j].partition("=")[0].strip() == key]
        if hits:
            lines[hits[0]] = f"{key} = {value}"
        else:
            lines.insert(start, f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_texts(src: Path) -> dict[str, str]:
    """Every config the matrix reads, from the presets under ``src``."""
    def preset(name: str) -> str:
        path = src / "qpmspdc" / "presets" / (name.replace("-", "_") + ".ini")
        return path.read_text(encoding="utf-8")

    texts = {f"{name}-{variant}": _edited(preset(name), edits)
             for name, (variant, edits) in product(PRESETS, VARIANTS.items())}
    for workload, index in product(wl.WORKLOADS.values(), range(BENCH_OPS)):
        values = wl.draw_values(workload, wl.DEFAULT_SEED, index)
        texts[f"bench-{workload.name}-{index}"] = wl.variant_text(preset(workload.preset), values)
    return texts


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def run_tree(src: Path, work: Path, calls: list[Call]) -> dict[str, Outcome]:
    """Run every call against the sources under ``src``, with outputs under ``work``."""
    configs = work / "configs"
    configs.mkdir(parents=True)
    for name, text in config_texts(src).items():
        (configs / f"{name}.ini").write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(call: Call) -> tuple[str, Outcome]:
        cwd = work / "calls" / call.name
        cwd.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "qpmspdc", *call.argv], cwd=cwd,
                              env=env, capture_output=True, check=False)
        files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
        return call.name, Outcome(done.returncode, done.stdout, done.stderr, files)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return dict(pool.map(run, calls))


def _table(data: bytes) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, column names, rows) of a CSV."""
    lines = data.decode("utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return comments, (rows[0] if rows else []), rows[1:]


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else math.inf


def csv_difference(base: bytes, head: bytes) -> list[str]:
    """How two CSVs differ: header lines, shape, then each differing column's
    largest absolute and relative difference."""
    base_comments, base_names, base_rows = _table(base)
    head_comments, head_names, head_rows = _table(head)
    notes = []
    changed = sum(a != b for a, b in zip(base_comments, head_comments))
    changed += abs(len(base_comments) - len(head_comments))
    if changed:
        notes.append(f"{changed} '#' header line(s) differ")
    if base_names != head_names or len(base_rows) != len(head_rows):
        notes.append(f"columns {base_names} x {len(base_rows)} rows became "
                     f"{head_names} x {len(head_rows)} rows")
        return notes
    for column, name in enumerate(base_names):
        worst_abs = worst_rel = 0.0
        for base_row, head_row in zip(base_rows, head_rows):
            a, b = float(base_row[column]), float(head_row[column])
            if a != b and not (math.isnan(a) and math.isnan(b)):
                worst_abs = max(worst_abs, abs(a - b) if math.isfinite(a - b) else math.inf)
                worst_rel = max(worst_rel, _relative(a, b))
        if worst_abs or worst_rel:
            notes.append(f"{name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
    return notes


def differences(base: Outcome, head: Outcome) -> list[str]:
    """Every way one call's outcome differs between the trees; empty if none."""
    notes = []
    if base.code != head.code:
        notes.append(f"exit code {base.code} -> {head.code}")
    for stream in ("stdout", "stderr"):
        if getattr(base, stream) != getattr(head, stream):
            notes.append(f"{stream} differs")
    for name in sorted(base.files.keys() | head.files.keys()):
        if name not in head.files or name not in base.files:
            notes.append(f"{name} only in {'base' if name in base.files else 'head'}")
        elif base.files[name] != head.files[name]:
            detail = (csv_difference(base.files[name], head.files[name])
                      if name.endswith(".csv") else [])
            notes.append(f"{name} differs" + "".join(f"; {d}" for d in detail))
    return notes


def extract_src(rev: str, into: Path) -> str:
    """Extract ``rev``'s src/ into ``into``; return the commit's id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", f"{sha}:src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV", help="git revision to compare against")
    args = parser.parse_args(argv)
    calls = call_matrix()
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        base_src = Path(tmp) / "base-src"
        try:
            sha = extract_src(args.base_rev, base_src)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot read {args.base_rev!r}: {exc.stderr.strip()}", file=sys.stderr)
            return 2
        base = run_tree(base_src, Path(tmp) / "base", calls)
        head = run_tree(ROOT / "src", Path(tmp) / "head", calls)
    differing = 0
    kinds: dict[str, int] = {}
    for call in calls:
        for name in head[call.name].files:
            suffix = Path(name).suffix.lstrip(".").upper()
            kinds[suffix] = kinds.get(suffix, 0) + 1
        notes = differences(base[call.name], head[call.name])
        if notes:
            differing += 1
            print(f"{call.name}: " + "; ".join(notes))
    files = ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
    print(f"compare_outputs: {len(calls) - differing} of {len(calls)} calls byte-identical "
          f"to {sha[:12]} ({args.base_rev}) in every file ({files}), stdout, stderr "
          f"and exit code; {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
