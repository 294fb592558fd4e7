#!/usr/bin/env python3
"""qpmspdc benchmark: closed-loop CLI workloads with outside-in layer tracing.

Run from the repository root:

    python3 bench/run.py --workload scan-both --seed 0 --seconds 35 --trace 0

One client drives ``qpmspdc.cli.main(argv)`` in this process in a closed
loop: each op starts when the previous one has returned. Every op runs on a
config file generated from the seed (see workloads.py) and its outputs are
checked. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs
each op untraced and traced in turn, requires byte-identical outputs, and
reports per-layer self times and counts. Human-readable lines go first; the
last line of stdout is one JSON object. A full record (environment, per-op
latencies, failures and, when traced, the spans) is written under
bench/_work/.

``--record-reference`` rewrites bench/reference.json from the outputs of the
first ops of every workload at the default seed.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

# Fresh interpreters timed per run for setup_s; one more runs first, untimed,
# so that a fresh checkout's bytecode compilation is not counted.
SETUP_REPEATS = 7


def prepare() -> int:
    """Pin BLAS threads to the usable CPUs and put the checkout's src first.

    Returns the thread count. Must run before numpy is imported.
    """
    if not (SRC / "qpmspdc" / "cli.py").is_file():
        raise SystemExit(f"bench: no qpmspdc sources under {SRC}")
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import qpmspdc
    if Path(qpmspdc.__file__).resolve().parent != SRC / "qpmspdc":
        raise SystemExit(f"bench: imported qpmspdc from {qpmspdc.__file__}, not {SRC}")
    return threads


@dataclass
class OpResult:
    latency_s: float
    failure: str | None = None
    values: dict = field(default_factory=dict)
    correlations: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


class Runner:
    """Runs the ops of one workload; `text_for(index)` gives each op's config."""

    def __init__(self, workload, workdir: Path, text_for, reference=None):
        from qpmspdc import cli
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.text_for = text_for
        self.reference = reference or []

    def _call(self, argv: list[str]) -> tuple[str | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return traceback.format_exc(limit=3), out.getvalue(), err.getvalue()
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()[-300:]}", out.getvalue(), err.getvalue()
        return None, out.getvalue(), err.getvalue()

    def run_op(self, index: int, subdir: str = "plain", tracer=None,
               keep_outputs: bool = False, summarize: bool = False) -> OpResult:
        opdir = self.workdir / subdir
        opdir.mkdir(parents=True, exist_ok=True)
        text = self.text_for(index)
        cfg = opdir / "config.ini"
        cfg.write_text(text, encoding="utf-8")
        argvs = wl.op_argv(self.workload, cfg, opdir)
        calls = []
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        with tracer.span("op") if tracer else nullcontext():
            for argv in argvs:
                with tracer.span("cli") if tracer else nullcontext():
                    calls.append(self._call(argv))
        result = OpResult(time.perf_counter() - start)
        config = wl.config_values(text)
        try:
            for argv, (error, stdout, stderr) in zip(argvs, calls):
                if error is not None:
                    raise wl.CheckError(f"{argv[0]}: {error}")
                values, correlation = wl.check_call(
                    argv, stdout, config, summarize or index < len(self.reference))
                result.values.update(values)
                if correlation is not None:
                    result.correlations.append(correlation)
                if keep_outputs:
                    result.outputs[f"{argv[0]}:stdout"] = stdout.encode()
                    result.outputs[f"{argv[0]}:stderr"] = stderr.encode()
                    for opt in ("--out", "--plot"):
                        if opt in argv:
                            path = Path(argv[argv.index(opt) + 1])
                            result.outputs[path.name] = path.read_bytes()
            if index < len(self.reference):
                bad = wl.compare_reference(result.values, self.reference[index])
                if bad:
                    raise wl.CheckError("differs from reference: " + "; ".join(bad[:3]))
        except (wl.CheckError, OSError, ValueError) as exc:
            result.failure = str(exc)
        return result


def seeded_runner(workload_name: str, seed: int, workdir: Path,
                  check_reference: bool = True) -> Runner:
    workload = wl.WORKLOADS[workload_name]
    base = wl.preset_text(workload.preset)
    reference = None
    if check_reference and seed == wl.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload_name]
    return Runner(workload, workdir,
                  lambda i: wl.variant_text(base, wl.draw_values(workload, seed, i)),
                  reference)


def measure_setup(preset: str) -> float:
    """Median wall time of a fresh interpreter importing the CLI and loading a preset."""
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
              f"from qpmspdc.cli import load_scenario; load_scenario({preset!r})")
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", script], cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the time; block instead and let a timer kill a hung child.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            status = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if status != 0:
            raise SystemExit(f"bench: set-up interpreter exited with {status}")
    return statistics.median(times[1:])


def environment(threads: int, seed: int) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": threads,
            "commit": commit, "seed": seed}


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile of latencies and how many ops lie beyond it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in latencies if v > value)


def closed_loop(runner: Runner, seconds: float, tracer=None):
    """Op 0 warms up untimed; ops 1, 2, ... run until `seconds` have passed.

    Untraced, returns (ops, latencies, wall seconds). Traced, each op runs
    untraced and traced in alternating order, a traced output that differs
    from the untraced one fails the op, and latencies are (untraced, traced).
    """
    ops = [runner.run_op(0)]
    latencies = ([], []) if tracer else []
    index = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is None:
            op = runner.run_op(index)
            latencies.append(op.latency_s)
        else:
            def traced():
                with tracer.installed():
                    return runner.run_op(index, "traced", tracer, keep_outputs=True)
            if index % 2:
                op, shadow = runner.run_op(index, keep_outputs=True), traced()
            else:
                shadow, op = traced(), runner.run_op(index, keep_outputs=True)
            latencies[0].append(op.latency_s)
            latencies[1].append(shadow.latency_s)
            tracer.counts["cli.out_bytes"] += sum(len(v) for k, v in shadow.outputs.items()
                                                  if not k.endswith(":stderr"))
            if op.failure is None:
                if shadow.failure is not None:
                    op.failure = f"traced: {shadow.failure}"
                elif shadow.outputs != op.outputs:
                    op.failure = "traced outputs differ from untraced outputs"
        ops.append(op)
        index += 1
    return ops, latencies, time.perf_counter() - start


def run(workload_name: str, seed: int, seconds: float, trace: bool, threads: int) -> dict:
    workdir = WORK / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = seeded_runner(workload_name, seed, workdir)
    workload = runner.workload
    record = {"workload": workload_name, "why": workload.why, "seconds": seconds,
              "trace": int(trace), "env": environment(threads, seed)}
    if trace:
        import layertrace
        tracer = layertrace.Tracer()
        ops, (plain, traced), wall = closed_loop(runner, seconds, tracer)
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[n, s - origin, e - origin, p, o] for n, s, e, p, o in tracer.spans],
        }), encoding="utf-8")
        record.update(spans=str(spans_path.relative_to(ROOT)),
                      latencies_ms={"untraced": [v * 1e3 for v in plain],
                                    "traced": [v * 1e3 for v in traced]})
    else:
        setup_s = measure_setup(workload.preset)
        ops, latencies, wall = closed_loop(runner, seconds)
        tail_s, beyond = tail(latencies, workload.tail_pct)
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ops_per_s": sum(op.failure is None for op in ops[1:]) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(tail_pct=workload.tail_pct, tail_ops_beyond=beyond,
                      latencies_ms=[v * 1e3 for v in latencies])
    failures = [(i, op.failure) for i, op in enumerate(ops) if op.failure]
    correlations = [c for op in ops for c in op.correlations]
    record.update(
        attempted=len(ops), failed=len(failures), timed_ops=len(ops) - 1,
        fail_ratio=len(failures) / len(ops),
        agreement_min=min(correlations) if correlations else None,
        failures=failures[:20], metrics=metrics)
    (workdir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".gmac", "GMAC"),
                         (".out_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(record: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    for op, reason in record["failures"][:5]:
        print(f"bench: op {op} failed: {reason}", file=sys.stderr)
    name = record["workload"]
    print(f"# {name}: {json.dumps(record['env'], sort_keys=True)}")
    for key, value in record["metrics"].items():
        print(f"{name} {key} = {value:.6g} {unit_of(key)}")
    if "tail_pct" in record:
        print(f"{name} op_tail_ms is p{record['tail_pct']} of {record['timed_ops']} ops, "
              f"{record['tail_ops_beyond']} beyond it")
        if record["tail_ops_beyond"] < 10:
            print(f"bench: fewer than 10 ops beyond p{record['tail_pct']}", file=sys.stderr)
    print(f"{name} fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']} of {record['attempted']} ops)")
    agreement = record["agreement_min"]
    print(f"{name} agreement_min = "
          + ("n/a (no oracle scans)" if agreement is None else f"{agreement:.12g}"))
    metrics = {key: {"value": value, "unit": unit_of(key)}
               for key, value in record["metrics"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def record_reference() -> None:
    reference = {}
    for name in wl.WORKLOADS:
        runner = seeded_runner(name, wl.DEFAULT_SEED, WORK / f"reference-{name}",
                               check_reference=False)
        reference[name] = []
        for index in range(wl.REFERENCE_OPS):
            op = runner.run_op(index, summarize=True)
            if op.failure:
                raise SystemExit(f"bench: {name} op {index} failed: {op.failure}")
            reference[name].append(op.values)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    threads = prepare()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), threads)
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
