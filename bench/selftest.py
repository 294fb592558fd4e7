"""Self-tests of the benchmark harness (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider bench/selftest.py
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

THREADS = run.prepare()

import layertrace  # noqa: E402  (needs the package path set by prepare)
import workloads as wl  # noqa: E402
from qpmspdc.config import parse_scenario_text  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_repeats_for_a_seed_and_stays_in_range(name):
    workload = wl.WORKLOADS[name]
    base = wl.preset_text(workload.preset)
    for index in range(5):
        values = wl.draw_values(workload, 7, index)
        assert values == wl.draw_values(workload, 7, index)
        assert values != wl.draw_values(workload, 8, index)
        text = wl.variant_text(base, values)
        assert text == wl.variant_text(base, wl.draw_values(workload, 7, index))
        parsed = wl.config_values(text)
        for key, (lo, hi, _) in workload.jitter.items():
            assert lo <= float(parsed[key]) <= hi
        parse_scenario_text(text)


def test_invalid_config_fails_its_op_and_the_run_continues(tmp_path):
    workload = wl.WORKLOADS["design-sweep"]
    base = wl.preset_text(workload.preset)

    def text_for(index):
        text = wl.variant_text(base, wl.draw_values(workload, 0, index))
        return text.replace("[crystal]", "[crystal]\nno_such_key = 1") if index == 1 else text

    runner = run.Runner(workload, tmp_path, text_for)
    ops, latencies, _ = run.closed_loop(runner, 0.5)
    assert len(ops) >= 3
    assert "exit code 2" in ops[1].failure
    assert [op.failure for op in ops[2:]] == [None] * (len(ops) - 2)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    runner = run.seeded_runner(name, 5, tmp_path)
    tracer = layertrace.Tracer()
    ops, (plain, traced), _ = run.closed_loop(runner, 0.01, tracer)
    assert [op.failure for op in ops] == [None] * len(ops)
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_ratio"] = 0.0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        key: run.unit_of(key) for key in metrics}
    if name == "design-sweep":
        assert metrics["biphoton.oracle.self_ms"] == 0.0
        assert metrics["biphoton.joint_fill.cells"] == 0
    else:
        assert metrics["biphoton.oracle.gmac"] > 0
        assert metrics["svg.points"] == 0
    assert all(value >= 0 for key, value in metrics.items()
               if key != "trace.overhead_ratio")


def test_untraced_run_reports_every_end_to_end_metric():
    record = run.run("design-sweep", wl.DEFAULT_SEED, 0.5, False, THREADS)
    result = run.report(record)
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        key: value["unit"] for key, value in result["metrics"].items()}
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert Path(run.WORK / "design-sweep-seed0-trace0" / "result.json").is_file()
