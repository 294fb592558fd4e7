"""tools/compare_outputs.py's call matrix keeps up with the CLI.

The tool itself needs git and runs every call twice, so only its matrix and
its CSV comparison are tested here.
"""
import argparse
import importlib.util
import sys
from itertools import product
from pathlib import Path

import pytest

from qpmspdc.cli import _build_parser

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _subcommands():
    parser = _build_parser()
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices


def test_matrix_runs_every_subcommand_and_choice_on_each_preset(tool):
    calls = tool.call_matrix()
    for preset, (command, parser) in product(tool.PRESETS, _subcommands().items()):
        argvs = [call.argv for call in calls
                 if call.argv[0] == command and call.config.startswith(preset)]
        assert argvs, f"{command} never runs on {preset}"
        if any("--plot" in action.option_strings for action in parser._actions):
            assert any("--plot" in argv for argv in argvs), f"{command} never plots"
        # Every combination of the choice options, --mode x --detectors on
        # coincidence-scan, each with its default where a call leaves it out.
        choices = [action for action in parser._actions if action.choices]
        seen = set()
        for argv in argvs:
            given = dict(zip(argv[1::2], argv[2::2]))
            seen.add(tuple(given.get(action.option_strings[0], action.default)
                           for action in choices))
        missing = set(product(*(action.choices for action in choices))) - seen
        assert not missing, f"{command} on {preset} misses {sorted(missing)}"


def test_matrix_names_are_unique_and_every_config_is_written(tool):
    calls = tool.call_matrix()
    assert len({call.name for call in calls}) == len(calls)
    texts = tool.config_texts(Path(__file__).resolve().parents[1] / "src")
    assert {call.config for call in calls} == set(texts)
    for variant, edits in tool.VARIANTS.items():
        for section, key, value in edits:
            assert f"{key} = {value}" in texts[f"paper-config-1-{variant}"]


def test_csv_difference_reports_each_column(tool):
    base = b"# peak = 1.0\np_m,rate\n0.0,1.0\n1.0,0.5\n"
    head = b"# peak = 2.0\np_m,rate\n0.0,1.0\n1.0,0.5000001\n"
    notes = tool.csv_difference(base, head)
    assert notes[0] == "1 '#' header line(s) differ"
    assert notes[1].startswith("rate: max abs 1e-07, max rel 2e-07")
    assert len(notes) == 2
