"""tools/src_lines.py counts physical lines as ``wc -l`` does, and code lines
without comments, blank lines or bare string statements. tools/outputs_digest.py
prints one stable line per output array. tools/oracle_seeds.py lists the
(workload, seed) pairs whose benchmark oracle fails. tools/chunk_peak.py prints
one traced memory peak per workload."""

import importlib.util
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from apamix.harness import preset_paper_scenario
from apamix.theory import SteadyStatePrediction

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = _tool("src_lines")
outputs_digest = _tool("outputs_digest")
oracle_seeds = _tool("oracle_seeds")
chunk_peak = _tool("chunk_peak")

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """Docstring."""
    s = """a string argument
    over two lines"""
    return g(
        x,
        s,
    )
'''


def test_code_lines_skip_comments_blanks_and_bare_strings():
    # import; def; s = (two lines); return g( ... ) (four lines)
    assert src_lines.code_lines(SAMPLE) == 1 + 1 + 2 + 4


def test_totals_add_up_per_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "15", "8"], ["b.py", "2", "1"], ["total", "17", "9"]]


def test_digest_runs_print_equal_lines(capsys):
    write_bytecode, path = sys.dont_write_bytecode, list(sys.path)
    assert outputs_digest.main(["desk-zaapa"]) == 0
    first = capsys.readouterr().out
    assert outputs_digest.main(["desk-zaapa"]) == 0
    assert capsys.readouterr().out == first
    # two seeds of: 3 drawn systems, 6 curves, 3 segments of 11 fields, 4 trial records,
    # the curves and segments again at chunk_size=7, and 3 segments of 3 derived
    # inputs and 12 closed forms; all of it again with the other second branch;
    # then one line per preset
    per_branch = 3 + 6 + 3 * 11 + 4 + 6 + 3 * 11 + 3 * 15
    assert len(first.splitlines()) == 2 * 2 * per_branch + 8
    names = [line.split()[2] for line in first.splitlines()]
    assert names[:3] == ["w_opt[0]", "w_opt[1]", "w_opt[2]"]
    # every field of the prediction is digested
    forms = ["p", "beta", "inv_r2"] + [f.name for f in fields(SteadyStatePrediction)]
    assert names[per_branch - 15 : per_branch] == [f"theory[2].{n}" for n in forms]
    assert names[per_branch : 2 * per_branch] == ["other." + n for n in names[:per_branch]]
    presets = [f"{scale}-{kind}-{branch}" for scale in ("desk", "full")
               for kind in ("white", "ar1") for branch in ("zaapa", "zapapa")]
    assert [line.split()[:3] for line in first.splitlines()[-8:]] == [
        ["preset", p, "config"] for p in presets]
    assert (sys.dont_write_bytecode, sys.path) == (write_bytecode, path)


@pytest.mark.parametrize("name", ["segments[1].msd2", "w_opt[2]"])
def test_flipping_one_element_changes_only_its_line(name):
    cfg = preset_paper_scenario("desk", "ar1", "zapapa", runs=4)
    segments = tuple(replace(s, duration=50) for s in cfg.scenario.segments)
    arrays = outputs_digest.outputs(replace(cfg, scenario=replace(cfg.scenario, segments=segments)))
    before = outputs_digest.lines("w 0", arrays)
    flipped = arrays[name].copy()
    flipped[5] = np.nextafter(flipped[5], np.inf)
    after = outputs_digest.lines("w 0", {**arrays, name: flipped})
    changed = [line.split()[2] for old, line in zip(before, after) if old != line]
    assert changed == [name]


def test_oracle_sweep_of_one_seed_passes(capsys):
    assert oracle_seeds.main(["1", "1", "desk-zaapa"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "0 of 1 pairs failed" in captured.err


@pytest.mark.parametrize("argv", [["5", "1", "desk-zaapa"], ["1", "x", "desk-zaapa"],
                                  ["1.5", "3", "desk-zaapa"], ["1", "2"]],
                         ids=["first-above-last", "bound-not-a-number", "bound-not-an-integer",
                              "no-workload"])
def test_oracle_sweep_refuses_a_bad_range(argv, capsys, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(oracle_seeds.subprocess, "run", no_child)
    assert oracle_seeds.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("    python3 tools/oracle_seeds.py FIRST LAST WORKLOAD "
                            "[WORKLOAD ...]\n")


def test_oracle_sweep_lists_a_failing_pair(capsys):
    # a workload that perfbench/child.py refuses: the child exits 2
    assert oracle_seeds.main(["1", "2", "no-such-workload"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:4] for row in rows] == [["no-such-workload", str(s), "child", "exited"]
                                                for s in (1, 2)]


def test_chunk_peak_of_one_workload(capsys):
    write_bytecode = sys.dont_write_bytecode
    assert chunk_peak.main(["desk-zaapa"]) == 0
    (row,) = capsys.readouterr().out.splitlines()
    name, mib, unit = row.split()
    # the desk shape's U, weights, Gram inverses and draws alone take about 1 MiB
    assert (name, unit) == ("desk-zaapa", "MiB") and 1 < float(mib) < 4
    assert not tracemalloc.is_tracing() and sys.dont_write_bytecode == write_bytecode


def test_chunk_peak_refuses_an_unknown_workload(capsys):
    assert chunk_peak.main(["desk-zaapa", "no-such-workload"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no-such-workload" in captured.err
