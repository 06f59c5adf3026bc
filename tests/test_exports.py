"""What importing the package provides and what it loads.

Every name a module lists in ``__all__`` exists: perfbench/tracer.py looks
up each listed name to wrap it, so a name left behind by a deletion would
break a traced benchmark run. Every name perfbench/child.py reads span
times of is one the tracer wraps. Importing the CLI loads no SciPy module:
SciPy is a test-only dependency, and importing it cost every ``apamix``
invocation about a second of set-up. Nor does it load the process pool's
modules, which only a run with more than one worker needs.
"""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("signals", "filters", "combination", "linalg", "harness", "theory")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"apamix.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"apamix.{module}.__all__ lists undefined names: {missing}"


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("scipy", "multiprocessing", "concurrent.futures.process")
    code = (
        "import sys, apamix.cli\n"
        f"print(sorted(m for m in sys.modules for h in {heavy!r}\n"
        "             if m == h or m.startswith(h + '.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "[]"


def test_every_traced_name_is_wrapped():
    # perfbench/child.py divides span totals by call counts: a traced name
    # that the tracer no longer wraps breaks the benchmark and no other test
    child = (Path(__file__).resolve().parents[1] / "perfbench" / "child.py").read_text()
    names = set(re.findall(r'\b(?:per_call_us|per_call|find|inside)\(\s*"([\w.]+)"', child))
    assert len(names) >= 11, sorted(names)
    for name in sorted(names):
        module, attr, *method = name.split(".")
        mod = importlib.import_module(f"apamix.{module}")
        assert attr in mod.__all__, f"{name}: {attr} is not in apamix.{module}.__all__"
        obj = getattr(mod, attr)
        if method:  # a public method of a listed class
            assert inspect.isclass(obj) and not method[0].startswith("_"), name
            obj = vars(obj).get(method[0])
        assert inspect.isfunction(obj) and obj.__module__ == mod.__name__, name
