"""Every callable the benchmark tracer instruments still exists.

perfbench/tracer.py rebinds the functions named in its TARGETS by
getattr; a deletion or rename in the package would break the benchmark
harness, so it fails here, in the unit tests, first.  The tracer module is
only imported, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("module,path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_target_resolves(module, path):
    owner = importlib.import_module(f"gradedval.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
