"""The benchmark tracer wraps library functions by (module, attribute) name.

Every name in its target table must resolve, so removing or renaming one of
them fails here rather than only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "rtsabench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("rtsabench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _, _ in TRACER.TARGETS])
def test_tracer_target_resolves(owner, attr):
    resolved = TRACER._resolve(owner)
    fn = resolved.__dict__.get(attr) if isinstance(resolved, type) else getattr(resolved, attr, None)
    assert callable(fn), f"{owner}.{attr} is gone; the benchmark tracer wraps it by name"
