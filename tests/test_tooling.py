"""The benchmark's tracer wraps projnav names it looks up by string; a
rename in the library must show up here, not as a broken traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


@pytest.mark.parametrize("module_name, attr",
                         [point[:2] for point in _trace_points()])
def test_trace_point_resolves(module_name, attr):
    module_name, _, class_name = module_name.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        # the tracer replaces the class __dict__ entry itself
        assert attr in getattr(owner, class_name).__dict__
    else:
        assert callable(getattr(owner, attr, None))
