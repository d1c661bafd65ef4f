"""The benchmark's tracer wraps projnav names it looks up by string; a
rename in the library must show up here, not as a broken traced run.
The sources are also searched for a P2 gather that bypasses
``SpaceP2Vector.local``."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# a subscript whose index holds a P2 dof map: coeffs[space.gdof],
# coeffs[..., space.gdof, :], w[:, space2.gdof]
GDOF_GATHER = re.compile(r"[\w)\]]\[[^\[\]]*\bgdof\b")


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


def test_gdof_gather_pattern_tells_gathers_from_other_uses():
    for gather in ("coeffs[space.gdof]", "c[..., space.gdof, :]",
                   "w[:, space2.gdof].reshape(-1, 6, 2)", "x[gdof]"):
        assert GDOF_GATHER.search(gather), gather
    for other in ("gdof[:, _SUBTRIANGLES]", "np.vstack([space2.gdof, n2])",
                  "np.take(coeffs, self.gdof, axis=-2)", "space.gdof.ravel()"):
        assert not GDOF_GATHER.search(other), other


def test_p2_gathers_go_through_space_local():
    # fancy indexing by the (nc, 6) dof map is 8-11x slower than the
    # np.take in SpaceP2Vector.local (numpy 2.4)
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted((ROOT / "src" / "projnav").glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if GDOF_GATHER.search(line)]
    assert not found, found
