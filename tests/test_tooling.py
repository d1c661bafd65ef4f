"""The benchmark's tracer wraps projnav names it looks up by string; a
rename in the library must show up here, not as a broken traced run.
The sources are also searched for a P2 gather that bypasses
``SpaceP2Vector.local``, and for an element pattern built anywhere but in
a space's ``pattern`` property."""

import ast
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



def _calls(tree, name, where=""):
    """Where (``Class.function``) each call of ``name`` in ``tree`` is."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{where}.{node.name}".lstrip(".")
        if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            yield where
        yield from _calls(node, name, inner)


def test_element_patterns_are_built_only_by_the_spaces():
    # each space sorts its element keys once; every other map (the
    # gradient coupling's block, the transpose) is read off a space's
    # pattern, so a constructor call anywhere else is a second sort
    found = [f"{path.name}:{where}"
             for path in sorted((ROOT / "src" / "projnav").glob("*.py"))
             for where in _calls(ast.parse(path.read_text()),
                                 "ElementPattern")]
    assert sorted(found) == ["fem.py:SpaceP1.pattern",
                             "fem.py:SpaceP2Vector.pattern"]


def test_call_finder_names_the_enclosing_method():
    tree = ast.parse("class A:\n    def f(self):\n        return g(1)\n"
                     "def h():\n    return m.g(2)\ng(3)\n")
    assert list(_calls(tree, "g")) == ["A.f", "h", ""]
