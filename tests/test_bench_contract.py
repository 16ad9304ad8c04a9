"""The names the benchmark harness in perfbench/ reaches into the package by.

perfbench/tracer.py wraps the functions and methods it lists by name, and
perfbench/worker.py asserts three profile caches empty through cache_info().
A rename or deletion in the package would break the harness only when it
runs; these tests catch it in the suite. They read perfbench and change
nothing there.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(tracer):
    for mod_name, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"torsion_bounds.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod_name}.{name}"


def test_every_traced_method_resolves(tracer):
    for mod_name, classes in tracer.METHODS.items():
        module = importlib.import_module(f"torsion_bounds.{mod_name}")
        for cls_name, methods in classes.items():
            for meth in methods:
                assert callable(getattr(getattr(module, cls_name), meth, None)), f"{cls_name}.{meth}"


def test_worker_caches_expose_cache_info():
    source = (PERFBENCH / "worker.py").read_text()
    names = re.search(r"for cache in \(([^)]*)\)", source).group(1)
    caches = [name.strip() for name in names.split(",") if name.strip()]
    assert len(caches) == 3
    for dotted in caches:
        mod_name, attr = dotted.split(".")
        cache = getattr(importlib.import_module(f"torsion_bounds.{mod_name}"), attr)
        assert callable(cache.cache_info), dotted


def test_fp_matrix_exposes_its_array():
    # tracer._elim_cells counts eliminated cells through FpMatrix.a.shape
    from torsion_bounds.dgl_fp import FpMatrix

    mat = FpMatrix([[1, 2, 0], [0, 4, 1]], 5)
    assert mat.a.shape == (2, 3)
    mat.rank()
    mat.rref_with_transform()
    assert mat.a.shape == (2, 3)


def test_subspace_dims_reaches_the_traced_oracle_methods(monkeypatch):
    # the fp-oracle per-layer metrics dgl_fp.FreeDgl.expansion.calls and
    # dgl_fp.elim.cells count calls of these two methods on the dgl job's path
    from torsion_bounds import dgl_fp

    calls = {"expansion": 0, "rank": 0}
    for cls, name in ((dgl_fp.FreeDgl, "expansion"), (dgl_fp.FpMatrix, "rank")):
        original = getattr(cls, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    dims = dgl_fp.subspace_dims(dgl_fp.WeightedAlphabet.moore(1), {"x": "y", "y": None}, 3, 8)
    assert dims["boundaries"][-1] > 0
    assert calls["expansion"] > 0 and calls["rank"] > 0
