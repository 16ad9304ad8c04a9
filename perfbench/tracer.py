"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records one span: (name, start, end, parent index, job).
Spans stay in memory until the run ends. Self time of a span is its
duration minus the durations of its direct children; calls are nested on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# module -> public functions wrapped at every binding of the package
FUNCTIONS = {
    "charpoly": ("certified_phi", "root_profile", "profile_for_exponent", "newton_sums"),
    "lie_rank": ("pbw_ranks", "babenko_ranks"),
    "dgl_fp": ("super_lyndon_basis", "subspace_dims"),
    "bounds": (
        "f_q",
        "ktheory_lower",
        "weak_lower",
        "rank_window",
        "bezout_cover",
        "homology_params",
        "ktheory_params",
    ),
    "spaces": ("report",),
    "render": ("report_rows", "to_csv", "to_json"),
    "combinat": ("mobius", "divisors", "bezout_min_y", "binom_div_p"),
}
# module -> class -> methods wrapped on the class
METHODS = {
    "dgl_fp": {
        "FreeDgl": ("expansion", "boundary_rank", "bracket", "differential", "tau", "sigma"),
        "FpMatrix": ("rank", "rref_with_transform"),
    },
}
PACKAGE_MODULES = ("cli", "verify", *FUNCTIONS)


def _elim_cells(tracer, args, kwargs):
    rows, cols = args[0].a.shape
    tracer.counts["dgl_fp.elim.cells"] += rows * cols


def _bits(tracer, args, kwargs):
    tracer.counts["charpoly.certified_phi.bits_total"] += args[1] if len(args) > 1 else kwargs["precision_bits"]


# exact work counts taken from the arguments of a wrapped call
COUNTERS = {
    "charpoly.certified_phi": _bits,
    "dgl_fp.FpMatrix.rank": _elim_cells,
    "dgl_fp.FpMatrix.rref_with_transform": _elim_cells,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, job); None while open
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self.enabled = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job)

    @contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every listed function at each module binding, and the listed methods."""
        modules = {m: importlib.import_module(f"torsion_bounds.{m}") for m in PACKAGE_MODULES}
        modules["__init__"] = importlib.import_module("torsion_bounds")
        for mod_name, names in FUNCTIONS.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for mod_name, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[mod_name], cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", getattr(cls, meth)))

    def stats(self) -> dict[str, float]:
        """calls, self_s and total_s per span name, self_s per layer, the exact
        counts, and trace.attributed_s: the time inside top-level spans, which
        the self times of all spans add up to."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, parent, _), covered in zip(self.spans, child_time):
            own = end - start - covered
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += end - start
            out[f"{name.split('.', 1)[0]}.self_s"] += own
            if parent < 0:
                out["trace.attributed_s"] += end - start
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzipped CSV: name, start, end, parent, job."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{job}\n")
