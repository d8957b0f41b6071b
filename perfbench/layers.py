"""Spans and counters around the verifier's layers, installed from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
instrumented function at every place it is bound -- module globals
(``from .cdga import supercommutator`` makes a second binding in
``geometry``) and class attributes (``Element.__xor__ = wedge``) -- and
``uninstall`` puts the originals back.  Patching only the defining module
would miss every call made through another module's name for the function.

Two kinds of wrapper:

* a span for coarse calls: name, start, end and the index of the enclosing
  span, kept in memory and written out as JSON when the run ends.  Self time
  is a span's duration minus its children's.
* a counter plus a clock for the hot small calls (``Element.wedge``,
  ``Derivation.apply``, ``Derivation.matrix`` and every ``linalg`` function),
  which are called up to a million times a report.  The clock runs only on
  the outermost call of a name, so recursion is not counted twice.

Report sections are spans installed only at the ``report`` module's own
bindings, so a ``classify`` called from ``lefschetz`` is not a section.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

perf = time.perf_counter

PACKAGE = "cokahler"
# modules whose public module-level functions get a span each
SPAN_MODULES = ("modelfile", "geometry", "cdga", "cohomology", "eta",
                "lefschetz", "massey", "minimal", "report", "cli")
# (module, owner, attribute, span name) for methods and private helpers
EXTRA_SPANS = (
    ("cohomology", "CohomologyRing", "__init__", "cohomology.ring"),
    ("cohomology", "CohomologyRing", "class_of", "cohomology.class_of"),
    ("geometry", "LieModel", "lie_xi", "geometry.lie_xi"),
    ("lefschetz", None, "_component_split_ok", "lefschetz.component_split_ok"),
)
# (module, owner, attribute, counter name) for the hot small calls
COUNTERS = (
    ("exterior", "Element", "wedge", "exterior.wedge"),
    ("cdga", "Derivation", "apply", "cdga.derivation_apply"),
    ("cdga", "Derivation", "matrix", "cdga.derivation_matrix"),
)
LINALG_CELLS = ("rref", "rank")     # rows x columns eliminated
# report section -> the functions report.py calls for it, by its own names
SECTIONS = {
    "classify": ("classify",),
    "operator_identities": ("operator_identity_report",),
    "d_eta_equals_lie": ("verify_d_eta_equals_lie",),
    "parallel_form_quism": ("verify_parallel_form_quism",),
    "splitting": ("omega_splitting", "verify_basic_match", "splitting_check",
                  "basic_complex"),
    "lefschetz": ("verify_lefschetz_iso",),
    "massey": ("degree_one_massey_scan", "_massey_section"),
    "minimal_model": ("minimal_model",),
    "tensor_split": ("model_tensor_split_check",),
    "mapping_torus": ("_mapping_torus_section",),
}
RENDER = ("render_json", "render_text")


def _package_namespaces():
    """Every module of the package and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


def _module(short: str):
    return importlib.import_module(f"{PACKAGE}.{short}")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, outermost]
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.cells: dict[str, int] = defaultdict(int)
        self._systems: dict[int, tuple] = {}    # id(matrix) -> (matrix, key)
        self.distinct_systems: set = set()
        self.sites: dict[str, int] = {}         # wrapped name -> binding sites
        self._patched: list[tuple] = []         # (namespace, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, perf(), 0.0, self._stack[-1] if self._stack else -1,
               self._depth[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._depth[name] += 1
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf()
        self._stack.pop()
        self._depth[rec[0]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block (used around CLI calls)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    def _counter_wrapper(self, name: str, fn, measure=None):
        calls, seconds = self.calls, self.seconds
        inside = [False]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if measure is not None:
                measure(*args, **kwargs)
            if inside[0]:
                return fn(*args, **kwargs)
            inside[0] = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf() - start
                inside[0] = False
        return wrapper

    def _cells(self, name: str):
        cells = self.cells

        def measure(mat, *args, **kwargs):
            if mat:
                cells[name] += len(mat) * len(mat[0])
        return measure

    def _solve_system(self, mat, *args, **kwargs):
        entry = self._systems.get(id(mat))
        if entry is None or entry[0] is not mat:
            # keep the matrix alive so its id is not reused for another one
            entry = (mat, tuple(tuple(row) for row in mat))
            self._systems[id(mat)] = entry
        self.distinct_systems.add(entry[1])

    # -- installation ---------------------------------------------------------

    def _replace(self, fn, wrapper, name: str, namespaces=None) -> None:
        count = 0
        for ns in namespaces if namespaces is not None else _package_namespaces():
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, fn))
                    count += 1
        self.sites[name] = self.sites.get(name, 0) + count

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.sites.clear()
        linalg = _module("linalg")
        for attr, fn in list(vars(linalg).items()):
            if inspect.isfunction(fn) and fn.__module__ == linalg.__name__ \
                    and not attr.startswith("_"):
                name = f"linalg.{attr}"
                measure = (self._cells(name) if attr in LINALG_CELLS else
                           self._solve_system if attr == "solve" else None)
                self._replace(fn, self._counter_wrapper(name, fn, measure), name)
        for mod, owner, attr, name in COUNTERS:
            fn = vars(getattr(_module(mod), owner))[attr]
            self._replace(fn, self._counter_wrapper(name, fn), name)
        for mod, owner, attr, name in EXTRA_SPANS:
            ns = _module(mod) if owner is None else getattr(_module(mod), owner)
            fn = vars(ns)[attr]
            self._replace(fn, self._span_wrapper(name, fn), name)
        for short in SPAN_MODULES:
            mod = _module(short)
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = "report.render" if fn.__name__ in RENDER and \
                        short == "report" else f"{short}.{attr}"
                    self._replace(fn, self._span_wrapper(name, fn), name)
        # sections wrap whatever report.py now binds, at report.py only
        report = _module("report")
        for section, attrs in SECTIONS.items():
            name = f"report.section.{section}"
            for attr in attrs:
                fn = vars(report)[attr]
                self._replace(fn, self._span_wrapper(name, fn), name, [report])

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    # -- summaries ------------------------------------------------------------

    def mark(self) -> int:
        """Reset the counters; spans from the returned index on are new."""
        self.calls.clear()
        self.seconds.clear()
        self.cells.clear()
        self.distinct_systems.clear()
        return len(self.spans)

    def summary(self, start: int) -> dict:
        """Per-name calls, inclusive and self seconds since ``mark``."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _, outermost), inner in zip(spans, child):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            if outermost:
                entry["s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - inner
        for name, calls in self.calls.items():
            out[name] = {"calls": calls, "s": self.seconds[name]}
        for name, cells in self.cells.items():
            out[name]["cells"] = cells
        if "linalg.solve" in out:
            out["linalg.solve"]["distinct_systems"] = len(self.distinct_systems)
        return out

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "outermost"],
                "spans": self.spans, "binding_sites": self.sites}

