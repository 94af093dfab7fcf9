"""Spans and counters at the public boundaries of each ``metlie`` module.

Only the traced run imports this: ``Tracer.install`` replaces each
boundary listed in ``BOUNDARIES`` by a wrapper, in every ``metlie`` module
that holds it, and ``uninstall`` puts the originals back.  The program
itself is not changed and knows nothing of the wrappers.

A boundary that is missing (renamed or removed by a later refactor) is
recorded as absent and reports zero; it is never an error.  Spans are kept
in memory, one record per call (name, parent span, start, end), and
written out by ``write`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Dict, List, Tuple

# (module, boundary, kind): "count" reports calls only, "span" calls and
# self time, "stage" adds the total time of its outermost activations.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("linalg", "Matrix.init", "count"),
    ("linalg", "Matrix.rref", "span"),
    ("linalg", "Matrix.matmul", "span"),
    ("linalg", "Matrix.solve", "span"),
    ("linalg", "Matrix.nullspace", "span"),
    ("linalg", "Matrix.inverse", "span"),
    ("linalg", "Subspace.span", "span"),
    ("linalg", "signature", "span"),
    ("linalg", "orthogonal_complement", "span"),
    ("lie", "LieAlgebra.init", "span"),
    ("lie", "nilpotency_radical", "span"),
    ("lie", "solvable_radical", "span"),
    ("polynomials", "minimal_polynomial", "span"),
    ("modules", "module_radical", "span"),
    ("modules", "module_socle", "span"),
    ("modules", "filtration", "stage"),
    ("modules", "sub_representation", "span"),
    ("modules", "quotient_representation", "span"),
    ("modules", "Representation.is_submodule", "span"),
    ("modules", "invariant_split", "span"),
    ("cohomology", "equivalent_cocycles", "stage"),
    ("cohomology", "q_action", "span"),
    ("cohomology", "CochainComplex.wedge", "span"),
    ("cohomology", "CochainComplex.differential", "span"),
    ("cohomology", "CochainComplex.d_matrix", "span"),
    ("cohomology", "Cochain.value", "count"),
    ("cohomology", "QuadraticCocycle.init", "span"),
    ("metric", "MetricLieAlgebra.init", "span"),
    ("metric", "metric_violation", "span"),
    ("metric", "canonical_ideals", "stage"),
    ("metric", "canonical_extension", "stage"),
    ("metric", "find_simple_ideal", "span"),
    ("quadext", "build_model", "span"),
    ("quadext", "build_modified", "span"),
    ("quadext", "admissibility", "stage"),
    ("quadext", "is_balanced", "span"),
    ("quadext", "is_indecomposable_class", "span"),
    ("quadext", "alpha0_kernel_image", "span"),
    ("quadext", "psi_map", "span"),
    ("catalog", "catalog_row", "stage"),
    ("catalog", "run_row", "stage"),
    ("catalog", "run_controls", "stage"),
    ("catalog", "non_isomorphism_certificate", "span"),
    ("documents", "load", "stage"),
    ("documents", "parse", "span"),
    ("documents", "serialize", "span"),
    ("documents", "metric_from_payload", "span"),
    ("documents", "extension_payload", "span"),
)

_DUNDER = {"init": "__init__", "matmul": "__matmul__"}


def _layer_metrics():
    """(boundary index, metric name, unit, Tracer field) of every
    per-layer metric, in report order."""
    for sid, (module, name, kind) in enumerate(BOUNDARIES):
        key = f"{module}.{name}"
        yield sid, f"{key}.calls", "count", "calls"
        if kind != "count":
            yield sid, f"{key}.self_s", "s", "self_time"
        if kind == "stage":
            yield sid, f"{key}.total_s", "s", "total_time"


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for _, name, unit, _ in _layer_metrics()]


class Tracer:
    def __init__(self):
        self.names: List[str] = [f"{m}.{n}" for m, n, _ in BOUNDARIES]
        count = len(self.names)
        self.calls = [0] * count
        self.self_time = [0.0] * count
        self.total_time = [0.0] * count
        self._active = [0] * count
        self._stack: List[list] = []          # [span index, child time]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _enter(self, sid: int) -> list:
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0, sid]
        self._stack.append(frame)
        self._active[sid] += 1
        self.span_start.append(perf_counter())
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        idx, child, sid = frame
        self._stack.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        self.self_time[sid] += duration - child
        self._active[sid] -= 1
        if not self._active[sid]:
            self.total_time[sid] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, label: str, fn, *args):
        """Run fn(*args) inside a root span named ``label`` (one operation)."""
        if label not in self.names:
            self.names.append(label)
            for lst in (self.calls, self.self_time, self.total_time, self._active):
                lst.append(0)
        sid = self.names.index(label)
        self.calls[sid] += 1
        frame = self._enter(sid)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _span_wrapper(self, fn, sid: int):
        enter, leave, calls = self._enter, self._exit, self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[sid] += 1
            frame = enter(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
        return wrapped

    def _count_wrapper(self, fn, sid: int):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[sid] += 1
            return fn(*args, **kwargs)
        return wrapped

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary that exists; note the ones that do not."""
        for sid, (module_name, name, kind) in enumerate(BOUNDARIES):
            try:
                module = importlib.import_module(f"metlie.{module_name}")
            except ImportError:
                module = None
            make = self._count_wrapper if kind == "count" else self._span_wrapper
            if "." in name:
                cls_name, attr = name.split(".", 1)
                cls = getattr(module, cls_name, None)
                attr = _DUNDER.get(attr, attr)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    self.absent.append(f"{module_name}.{name}")
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(make(raw.__func__, sid))
                else:
                    wrapped = make(raw, sid)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{name}")
                continue
            wrapped = make(original, sid)
            for holder in [m for n, m in sorted(sys.modules.items())
                           if n == "metlie" or n.startswith("metlie.")]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # --- reporting ---------------------------------------------------------

    def metrics(self, rounds: int) -> Dict[str, Dict[str, float]]:
        """Per-layer metrics per round (totals divided by ``rounds``)."""
        return {name: {"value": getattr(self, field)[sid] / rounds, "unit": unit}
                for sid, name, unit, field in _layer_metrics()}

    def write(self, path_stem: str, extra: Dict) -> None:
        """Spans as four arrays in ``<stem>.spans`` (name id int32, parent
        span int32 or -1, start float64, end float64, ``count`` items each,
        in that order and in the recorded byte order) and an index in
        ``<stem>.json``."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        with open(path_stem + ".spans", "wb") as fh:
            for a in (self.span_name, self.span_parent, self.span_start,
                      self.span_end):
                a.tofile(fh)
        index = dict(extra, count=len(self.span_start), names=self.names,
                     layout=["name:int32", "parent:int32", "start:float64",
                             "end:float64"],
                     byteorder=sys.byteorder, absent=self.absent)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)


def read_spans(path_stem: str):
    """(names, [(name, parent, start, end), ...]) from ``Tracer.write``."""
    with open(path_stem + ".json", encoding="utf-8") as fh:
        index = json.load(fh)
    count = index["count"]
    arrays = [array(t) for t in "iidd"]
    with open(path_stem + ".spans", "rb") as fh:
        for a in arrays:
            a.fromfile(fh, count)
            if index["byteorder"] != sys.byteorder:
                a.byteswap()
    return index["names"], list(zip(*arrays))
