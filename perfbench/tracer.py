"""Span tracing of orbihom from outside the package.

`Tracer.install` rebinds every public function of the measured modules
wherever its name is bound (modules import by name, so `snf` is wrapped
in both `intlin` and `chains`), plus a few methods on their classes.
`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and op id; spans live
in flat arrays and are written out after the run.  A span's self time
is its duration minus the time its child spans cover, including the
tracer's own bookkeeping for those children, so instrumentation cost
is charged to no layer.  `IntMatrix.__init__` is timed and counted
without a span record, and `AffineSimplex.__init__` is only counted:
both run too often to keep a record per call.

Exact counts (calls, multiplications, matrix entries, bit lengths,
model sizes) accumulate only while `counting` is set, so a fixed set
of ops gives the same counts on every run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "orbmodel", "chains", "intlin", "verify", "affops", "report")

# (module, class, method, mode): "span" records a span, "timed" only
# accumulates calls and self time, "count" only counts calls.
METHODS = (
    ("intlin", "IntMatrix", "__matmul__", "span"),
    ("intlin", "IntMatrix", "__init__", "timed"),
    ("orbmodel", "WeightedCellComplex", "__init__", "span"),
    ("orbmodel", "WeightedCellComplex", "chain_complex", "span"),
    ("affops", "AffineSimplex", "__init__", "count"),
    ("report", "VerdictReport", "render", "span"),
    ("report", "VerdictReport", "to_json", "span"),
)

BUILDS = ("orbmodel.t_model", "orbmodel.adapted_model",
          "orbmodel.tensor_weighted")
OUTER_MODELS = ("orbmodel.t_model", "orbmodel.adapted_model",
                "orbmodel.parse_owc")


def _rows(m):
    return (m.row(i) for i in range(m.rows))


def _matmul_counts(counts, args, result):
    a, b = args
    nz_cols = [0] * a.cols
    for row in _rows(a):
        for k, x in enumerate(row):
            if x:
                nz_cols[k] += 1
    useful = 0
    for k, row in enumerate(_rows(b)):
        if nz_cols[k]:
            useful += nz_cols[k] * sum(1 for x in row if x)
    counts["intlin.matmul_mults"] += a.rows * a.cols * b.cols
    counts["intlin.matmul_useful"] += useful


def _snf_counts(counts, args, result):
    a = args[0]
    counts["intlin.snf_entries"] += a.rows * a.cols
    bits = max((abs(x).bit_length() for m in result for row in _rows(m)
                for x in row), default=0)
    counts["intlin.snf_max_bits"] = max(counts["intlin.snf_max_bits"], bits)


EXTRAS = {
    "intlin.IntMatrix.__matmul__": _matmul_counts,
    "intlin.snf": _snf_counts,
}


class Tracer:
    """Wraps orbihom's layers and accumulates spans, self times and counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.counting = False
        self.op = -1
        # One [span index, child seconds] frame per open span; the
        # bottom frame collects top-level spans.
        self._stack: list[list] = [[-1, 0.0]]
        self._outer_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        extra = EXTRAS.get(name)
        is_build = name in BUILDS
        is_outer = name in OUTER_MODELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            stack = tracer._stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0])
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            outer = is_outer and tracer._outer_depth == 0
            tracer._outer_depth += is_outer
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._outer_depth -= is_outer
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.self_time[name] += end - start - frame[1]
            if tracer.counting:
                counts = tracer.counts
                counts[name] += 1
                if is_build:
                    counts["orbmodel.build_calls"] += 1
                if outer:
                    counts["orbmodel.cells"] += len(result.cells)
                    counts["orbmodel.nonzeros"] += sum(
                        len(c.boundary) for c in result.cells)
                if extra is not None:
                    extra(counts, args, result)
            stack[-1][1] += perf_counter() - entered
            return result

        return wrapper

    def _timed(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.self_time[name] += end - start
                if tracer.counting:
                    tracer.counts[name] += 1
                tracer._stack[-1][1] += perf_counter() - start

        return wrapper

    def _count(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.counting:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions and listed methods of each layer."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules[f"orbihom.{layer}"] for layer in LAYERS}
        owners = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ not in owners):
                    continue
                if id(fn) not in wrapped:
                    name = f"{owners[fn.__module__]}.{fn.__qualname__}"
                    wrapped[id(fn)] = self._span(fn, name)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrapped[id(fn)])
        makers = {"span": self._span, "timed": self._timed, "count": self._count}
        for layer, cls_name, method, mode in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, makers[mode](fn, f"{layer}.{cls_name}.{method}"))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def metrics(self, window_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self times over the whole traced run,
        counts over the count window of `window_ops` ops."""
        t = self.self_time
        c = self.counts

        def secs(*names):
            return sum(t[n] for n in names), "s"

        mults = c["intlin.matmul_mults"]
        return {
            "cli.self_s": (sum(v for n, v in t.items()
                               if n.startswith("cli.")), "s"),
            "report.render_s": secs("report.VerdictReport.render",
                                    "report.VerdictReport.to_json"),
            "orbmodel.build_s": secs(*BUILDS),
            "orbmodel.build_calls": (c["orbmodel.build_calls"], "count"),
            "orbmodel.complex_init_s": secs(
                "orbmodel.WeightedCellComplex.__init__"),
            "orbmodel.chain_complex_s": secs(
                "orbmodel.WeightedCellComplex.chain_complex"),
            "orbmodel.ws_complex_s": secs("orbmodel.ws_complex"),
            "orbmodel.parse_owc_s": secs("orbmodel.parse_owc"),
            "orbmodel.cells": (c["orbmodel.cells"], "count"),
            "orbmodel.nonzeros": (c["orbmodel.nonzeros"], "count"),
            "chains.validate_calls": (c["chains.validate"], "count"),
            "chains.validate_s": secs("chains.validate"),
            "chains.validate_per_op": (c["chains.validate"] / window_ops,
                                       "count/op"),
            "chains.homology_s": secs("chains.homology"),
            "chains.restrict_s": secs("chains.subcomplex", "chains.relative",
                                      "chains.inclusion_map"),
            "chains.induced_map_s": secs("chains.induced_map"),
            "chains.connecting_hom_s": secs("chains.connecting_hom"),
            "intlin.matmul_calls": (c["intlin.IntMatrix.__matmul__"], "count"),
            "intlin.matmul_s": secs("intlin.IntMatrix.__matmul__"),
            "intlin.matmul_mults": (mults, "count"),
            "intlin.matmul_useful_ratio": (
                c["intlin.matmul_useful"] / mults if mults else 0.0, "ratio"),
            "intlin.snf_calls": (c["intlin.snf"], "count"),
            "intlin.snf_s": secs("intlin.snf"),
            "intlin.snf_entries": (c["intlin.snf_entries"], "count"),
            "intlin.snf_max_bits": (c["intlin.snf_max_bits"], "bits"),
            "intlin.hnf_calls": (c["intlin.hnf"], "count"),
            "intlin.hnf_s": secs("intlin.hnf"),
            "intlin.rational_rank_s": secs("intlin.rational_rank"),
            "intlin.matrix_new_calls": (c["intlin.IntMatrix.__init__"],
                                        "count"),
            "intlin.matrix_new_s": secs("intlin.IntMatrix.__init__"),
            "verify.check_mv_s": secs("verify.check_mv"),
            "verify.exactness_s": secs("verify.exactness_assertion"),
            "affops.sd_operator_s": secs("affops.sd_operator"),
            "affops.prism_operator_s": secs("affops.prism_operator"),
            "affops.boundary_s": secs("affops.boundary"),
            "affops.simplices_created": (
                c["affops.AffineSimplex.__init__"], "count"),
        }

    def write(self, path, meta: dict) -> None:
        """Write the spans, as parallel columns, to a gzipped JSON file."""
        payload = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
            },
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(payload, out)
