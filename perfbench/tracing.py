"""In-memory span tracing, installed from outside the package.

The traced run wraps public functions and methods of ``cstarlab`` modules
(and ``numpy.linalg.eigh``) by replacing module and class attributes.
``cstarlab`` imports many names with ``from .x import y``, so a function is
replaced in every ``cstarlab`` module whose namespace holds it.  The
untraced run never installs anything, so its timings are the package as
shipped.

A span records name, start, end, parent and request id.  Aggregates are
kept online (calls, outermost inclusive time, self time); the raw spans are
kept in memory up to a cap and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list] = []
        self.open = defaultdict(int)
        self.calls: Counter = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters: Counter = Counter()
        self.request = None

    def enter(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else None
        frame = [name, perf_counter(), 0.0, self.next_id, parent]
        self.next_id += 1
        self.open[name] += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        name, start, child, span_id, parent = frame
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        self.open[name] -= 1
        if self.open[name] == 0:
            self.inclusive[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((self.request, name, start, end, span_id, parent))
        else:
            self.dropped += 1
        return duration - child

    def snapshot(self) -> dict:
        """Copy of every aggregate, for per-op and per-cycle differences."""
        return {
            "calls": Counter(self.calls),
            "inclusive": dict(self.inclusive),
            "counters": Counter(self.counters),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n"
            )
            for request, name, start, end, span_id, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                            "id": span_id,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, fn, args, kwargs, result)
        return result

    return wrapper


def _count_bytes(tracer, fn, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    # interchange documents are ASCII JSON, so characters are bytes
    tracer.counters["interchange.bytes_in"] += len(text)


def _count_points(tracer, fn, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    tracer.counters["spectra.dedup_points_in"] += len(values)
    tracer.counters["spectra.dedup_points_out"] += len(result[0])


def _count_neumann(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    terms = result[1].terms_used
    tracer.counters["spectral.neumann_terms"] += terms
    norm = bound.arguments["a"].norm()
    tol = bound.arguments["tol"]
    if 0.0 < norm < 1.0:
        predicted = max(1, math.ceil(math.log(tol * (1.0 - norm)) / math.log(norm)))
        tracer.counters["spectral.neumann_terms_traced"] += terms
        tracer.counters["spectral.neumann_terms_predicted"] += predicted


# (module, attribute, span name, after-hook); "Class.method" patches a class.
TARGETS = [
    ("interchange", "load_document", "interchange.parse", _count_bytes),
    ("interchange", "dump_element", "interchange.dump", None),
    ("interchange", "document_to_json", "interchange.dump", None),
    ("algebra", "NormalGeneratorAlgebra.__init__", "algebra.construct", None),
    ("algebra", "FunctionAlgebra.__init__", "algebra.construct", None),
    ("algebra", "AlgebraElement.__add__", "algebra.binop", None),
    ("algebra", "AlgebraElement.__sub__", "algebra.binop", None),
    ("algebra", "AlgebraElement.__mul__", "algebra.binop", None),
    ("algebra", "AlgebraElement.__rmul__", "algebra.binop", None),
    ("algebra", "NormalGeneratorAlgebra.__eq__", "algebra.eq", None),
    ("algebra", "FunctionAlgebra.__eq__", "algebra.eq", None),
    ("algebra", "NormalGeneratorAlgebra.materialize", "algebra.materialize", None),
    ("spectra", "dedup_points", "spectra.dedup", _count_points),
    ("spectral", "neumann_inverse", "spectral.neumann", _count_neumann),
    ("spectral", "perturbation_inverse", "spectral.perturbation", None),
    ("spectral", "apply_polynomial", "spectral.polynomial", None),
    ("spectral", "classify_element", "spectral.classify", None),
    ("spectral", "spectrum", "spectral.spectrum", None),
    ("spectral", "operator_norm", "spectral.opnorm", None),
    ("gelfand", "gelfand_transform", "gelfand.transform", None),
    ("gelfand", "gelfand_inverse", "gelfand.transform", None),
    ("ideals", "Ideal.intersect", "ideals.lattice", None),
    ("ideals", "Ideal.sum_with", "ideals.lattice", None),
    ("ideals", "zariski_V", "ideals.lattice", None),
    ("ideals", "quotient", "ideals.quotient", None),
    ("duality", "verify_equivalence", "duality.equivalence", None),
    ("duality", "verify_naturality_tau", "duality.naturality", None),
    ("duality", "verify_naturality_mu", "duality.naturality", None),
    ("cli", "run", "cli.run", None),
]


def _package_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "cstarlab" or key.startswith("cstarlab."))
    ]


class Instrumentation:
    """Installs the wrappers on entry and restores every attribute on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for module, attr, name, after in TARGETS:
            mod = by_name[f"cstarlab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, method, _wrap(self.tracer, name, cls.__dict__[method], after))
            else:
                original = getattr(mod, attr)
                self._patch_function(modules, original, _wrap(self.tracer, name, original, after))
        sampling = by_name["cstarlab.sampling"]
        for attr, value in list(vars(sampling).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == sampling.__name__
                and not attr.startswith("_")
            ):
                self._patch_function(modules, value, _wrap(self.tracer, "sampling.draw", value))
        self._patch(np.linalg, "eigh", _wrap(self.tracer, "algebra.eigh", np.linalg.eigh))
        return self

    def __exit__(self, *exc) -> None:
        while self.undo:
            owner, attr, original = self.undo.pop()
            setattr(owner, attr, original)
