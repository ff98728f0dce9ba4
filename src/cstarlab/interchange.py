"""The JSON interchange format for algebras and elements.

Two document kinds are accepted:

* ``{"kind": "function_algebra", "points": [...], "values": [[re, im], ...]}``
  describes a function on a finite space, one value per point.
* ``{"kind": "normal_matrix", "n": k, "entries": [[re, im], ...]}`` gives a
  square matrix row-major; the element denoted is the generator of the
  algebra it spans.

Complex numbers are always [re, im] pairs of finite decimal floats.
Anything malformed raises :class:`InvalidDocument`; a non-normal matrix
surfaces as :class:`NotNormal` from the algebra constructor.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain
from typing import Any

import numpy as np

from .algebra import (
    AlgebraElement,
    FunctionAlgebra,
    NormalGeneratorAlgebra,
)
from .errors import CstarError, InvalidDocument
from .spaces import FiniteSpace

__all__ = [
    "load_document",
    "load_path",
    "dump_element",
]


def _as_complex(pair: Any, what: str) -> complex:
    # exact types, as JSON gives them: bool is a subclass of int
    if (
        type(pair) is not list
        or len(pair) != 2
        or any(type(x) not in (int, float) for x in pair)
    ):
        raise InvalidDocument(f"{what} must be a [re, im] pair, got {pair!r}")
    try:
        re, im = float(pair[0]), float(pair[1])
    except OverflowError:
        raise InvalidDocument(f"{what} has an integer too large for a float") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InvalidDocument(f"{what} must be finite, got {pair!r}")
    return complex(re, im)


def _complex_array(pairs: list, what: str) -> np.ndarray:
    """The values of a list of [re, im] pairs, checked and converted in bulk.

    ``np.fromiter`` alone would read ``true`` as 1.0, ``"1.5"`` as 1.5 and
    ``null`` as nan, so the exact types are checked first.  A list that
    fails a check goes through ``_as_complex`` pair by pair, which names
    the first bad entry.
    """
    if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
        flat = list(chain.from_iterable(pairs))
        if set(map(type, flat)) <= {int, float}:
            # an int too large for a float raises OverflowError, as in float()
            with suppress(OverflowError):
                values = np.fromiter(flat, np.float64, len(flat))
                if np.isfinite(values).all():
                    # re, im, re, im, ...: the complex values are a view
                    return values.view(np.complex128)
    for i, pair in enumerate(pairs):
        _as_complex(pair, f"{what}[{i}]")
    raise AssertionError(f"{what} passed _as_complex but not the bulk check")


def complex_pairs(values) -> list[list[float]]:
    """The [re, im] pair of each value, as Python floats."""
    z = np.ascontiguousarray(values, dtype=complex).reshape(-1)
    # stored as re, im, re, im, ...: the pairs are a view, not a copy
    return z.view(np.float64).reshape(-1, 2).tolist()


def load_document(text: str) -> AlgebraElement:
    """Parse an interchange document into an element of its algebra."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over the
        # interpreter's digit limit; RecursionError covers deep nesting
        raise InvalidDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "function_algebra":
        return _load_function_algebra(doc)
    if kind == "normal_matrix":
        return _load_normal_matrix(doc)
    raise InvalidDocument(f"unknown document kind {kind!r}")


def _load_function_algebra(doc: dict) -> AlgebraElement:
    points = doc.get("points")
    values = doc.get("values")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InvalidDocument("'points' must be a list of strings")
    if not isinstance(values, list):
        raise InvalidDocument("'values' must be a list of [re, im] pairs")
    if len(values) != len(points):
        raise InvalidDocument(
            f"{len(points)} points but {len(values)} values"
        )
    try:
        space = FiniteSpace(tuple(points))
    except CstarError as exc:
        raise InvalidDocument(str(exc)) from exc
    return FunctionAlgebra(space).element(_complex_array(values, "values"))


def _load_normal_matrix(doc: dict) -> AlgebraElement:
    n = doc.get("n")
    entries = doc.get("entries")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidDocument("'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n * n:
        raise InvalidDocument(f"'entries' must hold exactly n*n = {n * n} pairs")
    matrix = _complex_array(entries, "entries").reshape(n, n)
    return NormalGeneratorAlgebra(matrix).generator_element()


def load_path(path: str) -> AlgebraElement:
    with open(path, "r", encoding="utf-8") as handle:
        return load_document(handle.read())


def dump_element(a: AlgebraElement) -> dict:
    """Serialize an element back into a document of the matching kind."""
    algebra = a.algebra
    if isinstance(algebra, FunctionAlgebra):
        return {
            "kind": "function_algebra",
            "points": list(algebra.space.points),
            "values": complex_pairs(a.coords),
        }
    if isinstance(algebra, NormalGeneratorAlgebra):
        dense = algebra.materialize(a)
        return {
            "kind": "normal_matrix",
            "n": algebra.dimension_n,
            "entries": complex_pairs(dense),
        }
    raise TypeError(f"cannot serialize elements of {algebra!r}")


def document_to_json(doc: dict) -> str:
    """Canonical single-line JSON for golden-file comparisons; inf or NaN raises ValueError."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
