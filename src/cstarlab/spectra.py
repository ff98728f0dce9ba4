"""Finite spectra as deduplicated complex point sets.

A spectrum is stored with a merge tolerance: values closer than the
tolerance are considered one point.  Set comparisons go through the
Hausdorff distance, which is the canonical equality predicate for
spectra throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# also the default comparison tolerance of classify_element, run_suite and
# the CLI's --tol, which merges spectra and compares defects alike
DEFAULT_MERGE_TOL = 1e-9


def dedup_points(values, merge_tol: float) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    """Greedy merge of near-coincident values in canonical order.

    Returns the representatives (each one an actual input value) and, for
    every input value, the index of the representative it merged into.
    Representatives are pairwise farther apart than ``merge_tol`` because a
    value only becomes a representative when no existing one is within
    tolerance.  Among representatives within tolerance the nearest wins,
    and on a tie the one added last.

    Values are visited in (Re, Im) order, so representatives are appended
    with nondecreasing real parts.  Once ``v.real - r.real > merge_tol``
    for a visited value ``v``, ``abs(v - r)`` (at least that difference)
    exceeds the tolerance for ``v`` and for every later value, so the sweep
    drops ``r`` for good.  The cost is a sort plus one distance per pair of
    value and representative whose real parts lie within ``merge_tol``.
    """
    arr = np.asarray(values, dtype=complex).reshape(-1)
    vals = arr.tolist()
    # stable, and -0.0 ties with 0.0, as sorting (Re, Im) tuples would
    order = np.lexsort((arr.imag, arr.real)).tolist()
    reps: list[complex] = []
    assign = [0] * len(vals)
    first = 0
    for i in order:
        v = vals[i]
        while first < len(reps) and v.real - reps[first].real > merge_tol:
            first += 1
        best, best_dist = -1, merge_tol
        for k in range(first, len(reps)):
            try:
                d = abs(v - reps[k])
            except OverflowError:  # finite parts, modulus above the float range
                d = math.inf
            if d <= best_dist:
                best, best_dist = k, d
        if best < 0:
            reps.append(v)
            best = len(reps) - 1
        assign[i] = best
    return tuple(reps), tuple(assign)


@dataclass(frozen=True)
class SpectrumSet:
    """A finite set of spectrum points in canonical (Re, Im) order."""

    points: tuple[complex, ...]
    merge_tol: float = DEFAULT_MERGE_TOL

    @classmethod
    def from_values(cls, values, merge_tol: float = DEFAULT_MERGE_TOL) -> "SpectrumSet":
        reps, _ = dedup_points(values, merge_tol)
        return cls(reps, merge_tol)

    @property
    def size(self) -> int:
        return len(self.points)

    def radius(self) -> float:
        """Largest modulus over the points."""
        return float(np.abs(self.points).max()) if self.points else 0.0

    def hausdorff(self, other: "SpectrumSet | tuple | list") -> float:
        pts = other.points if isinstance(other, SpectrumSet) else tuple(other)
        return hausdorff_distance(self.points, pts)

    def close_to(self, other, tol: float = DEFAULT_MERGE_TOL) -> bool:
        return self.hausdorff(other) <= tol

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        inside = ", ".join(f"{p:.6g}" for p in self.points)
        return f"SpectrumSet({{{inside}}}, merge_tol={self.merge_tol:g})"


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite nonempty complex point sets."""
    pa = np.asarray(list(a), dtype=complex)
    pb = np.asarray(list(b), dtype=complex)
    if pa.size == 0 or pb.size == 0:
        raise ValueError("Hausdorff distance needs nonempty sets")
    with np.errstate(over="ignore"):  # points farther apart than floats reach
        gaps = np.abs(pa[:, None] - pb[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))
