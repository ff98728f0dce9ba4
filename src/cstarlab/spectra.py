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

__all__ = ["SpectrumSet", "dedup_points", "hausdorff_distance"]

# also the default comparison tolerance of classify_element, run_suite and
# the CLI's --tol, which merges spectra and compares defects alike
DEFAULT_MERGE_TOL = 1e-9
# dedup_points cuts the sorted values into chains from this many values up;
# on spread points that costs the same as the plain sweep at about 40 values
_CHAIN_CUTOFF = 48


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

    So at the start of a chain, a maximal run of sorted values whose
    consecutive real parts lie within ``merge_tol``, the window is empty.
    From ``_CHAIN_CUTOFF`` values up, a chain of one value is therefore a
    representative as it stands, and the sweep runs only inside longer ones.
    """
    arr = np.asarray(values, dtype=complex).reshape(-1)
    # stable, and -0.0 ties with 0.0, as sorting (Re, Im) tuples would
    order = np.lexsort((arr.imag, arr.real))
    n = arr.size
    if n < _CHAIN_CUTOFF:
        reps, assign = [], [0] * n
        _sweep(arr.tolist(), order.tolist(), merge_tol, reps, assign)
        return tuple(reps), tuple(assign)
    ordered = arr[order]
    owner = np.arange(n)  # the sorted position of each value's representative
    cut = np.diff(ordered.real) > merge_tol  # False inside a chain
    if not cut.all():
        bounds = np.flatnonzero(np.concatenate(([True], cut, [True])))
        long = np.flatnonzero(np.diff(bounds) > 1)
        chains = list(map(range, bounds[long].tolist(), bounds[long + 1].tolist()))
        vals, reps, number = ordered.tolist(), [], [0] * n
        for chain in chains:
            _sweep(vals, chain, merge_tol, reps, number)
        members = np.concatenate(chains)
        numbers = np.array(number)[members]
        # representatives are numbered in sweep order, each at its first value
        owner[members] = members[np.unique(numbers, return_index=True)[1]][numbers]
    is_rep = owner == np.arange(n)
    assign = np.empty(n, dtype=np.intp)
    assign[order] = (np.cumsum(is_rep) - 1)[owner]
    return tuple(ordered[is_rep].tolist()), tuple(assign.tolist())


def _sweep(vals, order, merge_tol, reps, assign) -> None:
    """The greedy sweep over ``vals[i]``, i in ``order``: sets ``assign[i]`` to
    an index in ``reps``, which it extends; its window starts empty."""
    first = len(reps)
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


@dataclass(frozen=True)
class SpectrumSet:
    """A finite set of spectrum points in canonical (Re, Im) order."""

    points: tuple[complex, ...]
    merge_tol: float = DEFAULT_MERGE_TOL

    @classmethod
    def from_values(cls, values, merge_tol: float = DEFAULT_MERGE_TOL) -> "SpectrumSet":
        reps, _ = dedup_points(values, merge_tol)
        return cls(reps, merge_tol)

    def radius(self) -> float:
        """Largest modulus over the points."""
        return float(np.abs(self.points).max()) if self.points else 0.0

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
