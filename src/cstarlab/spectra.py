"""Finite spectra as deduplicated complex point sets, and the package's cutoffs.

A spectrum is stored with a merge tolerance: values closer than the
tolerance are considered one point.  Set comparisons go through the
Hausdorff distance, which is the canonical equality predicate for
spectra throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpectrumSet", "dedup_points", "hausdorff_distance", "invertibility_tolerance"]

# Every verdict cutoff, once, with the scale it multiplies.  Construction works
# in units of 2^k, the power of two above the largest |Re| or |Im| of an entry
# of the generator M (Ms = M 2^-k), so its cutoffs scale with M.
# absolute: spectrum merge, resolvent's SpectrumHit, and the default tolerance
# of classify_element, run_suite and --tol, which merge and compare alike
DEFAULT_MERGE_TOL = 1e-9
INVERTIBILITY_TOL = 1e-10  # x |a|: a character value at or below it counts as zero
PROBE_TOL = 1e-10  # absolute: the duality probes and duality.check's default bound
NORMALITY_TOL = 1e-10  # x |Ms|_F^2: bounds |[Ms, Ms*]|_F
EIGENVALUE_MERGE_TOL = 1e-8  # x 2^k: eigenvalues this close are one character
UNITARITY_TOL = 1e-12  # x n: bounds |U* U - I|_F, as U has no units
RECONSTRUCTION_TOL = 1e-8  # x n |Ms|_F, plus |[Ms, Ms*]|_F / |Ms|_F: bounds |U D U* - Ms|_F
CLUSTER_GAP_TOL = 2e-8  # x max(1, max |w|), 2^k units: Hermitian eigenvalues this close cluster

# dedup_points checks for spread values from this many up; the check costs as
# much as the sweep it saves at about 24 spread values, and is waste otherwise
_SPREAD_CHECK = 48


def invertibility_tolerance(a) -> float:
    """Cutoff, relative to norm(a), at or below which a character value
    counts as zero; the zero element is therefore not invertible."""
    norm = a.norm()
    if norm == math.inf:  # such as |1.7e308+1.7e308j|; take it at half scale
        return 2 * INVERTIBILITY_TOL * float(np.abs(a.coords * 0.5).max())
    return INVERTIBILITY_TOL * norm


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

    So when every consecutive sorted real-part gap exceeds ``merge_tol``,
    every value is its own representative; from ``_SPREAD_CHECK`` values
    up, one array pass checks for that before the sweep runs.
    """
    arr = np.asarray(values, dtype=complex).reshape(-1)
    # stable, and -0.0 ties with 0.0, as sorting (Re, Im) tuples would
    order = np.lexsort((arr.imag, arr.real))
    n = arr.size
    if n >= _SPREAD_CHECK:
        ordered = arr[order]
        # an inf gap (finite parts) is truly > merge_tol; a NaN gap goes to the sweep
        with np.errstate(over="ignore", invalid="ignore"):
            spread = (np.diff(ordered.real) > merge_tol).all()
        if spread:
            assign = np.empty(n, dtype=np.intp)
            assign[order] = np.arange(n)
            return tuple(ordered.tolist()), tuple(assign.tolist())
    reps, assign = _sweep(arr.tolist(), order.tolist(), merge_tol)
    return tuple(reps), tuple(assign)


def _sweep(vals, order, merge_tol) -> tuple[list[complex], list[int]]:
    """The greedy sweep over ``vals[i]``, i in ``order``: the representatives
    and, for each i, the index of the one ``vals[i]`` merged into."""
    reps, assign, first = [], [0] * len(vals), 0
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
    return reps, assign


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
