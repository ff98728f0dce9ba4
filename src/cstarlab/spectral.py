"""Spectral calculus: series inversion, spectra, radii, classification.

The geometric series drives everything here.  Character coordinates are
the algebra's arithmetic (it is C of its characters), so truncated series
are summed on coordinate arrays, and their residuals are measured, never
assumed; the closed-form coordinatewise answers exist too, but they are
kept in the test suite as independent oracles.

Each loop is written once.  ``_geometric_sum`` sums the Neumann series for
``neumann_inverse`` and ``perturbation_inverse``; it still measures the
residual of every partial sum, but a block of partial sums at a time, and
the length of each block follows the decay measured so far.
``operator_norm`` needs no Gelfand limit: by the C*-identity it is the
root of the largest eigenvalue of the Hermitian M* M, one symmetric
eigenvalue solve and never an SVD, so the SVD stays an independent oracle.
``classify_element`` takes its four defects on the one coordinate array,
where a defect too large for a float reads inf.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, _matrix_entry
from .errors import (
    DomainError,
    NonFinite,
    NormTooLarge,
    NotInvertible,
    Overflow,
    PerturbationTooLarge,
    SpectrumHit,
    Unconverged,
)
from .spectra import DEFAULT_MERGE_TOL, SpectrumSet, invertibility_tolerance

__all__ = [
    "NeumannReport",
    "RadiusEstimate",
    "ClassificationReport",
    "neumann_inverse",
    "perturbation_inverse",
    "is_invertible",
    "invert",
    "resolvent",
    "spectrum",
    "spectral_radius_exact",
    "spectral_radius_limit",
    "operator_norm",
    "apply_polynomial",
    "apply_function",
    "classify_element",
    "inversion_delta",
]


@dataclass(frozen=True)
class NeumannReport:
    """Statistics of a truncated geometric series.

    ``terms_used`` counts the summed powers (so the highest power is
    ``terms_used - 1``), ``residual`` is the measured defect of the partial
    sum as an inverse, and ``a_priori_bound`` is the geometric tail bound
    for that truncation point.
    """

    terms_used: int
    residual: float
    a_priori_bound: float


@dataclass(frozen=True)
class RadiusEstimate:
    """Successive-squaring estimate of the spectral radius with its trace."""

    estimate: float
    trace: tuple[float, ...]


@dataclass(frozen=True)
class ClassificationReport:
    """Which of the four classical element classes an element belongs to.

    ``witness_tolerances`` records the measured defect of each defining
    identity; a flag is set when its defect is within tolerance.  When
    positivity fails, ``positive_offender`` is a character value that is
    not a nonnegative real.
    """

    flags: dict[str, bool]
    witness_tolerances: dict[str, float]
    positive_offender: complex | None = None


# most entries (rows x dim) in one block of partial sums, 128 KiB: it bounds
# the memory, and at dim 512 blocks of 2^14 entries measured slower
_BLOCK_ENTRIES = 1 << 13


def _geometric_sum(first, step, target, tol, max_terms, tail_bound):
    """Sum first, step(first), step(step(first)), ... as an inverse of target
    (see neumann_inverse) on coordinate arrays; only the sum is wrapped.
    ``step`` maps coordinates to coordinates and is a callable, not a ratio:
    numpy's complex x * y and y * x can differ in the last bit, so each caller
    keeps its own operand order.

    The residual of every partial sum is measured, a block at a time: the
    partial sums fill the rows of a block, their residuals are taken in
    three array passes, and the rows are read in order, so the first one
    within ``tol`` stops the sum.  The first block has 2 rows; each later
    one has the rows that the decay of the last two residuals needs to
    reach ``tol`` (8 while that decay is unknown), and no more than
    ``max_terms`` allows or ``_BLOCK_ENTRIES`` entries.  Rows past the stop
    are computed but never read."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    dim = first.coords.size
    total, term = first.coords, first.coords
    done, rows = 0, 2
    previous = last = math.nan
    # an overflowing term or residual ends in NonFinite, as in _fresh; an
    # overflowing modulus alone reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            # max_terms may be a float: it is only compared with a term count
            rows = max(1, int(min(rows, max_terms - done, _BLOCK_ENTRIES // dim)))
            sums = np.empty((rows, dim), dtype=complex)
            for j, row in enumerate(sums):
                if done or j:
                    term = step(term)
                    np.add(total, term, out=row)
                else:
                    row[:] = total
                total = row
            # numpy multiplies a lone coordinate broadcast down a column with
            # another kernel, whose last bit can differ; give it a full column
            targets = target.coords if dim > 1 else np.full(sums.shape, target.coords)
            r = targets * sums
            r -= 1.0
            residuals = np.abs(r).max(axis=1).tolist()
            for j, residual in enumerate(residuals):
                terms = done + j + 1
                if not math.isfinite(residual) and not np.isfinite(r[j]).all():
                    raise NonFinite("coordinates must be finite")
                if not residual > tol:
                    return first.algebra._fresh(sums[j].copy()), NeumannReport(
                        terms, residual, tail_bound(terms)
                    )
                if terms >= max_terms:
                    raise Unconverged(
                        f"residual {residual:.3e} after {terms} terms (tol {tol:.3e})",
                        partial=first.algebra._fresh(sums[j].copy()),
                        report=NeumannReport(terms, residual, tail_bound(terms)),
                    )
            del r  # one block of residuals alive at a time, not two
            done += rows
            previous, last = ([previous, last] + residuals)[-2:]
            rows = 8
            if tol > 0.0 and 0.0 < last < previous:
                rate = last / previous
                if 0.0 < rate < 1.0:
                    rows = math.ceil((math.log(tol) - math.log(last)) / math.log(rate))


def neumann_inverse(
    a: AlgebraElement, tol: float = 1e-10, max_terms: int = 1000
) -> tuple[AlgebraElement, NeumannReport]:
    """Invert ``e - a`` by summing the geometric series in the algebra.

    Requires ``norm(a) < 1``.  Terms are accumulated until the measured
    residual ``norm((e - a) * s - e)`` drops to ``tol``; running past
    ``max_terms`` raises :class:`Unconverged` carrying the best partial sum.
    """
    norm_a = a.norm()
    if norm_a >= 1.0:
        raise NormTooLarge(f"geometric series needs norm(a) < 1, got {norm_a:.6g}")
    e = a.algebra.unit()
    return _geometric_sum(
        e, lambda t: t * a.coords, e - a, tol, max_terms, lambda n: norm_a**n / (1.0 - norm_a)
    )


def perturbation_inverse(
    a: AlgebraElement, b: AlgebraElement, tol: float = 1e-10, max_terms: int = 1000
) -> AlgebraElement:
    """Invert ``b`` by perturbing off a known invertible ``a``.

    Sums ``(a_inv * (a - b))^n * a_inv``, which converges whenever
    ``norm(a - b) < 1 / norm(a_inv)``; outside that ball the call raises
    :class:`PerturbationTooLarge` rather than returning a doubtful sum.  An
    :class:`Unconverged` report bounds the tail after n terms by
    ``norm(r)^n * norm(a_inv) / (1 - norm(r))``, r = a_inv * (a - b).
    """
    a_inv = invert(a)
    diff = a - b
    inv_norm = a_inv.norm()
    gap, radius = diff.norm(), 1.0 / inv_norm
    if gap >= radius:
        raise PerturbationTooLarge(
            f"norm(a - b) = {gap:.6g} is not below 1/norm(a_inv) = {radius:.6g}"
        )
    ratio = a_inv * diff

    def tail_bound(n):
        # gap < radius gives norm(ratio) < 1, up to rounding
        q = ratio.norm()
        return q**n * inv_norm / (1.0 - q) if q < 1.0 else math.inf

    return _geometric_sum(
        a_inv, lambda t: ratio.coords * t, b, tol, max_terms, tail_bound
    )[0]


def is_invertible(a: AlgebraElement) -> bool:
    """Whether every character value stays clear of zero.

    The cutoff is relative to norm(a), so rescaling an element does not
    change the verdict.
    """
    return bool(np.abs(a.coords).min() > invertibility_tolerance(a))


def invert(a: AlgebraElement) -> AlgebraElement:
    """Exact inverse via reciprocal character values."""
    smallest = float(np.abs(a.coords).min())
    if smallest <= invertibility_tolerance(a):
        raise NotInvertible(
            f"character value with modulus {smallest:.3e} is numerically zero"
        )
    z = a.coords
    with np.errstate(over="ignore"):
        inverse = 1.0 / z
        # numpy's complex division returns 0 once |z| overflows, although
        # 1/z (down to about 2.9e-309) is a float; take those at half scale
        lost = inverse == 0
        inverse[lost] = 0.5 / (0.5 * z[lost])
    return a.algebra._fresh(inverse)


def resolvent(a: AlgebraElement, lam: complex) -> AlgebraElement:
    """The inverse of ``lam * e - a``; lam is kept DEFAULT_MERGE_TOL off the spectrum."""
    lam, z = complex(lam), a.coords
    with np.errstate(over="ignore"):
        gaps = np.abs(lam - z)
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= DEFAULT_MERGE_TOL:
            raise SpectrumHit(
                f"{lam} is within {DEFAULT_MERGE_TOL:g} of spectrum point "
                f"{complex(z[nearest])}"
            )
        inverse = 1.0 / (lam - z)
        # as in invert, but lam - z may reach twice the float range
        lost = inverse == 0
        inverse[lost] = 0.25 / (0.25 * lam - 0.25 * z[lost])
    return a.algebra._fresh(inverse)


def spectrum(a: AlgebraElement, merge_tol: float = DEFAULT_MERGE_TOL) -> SpectrumSet:
    """The set of character values of ``a`` with near-duplicates merged."""
    return SpectrumSet.from_values(a.coords, merge_tol)


def spectral_radius_exact(a: AlgebraElement) -> float:
    """Largest modulus over the spectrum.

    The characters exhaust the spectrum in these models, so this is the
    largest character-value modulus, prior to any deduplication.
    """
    return a.norm()


def spectral_radius_limit(a: AlgebraElement, n_max: int = 20) -> RadiusEstimate:
    """Estimate the spectral radius as the limit of norm(a^(2^k))^(1/2^k).

    Each square is divided by its largest modulus and the scale is kept in
    log space, so the trace is that sequence, without overflow, whenever
    ``a.norm()`` is finite.  A finite element can still have an infinite
    norm: a coordinate such as ``1.7e308+1.7e308j`` has modulus ``inf``,
    dividing by it leaves zero powers, and :class:`Overflow` is raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    s = float(np.abs(a.coords).max())
    if s == 0.0:
        return RadiusEstimate(0.0, (0.0,) * (n_max + 1))
    trace = [s]
    log_scale = math.log(s)
    x = a.coords / s
    for k in range(1, n_max + 1):
        x = x * x
        m = float(np.abs(x).max())
        if m == 0.0 or not math.isfinite(m):
            raise Overflow("repeated squaring left the floating range")
        x = x / m
        log_scale = 2.0 * log_scale + math.log(m)
        trace.append(math.exp(log_scale / 2.0**k))
    return RadiusEstimate(trace[-1], tuple(trace))


def operator_norm(matrix) -> float:
    """Largest singular value of a raw square complex matrix.

    By the C*-identity ||M||^2 = ||M* M||, and M* M is Hermitian, so its
    norm is its largest eigenvalue: one Hermitian eigenvalue solve, no SVD.
    It is taken on Ms* Ms, Ms = M 2^-k with its largest entry near 1 (from
    ``_matrix_entry``, as for a generator), so the product neither overflows
    nor underflows, and 2^k times the root is relative to ||M|| at every scale.
    """
    _, k, Ms = _matrix_entry(matrix, "matrix")
    top = np.linalg.eigvalsh(Ms.conj().T @ Ms)[-1]
    return math.ldexp(math.sqrt(max(0.0, top)), k)


def apply_polynomial(coefficients, a: AlgebraElement) -> AlgebraElement:
    """Evaluate a polynomial (ascending coefficients) on an element.

    Horner's scheme on the coordinates, ``p(a) = c0*e + a*(c1*e + a*(...))``,
    wrapped once: a non-finite coefficient or step raises :class:`NonFinite`.
    """
    coeffs = [complex(c) for c in coefficients] or [0j]
    acc = np.full(a.algebra.dim, coeffs[-1])
    # an overflowing step ends in NonFinite from _fresh
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(coeffs[:-1]):
            acc = acc * a.coords + c
    return a.algebra._fresh(acc)


def apply_function(g, a: AlgebraElement) -> AlgebraElement:
    """Apply a scalar function to an element through its character values.

    ``g`` must be defined on every spectrum point; a raised exception or a
    non-finite value surfaces as :class:`DomainError` naming the point.
    """
    out = np.empty(a.algebra.dim, dtype=complex)
    for i, v in enumerate(a.coords):
        v = complex(v)
        try:
            w = complex(g(v))
        except DomainError:
            raise
        except Exception as exc:
            raise DomainError(
                f"function failed on spectrum point {v}: {exc}", point=v
            ) from exc
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise DomainError(
                f"function is not finite on spectrum point {v}", point=v
            )
        out[i] = w
    return a.algebra._fresh(out)


def classify_element(
    a: AlgebraElement, tol: float = DEFAULT_MERGE_TOL
) -> ClassificationReport:
    """Test the four defining identities and report measured defects.

    self-adjoint: a = a*;  unitary: a* a = e;  projection: a^2 = a and
    a = a*;  positive: a = b b* for the principal square root b of a.
    """
    z = a.coords
    # sup norms on the one coordinate array; a gap too large for a float
    # (|z|^2 and z^2 above about 1e154, b b* - a near 1e308) reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        sa_defect = float(np.abs(z - z.conj()).max())
        un_defect = float(np.abs(z.conj() * z - 1.0).max())
        pr_defect = max(float(np.abs(z * z - z).max()), sa_defect)
        # cmath.sqrt: np.sqrt's last bit differs on many imaginary values
        root = np.array(list(map(cmath.sqrt, z.tolist())), dtype=complex)
        pos_gap = np.abs(root * root.conj() - z)
    pos_defect = float(pos_gap.max())
    offender = None
    if pos_defect > tol:
        offender = complex(a.coords[int(np.argmax(pos_gap))])
    defects = {
        "self_adjoint": sa_defect,
        "unitary": un_defect,
        "projection": pr_defect,
        "positive": pos_defect,
    }
    flags = {name: defect <= tol for name, defect in defects.items()}
    return ClassificationReport(flags, defects, offender)


def inversion_delta(a_inverse_norm: float, eps: float) -> float:
    """Perturbation radius guaranteeing the inverse moves by at most eps.

    With eps1 = eps / norm(a_inv), any b with norm(a - b) below
    eps1 / ((1 + eps1) * norm(a_inv)) is invertible, and the geometric
    series bound on the inverse difference telescopes to
    norm(a_inv) * eps1, which equals eps.  Scaling eps1 the other way
    (eps times the inverse norm) only bounds the error by
    eps * norm(a_inv)**2, which is weaker whenever that norm exceeds one.
    """
    if a_inverse_norm <= 0 or eps <= 0:
        raise ValueError("need positive inverse norm and eps")
    eps1 = eps / a_inverse_norm
    return eps1 / ((1.0 + eps1) * a_inverse_norm)
