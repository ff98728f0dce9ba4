"""Spectral calculus: series inversion, spectra, radii, classification.

The geometric series drives everything here.  Character coordinates are
the algebra's arithmetic (it is C of its characters), so truncated series
are summed on coordinate arrays, and their residuals are measured, never
assumed; the closed-form coordinatewise answers exist too, but they are
kept in the test suite as independent oracles.

Each loop is written once.  ``_geometric_sum`` sums the Neumann series for
``neumann_inverse`` and ``perturbation_inverse``; ``_squaring_roots`` yields
Gelfand's norm(x^(2^k))^(1/2^k) for ``spectral_radius_limit`` and
``operator_norm``.  ``classify_element`` takes its four defects on the one
coordinate array, where a defect too large for a float reads inf.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
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
from .spectra import DEFAULT_MERGE_TOL, SpectrumSet

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
    "invertibility_tolerance",
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


def invertibility_tolerance(a: AlgebraElement) -> float:
    """Cutoff, relative to norm(a), at or below which a character value
    counts as zero; the zero element is therefore not invertible."""
    norm = a.norm()
    if norm == math.inf:  # such as |1.7e308+1.7e308j|; take it at half scale
        return 2e-10 * float(np.abs(a.coords * 0.5).max())
    return 1e-10 * norm


def _geometric_sum(first, step, target, tol, max_terms, tail_bound):
    """Sum first, step(first), step(step(first)), ... as an inverse of target
    (see neumann_inverse) on coordinate arrays; only the sum is wrapped.
    ``step`` maps coordinates to coordinates and is a callable, not a ratio:
    numpy's complex x * y and y * x can differ in the last bit, so each caller
    keeps its own operand order."""
    total, term = first.coords.copy(), first.coords
    terms = 1
    # an overflowing term or residual ends in NonFinite (see _residual)
    with np.errstate(over="ignore", invalid="ignore"):
        while (residual := _residual(target.coords * total - 1.0)) > tol:
            if terms >= max_terms:
                raise Unconverged(
                    f"residual {residual:.3e} after {terms} terms (tol {tol:.3e})",
                    partial=first.algebra._fresh(total),
                    report=NeumannReport(terms, residual, tail_bound(terms)),
                )
            term = step(term)
            total += term
            terms += 1
    return first.algebra._fresh(total), NeumannReport(terms, residual, tail_bound(terms))


def _residual(r: np.ndarray) -> float:
    """sup|r|; NonFinite as _fresh, but an overflowing modulus reads inf."""
    residual = float(np.abs(r).max())
    if not math.isfinite(residual) and not np.isfinite(r).all():
        raise NonFinite("coordinates must be finite")
    return residual


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
    :class:`PerturbationTooLarge` rather than returning a doubtful sum.
    """
    a_inv = invert(a)
    diff = a - b
    gap, radius = diff.norm(), 1.0 / a_inv.norm()
    if gap >= radius:
        raise PerturbationTooLarge(
            f"norm(a - b) = {gap:.6g} is not below 1/norm(a_inv) = {radius:.6g}"
        )
    ratio = a_inv * diff
    return _geometric_sum(
        a_inv, lambda t: ratio.coords * t, b, tol, max_terms, lambda n: math.nan
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
    return float(np.abs(a.coords).max())


def _squaring_roots(x, square, size):
    """Yield size(x^(2^k))^(1/2^k) for k = 0, 1, ...  Each square is divided
    by its size and the scale is kept in log space; a square of size 0 or of
    non-finite size raises :class:`Overflow`, and an x of size 0 yields 0s."""
    s = size(x)
    yield s
    if s == 0.0:
        yield from itertools.repeat(0.0)
    log_scale = math.log(s)
    x = x / s
    for k in itertools.count(1):
        x = square(x)
        m = size(x)
        if m == 0.0 or not math.isfinite(m):
            raise Overflow("repeated squaring left the floating range")
        x = x / m
        log_scale = 2.0 * log_scale + math.log(m)
        yield math.exp(log_scale / 2.0**k)


def spectral_radius_limit(a: AlgebraElement, n_max: int = 20) -> RadiusEstimate:
    """Estimate the spectral radius as the limit of norm(a^(2^k))^(1/2^k).

    The trace is that sequence, without overflow, whenever ``a.norm()`` is
    finite.  A finite element can still have an infinite norm: a coordinate
    such as ``1.7e308+1.7e308j`` has modulus ``inf``, dividing by it leaves
    zero powers, and :class:`Overflow` is raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    roots = _squaring_roots(
        a.coords, lambda b: b * b, lambda b: float(np.abs(b).max())
    )
    trace = tuple(itertools.islice(roots, n_max + 1))
    return RadiusEstimate(trace[-1], trace)


def _hermitian_square(B: np.ndarray) -> np.ndarray:
    S = B @ B
    return (S + S.conj().T) / 2


def operator_norm(matrix) -> float:
    """Largest singular value of a raw square complex matrix.

    Computed as sqrt of the spectral radius of M* M, with the radius taken
    as the limit of Frobenius norms of repeated squares.  The Frobenius
    norm overestimates by at most a dimension factor that dies under the
    2^k-th root, so the iteration converges geometrically from above.
    """
    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError("operator_norm expects a square matrix")
    if not np.all(np.isfinite(M)):
        raise NonFinite("matrix entries must be finite")
    roots = _squaring_roots(
        M.conj().T @ M, _hermitian_square, lambda B: float(np.linalg.norm(B))
    )
    # k = 1 .. 63; stop at the first k >= 2 that agrees with k - 1
    for previous, estimate in itertools.pairwise(itertools.islice(roots, 1, 64)):
        if abs(estimate - previous) <= 1e-13 * max(1.0, estimate):
            break
    return math.sqrt(estimate)


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
