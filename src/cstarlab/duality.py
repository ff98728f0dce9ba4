"""The contravariant functors between algebras and spaces, with verifiers.

One functor sends an algebra to its character space and a homomorphism to
the pullback map of characters, read from its probe matrix in one pass; the
other sends a space to its function algebra and a point map to
precomposition by its index tuple.  The two natural transformations
(evaluation into the double dual on each side) are computed by probing with
indicator elements rather than assumed, so an indexing bug shows up as a
failed probe instead of a silently commuting square; mu evaluates each
character once, on one function that tells the points apart.

The transform's round trip, isometry and *-preservation are each measured
once over a block of coordinates, one row per family member, and its
multiplicativity over one member's products at a time, so no block is
larger than the family by the dimension.  The algebras of every pair are
checked first, as element arithmetic would check them.

Every verifier returns an :class:`EquivalenceReport` of measured defects;
a naturality report holds one record, ``naturality_tau`` or
``naturality_mu``, about its morphism.  For honest probes the defects are
exact zeros or machine-size floats.  The one pass rule is :func:`check`: a
record passes when its defect is at most its bound, 0.0 for the exact
checks (``mu_bijection``, ``double_dual_size``,
``tau_surjective_dimension``) and ``PROBE_TOL`` for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    CommutativeAlgebra,
    FunctionAlgebra,
    StarHomomorphism,
    _readonly,
)
from .errors import DualityViolation, NonFinite, NotACharacter
from .gelfand import characters, gelfand_inverse, gelfand_transform, transform_target
from .spaces import ContinuousMap, FiniteSpace
from .spectra import PROBE_TOL

__all__ = [
    "CheckRecord",
    "EquivalenceReport",
    "functor_F_object",
    "functor_F_morphism",
    "functor_G_object",
    "functor_G_morphism",
    "tau",
    "mu",
    "verify_naturality_tau",
    "verify_naturality_mu",
    "verify_equivalence",
]


@dataclass(frozen=True)
class CheckRecord:
    """One verified law instance: what was checked, how wrong, verdict."""

    law: str
    instance: str
    defect: float
    passed: bool


def check(law: str, instance: str, defect: float, bound: float = PROBE_TOL) -> CheckRecord:
    """The record of one check; it passes when ``defect <= bound``."""
    defect = float(defect)
    return CheckRecord(law, instance, defect, defect <= bound)


@dataclass(frozen=True)
class EquivalenceReport:
    """The records of one verified subject; it passes when all of them do."""

    subject: str
    checks: tuple[CheckRecord, ...]

    @property
    def max_defect(self) -> float:
        return max((c.defect for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def functor_F_object(algebra: CommutativeAlgebra) -> FiniteSpace:
    """The character space of an algebra, as the points of its Gelfand target."""
    return transform_target(algebra).space


def functor_F_morphism(phi) -> ContinuousMap:
    """Pull back characters along a homomorphism: psi goes to psi . phi.

    The point map is recovered from the action of ``phi`` on the indicator
    basis: a functional is a character exactly when it sends exactly one
    indicator to 1 and the rest to 0.  A composite failing that pattern
    raises :class:`NotACharacter`, which means ``phi`` was not actually a
    unital *-homomorphism.
    """
    source_space = functor_F_object(phi.target)
    target_space = functor_F_object(phi.source)
    # row j is the functional (character j) . phi on the indicator basis
    images = np.array(
        [phi(phi.source._indicator(i)).coords for i in range(phi.source.dim)]
    ).T
    rows = np.arange(phi.target.dim)
    modulus = np.abs(images)
    best = modulus.argmax(axis=1)
    hit = images[rows, best]
    modulus[rows, best] = 0.0
    # the gap of the hit from 1, or the largest other modulus in the row
    defect = np.maximum(np.abs(hit - 1.0), modulus.max(axis=1))
    failing = np.flatnonzero(defect > PROBE_TOL)
    if failing.size:
        j = int(failing[0])
        raise NotACharacter(
            f"character {j} of the target pulls back to a functional "
            f"that is not a character (defect {defect[j]:.3e})"
        )
    assignment = tuple(target_space.points[i] for i in best.tolist())
    return ContinuousMap(source_space, target_space, assignment)


# G on objects sends a space to its function algebra: the constructor itself
functor_G_object = FunctionAlgebra


def functor_G_morphism(h: ContinuousMap) -> StarHomomorphism:
    """Precomposition with a point map, as a homomorphism of function algebras.

    A map h from S to T induces C(T) -> C(S) by g |-> g . h.
    """
    return StarHomomorphism(
        FunctionAlgebra(h.target), FunctionAlgebra(h.source), h.images
    )


def tau(algebra: CommutativeAlgebra) -> StarHomomorphism:
    """Evaluation of the algebra inside functions on its character space.

    This is the Gelfand transform packaged as a homomorphism; the i-th
    character of the function side evaluates through the i-th character of
    the algebra, so the index map is the identity.
    """
    return StarHomomorphism(
        algebra, transform_target(algebra), tuple(range(algebra.dim))
    )


def mu(space: FiniteSpace) -> ContinuousMap:
    """Evaluation of a space inside the character space of its functions.

    Each point goes to the unique character sending that point's indicator
    function to 1.  Every character of a function algebra is evaluation at
    one point, so one probe tells the points apart: each character is
    evaluated once on the function that is i + 1 at point i, and reads
    i + 1 exactly when it sends point i's indicator to 1.  The probe finding
    no character, several, or a non-bijective overall assignment raises
    :class:`DualityViolation`, the first failing point first.
    """
    algebra = FunctionAlgebra(space)
    chars = characters(algebra)
    double_dual = chars.as_finite_space()
    labels = np.arange(1, space.size + 1, dtype=complex)
    probe = AlgebraElement(algebra, _readonly(labels.copy()))
    values = np.array([chi(probe) for chi in chars], dtype=complex)
    hits = np.abs(values - labels[:, None]) <= PROBE_TOL
    counts = hits.sum(axis=1)
    failing = np.flatnonzero(counts != 1)
    if failing.size:
        i = int(failing[0])
        raise DualityViolation(
            f"indicator of point {space.points[i]!r} is sent to 1 by "
            f"{counts[i]} characters; expected exactly one"
        )
    assignment = tuple(double_dual.points[j] for j in hits.argmax(axis=1).tolist())
    result = ContinuousMap(space, double_dual, assignment)
    if not result.is_bijection():
        raise DualityViolation("point-to-character map is not a bijection")
    return result


def verify_naturality_tau(phi: StarHomomorphism) -> EquivalenceReport:
    """Check the square comparing phi with its double-dual along tau.

    Both paths from the source algebra to functions on the target's
    character space are applied to every indicator basis element, and the
    defect is the largest norm of their difference (equivalently, the worst
    character evaluation).
    """
    A, B = phi.source, phi.target
    tau_A, tau_B = tau(A), tau(B)
    double_dual = functor_G_morphism(functor_F_morphism(phi))
    basis = [A._indicator(i) for i in range(A.dim)]
    defect = max((double_dual(tau_A(u)) - tau_B(phi(u))).norm() for u in basis)
    name = f"{A.describe()} -> {B.describe()}"
    return EquivalenceReport(name, (check("naturality_tau", name, defect),))


def verify_naturality_mu(f: ContinuousMap) -> EquivalenceReport:
    """Check the square comparing f with its double-dual along mu.

    The two composite point maps land in the same character space, so the
    defect is 0.0 when they agree pointwise and 1.0 at any disagreeing
    point.
    """
    return _mu_square(f, mu(f.source), mu(f.target))


def _mu_square(
    f: ContinuousMap, mu_X: ContinuousMap, mu_Y: ContinuousMap
) -> EquivalenceReport:
    """The mu square of ``f`` from mu of its source and of its target."""
    path_forward = f.then(mu_Y)
    path_dual = mu_X.then(functor_F_morphism(functor_G_morphism(f)))
    defect = float(path_forward.assignment != path_dual.assignment)
    name = f"{f.source!r} -> {f.target!r}"
    return EquivalenceReport(name, (check("naturality_mu", name, defect),))


def verify_equivalence(subject) -> EquivalenceReport:
    """Certify the equivalence data on one object.

    For a finite space: mu is a bijection.  For an algebra: tau is an
    isometric isomorphism, checked as injectivity (round trip through the
    transform), surjectivity (dimension count), isometry, and
    multiplicativity with involution preservation on a basis family.
    """
    if isinstance(subject, FiniteSpace):
        return _verify_space(subject)
    if isinstance(subject, CommutativeAlgebra):
        return _verify_algebra(subject)
    raise TypeError(f"cannot verify {subject!r}")


def _verify_space(space: FiniteSpace) -> EquivalenceReport:
    name = repr(space)
    try:
        mu_space = mu(space)
    except DualityViolation:
        return EquivalenceReport(name, (check("mu_bijection", name, 1.0, 0.0),))
    size_gap = abs(mu_space.target.size - space.size)
    # the identity square needs mu of the space at both corners
    square = _mu_square(ContinuousMap.identity(space), mu_space, mu_space)
    # mu raises unless it is a bijection, so reaching here certifies one
    return EquivalenceReport(
        name,
        (
            check("mu_bijection", name, 0.0, 0.0),
            check("double_dual_size", name, size_gap, 0.0),
            check("mu_identity_square", name, square.max_defect),
        ),
    )


def _gap(left: np.ndarray, right: np.ndarray) -> float:
    """The largest modulus of ``left - right``: the largest norm of the
    element differences, row by row, taken once over the whole block.

    A non-finite difference raises :class:`NonFinite`, as wrapping that
    difference as an element would.
    """
    diff = left - right
    if not np.logical_and.reduce(np.isfinite(diff), axis=None):
        raise NonFinite("coordinates must be finite")
    return float(np.abs(diff).max())


def _verify_algebra(algebra: CommutativeAlgebra) -> EquivalenceReport:
    name = algebra.describe()
    dual_gap = abs(transform_target(algebra).dim - algebra.dim)
    # A deterministic element family: basis indicators, the unit, and a
    # generic combination with distinct coordinate values.  Each member is
    # transformed once; only products and stars need transforms of their own.
    family = [algebra._indicator(i) for i in range(algebra.dim)]
    family.append(algebra.unit())
    family.append(
        algebra._fresh(np.arange(1, algebra.dim + 1) * (0.7 - 0.3j) / algebra.dim)
    )
    hats = [gelfand_transform(a) for a in family]
    coords = np.array([a.coords for a in family])
    # every value of the family has modulus at most 1, so the read-only
    # blocks of stars and of each member's products are finite by construction
    stars = _readonly(coords.conj())
    # each comparison checks its two algebras, in the order and with the
    # error that subtracting the two elements would raise
    inverses = []
    for h, a in zip(hats, family):
        r = gelfand_inverse(algebra, h)
        r._check_same(a)
        inverses.append(r.coords)
    round_trip = _gap(np.array(inverses), coords)
    h_coords = np.array([h.coords for h in hats])
    isometry = float(
        np.abs(np.abs(h_coords).max(axis=1) - np.abs(coords).max(axis=1)).max()
    )
    # one member's products at a time, so the blocks stay m-by-d
    mult = 0.0
    for i, h in enumerate(hats):
        hat_products = []
        for k, p in zip(hats, _readonly(coords[i] * coords)):
            t = gelfand_transform(AlgebraElement(algebra, p))
            h._check_same(k)
            t._check_same(h)
            hat_products.append(t.coords)
        mult = max(mult, _gap(np.array(hat_products), h_coords[i] * h_coords))
    hat_stars = []
    for h, s in zip(hats, stars):
        t = gelfand_transform(AlgebraElement(algebra, s))
        t._check_same(h)
        hat_stars.append(t.coords)
    star = _gap(np.array(hat_stars), h_coords.conj())
    return EquivalenceReport(
        name,
        (
            check("tau_surjective_dimension", name, dual_gap, 0.0),
            check("tau_injective_round_trip", name, round_trip),
            check("tau_isometry", name, isometry),
            check("tau_multiplicative", name, mult),
            check("tau_star_preserving", name, star),
        ),
    )
