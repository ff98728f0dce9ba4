"""Closed ideals, quotients, and the maximal ideal space.

Every closed ideal in these models is the set of elements vanishing on a
subset of the characters, so an ideal is stored as that zero set, as an
``int`` bitmask with bit ``i`` set when it vanishes at character ``i``.
Ideals reverse the order of zero sets, so the lattice is word arithmetic:
intersecting ideals unites zero sets (``|``), summing ideals intersects
them (``&``).  Ideals with extra structure (non self-adjoint, non-closed)
do not exist at this scale and are deliberately not representable.

The quotient by an ideal is the function algebra on the zero set, with the
projection acting by restriction.  The quotient norm is computed in closed
form as the sup over the zero set; the definition as an infimum over coset
representatives is kept in the tests as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    AlgebraElement,
    CommutativeAlgebra,
    FunctionAlgebra,
    StarHomomorphism,
    _same_algebra,
)
from .errors import ImproperIdeal, NotContained
from .spaces import FiniteSpace
from .spectra import invertibility_tolerance

__all__ = [
    "Ideal",
    "MaximalIdeal",
    "QuotientAlgebra",
    "ideal_from_closed_set",
    "closed_set_from_ideal",
    "quotient",
    "factor_through_quotient",
    "max_ideals",
    "zariski_V",
    "kernel_ideal",
    "zero_ideal",
    "unit_ideal",
]


@dataclass(frozen=True)
class Ideal:
    """The ideal of all elements vanishing on a set of characters.

    An empty zero set puts no constraint on anything, so it encodes the
    whole algebra (the improper ideal); the full zero set encodes the zero
    ideal.  Properness is therefore literally "the mask is nonzero".
    """

    algebra: CommutativeAlgebra
    mask: int

    def __post_init__(self):
        mask = self.mask
        if type(mask) is not int:
            raise TypeError(f"a zero-set mask is an int, not {mask!r}")
        if mask < 0 or mask >> self.algebra.dim:
            raise ValueError(f"zero-set mask {mask:#x} is out of range")

    @cached_property
    def _zero_indices(self) -> list[int]:  # shared, so never mutated
        return _indices(self.mask)

    @cached_property
    def zero_set(self) -> frozenset[int]:
        return frozenset(self._zero_indices)

    @property
    def is_proper(self) -> bool:
        return self.mask != 0

    def contains(self, a: AlgebraElement) -> bool:
        _same_algebra(a.algebra, self.algebra, "element belongs to a different algebra")
        if not self.mask:
            return True
        worst = float(np.abs(a.coords[_indices(self.mask)]).max())
        return worst <= invertibility_tolerance(a)

    def intersect(self, other: "Ideal") -> "Ideal":
        """Vanish on both zero sets: the zero sets unite."""
        _same_algebra(self.algebra, other.algebra, "ideals live in different algebras")
        return _lattice_result(self.algebra, self.mask | other.mask)

    def sum_with(self, other: "Ideal") -> "Ideal":
        """Sums vanish only where both summands must: zero sets intersect."""
        _same_algebra(self.algebra, other.algebra, "ideals live in different algebras")
        return _lattice_result(self.algebra, self.mask & other.mask)

    def __repr__(self) -> str:
        pts = ",".join(closed_set_from_ideal(self))
        return f"Ideal(vanishing on {{{pts}}})"


@dataclass(frozen=True)
class MaximalIdeal(Ideal):
    """An ideal vanishing at exactly one character."""

    def __post_init__(self):
        Ideal.__post_init__(self)
        if self.mask.bit_count() != 1:
            raise ValueError("a maximal ideal vanishes at exactly one character")

    @cached_property
    def point(self) -> int:
        return self.mask.bit_length() - 1


def _lattice_result(algebra: CommutativeAlgebra, mask: int) -> Ideal:
    """An ``Ideal`` built without ``__post_init__``.  The ``|`` or ``&`` of
    two checked masks of one algebra is an int in range, so a lattice result
    is not checked again; values are checked once, where they enter."""
    ideal = object.__new__(Ideal)
    state = ideal.__dict__
    state["algebra"] = algebra
    state["mask"] = mask
    return ideal


def _indices(mask: int) -> list[int]:
    """The set bits of ``mask`` in increasing order, read from ``bin(mask)``."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class QuotientAlgebra(FunctionAlgebra):
    """A quotient A/I: the function algebra on the zero set of I."""

    def __init__(self, base: CommutativeAlgebra, ideal: Ideal, space: FiniteSpace):
        FunctionAlgebra.__init__(self, space)
        self.base = base
        self.ideal = ideal

    def quotient_norm(self, a: AlgebraElement) -> float:
        """Norm of the coset of ``a``: the sup over the zero set."""
        _same_algebra(a.algebra, self.base, "element belongs to a different algebra")
        return float(np.abs(a.coords[self.ideal._zero_indices]).max())


def ideal_from_closed_set(algebra: CommutativeAlgebra, closed_set) -> Ideal:
    """The ideal of elements vanishing on the given characters.

    Members of ``closed_set`` may be character labels (point labels in the
    function model) or canonical indices; anything unknown raises
    :class:`InvalidSubset`.
    """
    return Ideal(algebra, algebra.character_mask(closed_set))


def closed_set_from_ideal(ideal: Ideal) -> tuple[str, ...]:
    """The common zero set as character labels, in canonical order."""
    return tuple(ideal.algebra.character_label(i) for i in _indices(ideal.mask))


def quotient(
    algebra: CommutativeAlgebra, ideal: Ideal
) -> tuple[QuotientAlgebra, StarHomomorphism]:
    """The quotient algebra and its projection, acting by restriction."""
    _same_algebra(ideal.algebra, algebra, "ideal lives in a different algebra")
    if not ideal.is_proper:
        raise ImproperIdeal("cannot quotient by the whole algebra")
    indices = ideal._zero_indices
    space = FiniteSpace(tuple(algebra.character_label(i) for i in indices))
    q = QuotientAlgebra(algebra, ideal, space)
    return q, StarHomomorphism(algebra, q, tuple(indices))


def factor_through_quotient(
    phi: StarHomomorphism, ideal: Ideal
) -> StarHomomorphism:
    """The unique map out of the quotient with psi . projection = phi.

    Requires the ideal to be contained in the kernel of ``phi``; a basis
    element of the ideal with a nonzero image is attached to the
    :class:`NotContained` error as a witness.
    """
    _same_algebra(ideal.algebra, phi.source, "ideal lives in a different algebra")
    for j, img in enumerate(phi.character_images):
        if not ideal.mask >> img & 1:
            raise NotContained(
                f"ideal is not inside the kernel: the indicator at character "
                f"{phi.source.character_label(img)!r} belongs to the ideal "
                f"but target character {j} sees it",
                witness=phi.source._indicator(img),
            )
    q, projection = quotient(phi.source, ideal)
    position = {z: k for k, z in enumerate(projection.character_images)}
    images = tuple(position[img] for img in phi.character_images)
    return StarHomomorphism(q, phi.target, images)


def max_ideals(algebra: CommutativeAlgebra) -> tuple[MaximalIdeal, ...]:
    """All maximal ideals, one per character, in canonical order.

    The tuple is built on the first call and kept on the algebra itself; a
    cache keyed by the algebra would hash the whole generator per lookup.
    """
    memo = getattr(algebra, "_max_ideals", None)
    if memo is None:
        memo = tuple(MaximalIdeal(algebra, 1 << i) for i in range(algebra.dim))
        algebra._max_ideals = memo
    return memo


def zariski_V(ideal: Ideal) -> tuple[MaximalIdeal, ...]:
    """The maximal ideals containing the given ideal (a Zariski closed set)."""
    points = max_ideals(ideal.algebra)
    return tuple([points[i] for i in _indices(ideal.mask)])


def kernel_ideal(phi: StarHomomorphism) -> Ideal:
    """The kernel of a pullback homomorphism, as an ideal of its source."""
    return ideal_from_closed_set(phi.source, phi.character_images)


def zero_ideal(algebra: CommutativeAlgebra) -> Ideal:
    """The ideal {0}: elements vanishing at every character."""
    return Ideal(algebra, (1 << algebra.dim) - 1)


def unit_ideal(algebra: CommutativeAlgebra) -> Ideal:
    """The whole algebra as an (improper) ideal: empty zero set."""
    return Ideal(algebra, 0)
