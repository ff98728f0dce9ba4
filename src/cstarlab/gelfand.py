"""Characters and the Gelfand transform.

A character is a nonzero multiplicative linear functional.  In the function
model these are exactly the point evaluations; in the normal-generator
model they are the evaluations at distinct eigenvalues.  Both are indexed
canonically, so a character is just an algebra reference plus an index.

The Gelfand transform sends an element to the function "evaluate every
character on it", which lands in the function algebra over the character
space.  Because elements are stored in character coordinates, the transform
is a relabelling and its inverse reads the coordinates back; the numerical
content of the isomorphism lives in the eigendecomposition done when a
matrix algebra is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    AlgebraElement,
    CommutativeAlgebra,
    FunctionAlgebra,
    _character_index,
    _same_algebra,
)
from .errors import SpaceMismatch
from .spaces import FiniteSpace

__all__ = [
    "Character",
    "CharacterSpace",
    "characters",
    "evaluate_character",
    "gelfand_transform",
    "gelfand_inverse",
    "transform_target",
]


@dataclass(frozen=True)
class Character:
    """Evaluation at one canonical character index."""

    algebra: CommutativeAlgebra
    index: int

    def __post_init__(self):
        i = _character_index(self.index, self.algebra.dim, ValueError)
        object.__setattr__(self, "index", i)

    @property
    def label(self) -> str:
        return self.algebra.character_label(self.index)

    def __call__(self, a: AlgebraElement) -> complex:
        return evaluate_character(self, a)


@dataclass(frozen=True)
class CharacterSpace:
    """All characters of an algebra, in canonical order."""

    algebra: CommutativeAlgebra
    members: tuple[Character, ...]

    def as_finite_space(self) -> FiniteSpace:
        """The character space as a finite space labelled by indices."""
        return _index_function_algebra(len(self.members)).space

    def __iter__(self):
        return iter(self.members)


def characters(algebra: CommutativeAlgebra) -> CharacterSpace:
    """Enumerate the characters of an algebra in canonical order."""
    members = tuple(Character(algebra, i) for i in range(algebra.dim))
    return CharacterSpace(algebra, members)


def evaluate_character(phi: Character, a: AlgebraElement) -> complex:
    """Apply a character to an element of its own algebra."""
    _same_algebra(a.algebra, phi.algebra, "character and element belong to different algebras")
    return complex(a.coords[phi.index])


@lru_cache(maxsize=16)
def _index_function_algebra(dim: int) -> FunctionAlgebra:
    """Functions on the points ``"0"``, ..., ``str(dim - 1)``."""
    return FunctionAlgebra(FiniteSpace(tuple(str(i) for i in range(dim))))


def transform_target(algebra: CommutativeAlgebra) -> FunctionAlgebra:
    """The function algebra over the character space of ``algebra`` (one per dim)."""
    return _index_function_algebra(algebra.dim)


def gelfand_transform(a: AlgebraElement) -> AlgebraElement:
    """The function phi |-> phi(a) on the character space of a's algebra.

    The coordinates of ``a`` are already valid and read-only, so the
    transform shares them instead of copying and checking them again.
    """
    return AlgebraElement(transform_target(a.algebra), a.coords)


def gelfand_inverse(algebra: CommutativeAlgebra, f_hat: AlgebraElement) -> AlgebraElement:
    """The element of ``algebra`` whose transform is ``f_hat``.

    ``f_hat`` must live on the character space of ``algebra``; anything else
    raises :class:`SpaceMismatch`.
    """
    message = "function does not live on the character space of the algebra"
    _same_algebra(f_hat.algebra, transform_target(algebra), message, SpaceMismatch)
    return AlgebraElement(algebra, f_hat.coords)
