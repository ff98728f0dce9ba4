"""Argument checks that reject bad calls, one row per check.

Each row is a call, the exception it must raise and a regular expression
its message must contain.  A = C({a,b,c}), B = C({x,y}) and phi pulls the
characters of B back to characters 0 and 2 of A.
"""

import numpy as np
import pytest

from cstarlab import (
    AlgebraMismatch,
    Character,
    ContinuousMap,
    DomainError,
    FiniteSpace,
    FunctionAlgebra,
    InvalidPointMap,
    InvalidSpace,
    InvalidSubset,
    NonFinite,
    SpaceMismatch,
    StarHomomorphism,
    apply_function,
    factor_through_quotient,
    gelfand_inverse,
    hausdorff_distance,
    ideal_from_closed_set,
    inversion_delta,
    make_normal_generator_algebra,
    operator_norm,
    quotient,
    restriction_homomorphism,
    spectral_radius_limit,
    transform_target,
    verify_equivalence,
    zero_ideal,
)

A = FunctionAlgebra(FiniteSpace(("a", "b", "c")))
B = FunctionAlgebra(FiniteSpace(("x", "y")))
PHI = StarHomomorphism(A, B, (0, 2))
X = FiniteSpace(("p", "q"))
Y = FiniteSpace(("r",))
F = ContinuousMap(X, Y, ("r", "r"))
N = make_normal_generator_algebra(np.diag([1.0, 2.0]))


def _raise_own_error(z):
    raise DomainError("mine")


ROWS = {
    # algebra, characters and spaces
    "character-index": (
        lambda: Character(A, 3), ValueError, "character index 3 out of range"
    ),
    "character-bool-index": (
        lambda: Character(A, True), ValueError, "character index True is not an integer"
    ),
    "character-float-index": (
        lambda: Character(A, 1.0), ValueError, r"character index 1\.0 is not an integer"
    ),
    "character-key-index": (
        lambda: A.character_mask((3,)), InvalidSubset, "character index 3 out of range"
    ),
    "character-key-bool": (
        lambda: A.character_mask((True,)),
        InvalidSubset,
        "character index True is not an integer",
    ),
    "space-label-type": (
        lambda: FiniteSpace(("a", 1)), InvalidSpace, "point labels must be strings"
    ),
    "space-label-comma": (
        lambda: FunctionAlgebra(["p,q"]), InvalidSpace, "point labels must not contain a comma"
    ),
    "space-unknown-label": (
        lambda: FiniteSpace(("a",)).index("z"), InvalidSpace, "label 'z' is not a point"
    ),
    "map-middle-space": (
        lambda: F.then(F), InvalidPointMap, "composition needs matching middle space"
    ),
    "element-plus-int": (
        lambda: A.unit() + 1, TypeError, "expected an algebra element"
    ),
    "generator-not-square": (
        lambda: make_normal_generator_algebra(np.ones((2, 3))),
        ValueError,
        "generator must be a square matrix",
    ),
    "project-wrong-shape": (
        lambda: N.project_matrix(np.eye(3)), ValueError, "matrix has the wrong shape"
    ),
    "restriction-repeated-label": (
        lambda: restriction_homomorphism(A, ("a", "a")),
        InvalidPointMap,
        "restriction labels must be distinct",
    ),
    # homomorphisms
    "hom-image-count": (
        lambda: StarHomomorphism(A, B, (0,)),
        InvalidPointMap,
        "need 2 character images, got 1",
    ),
    "hom-fractional-image": (
        lambda: StarHomomorphism(A, B, (1.7, 0)),
        InvalidPointMap,
        r"character index 1\.7 is not an integer",
    ),
    "hom-bool-image": (
        lambda: StarHomomorphism(A, B, (0, True)),
        InvalidPointMap,
        "character index True is not an integer",
    ),
    "hom-image-range": (
        lambda: StarHomomorphism(A, B, (0, 5)),
        InvalidPointMap,
        "character index 5 out of range",
    ),
    "hom-foreign-element": (
        lambda: PHI(B.unit()), AlgebraMismatch, "does not belong to the source algebra"
    ),
    "hom-middle-algebra": (
        lambda: PHI.then(PHI), AlgebraMismatch, "composition needs matching middle algebra"
    ),
    # ideals and quotients
    "ideal-foreign-element": (
        lambda: ideal_from_closed_set(A, ("a",)).contains(B.unit()),
        AlgebraMismatch,
        "element belongs to a different algebra",
    ),
    "ideal-foreign-intersect": (
        lambda: ideal_from_closed_set(A, ("a",)).intersect(ideal_from_closed_set(B, ("x",))),
        AlgebraMismatch,
        "ideals live in different algebras",
    ),
    "quotient-norm-foreign-element": (
        lambda: quotient(A, ideal_from_closed_set(A, ("a",)))[0].quotient_norm(B.unit()),
        AlgebraMismatch,
        "element belongs to a different algebra",
    ),
    "quotient-foreign-ideal": (
        lambda: quotient(B, ideal_from_closed_set(A, ("a",))),
        AlgebraMismatch,
        "ideal lives in a different algebra",
    ),
    "factor-foreign-ideal": (
        lambda: factor_through_quotient(PHI, ideal_from_closed_set(B, ("x",))),
        AlgebraMismatch,
        "ideal lives in a different algebra",
    ),
    # spectral and duality
    "hausdorff-empty": (
        lambda: hausdorff_distance([], [1]), ValueError, "needs nonempty sets"
    ),
    "opnorm-not-square": (
        lambda: operator_norm(np.ones((2, 3))),
        ValueError,
        "matrix must be a square matrix with n >= 1",
    ),
    "radius-negative-steps": (
        lambda: spectral_radius_limit(A.unit(), n_max=-1),
        ValueError,
        "n_max must be nonnegative",
    ),
    "inversion-delta-zero-norm": (
        lambda: inversion_delta(0.0, 0.1), ValueError, "need positive inverse norm and eps"
    ),
    "verify-unknown-subject": (
        lambda: verify_equivalence(42), TypeError, "cannot verify 42"
    ),
    # the function's own DomainError is not wrapped in a second one
    "apply-function-own-domain-error": (
        lambda: apply_function(_raise_own_error, A.unit()), DomainError, "^mine$"
    ),
}


@pytest.mark.parametrize("call, exception, message", ROWS.values(), ids=ROWS.keys())
def test_bad_call_raises(call, exception, message):
    with pytest.raises(exception, match=message):
        call()


# a raw matrix enters through one check, whichever function takes it: a bad
# shape is a plain ValueError and a non-finite entry is NonFinite, each with
# the wording of that check (the matrix is named "generator" or "matrix")
MALFORMED_MATRICES = {
    "3-d": (np.ones((2, 2, 2)), ValueError, "must be a square matrix with n >= 1"),
    "2x3": (np.ones((2, 3)), ValueError, "must be a square matrix with n >= 1"),
    "0x0": (np.ones((0, 0)), ValueError, "must be a square matrix with n >= 1"),
    "nan": ([[1.0, np.nan], [0.0, 1.0]], NonFinite, "entries must be finite"),
    "inf": ([[np.inf, 0.0], [0.0, 1.0]], NonFinite, "entries must be finite"),
    "-inf+1j": ([[1.0, 0.0], [0.0, complex(-np.inf, 1.0)]], NonFinite, "entries must be finite"),
}


@pytest.mark.parametrize("matrix, exception, message", MALFORMED_MATRICES.values(),
                         ids=MALFORMED_MATRICES.keys())
@pytest.mark.parametrize("entry", [make_normal_generator_algebra, operator_norm, N.project_matrix],
                         ids=["construction", "operator_norm", "project_matrix"])
def test_every_matrix_entry_rejects_a_malformed_matrix_alike(entry, matrix, exception, message):
    with pytest.raises(ValueError, match=message) as info:
        entry(matrix)
    assert type(info.value) is exception


# every check that two operands share one algebra, outside element arithmetic:
# a call on an element, ideal or map of the algebra X, the site's own algebra,
# another algebra, and the error and message the other one raises
A_IDEAL = ideal_from_closed_set(A, ("a",))
MEMBERSHIP_SITES = {
    "materialize": (lambda X: N.materialize(X.unit()), N, B, AlgebraMismatch,
                    "element belongs to a different algebra"),
    "hom-call": (lambda X: PHI(X.unit()), A, B, AlgebraMismatch,
                 "element does not belong to the source algebra"),
    "hom-then": (lambda X: PHI.then(StarHomomorphism.identity(X)), B, A, AlgebraMismatch,
                 "composition needs matching middle algebra"),
    "evaluate-character": (lambda X: Character(A, 0)(X.unit()), A, B, AlgebraMismatch,
                           "character and element belong to different algebras"),
    "gelfand-inverse": (lambda X: gelfand_inverse(A, X.unit()), transform_target(A), B,
                        SpaceMismatch, "function does not live on the character space"),
    "ideal-contains": (lambda X: A_IDEAL.contains(X.unit()), A, B, AlgebraMismatch,
                       "element belongs to a different algebra"),
    "ideal-intersect": (lambda X: A_IDEAL.intersect(zero_ideal(X)), A, B, AlgebraMismatch,
                        "ideals live in different algebras"),
    "ideal-sum": (lambda X: A_IDEAL.sum_with(zero_ideal(X)), A, B, AlgebraMismatch,
                  "ideals live in different algebras"),
    "quotient-norm": (lambda X: quotient(A, A_IDEAL)[0].quotient_norm(X.unit()), A, B,
                      AlgebraMismatch, "element belongs to a different algebra"),
    "quotient": (lambda X: quotient(X, A_IDEAL), A, B, AlgebraMismatch,
                 "ideal lives in a different algebra"),
    # the zero ideal vanishes everywhere, so it lies in every kernel
    "factor-through-quotient": (lambda X: factor_through_quotient(PHI, zero_ideal(X)), A, B,
                                AlgebraMismatch, "ideal lives in a different algebra"),
}


def _twin(algebra):
    """An algebra equal to ``algebra`` that is another object."""
    if isinstance(algebra, FunctionAlgebra):
        return FunctionAlgebra(FiniteSpace(algebra.space.points))
    return make_normal_generator_algebra(algebra.generator.copy())


@pytest.mark.parametrize("site", MEMBERSHIP_SITES)
def test_membership_accepts_an_equal_algebra_that_is_another_object(site):
    call, own, _, _, _ = MEMBERSHIP_SITES[site]
    twin = _twin(own)
    assert twin == own and twin is not own
    call(twin)


@pytest.mark.parametrize("site", MEMBERSHIP_SITES)
def test_membership_refuses_a_different_algebra(site):
    call, own, other, exception, message = MEMBERSHIP_SITES[site]
    assert other != own
    with pytest.raises(exception, match=message):
        call(other)


def test_calls_at_the_edge_of_validation_succeed():
    assert F.assignment[F.source.index("q")] == "r"
    assert ideal_from_closed_set(A, ()).contains(A.unit())


def test_numpy_integer_character_indices_are_accepted():
    images = StarHomomorphism(A, B, (np.int64(2), np.int32(0))).character_images
    assert images == (2, 0) and all(type(i) is int for i in images)
    assert Character(A, np.int64(2))(A.element([1, 2, 3])) == 3
    assert type(Character(A, np.int64(1)).index) is int


class _Index:
    """Not an int, but an integer index through ``__index__``."""

    def __index__(self):
        return 1


def test_index_objects_name_the_character_they_index():
    key = _Index()
    character = Character(A, key)
    assert character.index == 1 and type(character.index) is int
    assert character.label == "b"
    assert A.character_mask((key,)) == 0b10
    assert StarHomomorphism(A, B, (key, 0)).character_images == (1, 0)
