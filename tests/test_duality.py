"""Functors between spaces and algebras, natural transformations, equivalence."""

import itertools

import numpy as np
import pytest

from cstarlab import (
    ContinuousMap,
    DualityViolation,
    FiniteSpace,
    NotACharacter,
    StarHomomorphism,
    functor_F_morphism,
    functor_F_object,
    functor_G_morphism,
    functor_G_object,
    make_function_algebra,
    make_normal_generator_algebra,
    make_star_homomorphism,
    mu,
    tau,
    verify_equivalence,
    verify_naturality_mu,
    verify_naturality_tau,
)
from cstarlab import duality, gelfand


def space_of(n, prefix="x"):
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def assert_single_check(report, law):
    """A naturality report is one record of its law about its own subject."""
    (record,) = report.checks
    assert (record.law, record.instance) == (law, report.subject)
    assert (record.defect, record.passed) == (report.max_defect, report.passed)


def all_maps(X, Y):
    for images in itertools.product(Y.points, repeat=len(X.points)):
        yield ContinuousMap(X, Y, images)


# ---------------------------------------------------------------------------
# objects


def test_F_sends_function_algebras_to_index_spaces():
    A = make_function_algebra(("a", "b", "c"))
    assert functor_F_object(A).points == ("0", "1", "2")


def test_F_sends_matrix_algebras_to_their_spectra_labels():
    A = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0]))
    assert functor_F_object(A).points == ("0", "1")


def test_G_builds_function_algebras():
    X = space_of(3)
    assert functor_G_object(X).space == X
    assert functor_G_object(X).dim == 3


# ---------------------------------------------------------------------------
# morphism actions


def test_F_of_identity_is_identity():
    A = make_function_algebra(("a", "b"))
    got = functor_F_morphism(StarHomomorphism.identity(A))
    assert got == ContinuousMap.identity(functor_F_object(A))


def test_F_reverses_arrows():
    A = make_function_algebra(space_of(3, "a").points)
    B = make_function_algebra(space_of(2, "b").points)
    phi = make_star_homomorphism((2, 0), A, B)
    fmap = functor_F_morphism(phi)
    # each character of B pulls back to the character of A it factors through
    assert fmap.source == functor_F_object(B)
    assert fmap.target == functor_F_object(A)
    assert fmap.assignment == ("2", "0")


def test_F_is_contravariantly_functorial():
    A = make_function_algebra(space_of(3, "a").points)
    B = make_function_algebra(space_of(3, "b").points)
    C = make_function_algebra(space_of(2, "c").points)
    phi = make_star_homomorphism((1, 2, 0), A, B)
    rho = make_star_homomorphism((0, 2), B, C)
    lhs = functor_F_morphism(phi.then(rho))
    rhs = functor_F_morphism(rho).then(functor_F_morphism(phi))
    assert lhs == rhs


def test_F_rejects_non_characters():
    A = make_function_algebra(("a", "b"))

    class Mangler:
        source = A
        target = A

        def __call__(self, element):
            # doubling is linear but not multiplicative
            return A.element(2.0 * element.coords)

    with pytest.raises(NotACharacter):
        functor_F_morphism(Mangler())


class ProbeMatrix:
    """A duck-typed map whose probe matrix (row j: target character j, column
    i: image of the i-th source indicator) is given outright."""

    def __init__(self, rows):
        self.probe = np.asarray(rows, dtype=complex)
        self.target, self.source = (
            make_function_algebra(space_of(d).points) for d in self.probe.shape
        )

    def __call__(self, element):
        return self.target.element(self.probe @ element.coords)


@pytest.mark.parametrize(
    "rows, failing, defect",
    [
        ([[1, 0], [0.5, 0.5]], 1, "5.000e-01"),  # hit 0.5, another modulus 0.5
        ([[1], [0.5]], 1, "5.000e-01"),  # one source character: only the hit
        ([[1, 1e-3], [0.5, 0.5]], 0, "1.000e-03"),  # of two failing rows, the first
    ],
)
def test_F_names_the_first_row_that_is_no_character(rows, failing, defect):
    with pytest.raises(NotACharacter) as info:
        functor_F_morphism(ProbeMatrix(rows))
    assert str(info.value) == (
        f"character {failing} of the target pulls back to a functional "
        f"that is not a character (defect {defect})"
    )


def test_F_of_a_map_out_of_one_point_algebra_is_constant():
    phi = ProbeMatrix([[1], [1], [1]])
    assert functor_F_morphism(phi) == ContinuousMap(
        functor_F_object(phi.target), functor_F_object(phi.source), ("0",) * 3
    )


def test_G_of_identity_is_identity_homomorphism():
    X = space_of(3)
    assert functor_G_morphism(ContinuousMap.identity(X)).character_images == (0, 1, 2)


def test_G_passes_the_point_map_index_tuple_to_the_pullback():
    f = ContinuousMap(space_of(2, "p"), space_of(3, "q"), ("q2", "q0"))
    assert f.images == (2, 0)
    assert functor_G_morphism(f).character_images == f.images
    assert repr(f) == "ContinuousMap(p0->q2, p1->q0)"


def test_G_reverses_arrows_by_pullback():
    X, Y = space_of(2, "p"), space_of(3, "q")
    f = ContinuousMap(X, Y, ("q2", "q0"))
    pullback = functor_G_morphism(f)
    assert pullback.source == functor_G_object(Y)
    assert pullback.target == functor_G_object(X)
    g = functor_G_object(Y).element([10.0, 20.0, 30.0])
    assert np.array_equal(pullback(g).coords, np.array([30.0 + 0j, 10.0 + 0j]))


def test_G_is_contravariantly_functorial_exhaustively():
    X, Y, Z = space_of(2, "x"), space_of(3, "y"), space_of(2, "z")
    for f in all_maps(X, Y):
        for g in all_maps(Y, Z):
            lhs = functor_G_morphism(f.then(g))
            rhs = functor_G_morphism(g).then(functor_G_morphism(f))
            assert lhs.character_images == rhs.character_images


# ---------------------------------------------------------------------------
# natural transformations


def test_tau_acts_like_the_transform():
    A = make_function_algebra(("a", "b", "c"))
    a = A.element([1.0, 2j, -3.0])
    assert np.array_equal(tau(A)(a).coords, gelfand.gelfand_transform(a).coords)


def test_tau_is_invertible():
    A = make_normal_generator_algebra(np.diag([1.0, 4.0]))
    component = tau(A)
    inverse = make_star_homomorphism(
        component.character_images, component.target, A
    )
    assert component.then(inverse).character_images == (0, 1)
    assert inverse.then(component).character_images == (0, 1)


def test_mu_matches_points_to_their_evaluation_characters():
    X = FiniteSpace(("p", "q", "r"))
    m = mu(X)
    assert m.source == X
    assert m.assignment == ("0", "1", "2")


def test_mu_detects_degenerate_character_enumeration(monkeypatch):
    X = FiniteSpace(("p", "q"))
    A = functor_G_object(X)
    first = gelfand.characters(A).members[0]

    def collapsed(algebra):
        return gelfand.CharacterSpace(algebra=algebra, members=(first, first))

    monkeypatch.setattr(duality, "characters", collapsed)
    with pytest.raises(DualityViolation):
        duality.mu(X)


def test_equivalence_reports_degenerate_character_enumeration(monkeypatch):
    X = FiniteSpace(("p", "q"))
    first = gelfand.characters(functor_G_object(X)).members[0]

    def collapsed(algebra):
        return gelfand.CharacterSpace(algebra=algebra, members=(first, first))

    monkeypatch.setattr(duality, "characters", collapsed)
    report = verify_equivalence(X)
    assert not report.passed
    assert report.max_defect == 1.0
    assert [c.law for c in report.checks if not c.passed] == ["mu_bijection"]


def test_mu_rejects_an_assignment_that_is_not_a_bijection(monkeypatch):
    # f sends both indicators to 1 and g sends both to 0, so each point has
    # exactly one hit, f, and the assignment is not injective; real
    # characters cannot do this, so only a stand-in reaches the guard
    X = FiniteSpace(("p", "q"))

    def stand_in(algebra):
        f_and_g = (lambda a: complex(a.coords.sum()), lambda a: 0j)
        return gelfand.CharacterSpace(algebra=algebra, members=f_and_g)

    monkeypatch.setattr(duality, "characters", stand_in)
    with pytest.raises(DualityViolation, match="^point-to-character map is not a bijection$"):
        duality.mu(X)
    report = verify_equivalence(X)
    assert report.max_defect == 1.0
    assert [c.law for c in report.checks if not c.passed] == ["mu_bijection"]


def test_space_verifier_computes_mu_once(monkeypatch):
    calls = []

    def counted(space):
        calls.append(space)
        return mu(space)

    monkeypatch.setattr(duality, "mu", counted)
    X = space_of(6)
    assert verify_equivalence(X).passed
    assert calls == [X]


def test_tau_naturality_squares_commute():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n_a, n_b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = make_function_algebra(space_of(n_a, "a").points)
        B = make_function_algebra(space_of(n_b, "b").points)
        phi = make_star_homomorphism(rng.integers(0, n_a, n_b), A, B)
        report = verify_naturality_tau(phi)
        assert report.passed
        assert_single_check(report, "naturality_tau")
        assert report.max_defect <= 1e-10


def test_mu_naturality_squares_commute_exhaustively():
    for n, m in itertools.product((1, 2, 3), repeat=2):
        X, Y = space_of(n, "s"), space_of(m, "t")
        for f in all_maps(X, Y):
            report = verify_naturality_mu(f)
            assert report.passed
            assert_single_check(report, "naturality_mu")
            assert report.max_defect == 0.0


def test_mu_naturality_detects_a_wrong_double_dual(monkeypatch):
    # F(G(f)) replaced by a constant map: the two composites disagree
    def constant(phi):
        source = functor_F_object(phi.target)
        target = functor_F_object(phi.source)
        return ContinuousMap(source, target, (target.points[0],) * source.size)

    monkeypatch.setattr(duality, "functor_F_morphism", constant)
    X = space_of(3)
    report = verify_naturality_mu(ContinuousMap.identity(X))
    assert not report.passed
    assert_single_check(report, "naturality_mu")
    assert report.max_defect == 1.0


def test_tau_naturality_includes_matrix_sources():
    A = make_normal_generator_algebra(np.diag([0.0, 1.0, 1.0]))
    B = make_function_algebra(("u", "v"))
    phi = make_star_homomorphism((1, 0), A, B)
    report = verify_naturality_tau(phi)
    assert report.passed
    assert_single_check(report, "naturality_tau")


# ---------------------------------------------------------------------------
# the equivalence, end to end


def test_equivalence_for_all_small_spaces():
    for n in range(1, 7):
        report = verify_equivalence(space_of(n))
        assert all(check.passed for check in report.checks), report


def test_equivalence_for_function_algebras():
    for n in range(1, 7):
        report = verify_equivalence(make_function_algebra(space_of(n).points))
        assert all(check.passed for check in report.checks), report


def test_equivalence_for_matrix_algebras():
    rng = np.random.default_rng(9)
    for n in (2, 3, 5):
        eigs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        algebra = make_normal_generator_algebra((Q * eigs) @ Q.conj().T)
        report = verify_equivalence(algebra)
        assert all(check.passed for check in report.checks), report


def test_equivalence_report_names_its_checks():
    report = verify_equivalence(space_of(2))
    assert {c.law for c in report.checks} == {
        "mu_bijection",
        "double_dual_size",
        "mu_identity_square",
    }
    algebra_report = verify_equivalence(make_function_algebra(("a",)))
    assert {c.law for c in algebra_report.checks} == {
        "tau_surjective_dimension",
        "tau_injective_round_trip",
        "tau_isometry",
        "tau_multiplicative",
        "tau_star_preserving",
    }


@pytest.mark.parametrize("d", [1, 3, 6])
def test_algebra_verifier_transforms_each_member_once(monkeypatch, d):
    # the family is d indicators, the unit and one generic element; beyond
    # one transform per member, only products and stars are transformed
    calls = []

    def counted(a):
        calls.append(a)
        return gelfand.gelfand_transform(a)

    monkeypatch.setattr(duality, "gelfand_transform", counted)
    assert verify_equivalence(make_function_algebra(space_of(d).points)).passed
    m = d + 2
    assert len(calls) == m * m + 2 * m
