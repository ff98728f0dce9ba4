"""Characters and the Gelfand transform."""

import numpy as np
import pytest

from cstarlab import (
    AlgebraMismatch,
    FunctionAlgebra,
    SpaceMismatch,
    characters,
    evaluate_character,
    gelfand_inverse,
    gelfand_transform,
    hausdorff_distance,
    make_function_algebra,
    make_normal_generator_algebra,
    spectrum,
    transform_target,
    verify_equivalence,
)


@pytest.fixture
def three_points():
    return make_function_algebra(("a", "b", "c"))


def random_element(algebra, rng, scale=1.0):
    re = rng.uniform(-scale, scale, algebra.dim)
    im = rng.uniform(-scale, scale, algebra.dim)
    return algebra.element(re + 1j * im)


def test_character_count_matches_points(three_points):
    assert len(characters(three_points).members) == 3


def test_character_count_matches_distinct_eigenvalues():
    algebra = make_normal_generator_algebra(np.diag([1.0, 1.0, 2.0]))
    assert len(characters(algebra).members) == 2


def test_scalars_have_a_single_character():
    algebra = make_function_algebra(("pt",))
    assert len(characters(algebra).members) == 1


def test_characters_evaluate_pointwise(three_points):
    f = three_points.element([7.0, 9.0, -1j])
    chis = characters(three_points).members
    assert [evaluate_character(chi, f) for chi in chis] == [7.0, 9.0, -1j]


def test_characters_are_unital_and_multiplicative(three_points):
    rng = np.random.default_rng(1)
    chis = characters(three_points).members
    for chi in chis:
        assert evaluate_character(chi, three_points.unit()) == 1.0
        a = random_element(three_points, rng)
        b = random_element(three_points, rng)
        lhs = evaluate_character(chi, a * b)
        rhs = evaluate_character(chi, a) * evaluate_character(chi, b)
        assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))
        assert evaluate_character(chi, a.star()) == evaluate_character(chi, a).conjugate()


def test_characters_are_contractive(three_points):
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = random_element(three_points, rng, 3.0)
        for chi in characters(three_points).members:
            # scalar and vector modulus can disagree in the last ulp
            assert abs(evaluate_character(chi, a)) <= a.norm() * (1 + 1e-15)


def test_character_rejects_foreign_elements(three_points):
    other = make_function_algebra(("x", "y", "z"))
    chi = characters(three_points).members[0]
    with pytest.raises(AlgebraMismatch):
        evaluate_character(chi, other.unit())


def test_character_space_relabels_by_index(three_points):
    X = characters(three_points).as_finite_space()
    assert X.points == ("0", "1", "2")


def test_transform_of_function_element_keeps_values(three_points):
    f = three_points.element([3.0, 5.0, -2.0])
    f_hat = gelfand_transform(f)
    assert f_hat.algebra is not three_points
    assert f_hat.algebra.space.points == ("0", "1", "2")
    assert np.array_equal(f_hat.coords, f.coords)


def test_transform_of_unit_is_constant_one(three_points):
    ones = gelfand_transform(three_points.unit())
    assert np.array_equal(ones.coords, np.ones(3, dtype=complex))


def test_transform_of_matrix_generator_is_coordinate_function():
    algebra = make_normal_generator_algebra(np.diag([2.0, 5.0, 5.0]))
    g_hat = gelfand_transform(algebra.generator_element())
    assert np.allclose(g_hat.coords, np.array(algebra.distinct_spectrum.points))


def test_transform_is_a_homomorphism(three_points):
    rng = np.random.default_rng(3)
    a = random_element(three_points, rng)
    b = random_element(three_points, rng)
    assert (gelfand_transform(a * b) - gelfand_transform(a) * gelfand_transform(b)).norm() == 0.0
    assert (gelfand_transform(a + b) - (gelfand_transform(a) + gelfand_transform(b))).norm() == 0.0
    assert (gelfand_transform(a.star()) - gelfand_transform(a).star()).norm() == 0.0


def test_transform_is_isometric(three_points):
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = random_element(three_points, rng, 2.0)
        assert gelfand_transform(a).norm() == a.norm()


def test_round_trip_is_identity(three_points):
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_element(three_points, rng)
        back = gelfand_inverse(three_points, gelfand_transform(a))
        assert (back - a).norm() == 0.0


def test_round_trip_on_matrix_model():
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    eigs = np.array([1.0, 1j, -1j, 2.0])
    algebra = make_normal_generator_algebra((Q * eigs) @ Q.conj().T)
    a = random_element(algebra, rng)
    assert (gelfand_inverse(algebra, gelfand_transform(a)) - a).norm() == 0.0


def test_inverse_requires_the_transform_algebra(three_points):
    stray = make_function_algebra(("0", "1"))
    with pytest.raises(SpaceMismatch):
        gelfand_inverse(three_points, stray.element([1.0, 2.0]))


def test_equivalence_builds_at_most_one_transform_target(monkeypatch):
    algebra = make_function_algebra(tuple("uvwxyz"))
    stray = make_function_algebra(tuple("abcdef")).element(np.arange(6.0))
    built = []
    original = FunctionAlgebra.__init__

    def counting(self, space):
        built.append(space)
        original(self, space)

    monkeypatch.setattr(FunctionAlgebra, "__init__", counting)
    assert verify_equivalence(algebra).passed
    assert len(built) <= 1
    # the shared target still rejects a function on another space of that size
    with pytest.raises(SpaceMismatch):
        gelfand_inverse(algebra, stray)


def test_inverse_accepts_any_element_of_the_target(three_points):
    f_hat = transform_target(three_points).element([1.0, 2.0, 3.0])
    back = gelfand_inverse(three_points, f_hat)
    assert back.algebra is three_points
    assert np.array_equal(back.coords, f_hat.coords)


def test_spectrum_equals_character_values():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        algebra = make_function_algebra(tuple(f"x{i}" for i in range(n)))
        a = random_element(algebra, rng, 2.0)
        chi_values = [evaluate_character(chi, a) for chi in characters(algebra).members]
        sigma = spectrum(a)
        assert hausdorff_distance(sigma.points, chi_values) <= 1e-9


def test_transform_norm_equals_spectral_radius(three_points):
    a = three_points.element([1.0, -2j, 3.0])
    assert gelfand_transform(a).norm() == spectrum(a).radius() == 3.0
    assert gelfand_transform(a).norm() <= a.norm()
