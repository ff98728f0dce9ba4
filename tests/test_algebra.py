"""Core algebra models: construction, operations, homomorphisms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarlab.algebra
from cstarlab import (
    AlgebraMismatch,
    ContinuousMap,
    CstarError,
    DecompositionFailure,
    FiniteSpace,
    FunctionAlgebra,
    InvalidPointMap,
    InvalidSpace,
    InvalidSubset,
    NonFinite,
    NotNormal,
    StarHomomorphism,
    classify_element,
    gelfand_inverse,
    gelfand_transform,
    invert,
    make_function_algebra,
    make_normal_generator_algebra,
    make_star_homomorphism,
    neumann_inverse,
    restriction_homomorphism,
)
from cstarlab.errors import _unscale
from cstarlab.sampling import random_unitary

values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def space_of(n: int, prefix: str = "x") -> FiniteSpace:
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


@st.composite
def elements(draw, max_points: int = 6):
    vals = draw(st.lists(values, min_size=1, max_size=max_points))
    return FunctionAlgebra(space_of(len(vals))).element(vals)


@st.composite
def element_pairs(draw, max_points: int = 6):
    n = draw(st.integers(1, max_points))
    algebra = FunctionAlgebra(space_of(n))
    mk = st.lists(values, min_size=n, max_size=n)
    return algebra.element(draw(mk)), algebra.element(draw(mk))


# ---------------------------------------------------------------------------
# spaces


def test_space_requires_points():
    with pytest.raises(InvalidSpace):
        FiniteSpace(())


def test_space_rejects_duplicates():
    with pytest.raises(InvalidSpace):
        FiniteSpace(("p", "p"))


def test_continuous_map_validates_images():
    X, Y = space_of(2, "a"), space_of(2, "b")
    with pytest.raises(InvalidPointMap):
        ContinuousMap(X, Y, ("b0", "nope"))
    with pytest.raises(InvalidPointMap):
        ContinuousMap(X, Y, ("b0",))


def test_continuous_map_composition():
    X, Y = space_of(3, "a"), space_of(2, "b")
    f = ContinuousMap(X, Y, ("b1", "b0", "b1"))
    g = ContinuousMap.identity(Y)
    assert f.then(g) == f
    assert ContinuousMap.identity(X).then(f) == f


# ---------------------------------------------------------------------------
# function algebra


def test_function_algebra_has_one_character_per_point():
    algebra = make_function_algebra(FiniteSpace(("a", "b", "c")))
    assert algebra.dim == 3
    assert [algebra.character_label(i) for i in range(3)] == ["a", "b", "c"]


def test_one_point_algebra_is_scalars():
    algebra = make_function_algebra(FiniteSpace(("pt",)))
    assert algebra.dim == 1
    assert algebra.unit().norm() == 1.0


def test_empty_space_rejected():
    with pytest.raises(InvalidSpace):
        make_function_algebra(())


def test_element_length_must_match():
    algebra = make_function_algebra(space_of(3))
    with pytest.raises(ValueError):
        algebra.element([1.0, 2.0])


def test_element_entries_must_be_finite():
    algebra = make_function_algebra(space_of(2))
    with pytest.raises(ValueError):
        algebra.element([1.0, float("inf")])


def test_non_finite_values_raise_a_cstar_value_error():
    assert issubclass(NonFinite, CstarError) and issubclass(NonFinite, ValueError)
    with pytest.raises(NonFinite):
        make_function_algebra(space_of(2)).element([1.0, float("nan")])
    with pytest.raises(NonFinite):
        make_normal_generator_algebra(np.diag([1.0, float("inf")]))


def test_star_conjugates_values():
    algebra = make_function_algebra(space_of(2))
    f = algebra.element([1j, 1 + 1j])
    assert np.array_equal(f.star().coords, np.array([-1j, 1 - 1j]))


def test_norm_is_sup_of_moduli():
    algebra = make_function_algebra(space_of(3))
    assert algebra.element([1, -2j, 3]).norm() == 3.0
    assert (0 * algebra.unit()).norm() == 0.0


def test_cstar_identity_on_a_small_example():
    algebra = make_function_algebra(space_of(3))
    f = algebra.element([1, -2j, 3])
    assert (f.star() * f).norm() == f.norm() ** 2 == 9.0


def test_unit_law_and_mismatch():
    algebra = make_function_algebra(space_of(2))
    other = make_function_algebra(space_of(2, "y"))
    f = algebra.element([2, 3])
    assert ((algebra.unit() * f) - f).norm() == 0.0
    with pytest.raises(AlgebraMismatch):
        f + other.element([1, 1])
    with pytest.raises(AlgebraMismatch):
        f * other.unit()


def test_arithmetic_overflow_is_non_finite():
    algebra = make_function_algebra(space_of(2))
    big = algebra.element([1e200, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite):
            big * big
        with pytest.raises(NonFinite):
            big * 1e200
        with pytest.raises(NonFinite):
            1e200 * big
        with pytest.raises(NonFinite):
            algebra.element([1.7e308, 0.0]) + algebra.element([1.7e308, 0.0])
        with pytest.raises(NonFinite):
            algebra.element([-1.7e308, 0.0]) - algebra.element([1.7e308, 0.0])
        with pytest.raises(NonFinite):
            big * float("nan")
        with pytest.raises(NonFinite):
            big * complex(0.0, float("nan"))
        with pytest.raises(NonFinite):
            invert(algebra.element([5e-324, 5e-324]))


def test_derived_elements_are_read_only():
    algebra = make_function_algebra(space_of(3))
    f = algebra.element([1, 2j, 3])
    g = algebra.element([4, 5, -6j])
    phi = make_star_homomorphism((2, 0), algebra, make_function_algebra(space_of(2)))
    derived = [
        algebra.unit(),
        0 * algebra.unit(),
        f + g,
        f - g,
        (-1) * f,
        f * g,
        f * 2.0,
        2.0 * f,
        f.star(),
        phi(f),
        gelfand_transform(f),
        gelfand_inverse(algebra, gelfand_transform(f)),
    ]
    for h in derived:
        assert not h.coords.flags.writeable
        with pytest.raises(ValueError):
            h.coords[0] = 0.0
    assert np.array_equal(f.coords, [1, 2j, 3])


def _scan_for_label(algebra, key):
    """The old resolution: the first character whose label equals ``key``."""
    for i in range(algebra.dim):
        if algebra.character_label(i) == key:
            return i
    raise InvalidSubset(key)


def test_label_lookup_agrees_with_a_scan_over_every_label():
    functions = make_function_algebra(FiniteSpace(("1", "0", "b", "a", "10")))
    generator = make_normal_generator_algebra(np.diag(np.arange(12.0)))
    for algebra in (functions, generator):
        for i in range(algebra.dim):
            label = algebra.character_label(i)
            assert algebra.character_mask((label,)) == 1 << _scan_for_label(
                algebra, label
            )
    # a label is not an index, and an index is not a label
    assert functions.character_mask(("1",)) == 1 << 0
    assert functions.character_mask((1,)) == 1 << 1
    assert generator.character_mask((np.str_("11"),)) == 1 << 11


@pytest.mark.parametrize("key", ["01", " 1", "1.0", "12", "", True, False, 1.0, None])
def test_keys_that_name_no_character_are_rejected(key):
    generator = make_normal_generator_algebra(np.diag(np.arange(12.0)))
    with pytest.raises(InvalidSubset):
        generator.character_mask((key,))


# ---------------------------------------------------------------------------
# normal generator algebra


def test_diagonal_generator_spectrum_matches_characteristic_roots():
    # oracle: roots of the characteristic polynomial of diag(1, 2, 3)
    roots = sorted(np.roots([1, -6, 11, -6]).real)
    assert np.allclose(roots, [1, 2, 3])
    algebra = make_normal_generator_algebra(np.diag([1.0, 2.0, 3.0]))
    assert algebra.dim == 3
    assert np.allclose(np.array(algebra.distinct_spectrum.points), roots)


def test_flip_matrix_has_symmetric_spectrum():
    # oracle: roots of z^2 - 1
    algebra = make_normal_generator_algebra([[0, 1], [1, 0]])
    pts = np.array(algebra.distinct_spectrum.points)
    assert np.allclose(sorted(pts.real), [-1, 1], atol=1e-12)
    assert np.allclose(pts.imag, 0, atol=1e-12)


def test_rotation_matrix_exercises_degenerate_hermitian_part():
    # hermitian part of the rotation is zero, so the cluster refinement
    # must recover the basis from the anti-hermitian part alone
    algebra = make_normal_generator_algebra([[0, -1], [1, 0]])
    pts = np.array(algebra.distinct_spectrum.points)
    assert np.allclose(sorted(pts.imag), [-1, 1], atol=1e-12)


def test_identity_matrix_collapses_to_one_character():
    algebra = make_normal_generator_algebra(np.eye(2))
    assert algebra.dim == 1
    assert algebra.distinct_spectrum.points == (1 + 0j,)
    assert algebra.multiplicity_map == (0, 0)


def test_shift_matrix_is_rejected():
    with pytest.raises(NotNormal) as info:
        make_normal_generator_algebra([[0, 1], [0, 0]])
    assert info.value.defect == pytest.approx(np.sqrt(2))


def test_huge_non_normal_matrix_is_rejected():
    # M M* overflows at this scale; a NaN defect must not pass the check
    with pytest.raises(NotNormal):
        make_normal_generator_algebra([[1e200, 1e200], [0, 1e200]])


def test_huge_normal_matrix_keeps_its_spectrum():
    algebra = make_normal_generator_algebra(np.diag([1e200, 2e200]))
    assert algebra.distinct_spectrum.points == (1e200 + 0j, 2e200 + 0j)
    # the reconstruction defect's norm overflows unless it is scaled too
    hermitian = make_normal_generator_algebra([[1e200, 1e200], [1e200, 1e200]])
    radius = max(abs(p) for p in hermitian.distinct_spectrum.points)
    assert radius == pytest.approx(2e200)


def test_not_normal_message_stays_finite():
    with pytest.raises(NotNormal) as info:
        make_normal_generator_algebra([[1e200, 1e200], [0, 1e200]])
    assert info.value.defect == np.inf  # the unscaled value overflows
    message = str(info.value)
    assert "inf" not in message
    assert "commutator norm 1.414e+400 exceeds bound 3.000e+390" in message
    assert "4.71e+09 times the bound" in message


def test_unscaled_text_carries_a_mantissa_that_rounds_up_to_ten():
    # 73.62122380415825 * 2^1100 is 9.99997...e+332, whose mantissa rounds
    # to 10.000 at three decimals; the text moves it into the exponent
    assert _unscale(73.62122380415825, 1100) == (np.inf, "1.000e+333")


def _exact_text(x: float, k: int) -> str:
    """x 2^k in ``.3e`` form from the exact integer, rounded half-even."""
    num, den = x.as_integer_ratio()
    value = (num << k) // den  # exact: x 2^k >= 2^1024 is an integer
    digits = str(value)
    unit = 10 ** (len(digits) - 4)
    q, r = divmod(value, unit)
    if 2 * r > unit or (2 * r == unit and q % 2):
        q += 1
    e = len(digits) - 1
    if q == 10000:
        q, e = 1000, e + 1
    return f"{q // 1000}.{q % 1000:03d}e+{e}"


def test_unscaled_text_is_the_correctly_rounded_text_past_the_float_limit():
    rng = np.random.default_rng(31)
    cases = []
    # floats within a few ulps of a four-digit boundary d.ddd5 10^e
    for m, e in zip(rng.integers(1000, 10000, 400), rng.integers(309, 400, 400)):
        boundary = (10 * int(m) + 5) * 10 ** (int(e) - 4)
        k = boundary.bit_length() - 1
        x = boundary / (1 << k)  # correctly rounded, in [1, 2)
        cases.append((x, k))
        for toward in (0.0, 4.0):
            y = x
            for _ in range(2):
                y = math.nextafter(y, toward)
                cases.append((y, k))
    # random values whose product with 2^k overflows
    for x, j in zip(rng.uniform(1e-3, 1e6, 200), rng.integers(1, 300, 200)):
        cases.append((float(x), 1024 - math.frexp(x)[1] + int(j)))
    assert len(cases) == 2200
    wrong = [(x, k) for x, k in cases if _unscale(x, k) != (np.inf, _exact_text(x, k))]
    assert not wrong, f"{len(wrong)} wrong, first {wrong[0]}"


def test_generators_near_the_float_limit_keep_their_spectra():
    # Hermitian and anti-Hermitian parts overflow unless they are scaled
    rotation = make_normal_generator_algebra([[1e308, -1e308], [1e308, 1e308]])
    points = np.array(rotation.distinct_spectrum.points)
    assert np.allclose(points, [1e308 - 1e308j, 1e308 + 1e308j], rtol=1e-12, atol=0)
    hermitian = make_normal_generator_algebra([[1e308, 1e308], [1e308, -1e308]])
    points = np.array(hermitian.distinct_spectrum.points)
    assert points.real == pytest.approx([-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308])
    assert np.all(points.imag == 0)


def test_huge_diagonal_generator_builds_without_floating_point_warnings():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        algebra = make_normal_generator_algebra(np.diag([1e308, 1e308]))
    assert algebra.distinct_spectrum.points == (1e308 + 0j,)


def test_overflowing_eigenvalue_is_one_error_naming_the_overflow():
    # the spectrum is {0, 2e308}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as info:
            make_normal_generator_algebra([[1e308, 1e308], [1e308, 1e308]])
    message = str(info.value)
    assert "overflow" in message
    assert "\n" not in message


def test_reconstruction_verdict_is_invariant_under_power_of_two_scaling():
    # normal to within the normality tolerance, but 7e-7 away from the
    # reconstruction of its joint diagonalization
    sheared = np.array([[1.0, 1e-6], [0.0, 1.0]])
    for k in (0, 300, -300):
        with pytest.raises(DecompositionFailure):
            make_normal_generator_algebra(np.ldexp(sheared, k))
    zero = make_normal_generator_algebra(np.zeros((3, 3)))
    assert zero.distinct_spectrum.points == (0j,)


def test_normality_verdict_is_invariant_under_power_of_two_scaling():
    shear = np.array([[1.0, 1e-3], [0.0, 1.0]])
    nearly_normal = np.array([[1.0, 1e-12], [0.0, 1.0]])
    with pytest.raises(NotNormal) as info:
        make_normal_generator_algebra(shear)
    defect = info.value.defect
    for k in (-300, 300, 600):
        with pytest.raises(NotNormal) as info:
            make_normal_generator_algebra(np.ldexp(shear, k))
        if k <= 300:
            assert info.value.defect == np.ldexp(defect, 2 * k)
        make_normal_generator_algebra(np.ldexp(nearly_normal, k))


def construction_outcome(M):
    try:
        make_normal_generator_algebra(M)
    except CstarError as exc:
        return type(exc).__name__
    return "ok"


def test_construction_verdict_does_not_depend_on_scale():
    # normal, perturbed and triangular matrices; unscaled, the commutator of
    # the 1e150 copies overflows and that of the 1e-150 copies underflows
    rng = np.random.default_rng(11)
    for t in range(24):
        n = int(rng.integers(2, 7))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        M = (Q * (rng.normal(size=n) + 1j * rng.normal(size=n))) @ Q.conj().T
        if t % 3 == 1:
            M = M + 10.0 ** rng.uniform(-12, -2) * rng.normal(size=(n, n))
        elif t % 3 == 2:
            M = np.triu(M)
        expected = construction_outcome(M)
        for scale in (1e-150, 1e150):
            assert construction_outcome(M * scale) == expected, (t, scale)


def conjugated(eigenvalues, seed: int = 0) -> np.ndarray:
    """Q diag(eigenvalues) Q* for a seeded unitary Q."""
    n = len(eigenvalues)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (Q * np.asarray(eigenvalues, dtype=complex)) @ Q.conj().T


# two double eigenvalues each; S is skew-Hermitian, so its Hermitian part is
# nearly zero and the whole spectrum is one cluster of the first eigh
SCALE_GENERATORS = {
    "N": conjugated([1, 1, 2, 2, 3, 3j]),
    "S": conjugated([1j, 1j, 2j, 2j, 3j, -1j]),
}


@pytest.mark.parametrize(
    "c",
    [2.0**-600, 1e-12, 1e-9, 1.0, 1e6, 1e9, 2.0**600],
    ids=["2^-600", "1e-12", "1e-9", "1", "1e6", "1e9", "2^600"],
)
@pytest.mark.parametrize("name", sorted(SCALE_GENERATORS))
def test_dimension_does_not_depend_on_scale(name, c):
    algebra = make_normal_generator_algebra(SCALE_GENERATORS[name] * c)
    assert algebra.dim == 4
    points = algebra.distinct_spectrum.points
    gaps = [abs(p - q) for i, p in enumerate(points) for q in points[i + 1 :]]
    assert min(gaps) > algebra.distinct_spectrum.merge_tol


def multiplicities(algebra) -> list[int]:
    return sorted(np.bincount(algebra.multiplicity_map).tolist())


GRID = [complex(re, im) for re in range(-3, 4) for im in range(-3, 4)]


@given(
    family=st.sampled_from(["normal", "hermitian", "positive"]),
    picks=st.lists(st.integers(0, len(GRID) - 1), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from([2.0, 10.0]),
    j=st.integers(-300, 300),
)
@settings(max_examples=60, deadline=None)
def test_scaling_keeps_dimension_multiplicities_and_class_flags(
    family, picks, seed, base, j
):
    # repeated picks give repeated eigenvalues
    eigenvalues = [GRID[i] for i in picks]
    if family == "hermitian":
        eigenvalues = [z.real for z in eigenvalues]
    elif family == "positive":
        eigenvalues = [abs(z.real) + 1 for z in eigenvalues]
    M = conjugated(eigenvalues, seed)
    c = base**j
    plain = make_normal_generator_algebra(M)
    scaled = make_normal_generator_algebra(M * c)
    assert scaled.dim == plain.dim == len(set(eigenvalues))
    assert multiplicities(scaled) == multiplicities(plain)
    if family != "normal":
        tol = 1e-9
        want = classify_element(plain.generator_element(), tol).flags
        got = classify_element(scaled.generator_element(), c * tol).flags
        for name in ("self_adjoint", "positive"):
            assert got[name] == want[name], name


def test_eigenvector_matrix_is_unitary_and_reconstructs():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        eigs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        M = (Q * eigs) @ Q.conj().T
        algebra = make_normal_generator_algebra(M)
        U = algebra.eigenvectors
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12 * n
        rebuilt = (U * np.array(algebra.eigenvalues)) @ U.conj().T
        assert np.linalg.norm(rebuilt - M) <= 1e-9 * max(1.0, np.linalg.norm(M))


def test_eigenvalue_dedup_respects_merge_tolerance():
    algebra = make_normal_generator_algebra(np.diag([1.0, 1.0 + 5e-10, 2.0]))
    assert algebra.dim == 2
    dists = [
        abs(p - q)
        for i, p in enumerate(algebra.distinct_spectrum.points)
        for q in algebra.distinct_spectrum.points[i + 1 :]
    ]
    assert all(d > algebra.distinct_spectrum.merge_tol for d in dists)

    # the largest entry 2 gives 2^k = 4, a cutoff of 4e-8: 1e-7 apart stays distinct
    apart = make_normal_generator_algebra(np.diag([1.0, 1.0 + 1e-7, 2.0]))
    assert apart.distinct_spectrum.merge_tol == 4e-8
    assert apart.dim == 3


def test_unitary_generator_with_conjugate_pairs():
    # conjugate eigenvalue pairs share the real part, forcing real cluster work
    theta = 0.7
    M = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    algebra = make_normal_generator_algebra(M)
    pts = np.array(algebra.distinct_spectrum.points)
    expected = np.exp(np.array([-1j, 1j]) * theta)
    assert np.allclose(sorted(pts, key=lambda z: z.imag), expected, atol=1e-10)


def test_materialize_commutes_with_operations():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        eigs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        algebra = make_normal_generator_algebra((Q * eigs) @ Q.conj().T)
        a = algebra.element(rng.uniform(-1, 1, algebra.dim) + 1j * rng.uniform(-1, 1, algebra.dim))
        b = algebra.element(rng.uniform(-1, 1, algebra.dim) + 1j * rng.uniform(-1, 1, algebra.dim))
        Ma, Mb = algebra.materialize(a), algebra.materialize(b)
        assert np.linalg.norm(algebra.materialize(a * b) - Ma @ Mb) <= 1e-9
        assert np.linalg.norm(algebra.materialize(a + b) - (Ma + Mb)) <= 1e-9
        assert np.linalg.norm(algebra.materialize(a.star()) - Ma.conj().T) <= 1e-9


@pytest.mark.parametrize("repeats", [False, True])
def test_materialized_generator_element_is_the_generator(repeats):
    # U diag(f(lambda)) U* must give back N itself.  U* D U is also a
    # *-homomorphism with the same norms, so only this comparison sees it;
    # for a scalar N the two coincide, so every draw has k >= 2 distinct
    # eigenvalues.  The eigenvectors of the Hermitian part are accurate to
    # eps |N| / delta, delta the smallest gap between the real parts of two
    # distinct eigenvalues, so the bound grows once delta < |N|.
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for _ in range(100):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(2, n + 1)) if repeats else n
        distinct = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
        eigs = distinct[np.concatenate([np.arange(k), rng.integers(0, k, n - k)])]
        U = random_unitary(rng, n)
        N = (U * eigs) @ U.conj().T
        algebra = make_normal_generator_algebra(N)
        assert algebra.dim == k
        norm = np.linalg.norm(N, 2)
        delta = np.diff(np.sort(distinct.real)).min()
        gap = np.linalg.norm(algebra.materialize(algebra.generator_element()) - N, 2)
        assert gap <= 100 * n * eps * norm * max(1.0, norm / delta)


def test_project_matrix_round_trips():
    algebra = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0]))
    a = algebra.element([3.0, -1j])
    recovered, residual = algebra.project_matrix(algebra.materialize(a))
    assert residual <= 1e-12
    assert (recovered - a).norm() <= 1e-12


def test_materialize_raises_on_an_overflowing_dense_form():
    # c N for a Hermitian N with spectrum {-1, 1}: the coordinates are finite,
    # but the dense form has the entry -1.7e308 sqrt(2)
    s = 0.5**0.5
    algebra = make_normal_generator_algebra([[0, s - s * 1j], [s + s * 1j, 0]])
    a = algebra.generator_element() * (-1.7e308 - 1.7e308j)
    assert np.isfinite(a.coords).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="dense form of the element overflows a float"):
            algebra.materialize(a)


def test_project_matrix_averages_each_cluster():
    algebra = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0, 2.0]))
    element, residual = algebra.project_matrix(np.diag([5.0, 1.0, 2.0 + 3j, 3.0]))
    assert np.array_equal(element.coords, np.array([5.0, 2.0 + 1j]))
    assert residual == pytest.approx(np.sqrt(2.0 + 4.0 + 2.0))


def test_algebras_built_separately_from_one_matrix_interoperate():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = make_normal_generator_algebra(M)
    B = make_normal_generator_algebra(np.asfortranarray(M))
    assert A is not B and A == B and hash(A) == hash(B)
    assert ((A.generator_element() + B.unit()) - B.generator_element()).norm() == 1.0
    # -0.0 and 0.0 are equal entries, so the hashes must agree too
    signed = make_normal_generator_algebra(np.array([[1.0, -0.0], [-0.0, 1.0]]))
    plain = make_normal_generator_algebra(np.eye(2))
    assert signed == plain and hash(signed) == hash(plain)


def test_different_generators_are_different_algebras():
    A = make_normal_generator_algebra(np.diag([1.0, 2.0]))
    C = make_normal_generator_algebra(np.diag([1.0, 3.0]))
    assert A.dim == C.dim and A != C
    with pytest.raises(AlgebraMismatch):
        A.unit() + C.unit()
    with pytest.raises(AlgebraMismatch):
        C.materialize(A.unit())


def test_operations_never_compare_whole_generators(monkeypatch):
    rng = np.random.default_rng(5)
    n = 256
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    algebra = make_normal_generator_algebra((Q * eigs) @ Q.conj().T)
    a = algebra.generator_element() * (0.5 / algebra.generator_element().norm())

    def whole_compare(*args, **kwargs):
        raise AssertionError("an operation compared whole generators")

    monkeypatch.setattr(cstarlab.algebra.np, "array_equal", whole_compare)
    inverse, report = neumann_inverse(a, tol=1e-12)
    assert report.terms_used > 10
    assert ((algebra.unit() - a) * inverse - algebra.unit()).norm() <= 1e-12


# ---------------------------------------------------------------------------
# homomorphisms


def test_identity_homomorphism_fixes_elements():
    algebra = make_function_algebra(space_of(3))
    f = algebra.element([1, 2, 3])
    assert (StarHomomorphism.identity(algebra)(f) - f).norm() == 0.0


def test_constant_point_map_spreads_one_value():
    source = make_function_algebra(FiniteSpace(("p0", "p1")))
    target = make_function_algebra(FiniteSpace(("q0", "q1")))
    phi = make_star_homomorphism((0, 0), source, target)
    f = source.element([5.0, 7.0])
    assert np.array_equal(phi(f).coords, np.array([5.0 + 0j, 5.0 + 0j]))


def test_restriction_homomorphism_drops_points():
    algebra = make_function_algebra(FiniteSpace(("p", "q", "r")))
    rho = restriction_homomorphism(algebra, ("p", "r"))
    f = algebra.element([3, 5, -2])
    assert np.array_equal(rho(f).coords, np.array([3.0 + 0j, -2.0 + 0j]))
    assert rho.target.space.points == ("p", "r")


def test_dangling_character_index_rejected():
    source = make_function_algebra(space_of(2))
    target = make_function_algebra(space_of(3, "y"))
    with pytest.raises(InvalidPointMap):
        make_star_homomorphism((0, 1, 2), source, target)


def test_homomorphism_preserves_unit_and_star():
    source = make_function_algebra(space_of(4))
    target = make_function_algebra(space_of(2, "y"))
    phi = make_star_homomorphism((3, 1), source, target)
    assert (phi(source.unit()) - target.unit()).norm() == 0.0
    f = source.element([1j, 2, -3, 4 + 1j])
    assert (phi(f.star()) - phi(f).star()).norm() == 0.0


def test_homomorphism_is_contractive():
    rng = np.random.default_rng(5)
    source = make_function_algebra(space_of(5))
    target = make_function_algebra(space_of(3, "y"))
    for _ in range(50):
        phi = make_star_homomorphism(rng.integers(0, 5, 3), source, target)
        f = source.element(rng.normal(size=5) + 1j * rng.normal(size=5))
        assert phi(f).norm() <= f.norm()


def test_homomorphism_composition_reindexes():
    A = make_function_algebra(space_of(3, "a"))
    B = make_function_algebra(space_of(2, "b"))
    C = make_function_algebra(space_of(2, "c"))
    phi = make_star_homomorphism((2, 0), A, B)
    rho = make_star_homomorphism((1, 1), B, C)
    composite = phi.then(rho)
    assert composite.character_images == (0, 0)
    f = A.element([10, 20, 30])
    assert (composite(f) - rho(phi(f))).norm() == 0.0


# ---------------------------------------------------------------------------
# algebraic laws, property style


@given(element_pairs())
@settings(max_examples=150)
def test_cstar_identity(pair):
    a, _ = pair
    n = a.norm()
    assert abs((a.star() * a).norm() - n * n) <= 1e-12 * (1.0 + n * n)


@given(element_pairs())
@settings(max_examples=150)
def test_norm_submultiplicative(pair):
    a, b = pair
    assert (a * b).norm() <= a.norm() * b.norm() + 1e-12 * (
        1.0 + a.norm() * b.norm()
    )


@given(elements())
def test_involution_is_isometric_exactly(a):
    assert a.star().norm() == a.norm()


@given(elements())
def test_involution_is_an_involution(a):
    assert (a.star().star() - a).norm() == 0.0


@given(elements())
def test_unit_has_norm_one(a):
    assert a.algebra.unit().norm() == 1.0


# product order can differ by a few ulp when the platform contracts the
# complex multiply into fused operations, so these two are not bitwise
@given(element_pairs())
def test_star_is_antimultiplicative(pair):
    a, b = pair
    scale = 1.0 + a.norm() * b.norm()
    assert ((a * b).star() - b.star() * a.star()).norm() <= 1e-14 * scale


@given(element_pairs())
def test_multiplication_commutes(pair):
    a, b = pair
    scale = 1.0 + a.norm() * b.norm()
    assert (a * b - b * a).norm() <= 1e-14 * scale


# ---------------------------------------------------------------------------
# construction's U* U - I, bit for bit against the matrix it avoids


def test_construction_subtracts_the_identity_in_place_bit_for_bit(monkeypatch):
    # construction's Frobenius norms, third of which is |U* U - I|_F
    seen = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x: seen.append(x.copy()) or norm(x))
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        for repeats in (False, True):
            seen.clear()
            eigs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
            if repeats:
                eigs[: n // 2] = eigs[0]
            U = random_unitary(rng, n)
            algebra = make_normal_generator_algebra((U * eigs) @ U.conj().T)
            V = algebra.eigenvectors
            assert len(seen) == 4
            assert seen[2].tobytes() == (V.conj().T @ V - np.eye(n)).tobytes()



def test_construction_holds_one_n_by_n_array_when_eigh_starts(monkeypatch):
    # the generator is built before tracing starts, so the traced arrays are
    # construction's own; H is the one eigh needs
    n = 256
    rng = np.random.default_rng(5)
    U = random_unitary(rng, n)
    N = (U * (rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n))) @ U.conj().T
    seen = []
    eigh = np.linalg.eigh

    def traced_eigh(H):
        seen.append((tracemalloc.get_traced_memory()[0], H.nbytes))
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        make_normal_generator_algebra(N)
    finally:
        tracemalloc.stop()
    traced, nbytes = seen[0]
    assert traced <= 1.5 * nbytes

def test_indicators_are_read_only():
    for algebra in (
        make_function_algebra(space_of(4).points),
        make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0, 3.0])),
    ):
        for i in range(algebra.dim):
            u = algebra._indicator(i)
            assert not u.coords.flags.writeable
            with pytest.raises(ValueError):
                u.coords[i] = 2.0
            assert u.coords.tobytes() == np.eye(algebra.dim, dtype=complex)[i].tobytes()


def test_element_and_homomorphism_reprs():
    A = make_function_algebra(space_of(8).points)
    a = A.element(np.arange(8) * (1 - 0.5j))
    assert repr(a) == (
        "<element [0+0j, 1-0.5j, 2-1j, 3-1.5j, 4-2j, 5-2.5j, ...] "
        "of C({x0,x1,x2,x3,x4,x5,x6,x7})>"
    )
    B = make_function_algebra(("p", "q"))
    assert repr(B.element([1.5, -2j])) == "<element [1.5+0j, -0-2j] of C({p,q})>"
    phi = restriction_homomorphism(A, ("x3", "x1"))
    assert repr(phi) == (
        "StarHomomorphism(C({x0,x1,x2,x3,x4,x5,x6,x7}) -> C({x3,x1}), images=(3, 1))"
    )


def test_element_times_a_non_number_is_a_type_error():
    a = make_function_algebra(("p", "q")).unit()
    with pytest.raises(TypeError):
        a * "x"
    with pytest.raises(TypeError):
        "x" * a


def test_construction_rejects_a_change_of_basis_that_is_not_unitary(monkeypatch):
    diagonalize = cstarlab.algebra._joint_diagonalize

    def doubled(M, w, U):
        U, eigs, W = diagonalize(M, w, U)
        return 2 * U, eigs, W

    monkeypatch.setattr(cstarlab.algebra, "_joint_diagonalize", doubled)
    with pytest.raises(DecompositionFailure, match="change of basis is not unitary"):
        make_normal_generator_algebra(np.diag([1.0, 2.0]))


def test_construction_rejects_eigenvalues_that_do_not_reproduce_the_generator(
    monkeypatch,
):
    # the residual is read as |D U* - U* M|_F, so it must see eigenvalues
    # that differ from the diagonal of U* M U
    diagonalize = cstarlab.algebra._joint_diagonalize

    def shifted(M, w, U):
        U, eigs, W = diagonalize(M, w, U)
        return U, eigs + 1e-6, W

    monkeypatch.setattr(cstarlab.algebra, "_joint_diagonalize", shifted)
    with pytest.raises(DecompositionFailure, match="does not reproduce the generator"):
        make_normal_generator_algebra(conjugated([1, 2, 3j, -1 - 1j]))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_not_normal_defect_is_the_commutator_norm(n):
    # the construction reads |M M* - M* M|_F as 2 |HK - (HK)*|_F for the
    # Hermitian and anti-Hermitian parts H and K; the oracle is the plain one
    rng = np.random.default_rng([n, 31])
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    commutator = M @ M.conj().T - M.conj().T @ M
    expected = float(np.sqrt(np.sum(np.abs(commutator) ** 2)))
    for k in (0, 300, -300):
        with pytest.raises(NotNormal) as info:
            make_normal_generator_algebra(M * 2.0**k)
        assert info.value.defect == pytest.approx(np.ldexp(expected, 2 * k), rel=1e-12)


# ---------------------------------------------------------------------------
# what the reconstruction residual reads: W = U* M and the eigenvalues
#
# Both bounds are c n eps |M|_F with c = 1.  The construction's W and the
# test's own U* M (and U* M U) are products of length-n inner products, each
# entry within gamma_n ~ n eps / 2 of exact relative to |U*| |M| (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.5), and
# c = 1 allows that once for each side.  The worst-case form of the bound has
# one more factor, |(|U*| |M|)|_F / |M|_F, up to sqrt(n), which rounding errors
# of mixed sign do not reach: over 170 seeded draws of these shapes (n = 8, 64
# and 256, distinct and repeated spectra) the worst was 0.13 n eps |M|_F for W
# and 0.11 n eps |M|_F for the eigenvalues, both at n = 8.

EPS = np.finfo(float).eps


def with_repeats(n: int, distinct: int, seed: int = 0) -> np.ndarray:
    """A normal n x n matrix with ``distinct`` eigenvalues, each used n // distinct
    times or more."""
    rng = np.random.default_rng([n, distinct, seed])
    values = rng.uniform(-1, 1, distinct) + 1j * rng.uniform(-1, 1, distinct)
    return conjugated(values[np.arange(n) % distinct], seed)


@pytest.mark.parametrize("n, distinct", [(8, 4), (64, 8), (256, 24)])
def test_cluster_rotations_keep_w_equal_to_u_star_m(monkeypatch, n, distinct):
    # the residual reads |D U* - W|_F, which is |U D U* - M|_F only while W = U* M
    seen = []
    diagonalize = cstarlab.algebra._joint_diagonalize

    def recorded(M, w, U):
        out = diagonalize(M, w, U)
        seen.append((M, *out))
        return out

    monkeypatch.setattr(cstarlab.algebra, "_joint_diagonalize", recorded)
    algebra = make_normal_generator_algebra(with_repeats(n, distinct))
    assert algebra.dim == distinct
    [(M, U, _, W)] = seen
    assert np.linalg.norm(W - U.conj().T @ M) <= n * EPS * np.linalg.norm(M)


@pytest.mark.parametrize("n, distinct", [(8, 8), (8, 4), (64, 64), (64, 8)])
def test_eigenvalues_are_the_diagonal_of_u_star_m_u(n, distinct):
    for k in (0, 300, -300):
        M = with_repeats(n, distinct) * 2.0**k
        algebra = make_normal_generator_algebra(M)
        U = algebra.eigenvectors
        diagonal = np.diag(U.conj().T @ M @ U)
        defect = np.linalg.norm(np.array(algebra.eigenvalues) - diagonal)
        assert defect <= n * EPS * np.linalg.norm(M), k
