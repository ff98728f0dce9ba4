"""Functors between spaces and algebras, natural transformations, equivalence."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest

from cstarlab import (
    AlgebraElement,
    AlgebraMismatch,
    ContinuousMap,
    CstarError,
    DualityViolation,
    FiniteSpace,
    NonFinite,
    NotACharacter,
    SpaceMismatch,
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
from cstarlab.sampling import (
    random_algebra,
    random_normal_generator_algebra,
    random_pullback_hom,
)


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
    # the two characters and a third stand-in, zero: each point has exactly
    # one hit, its own character, and the assignment misses the third point
    # of the double dual; real characters cannot do this, so only a
    # stand-in reaches the guard (mu's one probe gives each character at
    # most one point, so a non-injective assignment cannot arise)
    X = FiniteSpace(("p", "q"))

    def stand_in(algebra):
        members = (*gelfand.characters(algebra).members, lambda a: 0j)
        return gelfand.CharacterSpace(algebra=algebra, members=members)

    monkeypatch.setattr(duality, "characters", stand_in)
    with pytest.raises(DualityViolation, match="^point-to-character map is not a bijection$"):
        duality.mu(X)
    report = verify_equivalence(X)
    assert report.max_defect == 1.0
    assert [c.law for c in report.checks if not c.passed] == ["mu_bijection"]


def _reference_mu(space):
    """mu as an element-wise loop: every character on every indicator."""
    algebra = functor_G_object(space)
    chars = duality.characters(algebra)
    double_dual = chars.as_finite_space()
    assignment = []
    for i in range(space.size):
        probe = algebra._indicator(i)
        hits = [j for j, chi in enumerate(chars) if abs(chi(probe) - 1.0) <= 1e-10]
        if len(hits) != 1:
            raise DualityViolation(
                f"indicator of point {space.points[i]!r} is sent to 1 by "
                f"{len(hits)} characters; expected exactly one"
            )
        assignment.append(double_dual.points[hits[0]])
    result = ContinuousMap(space, double_dual, tuple(assignment))
    if not result.is_bijection():
        raise DualityViolation("point-to-character map is not a bijection")
    return result


# stand-in character enumerations of a d-point function algebra, each member
# a real Character (evaluation at one point) or the zero functional
STAND_IN_INDICES = {
    "honest": lambda d: list(range(d)),
    "collapsed": lambda d: [0] * d,
    "rolled": lambda d: [(j - 1) % d for j in range(d)],
    "reversed": lambda d: list(range(d))[::-1],
    "one missing": lambda d: list(range(d - 1)),
    "one extra": lambda d: [*range(d), d - 1],
    "last repeated": lambda d: [*range(d - 1), max(d - 2, 0)],
    "zero appended": lambda d: [*range(d), None],
    "zero first": lambda d: [None, *range(1, d)],
}


def _stand_in_characters(indices):
    def enumerate_characters(algebra):
        members = tuple(
            (lambda a: 0j) if i is None else gelfand.Character(algebra, i)
            for i in indices(algebra.dim)
        )
        return gelfand.CharacterSpace(algebra=algebra, members=members)

    return enumerate_characters


def _mu_outcome(f, space):
    try:
        return f(space)
    except CstarError as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("enumeration", STAND_IN_INDICES)
def test_mu_matches_the_element_wise_loop(monkeypatch, enumeration):
    monkeypatch.setattr(
        duality, "characters", _stand_in_characters(STAND_IN_INDICES[enumeration])
    )
    for d in range(1, 13):
        X = space_of(d)
        want = _mu_outcome(_reference_mu, X)
        assert _mu_outcome(duality.mu, X) == want, d
        if enumeration == "honest":
            assert want == ContinuousMap(X, want.target, tuple(map(str, range(d))))


def test_mu_evaluates_each_character_once(monkeypatch):
    calls = []
    real = gelfand.evaluate_character

    def counting(phi, a):
        calls.append(phi.index)
        return real(phi, a)

    monkeypatch.setattr(gelfand, "evaluate_character", counting)
    duality.mu(space_of(12))
    assert sorted(calls) == list(range(12))


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


def test_algebra_verifier_memory_grows_with_the_family_not_its_square():
    # d = 128: a whole (m, m, d) block of products is 34 MB, and the
    # verifier held four such blocks at once; one member's row is 0.3 MB
    algebra = make_function_algebra(space_of(128).points)
    tracemalloc.start()
    try:
        report = verify_equivalence(algebra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16e6


# ---------------------------------------------------------------------------
# the block verifiers against the element-wise ones they replaced


def _reference_verify_algebra(algebra):
    # one element, one _fresh, one subtraction and one norm per comparison;
    # the transform and its inverse are read from the module, so a test that
    # patches them there patches both verifiers
    name = algebra.describe()
    dual_gap = abs(duality.transform_target(algebra).dim - algebra.dim)
    family = [algebra._indicator(i) for i in range(algebra.dim)]
    family.append(algebra.unit())
    family.append(
        algebra._fresh(np.arange(1, algebra.dim + 1) * (0.7 - 0.3j) / algebra.dim)
    )
    transform, inverse = duality.gelfand_transform, duality.gelfand_inverse
    pairs = [(a, transform(a)) for a in family]
    round_trip = max((inverse(algebra, h) - a).norm() for a, h in pairs)
    isometry = max(abs(h.norm() - a.norm()) for a, h in pairs)
    mult = max((transform(a * b) - h * k).norm() for a, h in pairs for b, k in pairs)
    star = max((transform(a.star()) - h.star()).norm() for a, h in pairs)
    return duality.EquivalenceReport(
        name,
        (
            duality.check("tau_surjective_dimension", name, dual_gap, 0.0),
            duality.check("tau_injective_round_trip", name, round_trip),
            duality.check("tau_isometry", name, isometry),
            duality.check("tau_multiplicative", name, mult),
            duality.check("tau_star_preserving", name, star),
        ),
    )


def _outcome(verifier, subject, stand_in=None):
    """A report as (subject, [(law, instance, defect bytes, verdict)]), or the
    type and message of what the verifier raised; with a stand-in transform
    or map, also its count of calls (reset first), which shows where the
    verifier stopped."""
    if stand_in is not None:
        stand_in.calls = 0
    try:
        report = verifier(subject)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        outcome = type(err), str(err)
    else:
        records = [
            (c.law, c.instance, struct.pack("<d", c.defect), c.passed)
            for c in report.checks
        ]
        outcome = report.subject, records
    return outcome, None if stand_in is None else stand_in.calls


def _same_outcome(reference, verifier, subject, stand_in):
    expected = _outcome(reference, subject, stand_in)
    assert _outcome(verifier, subject, stand_in) == expected
    return expected[0]


def assert_algebra_verifier_matches_reference(algebra, stand_in=None):
    return _same_outcome(_reference_verify_algebra, verify_equivalence, algebra, stand_in)


@pytest.mark.parametrize("d", range(1, 13))
def test_algebra_verifier_matches_reference_on_function_algebras(d):
    _, records = assert_algebra_verifier_matches_reference(
        make_function_algebra(space_of(d).points)
    )
    assert all(passed for *_, passed in records)


def test_algebra_verifier_matches_reference_on_matrix_algebras():
    rng = np.random.default_rng(23)
    for _ in range(50):
        algebra = random_normal_generator_algebra(rng, max_n=12, repeats=True)
        _, records = assert_algebra_verifier_matches_reference(algebra)
        assert all(passed for *_, passed in records)


def _other_algebra(a):
    """A function algebra of the right size that is not the transform target."""
    return make_function_algebra(space_of(a.algebra.dim, "w").points)


WRONG_TRANSFORMS = {
    "rolled": lambda a: np.roll(a.coords, 1),
    "reversed": lambda a: a.coords[::-1],
    "conjugated": lambda a: a.coords.conj(),
    "modulus": lambda a: np.abs(a.coords) + 0j,
    "real part": lambda a: a.coords.real + 0j,
    "squared": lambda a: a.coords * a.coords,
    "infinite": lambda a: a.coords + np.inf,
}


@pytest.mark.parametrize("wrong", sorted(WRONG_TRANSFORMS))
@pytest.mark.parametrize("side", ["transform", "inverse"])
def test_algebra_verifier_matches_reference_on_wrong_transforms(monkeypatch, wrong, side):
    values = WRONG_TRANSFORMS[wrong]
    if side == "transform":
        monkeypatch.setattr(
            duality,
            "gelfand_transform",
            lambda a: AlgebraElement(gelfand.transform_target(a.algebra), values(a)),
        )
    else:
        monkeypatch.setattr(
            duality,
            "gelfand_inverse",
            lambda algebra, f: gelfand.gelfand_inverse(algebra, AlgebraElement(f.algebra, values(f))),
        )
    rng = np.random.default_rng(24)
    algebras = [make_function_algebra(space_of(d).points) for d in (1, 2, 5, 12)]
    algebras += [random_normal_generator_algebra(rng, max_n=8, repeats=True) for _ in range(6)]
    failed = 0
    for algebra in algebras:
        subject, records = assert_algebra_verifier_matches_reference(algebra)
        # a non-finite transform raises NonFinite on both sides
        failed += subject is NonFinite or not all(passed for *_, passed in records)
    assert failed  # each wrong map fails somewhere, on either side


class WrongOnCalls:
    """A stand-in transform that sends the results of the given calls
    (counted from 1) to an algebra other than the transform target; the
    count of calls shows where a verifier stopped."""

    def __init__(self, wrong_calls):
        self.wrong_calls = set(wrong_calls)
        self.calls = 0

    def __call__(self, a):
        self.calls += 1
        if self.calls in self.wrong_calls:
            return AlgebraElement(_other_algebra(a), a.coords)
        return gelfand.gelfand_transform(a)


def _unchecked_inverse(algebra, f_hat):
    return AlgebraElement(algebra, f_hat.coords)


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize(
    "phase", ["every call", "from the second member", "last member", "first product", "first star"]
)
@pytest.mark.parametrize("unchecked_inverse", [False, True])
def test_algebra_verifier_raises_as_reference_for_a_wrong_target(
    monkeypatch, d, phase, unchecked_inverse
):
    m = d + 2
    calls = m + m * m + m  # members, products, stars
    wrong_calls = {
        "every call": range(1, calls + 1),
        "from the second member": range(2, calls + 1),
        "last member": [m],
        "first product": [m + 1],
        "first star": [m + m * m + 1],
    }[phase]
    transform = WrongOnCalls(wrong_calls)
    monkeypatch.setattr(duality, "gelfand_transform", transform)
    if unchecked_inverse:
        monkeypatch.setattr(duality, "gelfand_inverse", _unchecked_inverse)
    algebra = make_function_algebra(space_of(d).points)
    kind, message = assert_algebra_verifier_matches_reference(algebra, transform)
    if phase == "every call" and unchecked_inverse:
        # one consistent wrong target that no inverse checks goes unseen
        assert all(passed for *_, passed in message)
    else:
        assert kind in (AlgebraMismatch, SpaceMismatch), message


def test_algebra_verifier_matches_reference_with_an_inverse_into_another_algebra(monkeypatch):
    monkeypatch.setattr(
        duality,
        "gelfand_inverse",
        lambda algebra, f_hat: AlgebraElement(_other_algebra(f_hat), f_hat.coords),
    )
    kind, message = assert_algebra_verifier_matches_reference(
        make_function_algebra(space_of(4).points)
    )
    assert kind is AlgebraMismatch, message


def test_algebra_verifier_accepts_a_target_equal_to_its_own(monkeypatch):
    # an equal function algebra that is a different object still compares
    monkeypatch.setattr(
        duality,
        "gelfand_transform",
        lambda a: AlgebraElement(make_function_algebra(gelfand.transform_target(a.algebra).space), a.coords),
    )
    _, records = assert_algebra_verifier_matches_reference(make_function_algebra(space_of(5).points))
    assert all(passed for *_, passed in records)


# ---------------------------------------------------------------------------
# the tau square on honest and on wrong homomorphisms


def test_tau_square_commutes_on_homomorphisms():
    rng = np.random.default_rng(25)
    for _ in range(50):
        A = random_algebra(rng, max_size=8)
        B = random_algebra(rng, max_size=8)
        (_, records), _ = _outcome(verify_naturality_tau, random_pullback_hom(rng, A, B))
        assert all(passed for *_, passed in records)


class DriftingPullback:
    """A pullback that is honest for its first ``honest_calls`` applications
    (the probes F reads) and then reads every image one character over; its
    results are scaled by ``scale`` and land in ``out``."""

    def __init__(self, source, target, images, honest_calls, out=None, scale=1.0):
        self.source, self.target = source, target
        self.images = list(images)
        self.honest_calls = honest_calls
        self.out = target if out is None else out
        self.scale = scale
        self.calls = 0

    def __call__(self, a):
        self.calls += 1
        shift = 0 if self.calls <= self.honest_calls else 1
        picks = [(i + shift) % self.source.dim for i in self.images]
        return self.out._fresh(self.scale * a.coords[picks])


def _constant_F(psi):
    # F replaced by a constant point map: a wrong double dual
    source = functor_F_object(psi.target)
    target = functor_F_object(psi.source)
    return ContinuousMap(source, target, (target.points[0],) * source.size)


def _relabelled_F(psi):
    # F with the character space of phi's target relabelled: a double dual
    # that lands in an algebra other than tau's target
    source = FiniteSpace(tuple(f"r{i}" for i in range(psi.target.dim)))
    target = functor_F_object(psi.source)
    return ContinuousMap(source, target, tuple(target.points[i] for i in psi.character_images))


@pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 3), (4, 2), (6, 6)])
def test_tau_square_outcomes_on_wrong_homomorphisms(monkeypatch, n_a, n_b):
    rng = np.random.default_rng([26, n_a, n_b])
    A = make_function_algebra(space_of(n_a, "a").points)
    B = make_function_algebra(space_of(n_b, "b").points)
    images = rng.integers(0, n_a, n_b).tolist()
    # drifts after the probes: the square fails unless A has one point
    drifting = DriftingPullback(A, B, images, honest_calls=n_a)
    (_, records), _ = _outcome(verify_naturality_tau, drifting)
    assert all(passed for *_, passed in records) == (n_a == 1)
    # lands in an algebra other than its declared target
    other = make_function_algebra(space_of(n_b, "w").points)
    elsewhere = DriftingPullback(A, B, images, n_a, out=other)
    (kind, _), _ = _outcome(verify_naturality_tau, elsewhere)
    assert kind is AlgebraMismatch
    # linear but not multiplicative: F finds no character
    doubling = DriftingPullback(A, B, images, n_a, scale=2.0)
    (kind, _), _ = _outcome(verify_naturality_tau, doubling)
    assert kind is NotACharacter
    phi = make_star_homomorphism(images, A, B)
    monkeypatch.setattr(duality, "functor_F_morphism", _constant_F)
    (_, records), _ = _outcome(verify_naturality_tau, phi)
    assert all(passed for *_, passed in records) == (set(images) == {0})
    monkeypatch.setattr(duality, "functor_F_morphism", _relabelled_F)
    (kind, _), _ = _outcome(verify_naturality_tau, phi)
    assert kind is AlgebraMismatch
