"""Closed sets, ideals, quotients, and the Zariski picture."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import (
    FunctionAlgebra,
    Ideal,
    ImproperIdeal,
    InvalidSubset,
    MaximalIdeal,
    NotContained,
    QuotientAlgebra,
    StarHomomorphism,
    closed_set_from_ideal,
    factor_through_quotient,
    ideal_from_closed_set,
    kernel_ideal,
    make_function_algebra,
    make_normal_generator_algebra,
    make_star_homomorphism,
    max_ideals,
    quotient,
    restriction_homomorphism,
    unit_ideal,
    zariski_V,
    zero_ideal,
)
from cstarlab import ideals
from cstarlab.algebra import NormalGeneratorAlgebra
from cstarlab.ideals import _indices


@pytest.fixture
def A3():
    return make_function_algebra(("1", "2", "3"))


def brute_force_coset_norm(f, free_indices, grid=np.linspace(-8, 8, 81)):
    """Search inf over representatives by sweeping the free coordinates."""
    best = np.inf
    for combo in itertools.product(grid, repeat=len(free_indices)):
        coords = f.coords.copy()
        for idx, val in zip(free_indices, combo):
            coords[idx] = val
        best = min(best, float(np.max(np.abs(coords))))
    return best


# ---------------------------------------------------------------------------
# ideals as vanishing sets


def test_ideal_from_closed_set_example(A3):
    I = ideal_from_closed_set(A3, ("1", "3"))
    assert sorted(I.zero_set) == [0, 2]
    assert A3.dim - len(I.zero_set) == 1
    assert I.is_proper
    assert closed_set_from_ideal(I) == ("1", "3")


def test_ideal_membership(A3):
    I = ideal_from_closed_set(A3, ("1", "3"))
    assert I.contains(A3.element([0.0, 9.0, 0.0]))
    assert not I.contains(A3.element([1.0, 0.0, 0.0]))
    assert I.contains(A3.element([1e-12, 4.0, 0.0]))


def test_membership_cutoff_is_relative_to_the_element():
    algebra = make_function_algebra(("a", "b"))
    I = ideal_from_closed_set(algebra, ("b",))
    assert not I.contains(algebra.element([1e-12, 1e-13]))
    assert I.contains(0 * algebra.unit())


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_membership_verdict_does_not_depend_on_scale(c):
    algebra = make_function_algebra(("a", "b"))
    I = ideal_from_closed_set(algebra, ("b",))
    assert I.contains(algebra.element([c, 1e-11 * c]))
    assert not I.contains(algebra.element([c, 1e-9 * c]))


def test_membership_of_a_value_too_large_for_its_modulus():
    # 1.7e308+1.7e308j is finite but its modulus overflows a float
    algebra = make_function_algebra(("a", "b"))
    f = algebra.element([1.7e308 + 1.7e308j, 0.0])
    assert not ideal_from_closed_set(algebra, ("a",)).contains(f)
    assert ideal_from_closed_set(algebra, ("b",)).contains(f)


def test_ideal_absorbs_products(A3):
    rng = np.random.default_rng(1)
    I = ideal_from_closed_set(A3, ("2",))
    for _ in range(20):
        inside = A3.element([rng.normal(), 0.0, rng.normal()])
        anything = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert I.contains(inside * anything)


def test_unknown_label_rejected(A3):
    with pytest.raises(InvalidSubset):
        ideal_from_closed_set(A3, ("1", "9"))


def test_extreme_ideals(A3):
    assert A3.dim - len(zero_ideal(A3).zero_set) == 0
    assert closed_set_from_ideal(zero_ideal(A3)) == ("1", "2", "3")
    assert not unit_ideal(A3).is_proper
    assert A3.dim - len(unit_ideal(A3).zero_set) == 3


def test_lattice_operations_swap_under_duality(A3):
    I = ideal_from_closed_set(A3, ("1", "2"))
    J = ideal_from_closed_set(A3, ("2", "3"))
    # intersecting ideals unions vanishing sets; summing intersects them
    assert closed_set_from_ideal(I.intersect(J)) == ("1", "2", "3")
    assert closed_set_from_ideal(I.sum_with(J)) == ("2",)


def test_membership_distributes_over_the_lattice(A3):
    rng = np.random.default_rng(2)
    I = ideal_from_closed_set(A3, ("1",))
    J = ideal_from_closed_set(A3, ("3",))
    for _ in range(20):
        f = A3.element([0.0, rng.normal(), 0.0])
        assert I.intersect(J).contains(f) == (I.contains(f) and J.contains(f))


def test_round_trip_is_exact_for_every_subset():
    for n in range(1, 6):
        algebra = make_function_algebra(tuple(f"x{i}" for i in range(n)))
        labels = algebra.space.points
        for r in range(n + 1):
            for subset in itertools.combinations(labels, r):
                ideal = ideal_from_closed_set(algebra, subset)
                assert closed_set_from_ideal(ideal) == subset
                again = ideal_from_closed_set(algebra, closed_set_from_ideal(ideal))
                assert again.zero_set == ideal.zero_set


# ---------------------------------------------------------------------------
# quotients


def test_quotient_example_with_inf_oracle(A3):
    I = ideal_from_closed_set(A3, ("1", "3"))
    Q, pi = quotient(A3, I)
    f = A3.element([3.0, 5.0, -2.0])
    assert Q.dim == 2
    assert np.array_equal(pi(f).coords, np.array([3.0 + 0j, -2.0 + 0j]))
    assert Q.quotient_norm(f) == 3.0
    assert brute_force_coset_norm(f, free_indices=[1]) == pytest.approx(3.0)


def test_quotient_norm_is_a_minimum_not_a_sample(A3):
    I = ideal_from_closed_set(A3, ("2",))
    Q, _ = quotient(A3, I)
    f = A3.element([7.0, 1.0, 0.5])
    assert Q.quotient_norm(f) == 1.0
    assert brute_force_coset_norm(f, free_indices=[0, 2]) == pytest.approx(1.0)


def test_quotient_of_improper_ideal_rejected(A3):
    with pytest.raises(ImproperIdeal):
        quotient(A3, unit_ideal(A3))


def test_projection_is_a_contractive_homomorphism(A3):
    rng = np.random.default_rng(3)
    I = ideal_from_closed_set(A3, ("1", "2"))
    Q, pi = quotient(A3, I)
    for _ in range(30):
        a = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        b = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert (pi(a * b) - pi(a) * pi(b)).norm() == 0.0
        assert pi(a).norm() <= a.norm()
        assert pi(a).norm() == Q.quotient_norm(a)


def test_quotient_satisfies_the_cstar_identity(A3):
    rng = np.random.default_rng(4)
    I = ideal_from_closed_set(A3, ("1", "3"))
    Q, _ = quotient(A3, I)
    for _ in range(30):
        a = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        lhs = Q.quotient_norm(a.star() * a)
        rhs = Q.quotient_norm(a) ** 2
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


def test_kernel_of_projection_is_the_ideal(A3):
    I = ideal_from_closed_set(A3, ("3",))
    _, pi = quotient(A3, I)
    assert kernel_ideal(pi).zero_set == I.zero_set


def test_factorization_reconstructs_restrictions(A3):
    phi = restriction_homomorphism(A3, ("1", "3"))
    I = kernel_ideal(phi)
    Q, pi = quotient(A3, I)
    psi = factor_through_quotient(phi, I)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
        assert (psi(pi(a)) - phi(a)).norm() == 0.0


def test_factorization_requires_containment(A3):
    phi = restriction_homomorphism(A3, ("1", "3"))
    too_big = ideal_from_closed_set(A3, ("1",))
    with pytest.raises(NotContained) as info:
        factor_through_quotient(phi, too_big)
    witness = info.value.witness
    assert too_big.contains(witness)
    assert phi(witness).norm() > 0


def test_projection_lands_in_the_quotient_on_both_models(A3):
    matrices = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0, 3.0]))
    two_points = make_function_algebra(("p", "q"))
    for phi in (
        restriction_homomorphism(A3, ("1", "3")),
        make_star_homomorphism((0, 2), matrices, two_points),
    ):
        algebra = phi.source
        I = kernel_ideal(phi)
        q, pi = quotient(algebra, I)
        a = algebra.element(np.arange(1.0, algebra.dim + 1) * (1 - 0.5j))
        assert pi.target is q and pi(a).algebra is q
        # the quotient is the function algebra on the zero set's labels
        assert q == FunctionAlgebra(q.space) and hash(q) == hash(FunctionAlgebra(q.space))
        assert q.space.points == closed_set_from_ideal(I)
        psi = factor_through_quotient(phi, I)
        assert isinstance(psi.source, QuotientAlgebra) and psi.source == q
        assert (psi(pi(a)) - phi(a)).norm() == 0.0


# ---------------------------------------------------------------------------
# maximal ideals and the Zariski correspondence


def test_every_point_owns_a_maximal_ideal(A3):
    ms = max_ideals(A3)
    assert [m.point for m in ms] == [0, 1, 2]
    for m in ms:
        assert len(m.zero_set) == 1


def test_maximal_quotients_are_scalars(A3):
    # the one dimensional quotient is an isometric copy of the complexes
    rng = np.random.default_rng(6)
    for m in max_ideals(A3):
        Q, pi = quotient(A3, ideal_from_closed_set(A3, (A3.character_label(m.point),)))
        assert Q.dim == 1
        for _ in range(10):
            a = A3.element(rng.normal(size=3) + 1j * rng.normal(size=3))
            assert abs(pi(a).coords[0] - a.coords[m.point]) == 0.0
            assert Q.quotient_norm(a) == np.abs(a.coords[m.point])


def test_V_lists_the_vanishing_points(A3):
    I = ideal_from_closed_set(A3, ("1", "3"))
    assert [m.point for m in zariski_V(I)] == [0, 2]
    assert zariski_V(zero_ideal(A3)) == max_ideals(A3)
    assert zariski_V(unit_ideal(A3)) == ()


def test_zariski_V_reuses_one_maximal_ideal_per_character(monkeypatch):
    algebra = make_function_algebra(tuple(f"x{i}" for i in range(6)))
    built = []
    check = MaximalIdeal.__post_init__

    def counted(self):
        built.append(self.mask)
        check(self)

    monkeypatch.setattr(MaximalIdeal, "__post_init__", counted)
    for mask in range(64):
        points = [m.point for m in zariski_V(Ideal(algebra, mask))]
        assert points == [i for i in range(6) if mask >> i & 1]
    assert sorted(built) == [1 << i for i in range(6)]
    assert max_ideals(algebra) is max_ideals(algebra)


def test_maximal_ideals_of_a_matrix_algebra_never_hash_the_generator(monkeypatch):
    rng = np.random.default_rng(3)
    algebra = make_normal_generator_algebra(np.diag(rng.normal(size=32)))

    def no_hash(self):
        raise AssertionError("the generator was hashed")

    monkeypatch.setattr(NormalGeneratorAlgebra, "__hash__", no_hash)
    first = max_ideals(algebra)
    assert max_ideals(algebra) is first
    assert [m.point for m in first] == list(range(algebra.dim))
    assert zariski_V(zero_ideal(algebra)) == first


def test_zariski_axioms_exhaustively():
    for n in range(1, 5):
        algebra = make_function_algebra(tuple(f"x{i}" for i in range(n)))
        subsets = [
            frozenset(c)
            for r in range(n + 1)
            for c in itertools.combinations(range(n), r)
        ]
        ideals = {
            zs: ideal_from_closed_set(
                algebra, tuple(algebra.character_label(i) for i in sorted(zs))
            )
            for zs in subsets
        }
        points = lambda ideal: frozenset(m.point for m in zariski_V(ideal))
        for I in ideals.values():
            for J in ideals.values():
                assert points(I.intersect(J)) == points(I) | points(J)
                assert points(I.sum_with(J)) == points(I) & points(J)


def test_quotient_by_maximal_recovers_evaluation_on_matrix_model():
    algebra = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0]))
    I = ideal_from_closed_set(algebra, ("1",))
    Q, pi = quotient(algebra, I)
    g = algebra.generator_element()
    assert Q.dim == 1
    assert pi(g).coords[0] == 2.0


def test_kernel_of_injective_hom_is_zero(A3):
    assert kernel_ideal(StarHomomorphism.identity(A3)).zero_set == frozenset(range(A3.dim))


def test_kernel_of_point_evaluation_is_maximal(A3):
    target = make_function_algebra(("pt",))
    ev = make_star_homomorphism((1,), A3, target)
    k = kernel_ideal(ev)
    assert sorted(k.zero_set) == [1]


# ---------------------------------------------------------------------------
# the bitmask representation against plain set algebra


@st.composite
def two_zero_sets(draw):
    # up to 70 characters, so masks run past one 64-bit machine word
    dim = draw(st.integers(1, 70))
    subsets = st.frozensets(st.integers(0, dim - 1))
    return dim, draw(subsets), draw(subsets)


@settings(max_examples=150, deadline=None)
@given(two_zero_sets())
def test_mask_lattice_matches_frozenset_algebra(case):
    dim, zs, ws = case
    algebra = make_function_algebra(tuple(f"x{i}" for i in range(dim)))
    I = ideal_from_closed_set(algebra, [algebra.character_label(i) for i in zs])
    J = ideal_from_closed_set(algebra, ws)
    meet, join = I.intersect(J), I.sum_with(J)
    for ideal, expected in ((I, zs), (J, ws), (meet, zs | ws), (join, zs & ws)):
        assert ideal.zero_set == expected
        assert ideal.is_proper == bool(expected)
        assert [m.point for m in zariski_V(ideal)] == sorted(expected)
    for reached, expected in ((meet, zs | ws), (join, zs & ws)):
        built = ideal_from_closed_set(algebra, expected)
        assert built == reached
        assert hash(built) == hash(reached)
    if zs:
        p = min(zs)
        at_p = ideal_from_closed_set(algebra, (p,))
        assert at_p.zero_set == max_ideals(algebra)[p].zero_set
        assert at_p != max_ideals(algebra)[p]


def test_mask_constructor_rejects_bits_outside_the_characters(A3):
    assert Ideal(A3, 0b111) == zero_ideal(A3)
    for mask in (0b1000, 0b1001, 1 << 70, -1):
        with pytest.raises(ValueError):
            Ideal(A3, mask)


def test_maximal_ideal_needs_exactly_one_bit(A3):
    assert MaximalIdeal(A3, 0b100).point == 2
    for mask in (0, 0b011, 0b101):
        with pytest.raises(ValueError):
            MaximalIdeal(A3, mask)


def test_a_set_in_place_of_the_mask_is_a_type_error(A3):
    with pytest.raises(TypeError):
        Ideal(A3, frozenset({0, 2}))
    with pytest.raises(TypeError):
        MaximalIdeal(A3, frozenset({1}))


def test_repeated_keys_name_the_same_ideal(A3):
    once = ideal_from_closed_set(A3, ("2",))
    assert ideal_from_closed_set(A3, ("2", "2")) == once
    assert ideal_from_closed_set(A3, ("2", 1)) == once
    assert A3.dim - len(once.zero_set) == 2


def test_indices_match_the_scan_over_every_bit_position():
    rng = np.random.default_rng(37)
    masks = [0, 1 << 4095] + [(1 << k) - 1 for k in (1, 2, 6, 12, 63, 64, 65, 512, 4096)]
    for bits in rng.integers(1, 4097, 200).tolist():
        mask = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        masks += [mask, mask & int.from_bytes(rng.bytes((bits + 7) // 8), "little")]
    for mask in masks:
        assert _indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_quotient_and_its_norm_share_one_index_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(ideals, "_indices", lambda mask: calls.append(mask) or _indices(mask))
    algebra = make_function_algebra(tuple(f"x{i}" for i in range(512)))
    keys = list(range(0, 512, 4))
    ideal = ideal_from_closed_set(algebra, keys)
    q, projection = quotient(algebra, ideal)
    a = algebra.element(np.arange(512) * (1 + 1j))
    assert q.quotient_norm(a) == abs(508 + 508j)
    assert projection.character_images == tuple(keys)
    assert ideal.zero_set == frozenset(keys)
    assert calls == [ideal.mask]


def _reference_ideal_from_closed_set(algebra, closed_set):
    # the per-key loop that the plain-int and plain-str fast paths replaced
    mask = 0
    for key in closed_set:
        mask |= algebra.character_mask((key,))
    return ideals.Ideal(algebra, mask)


def _ideal_outcome(build, algebra, keys):
    try:
        return build(algebra, keys).mask
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err), str(err)


class LabelStr(str):
    """A str subclass: not a plain str, so it takes the checked path."""


class IndexInt(int):
    """An int subclass other than bool."""


def test_closed_set_keys_resolve_as_the_per_key_loop():
    function_algebra = make_function_algebra(tuple(f"p{i}" for i in range(70)))
    matrix_algebra = make_normal_generator_algebra(np.diag(np.arange(5.0)))
    odd_keys = [
        True,
        False,
        np.int64(3),
        np.int32(0),
        -1,
        70,
        5,
        2**70,
        "p3",
        "p70",
        "3",
        "nope",
        LabelStr("p4"),
        LabelStr("2"),
        IndexInt(1),
        3.0,
        None,
    ]
    rng = np.random.default_rng(41)
    for algebra in (function_algebra, matrix_algebra):
        labels = [algebra.character_label(i) for i in range(algebra.dim)]
        cases = [[], list(range(algebra.dim)), labels, labels[::-1] + [0, 0]]
        cases += [[key] for key in odd_keys]
        for _ in range(200):
            size = int(rng.integers(1, 8))
            pool = list(range(algebra.dim)) + labels + odd_keys
            cases.append([pool[k] for k in rng.integers(0, len(pool), size)])
        for keys in cases:
            expected = _ideal_outcome(_reference_ideal_from_closed_set, algebra, keys)
            assert _ideal_outcome(ideal_from_closed_set, algebra, keys) == expected, keys


def test_ideal_repr_names_its_zero_set_in_index_order():
    algebra = make_function_algebra(("a", "b", "c", "d"))
    assert repr(ideal_from_closed_set(algebra, ("d", "b"))) == "Ideal(vanishing on {b,d})"
