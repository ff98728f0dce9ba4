"""Spectrum sets, inversion series, radius formulas, functional calculus."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstarlab import (
    DomainError,
    NonFinite,
    NormTooLarge,
    NotInvertible,
    Overflow,
    PerturbationTooLarge,
    RadiusEstimate,
    SpectrumHit,
    SpectrumSet,
    Unconverged,
    apply_function,
    apply_polynomial,
    classify_element,
    dedup_points,
    hausdorff_distance,
    inversion_delta,
    invert,
    invertibility_tolerance,
    is_invertible,
    make_function_algebra,
    make_normal_generator_algebra,
    neumann_inverse,
    operator_norm,
    perturbation_inverse,
    resolvent,
    spectral_radius_exact,
    spectral_radius_limit,
    spectrum,
)
from cstarlab.algebra import CommutativeAlgebra
from cstarlab.spectral import _geometric_sum


def algebra_of(n):
    return make_function_algebra(tuple(f"x{i}" for i in range(n)))


def random_element(algebra, rng, scale=1.0):
    re = rng.uniform(-scale, scale, algebra.dim)
    im = rng.uniform(-scale, scale, algebra.dim)
    return algebra.element(re + 1j * im)


# ---------------------------------------------------------------------------
# spectrum sets


def test_dedup_keeps_first_representative():
    reps, assignment = dedup_points([1.0, 1.0 + 5e-10, 2.0], merge_tol=1e-9)
    assert reps == (1.0 + 0j, 2.0 + 0j)
    assert assignment == (0, 0, 1)


def test_dedup_is_order_canonical():
    # same multiset in two input orders must produce the same set
    a, _ = dedup_points([2.0, 1.0, 1.0 + 5e-10], merge_tol=1e-9)
    b, _ = dedup_points([1.0 + 5e-10, 2.0, 1.0], merge_tol=1e-9)
    assert hausdorff_distance(a, b) <= 1e-9


def greedy_dedup_oracle(values, merge_tol):
    """The quadratic greedy merge that ``dedup_points`` must reproduce exactly."""
    vals = [complex(v) for v in values]
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    reps = []
    assign = [0] * len(vals)
    for i in order:
        v = vals[i]
        best, best_dist = -1, merge_tol
        for k, r in enumerate(reps):
            d = abs(v - r)
            if d <= best_dist:
                best, best_dist = k, d
        if best < 0:
            reps.append(v)
            best = len(reps) - 1
        assign[i] = best
    return tuple(reps), tuple(assign)


def assert_matches_oracle(values, merge_tol):
    got = dedup_points(values, merge_tol)
    want = greedy_dedup_oracle(values, merge_tol)
    assert got == want
    # same representatives bit for bit, signed zeros included
    assert [(math.copysign(1, z.real), math.copysign(1, z.imag)) for z in got[0]] == [
        (math.copysign(1, z.real), math.copysign(1, z.imag)) for z in want[0]
    ]


@st.composite
def clustered_values(draw):
    """Clusters a few tolerances wide: many values near several representatives."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.3, 1.0]))
    centers = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=6
        )
    )
    offsets = st.floats(-1.5, 1.5, allow_nan=False)
    values = []
    for cx, cy in centers:
        for dx, dy in draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=8)):
            values.append(complex((cx * 2 + dx) * tol, (cy * 2 + dy) * tol))
    return draw(st.permutations(values)), tol


@st.composite
def grid_values(draw):
    """Values on a grid of quarter tolerances, so exact distance ties are common."""
    tol = draw(st.sampled_from([0.25, 0.5, 1.0]))
    cells = draw(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=40)
    )
    return [complex(a / 4, b / 4) for a, b in cells], tol


@st.composite
def ulp_gap_values(draw):
    """Real parts that differ by merge_tol or by merge_tol moved one ulp either way."""
    tol = draw(st.floats(1e-12, 10.0))
    base = draw(st.floats(-100.0, 100.0))
    reals = [base]
    for _ in range(draw(st.integers(1, 6))):
        step = draw(st.sampled_from([-math.inf, 0.0, math.inf]))
        edge = reals[-1] + tol
        reals.append(edge if step == 0.0 else math.nextafter(edge, step))
    imags = st.sampled_from([0.0, -0.0, tol * 1e-3, -tol * 1e-3, tol / 2])
    values = [complex(x, draw(imags)) for x in reals]
    return draw(st.permutations(values)), tol


@settings(max_examples=300)
@given(clustered_values())
def test_dedup_matches_greedy_oracle_on_clusters(case):
    assert_matches_oracle(*case)


@settings(max_examples=200)
@given(grid_values())
def test_dedup_matches_greedy_oracle_on_exact_ties(case):
    assert_matches_oracle(*case)


@settings(max_examples=200)
@given(ulp_gap_values())
def test_dedup_matches_greedy_oracle_at_one_ulp_real_gaps(case):
    assert_matches_oracle(*case)


@st.composite
def signed_zero_values(draw):
    """Real parts 0.0 and -0.0 with exact repeats, as a tuple or an ndarray."""
    tol = draw(st.sampled_from([1e-9, 0.5, 1.0]))
    imags = st.sampled_from([0.0, -0.0, tol / 2, -tol / 2, tol, 3 * tol])
    pool = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0]), imags), min_size=1))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    values = [complex(re, im) for re, im in picks]
    return draw(st.sampled_from([tuple, np.array]))(values), tol


@settings(max_examples=300)
@given(signed_zero_values())
def test_dedup_matches_greedy_oracle_on_signed_zeros_and_repeats(case):
    assert_matches_oracle(*case)


def test_dedup_tie_goes_to_the_later_representative():
    # 0.5+0.5j is exactly 1/sqrt(2) from both 0 and 1j; the later one wins
    reps, assignment = dedup_points([0.0, 1j, 0.5 + 0.5j], merge_tol=0.75)
    assert reps == (0j, 1j)
    assert assignment == (0, 1, 1)


def test_hausdorff_distance_known_values():
    assert hausdorff_distance([0.0], [0.0]) == 0.0
    assert hausdorff_distance([0.0, 1.0], [0.0]) == 1.0
    assert hausdorff_distance([0.0], [3 + 4j]) == 5.0


def test_spectrum_of_function_element():
    f = algebra_of(4).element([1, 2j, 2j, -1])
    sigma = spectrum(f)
    assert len(sigma.points) == 3
    assert sigma.close_to([-1, 1, 2j])


def test_spectrum_merge_tolerance_is_adjustable():
    f = algebra_of(2).element([1.0, 1.0 + 5e-10])
    assert len(spectrum(f).points) == 1
    assert len(spectrum(f, merge_tol=1e-12).points) == 2


def test_spectrum_is_bounded_by_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = random_element(algebra_of(int(rng.integers(1, 9))), rng, 3.0)
        pts = np.array(spectrum(a).points)
        assert float(np.max(np.abs(pts))) <= a.norm()


def test_spectrum_set_radius():
    s = SpectrumSet.from_values([1, -2j, 3])
    assert s.radius() == 3.0


def test_spectrum_set_radius_of_a_value_too_large_for_its_modulus():
    # 1.7e308+1.7e308j is finite but its modulus is not
    assert SpectrumSet.from_values([1.7e308 + 1.7e308j, 1.0]).radius() == math.inf


# ---------------------------------------------------------------------------
# inversion by series


def test_neumann_inverse_small_example():
    algebra = algebra_of(3)
    a = algebra.element([0.5, -0.25, 0.0])
    s, report = neumann_inverse(a, tol=1e-12)
    assert np.allclose(s.coords, [2.0, 0.8, 1.0], atol=1e-12)
    assert report.residual <= 1e-12
    assert report.a_priori_bound >= report.residual


def test_neumann_inverse_of_zero_is_unit():
    algebra = algebra_of(2)
    s, report = neumann_inverse(algebra.zero())
    assert (s - algebra.unit()).norm() == 0.0
    assert report.terms_used == 1


def test_neumann_truncation_error_obeys_geometric_tail():
    rng = np.random.default_rng(7)
    for _ in range(25):
        algebra = algebra_of(int(rng.integers(1, 7)))
        a = random_element(algebra, rng)
        r = a.norm()
        if r >= 0.9:
            a = algebra.element(a.coords * (0.85 / r))
            r = a.norm()
        exact = 1.0 / (1.0 - a.coords)
        partial = np.ones(algebra.dim, dtype=complex)
        power = np.ones(algebra.dim, dtype=complex)
        for n in range(1, 40):
            power = power * a.coords
            partial = partial + power
            tail = r ** (n + 1) / (1.0 - r)
            assert float(np.max(np.abs(exact - partial))) <= tail + 1e-12


def test_neumann_requires_norm_below_one():
    algebra = algebra_of(2)
    with pytest.raises(NormTooLarge):
        neumann_inverse(algebra.unit())
    with pytest.raises(NormTooLarge):
        neumann_inverse(algebra.element([0.2, 1.3]))


def test_neumann_unconverged_carries_partial_sum():
    a = algebra_of(1).element([0.9])
    with pytest.raises(Unconverged) as info:
        neumann_inverse(a, tol=1e-12, max_terms=3)
    err = info.value
    assert err.report.terms_used == 3
    # partial sum after three terms is 1 + 0.9 + 0.81
    assert err.partial.coords[0] == pytest.approx(2.71)
    assert err.report.a_priori_bound == 0.9**3 / (1.0 - 0.9)


def test_perturbation_inverse_small_example():
    algebra = algebra_of(2)
    a = algebra.element([2.0, 2.0])
    b = algebra.element([2.0, 1.9])
    s = perturbation_inverse(a, b, tol=1e-14)
    assert np.allclose(s.coords, [0.5, 1.0 / 1.9], atol=1e-12)


def test_perturbation_unconverged_carries_partial_sum():
    algebra = algebra_of(2)
    a = algebra.element([2.0, 4.0])
    b = algebra.element([1.5, 4.0])
    with pytest.raises(Unconverged) as info:
        perturbation_inverse(a, b, max_terms=3)
    err = info.value
    assert err.report.terms_used == 3
    assert math.isnan(err.report.a_priori_bound)
    # a_inv = (0.5, 0.25) and a_inv * (a - b) = (0.25, 0), so the three
    # terms sum to 0.5 * (1 + 0.25 + 0.0625) and 0.25; all are exact
    assert list(err.partial.coords) == [0.65625, 0.25]
    assert err.report.residual == 1.0 - 1.5 * 0.65625


def test_perturbation_requires_small_gap():
    algebra = algebra_of(2)
    a = algebra.element([2.0, 2.0])
    # the inverse has norm 1/2, so the open ball has radius 2
    with pytest.raises(PerturbationTooLarge):
        perturbation_inverse(a, algebra.element([2.0, 0.0]))


def test_series_overflow_raises_non_finite():
    # the terms 1, 1e300, 1e600: the third overflows to inf
    e = algebra_of(2).unit()
    with pytest.raises(NonFinite):
        _geometric_sum(e, lambda t: t * 1e300, 2 * e, 1e-10, 100, lambda n: math.nan)
    # finite terms, but target * sum overflows to inf - inf = nan, which must
    # not read as a residual within tolerance
    big = (1e300 + 1e300j) * e
    with pytest.raises(NonFinite):
        _geometric_sum(1e10 * e, lambda t: 0 * t, big, 1e-10, 100, lambda n: math.nan)


def test_series_with_overflowing_residual_modulus_is_unconverged():
    # the residual's coordinates stay finite but its modulus reads inf, so
    # the series runs to max_terms instead of raising NonFinite
    algebra = algebra_of(2)
    e = algebra.unit()
    target = algebra.element([1.5e308 + 1.5e308j, 1.0])
    with pytest.raises(Unconverged) as info:
        _geometric_sum(e, lambda t: 0 * t, target, 1e-10, 5, lambda n: math.nan)
    assert info.value.report.residual == math.inf
    assert info.value.report.terms_used == 5


def _snapshot(*elements):
    return [x.coords.tobytes() for x in elements]


def test_series_inverses_neither_write_nor_alias_their_inputs():
    rng = np.random.default_rng(5)
    algebra = algebra_of(6)
    a = random_element(algebra, rng, scale=0.5)
    x = algebra.element(rng.uniform(2.0, 3.0, 6) * np.exp(1j * rng.uniform(0, 6, 6)))
    y = algebra.element(x.coords + random_element(algebra, rng, scale=0.3).coords)
    before = _snapshot(a, x, y)
    results = [
        (neumann_inverse(a)[0], [a]),
        (neumann_inverse(algebra.zero())[0], []),
        (perturbation_inverse(x, y), [x, y, invert(x)]),
        # the sum stops at its first term, the inverse of x
        (perturbation_inverse(x, x), [x, invert(x)]),
    ]
    for call in (
        lambda: neumann_inverse(a, tol=1e-15, max_terms=2),
        lambda: perturbation_inverse(x, y, tol=1e-15, max_terms=2),
    ):
        with pytest.raises(Unconverged) as info:
            call()
        results.append((info.value.partial, [a, x, y]))
    assert _snapshot(a, x, y) == before
    for result, inputs in results:
        assert not result.coords.flags.writeable
        for other in inputs:
            assert not np.shares_memory(result.coords, other.coords)


def test_neumann_wraps_a_constant_number_of_elements(monkeypatch):
    # the terms are coordinate arrays: no element is built per term
    calls = 0
    fresh = CommutativeAlgebra._fresh

    def counting_fresh(self, arr):
        nonlocal calls
        calls += 1
        return fresh(self, arr)

    monkeypatch.setattr(CommutativeAlgebra, "_fresh", counting_fresh)
    rng = np.random.default_rng(9)
    algebra = algebra_of(512)
    counts = {}
    for norm in (0.1, 0.7):
        a = random_element(algebra, rng)
        a = algebra.element(a.coords * (norm / a.norm()))
        calls = 0
        _, report = neumann_inverse(a)
        counts[norm] = (calls, report.terms_used)
    assert counts[0.7][1] >= 60 > counts[0.1][1]
    assert counts[0.7][0] == counts[0.1][0] <= 4


def test_perturbed_elements_stay_invertible():
    # invertibility is an open condition: everything strictly inside the
    # ball of radius 1/norm(inverse) around an invertible element inverts
    rng = np.random.default_rng(21)
    for _ in range(100):
        algebra = algebra_of(int(rng.integers(1, 7)))
        mods = rng.uniform(0.3, 2.0, algebra.dim)
        phases = np.exp(2j * np.pi * rng.uniform(0, 1, algebra.dim))
        a = algebra.element(mods * phases)
        radius = 1.0 / invert(a).norm()
        delta = random_element(algebra, rng)
        delta = algebra.element(delta.coords * (0.9 * radius / max(delta.norm(), 1e-6)))
        assert is_invertible(algebra.element(a.coords + delta.coords))


def test_inversion_is_continuous_with_the_advertised_modulus():
    rng = np.random.default_rng(22)
    eps = 0.05
    for _ in range(100):
        algebra = algebra_of(int(rng.integers(1, 7)))
        mods = rng.uniform(0.3, 2.0, algebra.dim)
        phases = np.exp(2j * np.pi * rng.uniform(0, 1, algebra.dim))
        a = algebra.element(mods * phases)
        delta = inversion_delta(invert(a).norm(), eps)
        bump = random_element(algebra, rng)
        bump = algebra.element(bump.coords * (0.95 * delta / max(bump.norm(), 1e-6)))
        b = algebra.element(a.coords + bump.coords)
        assert (invert(b) - invert(a)).norm() <= eps


def test_pointwise_inversion_and_failure():
    algebra = algebra_of(3)
    a = algebra.element([2.0, -1j, 0.5])
    assert np.allclose(invert(a).coords, [0.5, 1j, 2.0])
    with pytest.raises(NotInvertible):
        invert(algebra.element([1.0, 0.0, 1.0]))
    assert not is_invertible(algebra.element([1.0, 0.0, 1.0]))


def test_invertibility_cutoff_scales_with_norm():
    algebra = algebra_of(2)
    small = algebra.element([1.0, 1e-14])
    assert invertibility_tolerance(small) > 1e-14
    assert not is_invertible(small)


def test_invertibility_cutoff_stays_finite_when_the_norm_overflows():
    # |1.7e308+1.7e308j| = 2.404e308 overflows; the cutoff is 1e-10 of it
    algebra = algebra_of(2)
    big = 1.7e308 + 1.7e308j
    assert invertibility_tolerance(algebra.element([big, 0.0])) == pytest.approx(2.404e298, rel=1e-3)
    assert is_invertible(algebra.element([big, 1e300]))
    assert not is_invertible(algebra.element([big, 1e297]))


def test_reciprocal_of_a_coordinate_whose_modulus_overflows():
    # numpy's complex 1 / z is 0 once |z| overflows, but 1 / z is a float
    algebra = algebra_of(2)
    z = np.array([1.7e308 + 1.7e308j, 1e300])
    lam = -1.7e308  # lam - z overflows as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverse = invert(algebra.element(z)).coords
        res = resolvent(algebra.element(z), lam).coords
    assert np.abs(inverse * z - 1.0).max() <= 1e-12
    assert np.abs(res * (lam / 4 - z / 4) * 4 - 1.0).max() <= 1e-12
    # a quotient that did not come back 0 keeps numpy's bits
    assert inverse[1] == 1.0 / z[1]
    assert res[1] == 1.0 / (lam - z[1])


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1.0, 1e200, 1e300])
def test_invertibility_verdict_does_not_depend_on_scale(c):
    algebra = algebra_of(2)
    assert not is_invertible(algebra.element([c, 1e-14 * c]))
    assert is_invertible(algebra.element([1e-12 * c, 2e-12 * c]))
    assert not is_invertible(algebra.zero())
    # both sides of the cutoff 1e-10 * norm: 1e-3 or 1e-12 would fail here
    assert is_invertible(algebra.element([c, 1e-9 * c]))
    assert not is_invertible(algebra.element([c, 1e-11 * c]))


def test_operator_norm_rejects_non_finite_entries_as_a_cstar_error():
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFinite):
            operator_norm([[1.0, bad], [0.0, 1.0]])


def test_resolvent_small_example():
    a = algebra_of(2).element([1.0, 2.0])
    r = resolvent(a, 3.0)
    assert np.allclose(r.coords, [0.5, 1.0])
    with pytest.raises(SpectrumHit):
        resolvent(a, 2.0)
    with pytest.raises(SpectrumHit):
        resolvent(a, 2.0 + 1e-10)


def test_resolvent_matches_series_route_outside_the_spectrum():
    rng = np.random.default_rng(9)
    for _ in range(30):
        algebra = algebra_of(int(rng.integers(1, 7)))
        a = random_element(algebra, rng)
        lam = 2.0 * max(a.norm(), 0.5)
        direct = resolvent(a, lam)
        # series route: (lam - a)^-1 = (1/lam) * (e - a/lam)^-1
        scaled = algebra.element(a.coords / lam)
        series, _ = neumann_inverse(scaled, tol=1e-13)
        series = algebra.element(series.coords / lam)
        assert (direct - series).norm() <= 1e-9


# ---------------------------------------------------------------------------
# radius and norm


def test_radius_formulas_agree_on_function_elements():
    f = algebra_of(3).element([1, -2j, 3])
    assert spectral_radius_exact(f) == 3.0
    est = spectral_radius_limit(f)
    assert abs(est.estimate - 3.0) <= 1e-6


def test_radius_limit_trace_is_monotone_to_the_answer():
    f = algebra_of(2).element([0.5, 2.0])
    est = spectral_radius_limit(f, n_max=20)
    # the trace starts at the plain norm, then refines n_max times
    assert len(est.trace) == 21
    errors = [abs(t - 2.0) for t in est.trace]
    assert errors[-1] <= 1e-6
    assert errors[-1] <= errors[0]


def test_radius_limit_trace_starts_at_the_norm():
    f = algebra_of(3).element([0.5, -2j, 1.5])
    assert spectral_radius_limit(f, n_max=0).trace == (f.norm(),)
    zero = spectral_radius_limit(algebra_of(2).zero(), n_max=3)
    assert zero == RadiusEstimate(0.0, (0.0,) * 4)


def test_radius_limit_handles_large_norms_without_overflow():
    f = algebra_of(2).element([50.0, -75.0])
    est = spectral_radius_limit(f)
    assert abs(est.estimate - 75.0) <= 1e-4
    assert all(math.isfinite(t) for t in est.trace)


def test_radius_limit_raises_overflow_when_the_norm_overflows():
    # every coordinate is finite, but the modulus of 1.7e308+1.7e308j is inf
    f = algebra_of(2).element([1.7e308 + 1.7e308j, 1.0])
    assert f.norm() == math.inf
    with pytest.raises(Overflow):
        spectral_radius_limit(f)


def test_radius_equals_norm_in_these_models():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_element(algebra_of(int(rng.integers(1, 9))), rng, 2.0)
        assert abs(spectral_radius_exact(a) - a.norm()) <= 1e-10


def test_operator_norm_known_matrices():
    assert operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0, abs=1e-10)
    assert operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0, abs=1e-10)
    assert operator_norm([[0.0]]) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        oracle = float(np.linalg.svd(M, compute_uv=False)[0])
        assert operator_norm(M) == pytest.approx(oracle, abs=1e-8 * (1 + oracle))


def test_matrix_element_norm_agrees_with_operator_norm():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        eigs = rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        algebra = make_normal_generator_algebra((Q * eigs) @ Q.conj().T)
        a = random_element(algebra, rng, 2.0)
        assert abs(a.norm() - operator_norm(algebra.materialize(a))) <= 1e-8


# ---------------------------------------------------------------------------
# functional calculus


def test_polynomial_on_generator_spectrum():
    algebra = algebra_of(2)
    a = algebra.element([0.0, 1j])
    # p(z) = z^2 + 1 sends {0, i} to {1, 0}
    p = apply_polynomial([1.0, 0.0, 1.0], a)
    assert np.allclose(p.coords, [1.0, 0.0], atol=1e-15)
    assert spectrum(p).close_to([0.0, 1.0])


def test_polynomial_matches_polyval_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        algebra = algebra_of(int(rng.integers(1, 8)))
        deg = int(rng.integers(0, 6))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        a = random_element(algebra, rng)
        mine = apply_polynomial(coeffs, a)
        oracle = np.polyval(coeffs[::-1], a.coords)
        assert float(np.max(np.abs(mine.coords - oracle))) <= 1e-10


@pytest.mark.parametrize(
    "coeffs, value",
    [([math.inf], 0.5), ([1.0, math.nan], 0.5), ([0.0, 0.0, 1.0], 1e200)],
    ids=["inf-coefficient", "nan-coefficient", "overflowing-step"],
)
def test_polynomial_with_non_finite_result_raises(coeffs, value):
    with pytest.raises(NonFinite):
        apply_polynomial(coeffs, algebra_of(2).element([value, 1.0]))


def test_spectral_mapping_for_polynomials():
    rng = np.random.default_rng(29)
    for _ in range(50):
        algebra = algebra_of(int(rng.integers(1, 8)))
        deg = int(rng.integers(1, 6))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        a = random_element(algebra, rng)
        lhs = spectrum(apply_polynomial(coeffs, a))
        mapped = np.polyval(coeffs[::-1], np.array(spectrum(a).points))
        assert hausdorff_distance(lhs.points, dedup_points(mapped, 1e-9)[0]) <= 1e-9


def test_exponential_of_a_diagonal_generator():
    algebra = make_normal_generator_algebra(np.diag([0.0, math.log(2.0)]))
    g = algebra.generator_element()
    exp_g = apply_function(np.exp, g)
    assert np.allclose(algebra.materialize(exp_g), np.diag([1.0, 2.0]), atol=1e-12)


def test_square_root_on_positive_values():
    a = algebra_of(2).element([4.0, 0.25])
    root = apply_function(np.sqrt, a)
    assert np.allclose(root.coords, [2.0, 0.5])
    assert ((root * root) - a).norm() <= 1e-15


def test_apply_function_domain_errors():
    a = algebra_of(2).element([1.0, 0.0])

    def reciprocal(z):
        if z == 0:
            raise ZeroDivisionError
        return 1.0 / z

    with pytest.raises(DomainError) as info:
        apply_function(reciprocal, a)
    assert info.value.point == 0j

    with pytest.raises(DomainError):
        apply_function(lambda z: float("inf"), a)


# ---------------------------------------------------------------------------
# classification


def test_classify_plus_minus_one():
    a = algebra_of(2).element([1.0, -1.0])
    report = classify_element(a)
    assert report.flags["self_adjoint"]
    assert report.flags["unitary"]
    assert not report.flags["projection"]
    assert not report.flags["positive"]
    assert report.positive_offender == pytest.approx(-1.0)


def test_classify_indicator_is_projection_and_positive():
    report = classify_element(algebra_of(2).element([1.0, 0.0]))
    assert report.flags == {
        "self_adjoint": True,
        "unitary": False,
        "projection": True,
        "positive": True,
    }


def test_classify_phase_element_is_unitary_only():
    a = algebra_of(3).element(np.exp(1j * np.array([0.3, 1.1, -2.0])))
    report = classify_element(a)
    assert report.flags["unitary"]
    assert not report.flags["self_adjoint"]
    assert not report.flags["projection"]


def test_classified_spectra_land_in_the_right_sets():
    rng = np.random.default_rng(31)
    for _ in range(40):
        algebra = algebra_of(int(rng.integers(1, 8)))
        sa = algebra.element(rng.uniform(-2, 2, algebra.dim))
        assert classify_element(sa).flags["self_adjoint"]
        assert float(np.max(np.abs(np.array(spectrum(sa).points).imag))) <= 1e-9

        u = algebra.element(np.exp(2j * np.pi * rng.uniform(0, 1, algebra.dim)))
        assert classify_element(u).flags["unitary"]
        pts = np.array(spectrum(u).points)
        assert float(np.max(np.abs(np.abs(pts) - 1.0))) <= 1e-9

        p = algebra.element(rng.integers(0, 2, algebra.dim).astype(float))
        assert classify_element(p).flags["projection"]
        for z in spectrum(p).points:
            assert min(abs(z), abs(z - 1)) <= 1e-9

        pos = algebra.element(rng.uniform(0, 3, algebra.dim))
        rep = classify_element(pos)
        assert rep.flags["positive"]
        assert float(np.min(np.array(spectrum(pos).points).real)) >= -1e-9


@pytest.mark.parametrize("value", [-1e308, 1.7e308 + 1.7e308j])
def test_classify_reads_an_overflowing_positivity_gap_as_inf(value):
    # finite values at which the gap b b* - a overflows a float
    report = classify_element(algebra_of(2).element([value, 1.0]))
    assert report.witness_tolerances["positive"] == math.inf
    assert not report.flags["positive"]
    assert report.positive_offender == value


_PARTS = st.floats(min_value=-1e300, max_value=1e300)  # signed zeros, subnormals
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
_COORDINATES = st.one_of(
    st.builds(complex, _PARTS, _PARTS),
    # both sides of the branch cut on the negative real axis
    st.builds(complex, st.floats(min_value=-1e300, max_value=-0.0), st.sampled_from([0.0, -0.0])),
    st.builds(complex, _EDGES, _EDGES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_COORDINATES, min_size=1, max_size=8))
@example([0.6j])  # np.sqrt's root would change the last bit of these gaps
@example([5e-324j])
def test_positivity_defect_matches_the_cmath_root_bit_for_bit(values):
    a = algebra_of(len(values)).element(values)
    r = apply_function(cmath.sqrt, a)
    expected = float(np.abs((r * r.star() - a).coords).max())
    got = classify_element(a).witness_tolerances["positive"]
    assert got.hex() == expected.hex()


def test_classification_tolerance_is_respected():
    a = algebra_of(2).element([1.0, 1.0 + 5e-7])
    assert not classify_element(a, tol=1e-9).flags["projection"]
    assert classify_element(a, tol=1e-5).flags["projection"]
