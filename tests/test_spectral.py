"""Spectrum sets, inversion series, radius formulas, functional calculus."""

import cmath
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cstarlab import (
    DomainError,
    NeumannReport,
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
from cstarlab import spectra
from cstarlab.algebra import CommutativeAlgebra
from cstarlab.sampling import random_unitary
from cstarlab.spectra import _SPREAD_CHECK, DEFAULT_MERGE_TOL
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
def signed_zero_values(draw, min_size=1, max_size=24):
    """Real parts 0.0 and -0.0 with exact repeats, as a tuple or an ndarray."""
    tol = draw(st.sampled_from([1e-9, 0.5, 1.0]))
    imags = st.sampled_from([0.0, -0.0, tol / 2, -tol / 2, tol, 3 * tol])
    pool = draw(st.lists(st.tuples(st.sampled_from([0.0, -0.0]), imags), min_size=1))
    picks = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size))
    values = [complex(re, im) for re, im in picks]
    return draw(st.sampled_from([tuple, np.array]))(values), tol


@settings(max_examples=300)
@given(signed_zero_values())
def test_dedup_matches_greedy_oracle_on_signed_zeros_and_repeats(case):
    assert_matches_oracle(*case)


# From _SPREAD_CHECK values up, dedup_points sweeps only values that are not
# spread; the families below reach that check.
LARGE = st.integers(_SPREAD_CHECK, 2 * _SPREAD_CHECK)


@st.composite
def imaginary_values(draw):
    """Purely imaginary values on a grid of quarter tolerances: no gap is spread."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.3]))
    n = draw(LARGE)
    reals = st.sampled_from([0.0, -0.0])
    cells = draw(st.lists(st.tuples(reals, st.integers(-60, 60)), min_size=n, max_size=n))
    return [complex(re, k * tol / 4) for re, k in cells], tol


@st.composite
def planted_values(draw):
    """Spread values, some with a copy whose real part is tol/2, exactly tol,
    or tol moved one ulp either way to the right."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.3]))
    n = draw(LARGE)
    unit = st.floats(-1.0, 1.0)
    values = [complex(*p) for p in draw(st.lists(st.tuples(unit, unit), min_size=n, max_size=n))]
    shifts = st.sampled_from(["half", "tol", "below", "above"])
    plants = draw(st.lists(st.tuples(st.integers(0, n - 1), shifts), max_size=n // 2))
    for i, shift in plants:
        v = values[i]
        edge = v.real + tol
        re = {
            "half": v.real + tol / 2,
            "tol": edge,
            "below": math.nextafter(edge, -math.inf),
            "above": math.nextafter(edge, math.inf),
        }[shift]
        values.append(complex(re, v.imag + draw(st.sampled_from([0.0, tol / 2]))))
    return draw(st.permutations(values)), tol


@st.composite
def conjugate_pair_values(draw):
    """Conjugate pairs, the spectrum of a real normal generator: each pair
    shares a real part, and a real value pairs with itself at -0.0j."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.3]))
    half = draw(LARGE) // 2
    unit = st.floats(-1.0, 1.0)
    imags = st.one_of(unit, st.sampled_from([0.0, tol / 2]))
    halves = draw(st.lists(st.tuples(unit, imags), min_size=half, max_size=half))
    values = [complex(re, sign * im) for re, im in halves for sign in (1.0, -1.0)]
    return draw(st.permutations(values)), tol


@settings(max_examples=100)
@given(imaginary_values())
def test_dedup_large_matches_greedy_oracle_on_imaginary_values(case):
    assert_matches_oracle(*case)


@settings(max_examples=100)
@given(planted_values())
def test_dedup_large_matches_greedy_oracle_on_planted_near_duplicates(case):
    assert_matches_oracle(*case)


@settings(max_examples=100)
@given(conjugate_pair_values())
def test_dedup_large_matches_greedy_oracle_on_conjugate_pairs(case):
    assert_matches_oracle(*case)


@settings(max_examples=100)
@given(signed_zero_values(min_size=_SPREAD_CHECK, max_size=2 * _SPREAD_CHECK))
def test_dedup_large_matches_greedy_oracle_on_signed_zeros(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize("n", [_SPREAD_CHECK - 1, _SPREAD_CHECK])
@settings(max_examples=100)
@given(data=st.data())
def test_dedup_matches_greedy_oracle_either_side_of_the_spread_check(n, data):
    tol = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    cell = st.integers(-12, 12)
    cells = data.draw(st.lists(st.tuples(cell, cell), min_size=n, max_size=n))
    assert_matches_oracle([complex(a / 4, b / 4) for a, b in cells], tol)


def test_dedup_sweeps_every_value_unless_they_are_spread(monkeypatch):
    swept = []
    sweep = spectra._sweep

    def recording(vals, order, merge_tol):
        swept.append(list(order))
        return sweep(vals, order, merge_tol)

    monkeypatch.setattr(spectra, "_sweep", recording)
    tol = 1e-9
    values = [complex(k, 0.0) for k in range(_SPREAD_CHECK)]
    assert_matches_oracle(values, tol)
    assert swept == []
    # a copy of 7 at tol/2 ends the spread: one sweep, in (Re, Im) order
    assert_matches_oracle(values + [7 + tol / 2], tol)
    assert swept == [[*range(8), _SPREAD_CHECK, *range(8, _SPREAD_CHECK)]]
    # below the check one sweep visits every value, spread or not
    assert_matches_oracle(values[:-1], tol)
    assert swept[1:] == [list(range(_SPREAD_CHECK - 1))]


@pytest.mark.parametrize("n", [_SPREAD_CHECK - 1, _SPREAD_CHECK])
def test_spectrum_of_real_parts_spanning_beyond_the_float_range_does_not_warn(n):
    values = [-1.7e308] + [1.7e308 - k * 1e300 for k in range(n - 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = spectrum(algebra_of(n).element(values)).points
    assert points == greedy_dedup_oracle(values, DEFAULT_MERGE_TOL)[0]


def test_dedup_tie_goes_to_the_later_representative():
    # 0.5+0.5j is exactly 1/sqrt(2) from both 0 and 1j; the later one wins
    reps, assignment = dedup_points([0.0, 1j, 0.5 + 0.5j], merge_tol=0.75)
    assert reps == (0j, 1j)
    assert assignment == (0, 1, 1)


def test_hausdorff_distance_known_values():
    assert hausdorff_distance([0.0], [0.0]) == 0.0
    assert hausdorff_distance([0.0, 1.0], [0.0]) == 1.0
    assert hausdorff_distance([0.0], [3 + 4j]) == 5.0


def test_hausdorff_distance_beyond_the_float_range_is_inf_without_warning():
    a = algebra_of(2).element([1.7e308 + 1.7e308j, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hausdorff_distance(spectrum(a).points, spectrum(a.star()).points) == math.inf


def test_spectrum_of_function_element():
    f = algebra_of(4).element([1, 2j, 2j, -1])
    sigma = spectrum(f)
    assert len(sigma.points) == 3
    assert hausdorff_distance(sigma.points, [-1, 1, 2j]) <= DEFAULT_MERGE_TOL


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
    s, report = neumann_inverse(0 * algebra.unit())
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


@pytest.mark.parametrize("tol", [math.nan, -1e-300, -math.inf])
def test_neumann_rejects_a_nan_or_negative_tol(tol):
    algebra = algebra_of(2)
    with pytest.raises(ValueError, match="tol"):
        neumann_inverse(algebra.element([0.7, 0.5j]), tol=tol)
    # tol 0 stays valid: the zero element's series stops at the unit
    assert neumann_inverse(0 * algebra.unit(), tol=0.0)[1].terms_used == 1


@pytest.mark.parametrize("tol", [math.nan, -1e-300, -math.inf])
def test_perturbation_rejects_a_nan_or_negative_tol(tol):
    algebra = algebra_of(2)
    x = algebra.element([2.0, 0.5j])
    with pytest.raises(ValueError, match="tol"):
        perturbation_inverse(x, algebra.element([2.0, 0.6j]), tol=tol)
    # tol 0 stays valid: 1/2 and -2j invert 2 and 0.5j exactly
    assert perturbation_inverse(x, x, tol=0.0).coords.tolist() == [0.5, -2j]


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
    # norm(a_inv) = 0.5 and norm(a_inv * (a - b)) = 0.25
    assert err.report.a_priori_bound == 0.25**3 * 0.5 / (1.0 - 0.25)
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
    e = algebra_of(2).unit()
    cases = [
        # the terms 1, 1e300, 1e600: the third overflows to inf
        (e, lambda t: t * 1e300, 2 * e),
        # finite terms, but target * sum overflows to inf - inf = nan, which
        # must not read as a residual within tolerance
        (1e10 * e, lambda t: 0 * t, (1e300 + 1e300j) * e),
        # the terms 10^k pass through many blocks before they overflow
        (e, lambda t: t * 10.0, 2 * e),
    ]
    for first, step, target in cases:
        for series in (_reference_geometric_sum, _geometric_sum):
            with pytest.raises(NonFinite):
                series(first, step, target, 1e-10, 4000, lambda n: math.nan)


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
        (neumann_inverse(0 * algebra.unit())[0], []),
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


def test_perturbation_unconverged_bound_covers_the_partial_sum():
    rng = np.random.default_rng(31)
    algebra = algebra_of(8)
    a = algebra.element(rng.uniform(1.0, 2.0, 8) * np.exp(1j * rng.uniform(0, 6, 8)))
    delta = random_element(algebra, rng)
    b = a + (0.8 / (invert(a).norm() * delta.norm())) * delta
    for max_terms in (1, 2, 3):
        with pytest.raises(Unconverged) as info:
            perturbation_inverse(a, b, tol=1e-15, max_terms=max_terms)
        err = info.value
        assert err.report.terms_used == max_terms
        bound = err.report.a_priori_bound
        assert 0.0 < bound < math.inf
        assert (err.partial - invert(b)).norm() <= bound * (1.0 + 1e-12)


def _reference_geometric_sum(first, step, target, tol, max_terms, tail_bound):
    # the term-by-term loop that _geometric_sum replaced: one residual per term
    def residual_of(r):
        residual = float(np.abs(r).max())
        if not math.isfinite(residual) and not np.isfinite(r).all():
            raise NonFinite("coordinates must be finite")
        return residual

    total, term = first.coords.copy(), first.coords
    terms = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while (residual := residual_of(target.coords * total - 1.0)) > tol:
            if terms >= max_terms:
                raise Unconverged(
                    f"residual {residual:.3e} after {terms} terms (tol {tol:.3e})",
                    partial=first.algebra._fresh(total),
                    report=NeumannReport(terms, residual, tail_bound(terms)),
                )
            term = step(term)
            total += term
            terms += 1
    report = NeumannReport(terms, residual, tail_bound(terms))
    return first.algebra._fresh(total), report


def _outcome(series, *args):
    """What a series loop gives: coordinate bytes and report, or what it raised."""
    try:
        s, report = series(*args)
    except Unconverged as err:
        return "Unconverged", err.partial.coords.tobytes(), err.report, str(err)
    return "returned", s.coords.tobytes(), report


def _series_cases(dim, norm, rng):
    """(first, step, target, tail_bound) as neumann_inverse and as
    perturbation_inverse build them, with a ratio of the given norm."""
    algebra = algebra_of(dim)
    z = rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
    ratio = algebra.element(z * (norm / np.abs(z).max()))
    bound = lambda n: norm**n / (1.0 - norm)  # noqa: E731
    e = algebra.unit()
    yield e, lambda t: t * ratio.coords, e - ratio, bound
    a = algebra.element(rng.uniform(1, 2, dim) * np.exp(1j * rng.uniform(0, 6, dim)))
    a_inv = invert(a)
    yield a_inv, lambda t: ratio.coords * t, a - a * ratio, bound


def test_block_geometric_sum_matches_the_term_by_term_loop():
    rng = np.random.default_rng(2024)
    checked = 0
    for dim in (1, 2, 12, 64, 512):
        for norm in (0.0, 0.05, 0.7, 0.95):
            for first, step, target, bound in _series_cases(dim, norm, rng):
                for tol in (1e-10, 1e-13, 1e-15):
                    args = (first, step, target, tol)
                    full = _outcome(_reference_geometric_sum, *args, 4000, bound)
                    stop = full[2].terms_used
                    # a float max_terms is compared, never used as a count
                    for n in sorted({1, 2, 2.5, 3, stop - 1, stop, 4000}):
                        expected = _outcome(_reference_geometric_sum, *args, n, bound)
                        got = _outcome(_geometric_sum, *args, n, bound)
                        assert got == expected, (dim, norm, tol, n)
                        checked += got[0] == "Unconverged"
    assert checked > 100


class _ExpSteps:
    """The steps of exp(x) = sum x^k / k!, counted; NaN from call ``nan_from``."""

    def __init__(self, x, nan_from=math.inf):
        self.x, self.nan_from, self.calls = x, nan_from, 0

    def __call__(self, t):
        self.calls += 1
        return t * math.nan if self.calls >= self.nan_from else t * self.x / self.calls


def test_rows_past_the_stop_are_never_read():
    # the decay of the exp series speeds up, so a block sized from the last
    # two residuals overshoots the stop; every term past the stop is NaN
    algebra = algebra_of(16)
    x = np.linspace(-2.0, 2.0, 16)
    target = algebra.element(np.exp(-x))
    for first in (algebra.element(np.exp(x)), algebra.unit()):
        rest = (target, 1e-13, 4000, lambda n: 0.0)
        expected = _outcome(_reference_geometric_sum, first, _ExpSteps(x), *rest)
        stop = expected[2].terms_used
        step = _ExpSteps(x, nan_from=stop)
        assert _outcome(_geometric_sum, first, step, *rest) == expected
        assert step.calls >= stop  # a NaN term was computed past the stop


def test_series_block_memory_stays_within_a_few_coordinate_arrays():
    # over 200 terms at d = 200,000: a block of them all, without the cap on
    # its entries, would take about 220 x 200,000 x 16 B = 700 MB, against a
    # bound of 8 coordinate arrays (25.6 MB)
    dim = 200_000
    rng = np.random.default_rng(3)
    algebra = algebra_of(dim)
    z = rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
    a = algebra.element(z * (0.9 / np.abs(z).max()))
    tracemalloc.start()
    try:
        _, report = neumann_inverse(a, max_terms=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.terms_used > 200
    assert peak <= 8 * a.coords.nbytes


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
    assert not is_invertible(0 * algebra.unit())
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
    zero = spectral_radius_limit(0 * algebra_of(2).unit(), n_max=3)
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


def _reference_squaring_roots(x):
    """The squaring loop as a generator, out of place: x / m for every square."""
    s = float(np.abs(x).max())
    yield s
    if s == 0.0:
        yield from itertools.repeat(0.0)
    log_scale = math.log(s)
    x = x / s
    for k in itertools.count(1):
        x = x * x
        m = float(np.abs(x).max())
        if m == 0.0 or not math.isfinite(m):
            raise Overflow("repeated squaring left the floating range")
        x = x / m
        log_scale = 2.0 * log_scale + math.log(m)
        yield math.exp(log_scale / 2.0**k)


def _squaring_matrices(rng, count):
    """Random, Hermitian, diagonal, triangular at 2^-430 or 2^430 (where
    an unscaled M* M would overflow or underflow), and half-zero matrices,
    n from 1 to 69."""
    for k in range(count):
        n = int(rng.integers(1, 70))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        kind = k % 5
        if kind == 1:
            M = M + M.conj().T
        elif kind == 2:
            M = np.diag(np.diag(M))
        elif kind == 3:
            M = np.triu(M) * 2.0 ** float(rng.choice([-430, 430]))
        elif kind == 4:
            M[rng.uniform(size=(n, n)) < 0.5] = 0.0
        yield M


def test_operator_norm_matches_the_svd_on_every_kind_and_scale():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    for M in _squaring_matrices(rng, 200):
        n = M.shape[0]
        sigma = float(np.linalg.svd(M, compute_uv=False)[0])
        # an Overflow or any warning fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = operator_norm(M)
        assert abs(got - sigma) <= 4 * n * eps * sigma, (n, got, sigma)
    for n in (1, 5, 69):
        got = operator_norm(np.zeros((n, n)))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("multiplicity", [2, 4, 8])
def test_operator_norm_of_a_repeated_top_singular_value(multiplicity):
    # iterations on M* M converge slowly when its top eigenvalue repeats;
    # one eigenvalue solve does not depend on the gap
    n, eps = 12, np.finfo(float).eps
    for seed in range(20):
        rng = np.random.default_rng([multiplicity, seed])
        s = np.concatenate([np.ones(multiplicity), rng.uniform(0, 0.9, n - multiplicity)])
        M = (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
        assert abs(operator_norm(M) - 1.0) <= 4 * n * eps, seed


def test_radius_limit_trace_matches_the_out_of_place_squaring_bit_for_bit():
    rng = np.random.default_rng(31)
    for k in range(150):
        d = int(rng.integers(1, 600))
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        if k % 3 == 1:
            z = 1j * z.imag
        elif k % 3 == 2:
            z[rng.uniform(size=d) < 0.5] = 0.0
        a = algebra_of(d).element(z)
        roots = _reference_squaring_roots(a.coords)
        want = [x.hex() for x in itertools.islice(roots, 21)]
        assert [x.hex() for x in spectral_radius_limit(a).trace] == want, d
        assert a.coords.tobytes() == z.tobytes()  # never scaled in place


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


def test_operator_norm_is_relative_at_every_scale():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sigma = float(np.linalg.svd(G, compute_uv=False)[0])
        for e in range(-1000, 1001, 25):
            c = 2.0**e
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = operator_norm(c * G)
            assert abs(got / (c * sigma) - 1.0) <= 1e-13, (seed, e)


def test_operator_norm_of_a_tiny_generator_is_its_element_norm():
    algebra = make_normal_generator_algebra(np.diag([1e-90, 2e-90]))
    a = algebra.generator_element()
    got = operator_norm(algebra.materialize(a))
    assert got == pytest.approx(a.norm(), rel=1e-13)
    assert a.norm() == 2e-90


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
    assert hausdorff_distance(spectrum(p).points, [0.0, 1.0]) <= DEFAULT_MERGE_TOL


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


def test_projection_verdict_needs_the_self_adjoint_term():
    # |z^2 - z| is about 1.005e-5, inside the tolerance, but |z - z*| = 2e-5
    # is not: without its self-adjoint term the verdict would be "projection"
    a = algebra_of(2).element([1e-6 + 1e-5j, 1.0])
    report = classify_element(a, tol=1.5e-5)
    assert not report.flags["projection"]
    assert report.witness_tolerances["projection"] == 2e-5


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


def test_spectrum_set_points_and_repr():
    s = SpectrumSet.from_values([1, -2j, 3, 1], 1e-9)
    assert s.points == (-2j, 1 + 0j, 3 + 0j)
    assert repr(s) == "SpectrumSet({-0-2j, 1+0j, 3+0j}, merge_tol=1e-09)"
