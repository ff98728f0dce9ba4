"""The deterministic law suite behind the ``verify`` CLI command.

``LAWS`` is the registry: an ordered list of ``(name, run)`` pairs with
``run(rng, tol, max_size) -> list[CheckRecord]``.  ``_law`` builds each
``run`` from ``count(max_size)`` and a generator ``sample(rng, tol,
max_size, i)`` that draws instance ``i`` and yields its records.  A law on
one algebra is a check half ``checks(rng, tol, algebra, name)`` that yields
the records of any algebra it is given; ``_on_algebra`` registers it with a
``sample`` that draws ``random_algebra`` and names it ``"<describe()> #i"``.

Each law draws from its own generator, keyed by the seed and the law's
name, so its records depend only on (seed, name, tol, max_size) and a law
run alone reproduces them.  The draw order within a law is part of the
contract: a refactor keeps ``verify --format structured`` byte-identical
only if none of its draws moves.  Tolerances intrinsic to a law
(machine-exactness, series accuracy) are fixed here; the ``tol`` argument
only enters where a set comparison or classification cutoff is genuinely a
choice.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .algebra import FunctionAlgebra, StarHomomorphism
from .spaces import ContinuousMap
from .duality import (
    CheckRecord,
    EquivalenceReport,
    check,
    functor_F_morphism,
    functor_F_object,
    functor_G_morphism,
    verify_equivalence,
    verify_naturality_mu,
    verify_naturality_tau,
)
from .errors import CstarError
from .gelfand import characters
from .ideals import (
    Ideal,
    closed_set_from_ideal,
    ideal_from_closed_set,
    kernel_ideal,
    max_ideals,
    quotient,
    unit_ideal,
    zariski_V,
    zero_ideal,
)
from .sampling import (
    random_algebra,
    random_complex,
    random_continuous_map,
    random_element,
    random_invertible_element,
    random_normal_generator_algebra,
    random_pullback_hom,
    random_space,
)
from .spectra import DEFAULT_MERGE_TOL, hausdorff_distance
from .spectral import (
    apply_polynomial,
    classify_element,
    inversion_delta,
    invert,
    is_invertible,
    neumann_inverse,
    operator_norm,
    perturbation_inverse,
    resolvent,
    spectral_radius_exact,
    spectral_radius_limit,
    spectrum,
)

__all__ = ["run_suite", "summarize", "LAWS"]

Run = Callable[..., list[CheckRecord]]
LAWS: list[tuple[str, Run]] = []


def _law(name: str, count: Callable[[int], int]) -> Callable[..., Run]:
    """Register the decorated ``sample`` under ``name`` in ``LAWS``.

    The registered ``run(rng, tol, max_size)`` never draws from ``rng``: it
    keys the law's own generator by ``name`` and the seed sequence of
    ``rng``, which no draw changes, and collects the records that ``sample``
    yields on it for ``i`` in ``range(count(max_size))``.  A
    :class:`CstarError` ends the law: the records yielded so far stay, and a
    failed record with defect inf names the error.
    """

    def register(sample: Callable[..., Iterator[CheckRecord]]) -> Run:
        def run(rng, tol, max_size):
            seq = rng.bit_generator.seed_seq
            key = seq.spawn_key + tuple(name.encode())
            rng = np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=key))
            records = []
            try:
                for i in range(count(max_size)):
                    records.extend(sample(rng, tol, max_size, i))
            except CstarError as exc:
                raised = f"raised {type(exc).__name__}: {exc}"
                records.append(CheckRecord(name, raised, np.inf, False))
            return records

        LAWS.append((name, run))
        return run

    return register


def _on_algebra(name: str, count: Callable[[int], int]) -> Callable[..., Callable]:
    """Register ``checks`` through :func:`_law` on drawn algebras; return it."""

    def register(checks: Callable[..., Iterator[CheckRecord]]) -> Callable:
        @_law(name, count)
        def sample(rng, tol, max_size, i):
            algebra = random_algebra(rng, max_size)
            yield from checks(rng, tol, algebra, f"{algebra.describe()} #{i}")

        return checks

    return register


def _scaled(max_size: int) -> int:
    return 6 + 2 * max_size


def _fixed(n: int) -> Callable[[int], int]:
    return lambda max_size: n


def _mask(maximal_ideals) -> int:
    """The points of maximal ideals as a mask, bit i for character i."""
    mask = 0
    for m in maximal_ideals:
        mask |= 1 << m.point
    return mask


def _fold(law: str, report: EquivalenceReport, suffix: str = "") -> CheckRecord:
    """One record for a whole report, keeping the verdict its checks gave."""
    return CheckRecord(law, report.subject + suffix, report.max_defect, report.passed)


@_on_algebra("cstar_identity", _scaled)
def law_cstar_identity(rng, tol, algebra, name):
    a = random_element(rng, algebra, magnitude=float(rng.uniform(0.1, 3.0)))
    n = a.norm()
    defect = abs((a.star() * a).norm() - n * n)
    yield check("cstar_identity", name, defect, 1e-12 * (1.0 + n * n))


@_on_algebra("norm_laws", _scaled)
def law_norm_laws(rng, tol, algebra, name):
    a = random_element(rng, algebra, magnitude=2.0)
    b = random_element(rng, algebra, magnitude=2.0)
    slack = max(0.0, (a * b).norm() - a.norm() * b.norm())
    yield check("submultiplicative", name, slack, 1e-12 * (1.0 + a.norm() * b.norm()))


@_on_algebra("geometric_series", _fixed(12))
def law_geometric_series(rng, tol, algebra, name):
    a = random_element(rng, algebra)
    a = (float(rng.uniform(0.05, 0.9)) / a.norm()) * a
    s, report = neumann_inverse(a, tol=1e-10, max_terms=4000)
    excess = max(0.0, report.residual - report.a_priori_bound)
    yield check("neumann_tail_bound", name, excess, 1e-12)
    oracle = invert(algebra.unit() - a)
    yield check("neumann_matches_inverse", name, (s - oracle).norm(), 1e-8)


@_on_algebra("perturbation", _fixed(12))
def law_perturbation(rng, tol, algebra, name):
    a = random_invertible_element(rng, algebra)
    a_inv = invert(a)
    inv_norm = a_inv.norm()
    radius = 1.0 / (2.0 * inv_norm)
    delta = random_element(rng, algebra)
    delta = (float(rng.uniform(0.1, 0.9)) * radius / delta.norm()) * delta
    b = a + delta
    yield check("inversion_open", name, 0.0 if is_invertible(b) else 1.0, 0.0)
    series = perturbation_inverse(a, b, tol=1e-10, max_terms=4000)
    defect = (series - invert(b)).norm()
    yield check("perturbation_matches_inverse", name, defect, 1e-8)
    eps = float(rng.uniform(0.01, 0.5))
    modulus = inversion_delta(inv_norm, eps)
    bump = random_element(rng, algebra)
    bump = (0.95 * modulus / bump.norm()) * bump
    c = a + bump
    yield check("inversion_continuity", name, (invert(c) - a_inv).norm(), eps)


@_on_algebra("resolvent_series", _fixed(10))
def law_resolvent_series(rng, tol, algebra, name):
    a = random_element(rng, algebra)
    lam = 2.0 * a.norm() * np.exp(1j * float(rng.uniform(0, 2 * np.pi)))
    direct = resolvent(a, lam)
    series_core, _ = neumann_inverse((1.0 / lam) * a, tol=1e-13, max_terms=4000)
    series = (1.0 / lam) * series_core
    yield check("resolvent_series", name, (direct - series).norm(), 1e-9)


@_law("spectral_mapping", _scaled)
def law_spectral_mapping(rng, tol, max_size, i):
    algebra = random_algebra(rng, max_size)
    a = random_element(rng, algebra)
    degree = int(rng.integers(0, 6))
    coeffs = random_complex(rng, degree + 1)
    image = spectrum(apply_polynomial(coeffs, a), tol)
    pushed = np.polyval(np.flip(coeffs), np.array(spectrum(a, tol).points))
    defect = hausdorff_distance(image.points, pushed)
    name = f"{algebra.describe()} deg={degree} #{i}"
    yield check("spectral_mapping", name, defect, tol)


@_on_algebra("spectral_radius", _scaled)
def law_spectral_radius(rng, tol, algebra, name):
    a = random_element(rng, algebra, magnitude=float(rng.uniform(0.2, 4.0)))
    exact = spectral_radius_exact(a)
    estimate = spectral_radius_limit(a, n_max=20)
    yield check("radius_limit", name, abs(estimate.estimate - exact), 1e-6)


@_on_algebra("gelfand", _scaled)
def law_gelfand(rng, tol, algebra, name):
    a = random_element(rng, algebra, magnitude=2.0)
    char_values = [chi(a) for chi in characters(algebra)]
    defect = hausdorff_distance(spectrum(a, tol).points, char_values)
    yield check("spectrum_is_character_set", name, defect, tol)


@_on_algebra("characters", _fixed(10))
def law_characters(rng, tol, algebra, name):
    a = random_element(rng, algebra, magnitude=2.0)
    b = random_element(rng, algebra, magnitude=2.0)
    scale = 1.0 + a.norm() * b.norm()
    ab = a * b
    mult = contraction = 0.0
    for chi in characters(algebra):
        mult = max(mult, abs(chi(ab) - chi(a) * chi(b)))
        contraction = max(contraction, abs(chi(a)) - a.norm())
    yield check("character_multiplicative", name, mult, 1e-12 * scale)
    # scalar abs and the vectorized modulus inside norm() may differ by
    # one ulp, so the contraction is exact only up to rounding
    bound = 5e-16 * (1.0 + a.norm())
    yield check("character_contraction", name, contraction, bound)


@_law("functor_laws", _fixed(8))
def law_functor_laws(rng, tol, max_size, i):
    A = random_algebra(rng, max_size)
    B = random_algebra(rng, max_size)
    C = random_algebra(rng, max_size)
    phi = random_pullback_hom(rng, A, B)
    rho = random_pullback_hom(rng, B, C)
    name = f"chain #{i}"
    ident = functor_F_morphism(StarHomomorphism.identity(A))
    expected = ContinuousMap.identity(functor_F_object(A))
    yield check("functor_F_identity", name, 0.0 if ident == expected else 1.0, 0.0)
    composite = functor_F_morphism(phi.then(rho))
    stepwise = functor_F_morphism(rho).then(functor_F_morphism(phi))
    defect = 0.0 if composite == stepwise else 1.0
    yield check("functor_F_contravariant", name, defect, 0.0)
    X = random_space(rng, max_size=max_size, prefix="s")
    Y = random_space(rng, max_size=max_size, prefix="t")
    Z = random_space(rng, max_size=max_size, prefix="u")
    f = random_continuous_map(rng, X, Y)
    g = random_continuous_map(rng, Y, Z)
    g_of_f = functor_G_morphism(f.then(g))
    stepwise_g = functor_G_morphism(g).then(functor_G_morphism(f))
    defect = 0.0 if g_of_f == stepwise_g else 1.0
    yield check("functor_G_contravariant", name, defect, 0.0)


@_law("naturality", _fixed(10))
def law_naturality(rng, tol, max_size, i):
    A = random_algebra(rng, max_size)
    B = random_algebra(rng, max_size)
    square = verify_naturality_tau(random_pullback_hom(rng, A, B))
    yield _fold("naturality_tau", square, f" #{i}")
    X = random_space(rng, max_size=max_size, prefix="p")
    Y = random_space(rng, max_size=max_size, prefix="q")
    square = verify_naturality_mu(random_continuous_map(rng, X, Y))
    yield _fold("naturality_mu", square, f" #{i}")


# The next two laws draw per size first and per random sample after, so
# each is one pass that yields all of its records.


@_law("duality_equivalence", _fixed(1))
def law_duality_equivalence(rng, tol, max_size, _i):
    for size in range(1, min(max_size, 8) + 1):
        space = random_space(rng, size=size, prefix="d")
        for subject in (space, FunctionAlgebra(space)):
            yield _fold("duality_equivalence", verify_equivalence(subject))
    for i in range(4):
        algebra = random_normal_generator_algebra(rng, max_n=max_size, repeats=True)
        yield _fold("duality_equivalence", verify_equivalence(algebra), f" #{i}")


@_law("ideal_correspondence", _fixed(1))
def law_ideal_correspondence(rng, tol, max_size, _i):
    for size in range(1, min(max_size, 8) + 1):
        algebra = FunctionAlgebra(random_space(rng, size=size, prefix="i"))
        failures = 0
        for mask in range(2**size):
            subset = tuple(  # in index order, as closed_set_from_ideal gives it
                algebra.space.points[k] for k in range(size) if mask >> k & 1
            )
            ideal = ideal_from_closed_set(algebra, subset)
            failures += closed_set_from_ideal(ideal) != subset
        name = f"|X|={size} all {2**size} subsets"
        yield check("ideal_round_trip", name, float(failures), 0.0)
    for i in range(8):
        algebra = random_algebra(rng, max_size)
        a = random_element(rng, algebra, magnitude=2.0)
        keep = [k for k in range(algebra.dim) if rng.uniform() < 0.6]
        if not keep:
            keep = [int(rng.integers(0, algebra.dim))]
        ideal = ideal_from_closed_set(algebra, keep)
        q, pi = quotient(algebra, ideal)
        name = f"{algebra.describe()} zero_set={sorted(ideal.zero_set)} #{i}"
        defect = float(abs(q.dim - len(ideal.zero_set)))
        yield check("quotient_dimension", name, defect, 0.0)
        image = pi(a)
        defect = abs(q.quotient_norm(a) - image.norm())
        yield check("quotient_norm_closed_form", name, defect, 0.0)
        cstar = abs((image.star() * image).norm() - image.norm() ** 2)
        yield check("quotient_cstar", name, cstar, 1e-12 * (1.0 + image.norm() ** 2))
        defect = 0.0 if kernel_ideal(pi).zero_set == ideal.zero_set else 1.0
        yield check("projection_kernel", name, defect, 0.0)
        for m in max_ideals(algebra)[:3]:
            qm, _ = quotient(algebra, m)
            at = f"{name} at {m.point}"
            yield check("maximal_quotient_is_scalar", at, float(abs(qm.dim - 1)), 0.0)


@_law("zariski", lambda max_size: min(max_size, 6))
def law_zariski(rng, tol, max_size, i):
    size = i + 1
    algebra = FunctionAlgebra(random_space(rng, size=size, prefix="z"))
    full = _mask(max_ideals(algebra))
    failures = float(_mask(zariski_V(zero_ideal(algebra))) != full)
    failures += _mask(zariski_V(unit_ideal(algebra))) != 0
    ideals = [Ideal(algebra, mask) for mask in range(2**size)]
    closed = [_mask(zariski_V(ideal)) for ideal in ideals]
    # zariski_V is a function of the mask and every ideal went through it
    # once, so the meet and the join of a pair look their V up by mask; a
    # mask outside the lattice reads -1, which no mask of points equals
    V = dict(enumerate(closed)).get
    pairs = list(zip(ideals, closed))
    for I, v_i in pairs:
        failures += sum(
            [
                (V(I.intersect(J).mask, -1) != v_i | v_j)
                + (V(I.sum_with(J).mask, -1) != v_i & v_j)
                for J, v_j in pairs
            ]
        )
    name = f"|X|={size} all {len(ideals)}^2 pairs"
    yield check("zariski_axioms", name, failures, 0.0)


_MAKERS = {
    "self_adjoint": lambda rng, n: rng.uniform(-2, 2, n).astype(complex),
    "unitary": lambda rng, n: np.exp(1j * rng.uniform(0, 2 * np.pi, n)),
    "projection": lambda rng, n: rng.integers(0, 2, n).astype(complex),
    "positive": lambda rng, n: rng.uniform(0, 2, n).astype(complex) ** 2,
}
_DISTANCES = {
    "self_adjoint": lambda z: abs(z.imag),
    "unitary": lambda z: abs(abs(z) - 1.0),
    "projection": lambda z: min(abs(z), abs(z - 1.0)),
    "positive": lambda z: abs(z) if z.real < 0 else abs(z.imag),
}


@_on_algebra("classification", _fixed(6))
def law_classification(rng, tol, algebra, name):
    for cls, make in _MAKERS.items():
        a = algebra._fresh(make(rng, algebra.dim))
        report = classify_element(a, tol)
        at = f"{cls} in {name}"
        yield check("classification_flag", at, report.witness_tolerances[cls], tol)
        distance = _DISTANCES[cls]
        containment = max(distance(complex(p)) for p in spectrum(a, tol).points)
        yield check("classification_spectrum", at, containment, tol)


@_law("norm_uniqueness", _fixed(10))
def law_norm_uniqueness(rng, tol, max_size, i):
    algebra = random_normal_generator_algebra(
        rng, max_n=max_size, magnitude=2.0, repeats=bool(rng.integers(0, 2))
    )
    a = random_element(rng, algebra, magnitude=2.0)
    defect = abs(a.norm() - operator_norm(algebra.materialize(a)))
    yield check("norm_uniqueness", f"{algebra.describe()} #{i}", defect, 1e-8)


def run_suite(
    seed: int = 0, tol: float = DEFAULT_MERGE_TOL, max_size: int = 8
) -> list[CheckRecord]:
    """Run every law once, in registry order, each on its own keyed generator."""
    rng = np.random.default_rng(seed)
    return [rec for _, run in LAWS for rec in run(rng, tol, max_size)]


def summarize(records: list[CheckRecord]) -> list[dict]:
    """Per-law aggregate in first-appearance order: instance count, worst
    defect, overall verdict and the first failing instance."""
    grouped: dict[str, list[CheckRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.law, []).append(rec)
    return [
        {
            "law": law,
            "instances": len(group),
            "max_defect": max(r.defect for r in group),
            "pass": all(r.passed for r in group),
            "witness": next((r.instance for r in group if not r.passed), None),
        }
        for law, group in grouped.items()
    ]
