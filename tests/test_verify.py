"""The law registry: its outside interface, a law's power to fail, summaries."""

import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from cstarlab import (
    NotContained,
    StarHomomorphism,
    factor_through_quotient,
    invert,
    make_function_algebra,
    make_normal_generator_algebra,
    max_ideals,
    resolvent,
    verify,
    verify_equivalence,
)
from cstarlab.algebra import CommutativeAlgebra
from cstarlab.ideals import Ideal, zariski_V
from cstarlab.interchange import complex_pairs, load_document
from cstarlab.sampling import random_algebra, random_unitary
from cstarlab.verify import CheckRecord, run_suite, summarize

LAW_NAMES = [
    "cstar_identity",
    "norm_laws",
    "geometric_series",
    "perturbation",
    "resolvent_series",
    "spectral_mapping",
    "spectral_radius",
    "gelfand",
    "characters",
    "functor_laws",
    "naturality",
    "duality_equivalence",
    "ideal_correspondence",
    "zariski",
    "classification",
    "norm_uniqueness",
]


def test_registry_names_and_order():
    assert [name for name, _ in verify.LAWS] == LAW_NAMES


# each law's record names in first-appearance order: a record that is added
# or deleted has to be added or deleted here too
RECORD_NAMES = {
    "cstar_identity": ["cstar_identity"],
    "norm_laws": ["submultiplicative"],
    "geometric_series": ["neumann_tail_bound", "neumann_matches_inverse"],
    "perturbation": [
        "inversion_open",
        "perturbation_matches_inverse",
        "inversion_continuity",
    ],
    "resolvent_series": ["resolvent_series"],
    "spectral_mapping": ["spectral_mapping"],
    "spectral_radius": ["radius_limit"],
    "gelfand": ["spectrum_is_character_set"],
    "characters": ["character_multiplicative", "character_contraction"],
    "functor_laws": [
        "functor_F_identity",
        "functor_F_contravariant",
        "functor_G_contravariant",
    ],
    "naturality": ["naturality_tau", "naturality_mu"],
    "duality_equivalence": ["duality_equivalence"],
    "ideal_correspondence": [
        "ideal_round_trip",
        "quotient_dimension",
        "quotient_norm_closed_form",
        "quotient_cstar",
        "projection_kernel",
        "maximal_quotient_is_scalar",
    ],
    "zariski": ["zariski_axioms"],
    "classification": ["classification_flag", "classification_spectrum"],
    "norm_uniqueness": ["norm_uniqueness"],
}


def test_record_names_per_law():
    rng = np.random.default_rng(0)
    walked, names = [], {}
    for law, run in verify.LAWS:
        records = run(rng, 1e-9, 3)
        walked.extend(records)
        names[law] = list(dict.fromkeys(r.law for r in records))
    assert names == RECORD_NAMES
    assert walked == run_suite(0, max_size=3)


@pytest.mark.parametrize("seed", [0, 5])
def test_walking_the_registry_reproduces_run_suite(seed):
    # the walk a per-law timer makes: one shared generator, registry order
    rng = np.random.default_rng(seed)
    by_law = {}
    for name, run in verify.LAWS:
        records = run(rng, 1e-9, 3)
        assert isinstance(records, list) and records
        assert all(isinstance(r, CheckRecord) for r in records)
        by_law[name] = records
    walked = [r for records in by_law.values() for r in records]
    assert walked == run_suite(seed, max_size=3)
    # each law keys its own stream by (seed, name), so it gives the same
    # records run alone, walked in reverse, or on a generator that has drawn
    for name, run in verify.LAWS:
        assert run(np.random.default_rng(seed), 1e-9, 3) == by_law[name], name
    rng = np.random.default_rng(seed)
    for name, run in reversed(verify.LAWS):
        assert run(rng, 1e-9, 3) == by_law[name], name
    rng = np.random.default_rng(seed)
    rng.uniform(size=7)
    for name, run in verify.LAWS:
        assert run(rng, 1e-9, 3) == by_law[name], name


# the laws registered by _on_algebra, with their instance counts at max_size 3
ON_ALGEBRA = {
    "cstar_identity": 12,
    "norm_laws": 12,
    "geometric_series": 12,
    "perturbation": 12,
    "resolvent_series": 10,
    "spectral_radius": 12,
    "gelfand": 12,
    "characters": 10,
    "classification": 6,
}


def test_check_halves_run_on_a_document_algebra():
    rng = np.random.default_rng(3)
    U = random_unitary(rng, 16)
    N = (U * (rng.uniform(-2, 2, 16) + 1j * rng.uniform(-2, 2, 16))) @ U.conj().T
    values = rng.uniform(-2, 2, 12) + 1j * rng.uniform(-2, 2, 12)
    documents = [
        {"kind": "normal_matrix", "n": 16, "entries": complex_pairs(N)},
        {
            "kind": "function_algebra",
            "points": [f"x{k}" for k in range(12)],
            "values": complex_pairs(values),
        },
    ]
    for doc in documents:
        algebra = load_document(json.dumps(doc)).algebra
        for law in ON_ALGEBRA:
            checks = getattr(verify, f"law_{law}")
            records = list(checks(np.random.default_rng(1), 1e-9, algebra, "document #0"))
            assert records and all(r.passed for r in records), (doc["kind"], law)
            assert list(dict.fromkeys(r.law for r in records)) == RECORD_NAMES[law]
            assert all(r.instance.endswith("document #0") for r in records)


def test_a_tracer_sees_every_draw_of_the_registrar(monkeypatch):
    # perfbench wraps sampling functions by replacing module attributes, so
    # the registrar must look random_algebra up when it draws
    runs = dict(verify.LAWS)
    plain = {law: runs[law](np.random.default_rng(0), 1e-9, 3) for law in ON_ALGEBRA}
    draws = []

    def counted(rng, max_size):
        draws.append(max_size)
        return random_algebra(rng, max_size)

    monkeypatch.setattr(verify, "random_algebra", counted)
    for law, count in ON_ALGEBRA.items():
        draws.clear()
        assert runs[law](np.random.default_rng(0), 1e-9, 3) == plain[law], law
        assert draws == [3] * count, law


def zariski(max_size):
    run = dict(verify.LAWS)["zariski"]
    return run(np.random.default_rng(0), 1e-9, max_size)


def test_zariski_passes_on_the_true_lattice():
    records = zariski(3)
    assert [r.instance for r in records] == [
        "|X|=1 all 2^2 pairs",
        "|X|=2 all 4^2 pairs",
        "|X|=3 all 8^2 pairs",
    ]
    assert all(r.passed and r.defect == 0.0 for r in records)


def test_zariski_detects_a_sum_that_acts_as_intersection(monkeypatch):
    monkeypatch.setattr(Ideal, "sum_with", Ideal.intersect)
    records = zariski(3)
    assert not any(r.passed for r in records)
    # |X|=1 has two ideals; only the pairs with different zero sets differ
    assert [r.defect for r in records][0] == 2.0


ZARISKI_MUTANTS = {
    "intersect uses &": (Ideal, "intersect", lambda I, J: Ideal(I.algebra, I.mask & J.mask)),
    "sum_with uses |": (Ideal, "sum_with", lambda I, J: Ideal(I.algebra, I.mask | J.mask)),
    "zariski_V drops its last point": (verify, "zariski_V", lambda I: zariski_V(I)[:-1]),
    # the law reads only the mask of a lattice result
    "meet above the range": (
        Ideal,
        "intersect",
        lambda I, J: SimpleNamespace(mask=I.mask | J.mask | 1 << I.algebra.dim),
    ),
    "join below the range": (Ideal, "sum_with", lambda I, J: SimpleNamespace(mask=~(I.mask & J.mask))),
}


@pytest.mark.parametrize("mutant", ZARISKI_MUTANTS)
def test_zariski_counts_what_each_mutant_breaks(monkeypatch, mutant):
    # unpatched, the defect is 0 (test_zariski_passes_on_the_true_lattice)
    monkeypatch.setattr(*ZARISKI_MUTANTS[mutant])
    records = zariski(4)
    assert len(records) == 4
    # every mutant differs from the lattice at every size from 1 on
    assert all(not r.passed and r.defect > 0 for r in records)
    if mutant in ("intersect uses &", "sum_with uses |"):
        # & and | of two masks differ exactly when the masks do
        assert [r.defect for r in records] == [4**s - 2**s for s in range(1, 5)]


def test_zariski_takes_V_once_per_ideal(monkeypatch):
    sizes = []

    def counted(ideal):
        sizes.append(ideal.algebra.dim)
        return zariski_V(ideal)

    monkeypatch.setattr(verify, "zariski_V", counted)
    assert all(r.passed for r in zariski(6))
    # the zero ideal, the unit ideal and each of the 2^size ideals once
    assert Counter(sizes) == {s: 2**s + 2 for s in range(1, 7)}


def test_summarize_keeps_first_appearance_order_and_first_witness():
    records = [
        CheckRecord("b", "b0", 0.5, True),
        CheckRecord("a", "a0", 2.0, False),
        CheckRecord("b", "b1", 3.0, False),
        CheckRecord("a", "a1", 1.0, False),
        CheckRecord("c", "c0", 0.0, True),
        CheckRecord("b", "b2", 1.0, False),
    ]
    assert summarize(records) == [
        {"law": "b", "instances": 3, "max_defect": 3.0, "pass": False, "witness": "b1"},
        {"law": "a", "instances": 2, "max_defect": 2.0, "pass": False, "witness": "a0"},
        {"law": "c", "instances": 1, "max_defect": 0.0, "pass": True, "witness": None},
    ]


def test_package_arrays_never_reenter_through_element(monkeypatch):
    # element() is the entry for outside coordinates; arrays the package
    # builds itself are wrapped by _fresh, which checks finiteness only
    matrix_algebra = make_normal_generator_algebra(np.diag([1.0, 2.0, 2.0, 1j]))
    functions = make_function_algebra(("p", "q", "r"))
    a = functions.element([2.0, -1j, 0.5])
    calls = []
    element = CommutativeAlgebra.element

    def counted(self, coords):
        calls.append(self)
        return element(self, coords)

    monkeypatch.setattr(CommutativeAlgebra, "element", counted)
    run_suite(0, max_size=4)
    assert verify_equivalence(matrix_algebra).passed
    invert(a)
    resolvent(a, 3.0)
    matrix_algebra.generator_element()
    matrix_algebra.project_matrix(np.eye(4))
    with pytest.raises(NotContained):
        factor_through_quotient(StarHomomorphism.identity(functions), max_ideals(functions)[0])
    assert calls == []
