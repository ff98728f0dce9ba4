"""The law registry: its outside interface, a law's power to fail, summaries."""

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
from cstarlab.ideals import Ideal
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


@pytest.mark.parametrize("seed", [0, 5])
def test_walking_the_registry_reproduces_run_suite(seed):
    # the walk a per-law timer makes: one shared generator, registry order
    rng = np.random.default_rng(seed)
    walked = []
    for name, run in verify.LAWS:
        records = run(rng, 1e-9, 3)
        assert isinstance(records, list) and records
        assert all(isinstance(r, CheckRecord) for r in records)
        walked.extend(records)
    assert walked == run_suite(seed, max_size=3)


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
