"""JSON interchange documents."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cstarlab import (
    CommutativeAlgebra,
    FunctionAlgebra,
    InvalidDocument,
    NotNormal,
    dump_element,
    hausdorff_distance,
    load_document,
    load_path,
    make_function_algebra,
    spectrum,
)
from cstarlab.interchange import (
    _as_complex,
    _complex_array,
    complex_pairs,
    document_to_json,
)
from cstarlab.spectra import DEFAULT_MERGE_TOL


FUNCTION_DOC = json.dumps(
    {
        "kind": "function_algebra",
        "points": ["a", "b", "c"],
        "values": [[1.5, 0.0], [0.0, -2.0], [3.0, 0.0]],
    }
)

MATRIX_DOC = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 2,
        "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    }
)


def test_function_document_round_trip():
    f = load_document(FUNCTION_DOC)
    assert isinstance(f.algebra, FunctionAlgebra)
    assert f.algebra.space.points == ("a", "b", "c")
    assert np.array_equal(f.coords, np.array([1.5, -2j, 3.0]))
    assert load_document(json.dumps(dump_element(f))).coords.tolist() == f.coords.tolist()


def test_matrix_document_builds_the_generator():
    g = load_document(MATRIX_DOC)
    assert hausdorff_distance(spectrum(g).points, [-1.0, 1.0]) <= DEFAULT_MERGE_TOL


def test_matrix_dump_reloads_to_the_same_spectrum():
    g = load_document(MATRIX_DOC)
    again = load_document(json.dumps(dump_element(g)))
    assert hausdorff_distance(spectrum(again).points, spectrum(g).points) <= 1e-8


def test_merge_tolerance_passes_through():
    doc = json.dumps(
        {
            "kind": "normal_matrix",
            "n": 2,
            "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 + 5e-10, 0.0]],
        }
    )
    assert load_document(doc).algebra.dim == 1


def test_load_path_reads_files(tmp_path):
    p = tmp_path / "element.json"
    p.write_text(FUNCTION_DOC)
    assert load_path(str(p)).norm() == 3.0


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        '"just a string"',
        '{"points": ["a"], "values": [[1, 0]]}',
        '{"kind": "mystery"}',
        '{"kind": "function_algebra", "points": ["a", "b"], "values": [[1, 0]]}',
        '{"kind": "function_algebra", "points": ["a", 1], "values": [[1, 0], [2, 0]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": {"a": [1, 0]}}',
        '{"kind": "function_algebra", "points": ["a"], "values": [1.0]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [[1, 0, 0]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [[true, false]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [[Infinity, 0]]}',
        # values np.fromiter would take silently: true as 1.0, "1.5" as 1.5,
        # null as nan; a nested list; 1e400, which JSON reads as inf
        '{"kind": "function_algebra", "points": ["a", "b", "c"],'
        ' "values": [[1, 0], [true, 0], [2, 0]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [["1.5", 0]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [[null, 0]]}',
        '{"kind": "function_algebra", "points": ["a"], "values": [[[1], 0]]}',
        '{"kind": "normal_matrix", "n": 1, "entries": [[1e400, 0]]}',
        '{"kind": "function_algebra", "points": [], "values": []}',
        '{"kind": "normal_matrix", "n": 2, "entries": [[0, 0]]}',
        '{"kind": "normal_matrix", "n": "two", "entries": []}',
        # an integer that overflows a float, one past the interpreter's
        # digit limit for int parsing, and nesting deeper than the recursion limit
        pytest.param(
            '{"kind": "normal_matrix", "n": 1, "entries": [[1' + "0" * 400 + ", 0]]}",
            id="int-overflows-float",
        ),
        pytest.param(
            '{"kind": "normal_matrix", "n": 1, "entries": [[1' + "0" * 5000 + ", 0]]}",
            id="int-over-digit-limit",
        ),
        pytest.param("[" * 100_000, id="nesting-over-recursion-limit"),
    ],
)
def test_malformed_documents_are_rejected(text):
    with pytest.raises(InvalidDocument):
        load_document(text)


def test_first_bad_pair_is_the_one_reported():
    # entry 1 fails the finite check and entry 2 the type check
    doc = (
        '{"kind": "normal_matrix", "n": 2,'
        ' "entries": [[1, 0], [1e400, 0], [true, 0], [0, 0]]}'
    )
    with pytest.raises(InvalidDocument) as info:
        load_document(doc)
    assert str(info.value) == "entries[1] must be finite, got [inf, 0]"


# any JSON number: floats (with -0.0 and subnormals) and ints of any size
# that fit a float
components = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**300), max_value=10**300),
)


@given(st.lists(st.lists(components, min_size=2, max_size=2), max_size=40))
@example([[-0.0, 5e-324], [2.2250738585072014e-308 / 3, -0.0]])
# the int to float rounding of numpy is that of float(): 2**53 + 1 is not
# a float, and 2**63 and 2**64 + 1 do not fit an int64
@example([[2**53 + 1, 2**63], [2**64 + 1, 10**300], [-(2**64 + 1), -(2**53 + 1)]])
def test_bulk_decode_equals_the_per_pair_oracle(pairs):
    oracle = np.array([_as_complex(p, f"values[{i}]") for i, p in enumerate(pairs)])
    decoded = _complex_array(pairs, "values")
    assert decoded.dtype == np.complex128
    assert decoded.tobytes() == oracle.astype(np.complex128).tobytes()


def test_non_normal_matrix_is_reported_as_such():
    doc = json.dumps(
        {
            "kind": "normal_matrix",
            "n": 2,
            "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
    )
    with pytest.raises(NotNormal):
        load_document(doc)


def test_json_encoding_is_canonical():
    assert document_to_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'


@pytest.mark.parametrize("x", [float("inf"), -float("inf"), float("nan")])
def test_json_encoding_refuses_non_finite_floats(x):
    # JSON has no token for them; json.dumps would write Infinity or NaN
    with pytest.raises(ValueError):
        document_to_json({"x": x})


def test_function_dump_shape():
    f = make_function_algebra(("p",)).element([2.5 + 0.5j])
    assert dump_element(f) == {
        "kind": "function_algebra",
        "points": ["p"],
        "values": [[2.5, 0.5]],
    }


def test_complex_pairs_match_the_scalar_encoding():
    values = np.array([1.5 - 0j, -0.0 + 2j, 1e308 - 1e-308j, 0.1 + 0.2j])
    pairs = complex_pairs(values)
    assert pairs == [[complex(z).real, complex(z).imag] for z in values]
    assert all(type(x) is float for pair in pairs for x in pair)
    assert json.dumps(pairs) == json.dumps([[z.real, z.imag] for z in values.tolist()])
    assert complex_pairs(np.zeros((2, 2))) == [[0.0, 0.0]] * 4


def test_dump_element_rejects_an_unknown_algebra_model():
    class Unknown(CommutativeAlgebra):
        dim = 1

        def describe(self):
            return "Unknown()"

    with pytest.raises(TypeError, match=r"cannot serialize elements of Unknown\(\)"):
        dump_element(Unknown().unit())
