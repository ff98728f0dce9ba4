"""JSON interchange documents."""

import hashlib
import io
import json
import tracemalloc

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
    make_normal_generator_algebra,
    spectrum,
    write_element,
)
from cstarlab import interchange
from cstarlab.interchange import (
    _as_complex,
    _complex_array,
    complex_pairs,
    document_to_json,
)
from cstarlab.sampling import random_unitary
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


def test_function_document_values_are_checked_once(monkeypatch):
    # the decoded array is wrapped as it is, not converted and copied again
    def element(self, coords):
        raise AssertionError("element() converts coordinates a second time")

    monkeypatch.setattr(CommutativeAlgebra, "element", element)
    f = load_document(FUNCTION_DOC)
    assert f.coords.tobytes() == np.array([1.5, complex(0, -2), 3.0]).tobytes()
    assert not f.coords.flags.writeable


# values JSON spells in every way: -0.0, subnormals, the float range's ends
SPECIAL = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1]
# labels JSON must escape, and one spelled as the values' own key
LABELS = ['q"uote', "back\\slash", "caf\u00e9", "\u2603", "tab\tnew\nline", '"values":[]']


def _normal_element(rng, n):
    U = random_unitary(rng, n)
    eigenvalues = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    algebra = make_normal_generator_algebra((U * eigenvalues) @ U.conj().T)
    return algebra.element(rng.uniform(-1, 1, algebra.dim) + 1j * rng.uniform(-1, 1, algebra.dim))


def _elements():
    rng = np.random.default_rng(39)
    specials = [complex(x, y) for x, y in zip(SPECIAL, SPECIAL[::-1])]
    for n in (1, 2, 17):
        labels = [*LABELS, *map(str, range(n))][:n]
        f = make_function_algebra(tuple(labels)).element((specials * 3)[:n])
        yield pytest.param(f, id=f"function-{n}")
        yield pytest.param(_normal_element(rng, n), id=f"matrix-{n}")
    # U = I for a diagonal generator, so the dense form holds the values exactly,
    # but for -0.0, which the product U diag U* turns into 0.0
    one = make_normal_generator_algebra(np.array([[1.0]])).element([-0.0 + 5e-324j])
    yield pytest.param(one, id="diagonal-1")
    two = make_normal_generator_algebra(np.diag([1.0, 2.0])).element(
        [-1e308 + 1e308j, -0.0 - 1.1125369292536007e-308j]
    )
    yield pytest.param(two, id="diagonal-2")


@pytest.mark.parametrize("a", list(_elements()))
# a block of one character writes each row on its own
@pytest.mark.parametrize("block", [1, interchange._WRITE_BLOCK])
def test_write_element_writes_the_dumped_line(a, block, monkeypatch):
    monkeypatch.setattr(interchange, "_WRITE_BLOCK", block)
    out = io.StringIO()
    write_element(a, out)
    assert out.getvalue() == document_to_json(dump_element(a)) + "\n"


class _Digest:
    """An output that keeps only a hash of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())


def test_write_element_never_holds_the_pairs_or_the_line(monkeypatch):
    # at n = 128 the pairs take about 2 MB and the line about 0.75 MB, against
    # 0.25 MB for the dense form; materialize briefly needs three n x n arrays.
    # Blocks of 16 kB, about three rows, stand in for a line many blocks long.
    monkeypatch.setattr(interchange, "_WRITE_BLOCK", 1 << 14)
    a = _normal_element(np.random.default_rng(7), 128)
    dense_nbytes = 128 * 128 * 16
    out = _Digest()
    tracemalloc.start()
    try:
        write_element(a, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * dense_nbytes
    line = (document_to_json(dump_element(a)) + "\n").encode()
    assert out.sha.hexdigest() == hashlib.sha256(line).hexdigest()


def test_load_document_frees_the_text_and_the_pairs_before_eigh(monkeypatch):
    # the text (about 0.75 MB) is made while tracing and passed as a temporary;
    # at eigh's entry only the matrix and construction's own arrays, each
    # n x n, may be alive: the decoded pairs alone take about 2 MB
    n = 128
    rng = np.random.default_rng(8)
    U = random_unitary(rng, n)
    N = (U * (rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n))) @ U.conj().T
    doc = {"kind": "normal_matrix", "n": n, "entries": complex_pairs(N)}
    seen = []
    eigh = np.linalg.eigh

    def traced_eigh(H):
        seen.append((tracemalloc.get_traced_memory()[0], H.nbytes))
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        load_document(json.dumps(doc))
    finally:
        tracemalloc.stop()
    traced, nbytes = seen[0]
    assert traced <= 3 * nbytes
