"""Command line behavior: exit codes, formats, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarlab import cli, verify
from cstarlab.errors import NonFinite
from cstarlab.interchange import complex_pairs, load_document, write_element
from cstarlab.sampling import random_complex
from cstarlab.spectral import apply_polynomial
from cstarlab.verify import CheckRecord

DIAG123 = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 3,
        "entries": [
            [1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
            [0.0, 0.0], [2.0, 0.0], [0.0, 0.0],
            [0.0, 0.0], [0.0, 0.0], [3.0, 0.0],
        ],
    }
)

FUNC = json.dumps(
    {
        "kind": "function_algebra",
        "points": ["p", "q", "r"],
        "values": [[3.0, 0.0], [5.0, 0.0], [-2.0, 0.0]],
    }
)


def run_cli(**kwargs):
    out = io.StringIO()
    code = cli.run(cli.RunConfig(**kwargs), out)
    return code, out.getvalue()


def test_spectrum_text():
    code, text = run_cli(command="spectrum", inline=DIAG123)
    assert code == 0
    assert "3 spectrum point(s)" in text
    assert "lambda[0] = 1" in text


def test_spectrum_structured():
    code, text = run_cli(command="spectrum", inline=DIAG123, output_format="structured")
    assert code == 0
    record = json.loads(text)
    assert record["kind"] == "spectrum"
    assert [p[0] for p in record["points"]] == pytest.approx([1.0, 2.0, 3.0])


def test_classify_structured():
    code, text = run_cli(command="classify", inline=FUNC, output_format="structured")
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    flags = {r["class"]: r["member"] for r in records if r["kind"] == "classification"}
    assert flags == {
        "self_adjoint": True,
        "unitary": False,
        "projection": False,
        "positive": False,
    }
    offenders = [r for r in records if r["kind"] == "positive_offender"]
    assert offenders and offenders[0]["value"] == [-2.0, 0.0]


def test_characters_lists_every_point():
    code, text = run_cli(command="characters", inline=FUNC)
    assert code == 0
    assert text.count("character ") == 3
    assert "value 3" in text


def test_calculus_squares_the_spectrum():
    code, text = run_cli(
        command="calculus", inline=DIAG123, coefficients=(0j, 0j, 1 + 0j)
    )
    assert code == 0
    assert "spectrum of p(a): 1+0j, 4+0j, 9+0j" in text


def test_calculus_without_coefficients_is_a_usage_error(capsys):
    code, _ = run_cli(command="calculus", inline=DIAG123)
    assert code == 2
    assert "--coeffs" in capsys.readouterr().err


def test_malformed_coefficient_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["calculus", "--inline", DIAG123, "--coeffs", "1,x"])
    assert info.value.code == 2
    assert "bad coefficient list '1,x'" in capsys.readouterr().err


def test_quotient_command():
    code, text = run_cli(command="quotient", inline=FUNC, zero_set=("p", "r"))
    assert code == 0
    assert "quotient dimension: 2" in text
    assert "quotient norm: 3" in text


def test_quotient_without_zero_set_is_a_usage_error(capsys):
    code, _ = run_cli(command="quotient", inline=FUNC)
    assert code == 2
    assert "--zero-set" in capsys.readouterr().err


@pytest.mark.parametrize("source", [{"input_path": "/no/such/file.json"}, {"inline": "not json"}])
@pytest.mark.parametrize("command, option", [("calculus", "--coeffs"), ("quotient", "--zero-set")])
def test_a_missing_required_option_is_named_before_the_input_is_read(
    command, option, source, monkeypatch, capsys
):
    def unread(config):
        raise AssertionError("the input was read")

    monkeypatch.setattr(cli, "_load_input", unread)
    assert run_cli(command=command, **source) == (2, "")
    assert option in capsys.readouterr().err


def test_unknown_command_and_bad_flags(capsys):
    assert run_cli(command="mystify")[0] == 2
    assert run_cli(command="spectrum", inline=FUNC, output_format="yaml")[0] == 2
    assert run_cli(command="spectrum", inline=FUNC, tol=0.0)[0] == 2
    assert run_cli(command="verify", max_size=0)[0] == 2
    capsys.readouterr()
    # inf would be written as the invalid JSON token Infinity
    for tol in (float("inf"), float("nan")):
        assert run_cli(command="spectrum", inline=FUNC, tol=tol) == (2, "")
        assert capsys.readouterr().err == "--tol must be positive and finite\n"
    assert run_cli(command="verify", seed=-1) == (2, "")
    assert capsys.readouterr().err == "--seed must be non-negative\n"


def test_invalid_documents_exit_2(capsys):
    assert run_cli(command="spectrum", inline="{nope")[0] == 2
    shift = json.dumps(
        {
            "kind": "normal_matrix",
            "n": 2,
            "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
    )
    assert run_cli(command="spectrum", inline=shift)[0] == 2
    assert "invalid input" in capsys.readouterr().err


HUGE_INT = (
    '{"kind": "normal_matrix", "n": 1, "entries": [[1' + "0" * 400 + ", 0]]}"
)

# every value is finite, but |1.7e308 + 1.7e308j| overflows to inf
HUGE_MODULUS = json.dumps(
    {
        "kind": "function_algebra",
        "points": ["p", "q"],
        "values": [[1.7e308, 1.7e308], [1.0, 0.0]],
    }
)

# not normal; M M* overflows unless the normality check rescales
HUGE_SHEAR = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 2,
        "entries": [[1e200, 0.0], [1e200, 0.0], [0.0, 0.0], [1e200, 0.0]],
    }
)


# Hermitian with spectrum {0, 2e308}: the largest eigenvalue overflows
HUGE_HERMITIAN = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 2,
        "entries": [[1e308, 0.0], [1e308, 0.0], [1e308, 0.0], [1e308, 0.0]],
    }
)

# N = [[0, conj(w)], [w, 0]] with w = (1 + i)/sqrt(2), Hermitian with spectrum
# {-1, 1}: p(N) for p(z) = c z with c = -1.7e308(1 + i) has finite coordinates,
# but an entry of its dense form is -2.4e308
ROTATION = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 2,
        "entries": [
            [0, 0], [0.7071067811865476, -0.7071067811865476],
            [0.7071067811865476, 0.7071067811865476], [0, 0],
        ],
    }
)
OVERFLOWING_DENSE_FORM = ("0", "-1.7e308-1.7e308j")

HUGE_DIAGONAL = json.dumps(
    {
        "kind": "normal_matrix",
        "n": 2,
        "entries": [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [1e308, 0.0]],
    }
)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--inline", HUGE_INT],
        ["calculus", "--inline", FUNC, "--coeffs", "nan"],
        ["calculus", "--inline", FUNC, "--coeffs", ",".join(["1e308"] * 5)],
        ["calculus", "--inline", DIAG123, "--coeffs", ",".join(["1e308"] * 5)],
        ["quotient", "--inline", HUGE_MODULUS, "--zero-set", "p"],
        ["quotient", "--inline", HUGE_MODULUS, "--zero-set", "p", "--format", "structured"],
        ["spectrum", "--inline", HUGE_SHEAR],
        ["spectrum", "--inline", HUGE_HERMITIAN],
        ["calculus", "--inline", ROTATION, "--coeffs", ",".join(OVERFLOWING_DENSE_FORM),
         "--format", "structured"],
    ],
    ids=[
        "huge-int-document",
        "nan-coeffs",
        "overflow-functions",
        "overflow-matrix",
        "overflow-quotient-norm-text",
        "overflow-quotient-norm-structured",
        "huge-non-normal-matrix",
        "huge-hermitian-matrix",
        "overflow-dense-form-structured",
    ],
)
def test_overflow_and_nan_exit_2_with_one_line(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("invalid input: ")
    assert proc.stderr.count("\n") == 1


def test_overflowing_quotient_norm_is_named(capsys):
    code, out = run_cli(command="quotient", inline=HUGE_MODULUS, zero_set=("p",))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "invalid input: quotient norm is not finite\n"


def test_calculus_with_an_overflowing_dense_form_exits_2_only_when_it_dumps_it(capsys):
    coeffs = tuple(complex(c) for c in OVERFLOWING_DENSE_FORM)
    config = {"command": "calculus", "inline": ROTATION, "coefficients": coeffs}
    # structured output dumps p(N) as a dense matrix, which is not finite
    assert run_cli(**config, output_format="structured") == (2, "")
    assert capsys.readouterr().err == (
        "invalid input: the dense form of the element overflows a float\n"
    )
    # text output prints only the coordinates, which are finite
    code, text = run_cli(**config)
    assert code == 0
    assert text.startswith("p(a) coordinates: 1.7e+308+1.7e+308j, -1.7e+308-1.7e+308j\n")
    assert capsys.readouterr().err == ""


def test_writer_raises_on_an_overflowing_dense_form_before_any_byte():
    coeffs = tuple(complex(c) for c in OVERFLOWING_DENSE_FORM)
    result = apply_polynomial(coeffs, load_document(ROTATION))
    out = io.StringIO()
    with pytest.raises(NonFinite, match="dense form"):
        write_element(result, out)
    assert out.getvalue() == ""


def test_max_size_above_its_bound_exits_2_before_drawing(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(verify, "run_suite", lambda **kw: calls.append(kw) or [])
    assert run_cli(command="verify", max_size=cli.MAX_VERIFY_SIZE + 1) == (2, "")
    assert capsys.readouterr().err == f"--max-size must be at most {cli.MAX_VERIFY_SIZE}\n"
    assert calls == []
    # the bound itself is accepted and reaches the suite
    assert run_cli(command="verify", max_size=cli.MAX_VERIFY_SIZE)[0] == 0
    assert [kw["max_size"] for kw in calls] == [cli.MAX_VERIFY_SIZE]


def scaled_generator_document(c: float) -> str:
    """c Q diag(1, 1, 2, 2, 3, 3i) Q* for a seeded unitary Q."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    N = (Q * np.array([1, 1, 2, 2, 3, 3j])) @ Q.conj().T
    return json.dumps(
        {"kind": "normal_matrix", "n": 6, "entries": complex_pairs(N * c)}
    )


@pytest.mark.parametrize("c", [1e-12, 1e9], ids=["1e-12", "1e9"])
def test_scaled_generator_keeps_its_characters(c):
    code, text = run_cli(
        command="characters",
        inline=scaled_generator_document(c),
        output_format="structured",
    )
    assert code == 0
    assert len(text.splitlines()) == 4


HUGE_POSITIVE = json.dumps(
    {
        "kind": "function_algebra",
        "points": ["a", "b"],
        "values": [[1e200, 0.0], [2e200, 0.0]],
    }
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_classify_reports_defects_too_large_for_a_float():
    # squaring 1e200 overflows, so the unitary and projection defects are inf
    code, text = run_cli(command="classify", inline=HUGE_POSITIVE)
    assert code == 0
    assert text.splitlines() == [
        "positive: yes (defect 0.000e+00)",
        "projection: no (defect inf)",
        "self_adjoint: yes (defect 0.000e+00)",
        "unitary: no (defect inf)",
    ]
    code, text = run_cli(
        command="classify", inline=HUGE_POSITIVE, output_format="structured"
    )
    assert code == 0
    records = [json.loads(s, parse_constant=_reject_constant) for s in text.splitlines()]
    assert {r["class"]: (r["member"], r["defect"]) for r in records} == {
        "positive": (True, 0.0),
        "projection": (False, None),
        "self_adjoint": (True, 0.0),
        "unitary": (False, None),
    }


@pytest.mark.parametrize(
    "pair, shown", [([-1e308, 0.0], "-1e+308+0j"), ([1.7e308, 1.7e308], "1.7e+308+1.7e+308j")]
)
def test_classify_reports_a_positivity_gap_too_large_for_a_float(pair, shown):
    # the root is finite, but b b* - a overflows; the element is valid input
    doc = json.dumps(
        {"kind": "function_algebra", "points": ["p", "q"], "values": [pair, [1.0, 0.0]]}
    )
    code, text = run_cli(command="classify", inline=doc)
    assert code == 0
    lines = text.splitlines()
    assert "positive: no (defect inf)" in lines
    assert lines[-1] == f"positivity fails at character value {shown}"
    code, text = run_cli(command="classify", inline=doc, output_format="structured")
    assert code == 0
    records = [json.loads(s, parse_constant=_reject_constant) for s in text.splitlines()]
    assert {"kind": "classification", "class": "positive", "member": False, "defect": None} in records
    assert records[-1] == {"kind": "positive_offender", "value": pair}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_spectrum_merge_distance_too_large_for_a_float(fmt):
    # |1.7e308+1.7e308j - 0| overflows; it is above any --tol, so no merge
    doc = json.dumps(
        {
            "kind": "function_algebra",
            "points": ["p", "q"],
            "values": [[1.7e308, 1.7e308], [0.0, 0.0]],
        }
    )
    code, text = run_cli(command="spectrum", inline=doc, tol=1.7e308, output_format=fmt)
    assert code == 0
    if fmt == "text":
        assert "2 spectrum point(s)" in text
    else:
        assert json.loads(text)["points"] == [[0.0, 0.0], [1.7e308, 1.7e308]]


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "function_algebra", "points": ["\xe9"]}')
    assert run_cli(command="spectrum", input_path=str(path))[0] == 2
    assert capsys.readouterr().err.startswith("cannot read input: ")


def test_huge_normal_matrix_exits_0_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab", "spectrum", "--inline", HUGE_DIAGONAL],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "lambda[0] = 1e+308+0j" in proc.stdout


def test_missing_file_exits_2(capsys):
    assert run_cli(command="spectrum", input_path="/no/such/file.json")[0] == 2
    assert "cannot read" in capsys.readouterr().err


class BrokenOutput(io.StringIO):
    def write(self, text):
        raise OSError("output closed")


def test_write_error_is_not_reported_as_a_read_error(capsys):
    with pytest.raises(OSError, match="output closed"):
        cli.run(cli.RunConfig(command="spectrum", inline=DIAG123), BrokenOutput())
    assert capsys.readouterr().err == ""


def test_input_and_inline_together_exit_2(capsys):
    code, text = run_cli(command="spectrum", inline=DIAG123, input_path="/no/such/file")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "give one of --input and --inline, not both\n"


NOT_NORMAL = json.dumps(
    {"kind": "normal_matrix", "n": 2, "entries": [[1, 0], [1, 0], [0, 0], [1, 0]]}
)


def _raise_runtime_error(config, element, out):
    raise RuntimeError("unexpected")


@pytest.mark.parametrize(
    "kwargs, code",
    [
        ({"inline": DIAG123}, 0),
        ({"inline": NOT_NORMAL}, 2),
        ({"input_path": "/no/such/file.json"}, 2),
        ({"inline": DIAG123}, None),
    ],
    ids=["exit-0", "cstar-error", "os-error", "runtime-error"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_data_commands_leave_the_collector_as_they_found_it(monkeypatch, kwargs, code, enabled):
    if code is None:
        monkeypatch.setitem(cli._DATA_COMMANDS, "spectrum", _raise_runtime_error)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(RuntimeError, match="unexpected"):
                run_cli(command="spectrum", **kwargs)
        else:
            assert run_cli(command="spectrum", **kwargs)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_no_collection_starts_inside_a_data_command():
    n = 5000
    doc = json.dumps(
        {
            "kind": "function_algebra",
            "points": [f"x{i}" for i in range(n)],
            "values": [[float(i), 0.0] for i in range(n)],
        }
    )
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        # with the collector on, parsing the document alone starts collections
        load_document(doc)
        assert starts
        starts.clear()
        code, text = run_cli(command="spectrum", inline=doc)
        assert starts == []
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was_enabled else gc.disable)()
    assert code == 0
    assert text.startswith(f"{n} spectrum point(s)")


def test_a_label_with_a_line_break_stays_on_one_stderr_line(capsys):
    doc = json.dumps(
        {"kind": "function_algebra", "points": ["p", "\n"], "values": [[0, 0], [0, 0]]}
    )
    assert run_cli(command="quotient", inline=doc, zero_set=("q",)) == (2, "")
    assert capsys.readouterr().err == (
        "invalid input: 'q' does not name a character of C({p,\\n})\n"
    )


def test_a_label_with_a_comma_is_an_invalid_document(capsys):
    # --zero-set could not name it, and C({p,q}) would read as two points
    doc = json.dumps({"kind": "function_algebra", "points": ["p,q"], "values": [[0, 0]]})
    assert run_cli(command="spectrum", inline=doc) == (2, "")
    assert capsys.readouterr().err == (
        "invalid input: point labels must not contain a comma: ('p,q',)\n"
    )


# ---------------------------------------------------------------------------
# fuzz: whatever the document and flags, a clean exit

# every finite float, subnormals included, the edges of the float range (1e154
# squares to about 1e308) and small values, whose documents mostly succeed
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, -1e308, 1.7e308, 1e154, -1e154, 5e-324, -2.2e-308, 0.0, -0.0]),
    st.floats(-4.0, 4.0),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([10**309, -(10**309), 2**1024]),
)
PAIRS = st.lists(FLOATS, min_size=2, max_size=2)
BAD_PAIRS = st.one_of(JUNK, st.lists(st.one_of(FLOATS, JUNK), max_size=3))


@st.composite
def matrix_documents(draw):
    """A diagonal, Hermitian or general matrix; only the general may be non-normal."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["diagonal", "hermitian", "general"]))
    entries = [draw(PAIRS) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            if shape == "diagonal" and i != j:
                entries[i * n + j] = [0.0, 0.0]
            elif shape == "hermitian" and i > j:
                re, im = entries[j * n + i]
                entries[i * n + j] = [re, -im]
            elif shape == "hermitian" and i == j:
                entries[i * n + j] = [entries[i * n + j][0], 0.0]
    return {"kind": "normal_matrix", "n": n, "entries": entries}


@st.composite
def function_documents(draw):
    labels = st.sampled_from(["p", "q", "r", "0", "1", "p,q", ","]) | st.text(max_size=2)
    points = draw(st.lists(labels, min_size=1, max_size=5, unique=True))
    return {"kind": "function_algebra", "points": points,
            "values": [draw(PAIRS) for _ in points]}


@st.composite
def malformed_documents(draw):
    """A near-valid document with one field replaced, one pair broken or a key dropped."""
    doc = draw(st.one_of(matrix_documents(), function_documents()))
    key = draw(st.sampled_from(sorted(doc)))
    how = draw(st.sampled_from(["replace", "break-pair", "drop"]))
    if how == "drop":
        del doc[key]
    elif how == "break-pair" and isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(BAD_PAIRS)
    else:
        doc[key] = draw(st.one_of(
            JUNK,
            st.lists(JUNK, max_size=4),
            st.lists(st.sampled_from(["p", "q"]), min_size=2, max_size=3),
            st.sampled_from(["normal_matrix", "function_algebra", "matrix", 0, -1, 4, 2**70]),
        ))
    return doc


VALID = st.one_of(matrix_documents(), function_documents()).map(json.dumps)
INVALID = st.one_of(malformed_documents().map(json.dumps), JUNK.map(json.dumps), st.text(max_size=8))
# half of the documents and most flags are valid, so every command also runs to
# exit 0 (one_of would flatten VALID and INVALID into one uniform choice)
DOCUMENTS = st.booleans().flatmap(lambda valid: VALID if valid else INVALID)
COMPLEX = st.one_of(st.builds(complex, FLOATS, FLOATS), st.complex_numbers())
CONFIGS = st.builds(
    cli.RunConfig,
    command=st.sampled_from([*cli.COMMANDS, "nope"]),
    inline=DOCUMENTS,
    tol=st.one_of(st.just(cli.RunConfig.tol), FLOATS.map(abs), st.floats()),
    seed=st.integers(0, 3),
    max_size=st.integers(1, 3) | st.just(cli.MAX_VERIFY_SIZE + 1),
    output_format=st.sampled_from([*cli.FORMATS] * 3 + ["xml"]),
    coefficients=st.none() | st.lists(COMPLEX, min_size=1, max_size=4).map(tuple),
    zero_set=st.none() | st.lists(
        st.sampled_from(["p", "q", "0", "1", "2"]) | st.text(max_size=2), min_size=1, max_size=3
    ).map(tuple),
)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_run_exits_cleanly_on_any_document_and_flags(config):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.run(config, out)
    # verify exits 1 when a law fails at the drawn tolerance
    assert code in ((0, 1, 2) if config.command == "verify" else (0, 2))
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_parser_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["verify"])
    assert cli.RunConfig(**vars(args)) == cli.RunConfig(command="verify")


# sha256 prefixes of ``verify --format structured``; a refactor that changes
# any byte of these streams changes behaviour
GOLDEN_VERIFY_STREAMS = {
    (0, 1): "293773b48744",
    (0, 4): "77e69675c9ba",
    (0, 8): "d210158003d3",
    (1, 1): "91509eb71755",
    (1, 4): "c74f82924e8a",
    (1, 8): "26184bd4e8c9",
    (42, 1): "d183ca998517",
    (42, 4): "9c45ba815faf",
    (42, 8): "b62e88c14752",
    (0, 12): "5df44317e729",
    (1, 12): "49455f0b98d0",
    (42, 12): "50b86c08cddc",
    (7, 1): "afd6a229c98b",
    (7, 4): "8a7c72d19e6f",
    (7, 8): "63522dfb85fd",
    (7, 12): "54b0ae3dbd56",
    (123, 1): "82e4f24b76c3",
    (123, 4): "0bdea88488bd",
    (123, 8): "0c191148fe5c",
    (123, 12): "012983ab12a4",
}


@pytest.mark.parametrize("seed, max_size", sorted(GOLDEN_VERIFY_STREAMS))
def test_structured_verify_stream_is_golden(seed, max_size):
    code, text = run_cli(
        command="verify", seed=seed, max_size=max_size, output_format="structured"
    )
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert digest == GOLDEN_VERIFY_STREAMS[seed, max_size]


# sha256 prefixes of ``verify --format text``: the per-law summary lines
GOLDEN_VERIFY_TEXT_STREAMS = {
    (0, 4): "325ee4aa5caf",
    (0, 12): "0976d1e9d6c8",
    (42, 4): "67a84a3db916",
    (42, 12): "d9283ca30324",
}


@pytest.mark.parametrize("seed, max_size", sorted(GOLDEN_VERIFY_TEXT_STREAMS))
def test_text_verify_stream_is_golden(seed, max_size):
    code, text = run_cli(
        command="verify", seed=seed, max_size=max_size, output_format="text"
    )
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert digest == GOLDEN_VERIFY_TEXT_STREAMS[seed, max_size]


def _golden_documents() -> dict[str, str]:
    """A 16x16 normal matrix with 4 eigenvalues of multiplicity 4, and 40 points."""
    rng = np.random.default_rng(7)
    distinct = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    Q, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    matrix = (Q * np.repeat(distinct, 4)) @ Q.conj().T
    values = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    return {
        "matrix": json.dumps(
            {"kind": "normal_matrix", "n": 16, "entries": complex_pairs(matrix)}
        ),
        "functions": json.dumps(
            {
                "kind": "function_algebra",
                "points": [f"x{k}" for k in range(40)],
                "values": complex_pairs(values),
            }
        ),
    }


GOLDEN_DOCUMENTS = _golden_documents()
GOLDEN_ZERO_SETS = {"matrix": ("0", "2"), "functions": ("x3", "x17", "x29")}

# sha256 prefixes of each data command's stdout on the documents above; a
# change to parsing, construction or dumping that moves a byte moves these
GOLDEN_DATA_STREAMS = {
    ("calculus", "functions", "structured"): "0ee82d8ab22f",
    ("calculus", "functions", "text"): "6717b5def5b1",
    ("calculus", "matrix", "structured"): "9702fd6bedad",
    ("calculus", "matrix", "text"): "a77d57481957",
    ("characters", "functions", "structured"): "a13ffa14e4ca",
    ("characters", "functions", "text"): "f54a6953641a",
    ("characters", "matrix", "structured"): "719e830c2889",
    ("characters", "matrix", "text"): "1100dd9ae801",
    ("classify", "functions", "structured"): "ae16a8f2c647",
    ("classify", "functions", "text"): "512dc1cda3e3",
    ("classify", "matrix", "structured"): "a8a312380c04",
    ("classify", "matrix", "text"): "fc6071ed1b7f",
    ("quotient", "functions", "structured"): "6e1491872a11",
    ("quotient", "functions", "text"): "823b31098e7a",
    ("quotient", "matrix", "structured"): "d7ecee4e7c56",
    ("quotient", "matrix", "text"): "4cec99202a2a",
    ("spectrum", "functions", "structured"): "2fb88cfd4b96",
    ("spectrum", "functions", "text"): "c1ad0a3a0a27",
    ("spectrum", "matrix", "structured"): "40b0ed1dfa73",
    ("spectrum", "matrix", "text"): "35f50459081d",
}


@pytest.mark.parametrize("command, doc, fmt", sorted(GOLDEN_DATA_STREAMS))
def test_data_command_output_is_golden(command, doc, fmt):
    code, text = run_cli(
        command=command,
        inline=GOLDEN_DOCUMENTS[doc],
        output_format=fmt,
        coefficients=(0.5, -1 + 0.25j, 0.125j),
        zero_set=GOLDEN_ZERO_SETS[doc],
    )
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert digest == GOLDEN_DATA_STREAMS[command, doc, fmt]


def test_verify_text_summary():
    code, text = run_cli(command="verify", max_size=3, seed=5)
    assert code == 0
    assert "laws verified (seed=5, max_size=3, tol=1e-09)" in text.splitlines()[-1]


def test_verify_structured_stream_parses():
    code, text = run_cli(
        command="verify", max_size=3, seed=5, output_format="structured"
    )
    assert code == 0
    lines = [json.loads(line) for line in text.splitlines()]
    assert all(rec["pass"] for rec in lines if "law" in rec)
    summaries = [rec for rec in lines if rec.get("kind") == "summary"]
    assert summaries and all(s["pass"] for s in summaries)


def test_structured_verify_is_deterministic():
    first = run_cli(command="verify", max_size=3, seed=7, output_format="structured")
    second = run_cli(command="verify", max_size=3, seed=7, output_format="structured")
    assert first == second


def test_verify_failure_exits_1(monkeypatch):
    def broken(rng, tol, max_size):
        return [CheckRecord(law="broken", instance="here", defect=1.0, passed=False)]

    monkeypatch.setattr(verify, "LAWS", (("broken", broken),))
    code, text = run_cli(command="verify", max_size=2)
    assert code == 1
    assert "FAIL" in text
    assert "first failing instance: here" in text


def test_a_law_that_raises_becomes_a_failed_record(monkeypatch, capsys):
    # random_complex draws the polynomials of spectral_mapping alone
    drawn = []

    def third_draw_raises(rng, n, magnitude=1.0):
        drawn.append(n)
        if len(drawn) == 3:
            raise NonFinite("no third polynomial")
        return random_complex(rng, n, magnitude)

    monkeypatch.setattr(verify, "random_complex", third_draw_raises)
    code, text = run_cli(command="verify", max_size=2, output_format="structured")
    assert code == 1
    lines = [json.loads(line) for line in text.splitlines()]
    records = [rec for rec in lines if "kind" not in rec]
    mapping = [rec for rec in records if rec["law"] == "spectral_mapping"]
    # the two records yielded before the raise stay, then the raised record
    assert [rec["pass"] for rec in mapping] == [True, True, False]
    assert mapping[-1] == {
        "law": "spectral_mapping",
        "instance": "raised NonFinite: no third polynomial",
        "defect": None,
        "pass": False,
    }
    summary = {rec["law"]: rec for rec in lines if rec.get("kind") == "summary"}
    assert summary["spectral_mapping"]["max_defect"] is None
    assert summary["spectral_mapping"]["witness"] == mapping[-1]["instance"]
    # the laws after it still run, and every one of them passes
    assert list(summary)[-1] == "norm_uniqueness"
    assert [law for law, rec in summary.items() if not rec["pass"]] == ["spectral_mapping"]

    drawn.clear()
    code, text = run_cli(command="verify", max_size=2)
    assert code == 1
    assert "spectral_mapping: FAIL (3 instances, max defect inf)" in text
    assert "first failing instance: raised NonFinite: no third polynomial" in text
    assert "Traceback" not in text + capsys.readouterr().err


def test_main_parses_argv():
    assert cli.main(["spectrum", "--inline", DIAG123]) == 0
    assert cli.main(["verify", "--max-size", "2", "--seed", "3"]) == 0


def test_stdin_is_the_default_input(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FUNC))
    code, text = run_cli(command="spectrum")
    assert code == 0
    assert "3 spectrum point(s)" in text


def test_module_entry_point_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab", "spectrum", "--inline", DIAG123],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "lambda[2] = 3" in proc.stdout


def test_main_parses_a_comma_separated_zero_set(capsys):
    assert cli.main(["quotient", "--inline", FUNC, "--zero-set", " p, ,q"]) == 0
    out = capsys.readouterr().out
    assert "quotient dimension: 2" in out
    assert "zero set: p, q" in out
    assert "quotient norm: 5" in out
