"""Command line behavior: exit codes, formats, determinism."""

import hashlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from cstarlab import cli, verify
from cstarlab.interchange import complex_pairs
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


def test_parser_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["verify"])
    assert cli.RunConfig(**vars(args)) == cli.RunConfig(command="verify")


# sha256 prefixes of ``verify --format structured``; a refactor that changes
# any byte of these streams changes behaviour
GOLDEN_VERIFY_STREAMS = {
    (0, 1): "92b25a78467f",
    (0, 4): "d64c14180bd9",
    (0, 8): "ce4b0f0ac4f8",
    (1, 1): "261842555b61",
    (1, 4): "c1cc8672b889",
    (1, 8): "020d093d5a44",
    (42, 1): "448c59f9d55f",
    (42, 4): "5080da951f9a",
    (42, 8): "dc6b938ce307",
    (0, 12): "31795886e42a",
    (1, 12): "0667731c9e03",
    (42, 12): "47ffa24e01b2",
    (7, 1): "b6a0c870779f",
    (7, 4): "856dc9c948e8",
    (7, 8): "a59fc72ed8dc",
    (7, 12): "11c762dc223e",
    (123, 1): "6bba7320ba6a",
    (123, 4): "38441131ac7c",
    (123, 8): "9832308ca0aa",
    (123, 12): "fa7361450337",
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
    (0, 4): "ff42c5ce4490",
    (0, 12): "05e978ebb8c2",
    (42, 4): "7bcaf50f6a86",
    (42, 12): "3032abf9133e",
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
    ("calculus", "matrix", "structured"): "d6637f7bc40d",
    ("calculus", "matrix", "text"): "a77d57481957",
    ("characters", "functions", "structured"): "a13ffa14e4ca",
    ("characters", "functions", "text"): "f54a6953641a",
    ("characters", "matrix", "structured"): "81ca6b99d47f",
    ("characters", "matrix", "text"): "1100dd9ae801",
    ("classify", "functions", "structured"): "ae16a8f2c647",
    ("classify", "functions", "text"): "512dc1cda3e3",
    ("classify", "matrix", "structured"): "bc95f1cdea0d",
    ("classify", "matrix", "text"): "fc6071ed1b7f",
    ("quotient", "functions", "structured"): "6e1491872a11",
    ("quotient", "functions", "text"): "823b31098e7a",
    ("quotient", "matrix", "structured"): "1ce4b18c2b4d",
    ("quotient", "matrix", "text"): "4cec99202a2a",
    ("spectrum", "functions", "structured"): "2fb88cfd4b96",
    ("spectrum", "functions", "text"): "c1ad0a3a0a27",
    ("spectrum", "matrix", "structured"): "8745918ad22d",
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
