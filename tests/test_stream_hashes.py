"""``tools/stream_hashes.py --against DIR`` names each stream whose hash
differs from the one the tool of the checkout at DIR prints, or that one
side lacks, and exits 1 if there is any; ``--drop NAME ...`` leaves those
records out of every ``verify`` stream, on both sides.  The streams and
records here are stand-ins, so the test does not run the tool's own
streams."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from cstarlab import cli, verify
from cstarlab.duality import CheckRecord

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    # the tool pins BLAS to one thread in os.environ for its children;
    # leave the environment of the rest of the suite as it was
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location(
        "stream_hashes_tool", ROOT / "tools" / "stream_hashes.py"
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module


def test_against_names_each_stream_that_differs(tool, tmp_path, monkeypatch, capsys):
    ours = ["a" * 64 + "  same", "b" * 64 + "  moved", "c" * 64 + "  new"]
    theirs = ["a" * 64 + "  same", "d" * 64 + "  moved", "e" * 64 + "  old"]
    (tmp_path / "tools").mkdir()
    listing = "\n".join(theirs)
    (tmp_path / "tools" / "stream_hashes.py").write_text(f"print({listing!r})\n")

    monkeypatch.setattr(tool, "_lines", lambda drop, save: iter(ours))
    assert tool.main(["--against", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "moved",
        "new  (only here)",
        f"old  (only in {tmp_path})",
    ]
    assert captured.err == "3 of 4 streams differ\n"

    monkeypatch.setattr(tool, "_lines", lambda drop, save: iter(theirs))
    assert tool.main(["--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_against_then_names_each_pinned_entry_that_differs(tool, tmp_path, monkeypatch, capsys):
    # the tool reads the pinned entries from tests/test_cli.py; structured
    # (0, 4), text (0, 4) and the structured spectrum of the matrix document
    # are pinned there, and text (1, 4) is not
    def line(digit, name):
        return digit * 64 + "  " + name

    theirs = [
        line("a", "verify structured seed=0 max_size=4 exit=0"),
        line("a", "verify structured seed=0 max_size=8 exit=0"),
        line("b", "verify text seed=0 max_size=4 exit=0"),
        line("c", "verify text seed=1 max_size=4 exit=0"),
        line("d", "spectrum structured matrix exit=0"),
    ]
    ours = [
        line("a", "verify structured seed=0 max_size=4 exit=0"),
        line("a", "verify structured seed=0 max_size=8 exit=1"),
        line("e", "verify text seed=0 max_size=4 exit=0"),
        line("f", "verify text seed=1 max_size=4 exit=0"),
        line("0", "spectrum structured matrix exit=0"),
    ]
    (tmp_path / "tools").mkdir()
    listing = "\n".join(theirs)
    (tmp_path / "tools" / "stream_hashes.py").write_text(f"print({listing!r})\n")

    monkeypatch.setattr(tool, "_lines", lambda drop, save: iter(ours))
    assert tool.main(["--against", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    # a pin is a prefix of the hash of stdout, so an exit code alone moves none
    assert captured.out.splitlines() == [
        "verify structured seed=0 max_size=8 exit=1  (only here)",
        "verify text seed=0 max_size=4 exit=0",
        "verify text seed=1 max_size=4 exit=0",
        "spectrum structured matrix exit=0",
        f"verify structured seed=0 max_size=8 exit=0  (only in {tmp_path})",
        "text (0, 4): bbbbbbbbbbbb -> eeeeeeeeeeee",
        "spectrum matrix structured: dddddddddddd -> 000000000000",
    ]
    assert captured.err == "5 of 6 streams differ\n"


# the other tool writes each stream to the directory that the environment
# names, in the file named by its hash, as the tool itself does
CHILD = """\
import hashlib, os, pathlib
for name, stream in {streams!r}:
    digest = hashlib.sha256(stream).hexdigest()
    pathlib.Path(os.environ["STREAM_HASHES_SAVE"], digest).write_bytes(stream)
    print(digest + "  " + name)
"""


def test_against_shows_the_first_differing_line_and_the_records_that_differ(
    tool, tmp_path, monkeypatch, capsys
):
    structured = "verify structured seed=5 max_size=2 exit=0"
    text = "verify text seed=5 max_size=2 exit=1"
    theirs = [
        ("same", b"x\n"),
        (structured, b'{"law": "a", "d": 0}\n{"law": "b", "d": 1}\n'
                     b'{"kind": "summary", "law": "b"}\n'),
        (text, b"a: pass\nb: FAIL\n  first failing instance: x\n1/2 laws verified\n"),
        ("construction seed=5", b"\x00\x01" + b"A" * 300),
    ]
    ours = [
        ("same", b"x\n"),
        (structured, b'{"law": "a", "d": 0}\n{"law": "b", "d": 2}\n{"law": "c", "d": 0}\n'
                     b'{"kind": "summary", "law": "b"}\n'),
        (text, b"a: pass\nb: FAIL\n  first failing instance: y\n1/2 laws verified\n"),
        ("construction seed=5", b"\x00\x02" + b"A" * 300),
    ]
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "stream_hashes.py").write_text(CHILD.format(streams=theirs))
    monkeypatch.setattr(tool, "_named_streams", lambda drop: iter(ours))
    assert tool.main(["--against", str(tmp_path)]) == 1
    assert capsys.readouterr() == (
        "\n".join([
            structured,
            '  - {"law": "b", "d": 1}',
            '  + {"law": "b", "d": 2}',
            "  b: -1 +1",
            "  c: -0 +1",
            text,
            "  -   first failing instance: x",
            "  +   first failing instance: y",
            "  b: -1 +1",
            "construction seed=5",
            "  - \\x00\\x01" + "A" * 192,
            "  + \\x00\\x02" + "A" * 192,
        ]) + "\n",
        "3 of 4 streams differ\n",
    )


def test_the_variable_makes_the_tool_write_each_stream_under_its_hash(
    tool, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(tool.SAVE, str(tmp_path))
    monkeypatch.setattr(tool, "_named_streams", lambda drop: iter([("one", b"1"), ("two", b"2")]))
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["one", "two"]
    assert [(tmp_path / line[:64]).read_bytes() for line in lines] == [b"1", b"2"]


def test_against_passes_drop_on_to_the_other_tool(tool, tmp_path, monkeypatch, capsys):
    # each side names its one stream after the options it was given
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "stream_hashes.py").write_text(
        "import sys; print('a' * 64 + '  ' + ' '.join(sys.argv[1:]))\n"
    )
    monkeypatch.setattr(
        tool, "_lines", lambda drop, save: iter(["a" * 64 + "  --drop " + " ".join(drop)])
    )
    assert tool.main(["--against", str(tmp_path), "--drop", "x", "y"]) == 0
    assert capsys.readouterr() == ("", "0 of 1 streams differ\n")


# the dropped law fails, so its summary line carries a witness and the exit
# code moves with it
RECORDS = [
    CheckRecord("kept", "first", 0.0, True),
    CheckRecord("dropped", "only", 2e-3, False),
    CheckRecord("kept", "second", 1e-9, True),
    CheckRecord("last", "one", 0.5, True),
]


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_drop_removes_exactly_the_lines_of_those_records(tool, fmt, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", lambda **kwargs: list(RECORDS))
    config = cli.RunConfig(command="verify", output_format=fmt)
    full, code = tool._run(config)
    assert code == 1
    lines = full.splitlines(keepends=True)
    if fmt == "structured":
        expected = [line for line in lines if json.loads(line)["law"] != "dropped"]
        assert len(lines) - len(expected) == 2
    else:
        assert lines[1:3] == [
            "dropped: FAIL (1 instances, max defect 2.000e-03)\n",
            "  first failing instance: only\n",
        ]
        expected = [lines[0], *lines[3:-1], lines[-1].replace("2/3 laws", "2/2 laws")]
    assert tool._run(config, ["dropped"]) == ("".join(expected), 0)
    assert verify.run_suite() == RECORDS
