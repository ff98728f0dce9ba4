"""``tools/stream_hashes.py --against DIR`` names each stream whose hash
differs from the one the tool of the checkout at DIR prints, or that one
side lacks, and exits 1 if there is any.  The streams here are stand-ins,
so the test does not run the tool's own streams."""

import importlib.util
import os
from pathlib import Path

import pytest

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

    monkeypatch.setattr(tool, "_lines", lambda: iter(ours))
    assert tool.main(["--against", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "moved",
        "new  (only here)",
        f"old  (only in {tmp_path})",
    ]
    assert captured.err == "3 of 4 streams differ\n"

    monkeypatch.setattr(tool, "_lines", lambda: iter(theirs))
    assert tool.main(["--against", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""
