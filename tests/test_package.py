"""The package namespace is each data module's ``__all__``, imported on first
use; ``cli``, ``verify`` and ``sampling`` are not among the data modules.  A
fresh ``python -m cstarlab`` loads only what its command runs, and prints
what ``cli.main`` prints in process.  Both process entries, ``python -m
cstarlab`` and the installed script, run ``cstarlab/__main__.py``, which loads
the command's modules with the collector paused and then freezes them."""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cstarlab
from cstarlab import (
    algebra,
    cli,
    duality,
    errors,
    gelfand,
    ideals,
    interchange,
    spaces,
    spectra,
    spectral,
)

DATA_MODULES = (
    algebra, duality, errors, gelfand, ideals, interchange, spaces, spectra, spectral
)

# a 2x2 normal matrix with eigenvalues 1 and 2i; every command accepts these
# flags, and verify reads no document
ARGV = [
    "--inline",
    '{"kind": "normal_matrix", "n": 2, "entries": [[1, 0], [0, 0], [0, 0], [0, 2]]}',
    "--coeffs", "1,0,2",
    "--zero-set", "0",
    "--max-size", "2",
]


def test_public_names_are_the_union_of_the_data_modules_all():
    declared = [name for module in DATA_MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert cstarlab.__all__ == declared
    star = {}
    exec("from cstarlab import *", star)
    assert star.keys() - {"__builtins__"} == set(declared)
    for module in DATA_MODULES:
        assert getattr(cstarlab, module.__name__.rpartition(".")[2]) is module
        for name in module.__all__:
            assert getattr(cstarlab, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(cstarlab, "no_such_name")


def _imported(*args: str) -> set[str]:
    """The modules a fresh interpreter loads, from ``-v``'s "import 'name'" lines.

    ``-X importtime`` would miss a module loaded through
    ``importlib.import_module``, as the package ``__getattr__`` loads them.
    """
    proc = subprocess.run(
        [sys.executable, "-v", *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(re.findall(r"^import '([^']+)'", proc.stderr, re.MULTILINE))


# every module of the package that serves some commands and not others
ON_DEMAND = ("verify", "duality", "ideals", "gelfand", "sampling", "spectral")


@pytest.mark.parametrize(
    "args, loads",
    [
        (["-c", "import cstarlab.cli"], ()),
        # the import system asks the package for ``cli`` before importing it
        (["-c", "from cstarlab import cli"], ()),
        (["-m", "cstarlab", "spectrum", *ARGV], ()),
        (["-m", "cstarlab", "characters", *ARGV], ("gelfand",)),
        (["-m", "cstarlab", "classify", *ARGV], ("spectral",)),
        (["-m", "cstarlab", "quotient", *ARGV], ("ideals",)),
    ],
    ids=["import-cli", "from-cstarlab-import-cli", "spectrum", "characters", "classify",
         "quotient"],
)
def test_cli_loads_no_module_its_command_does_not_run(args, loads):
    imported = _imported(*args)
    assert "cstarlab.cli" in imported
    assert {f"cstarlab.{name}" for name in ON_DEMAND} & imported == {
        f"cstarlab.{name}" for name in loads
    }


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_fresh_process_prints_what_main_prints(command, capsys):
    argv = [command, *ARGV, "--format", "structured"]
    assert cli.main(argv) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "cstarlab", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, *capsys.readouterr())


def _fresh(code: str) -> str:
    """What ``code`` prints in a fresh interpreter; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# importing cstarlab.__main__ freezes the importer's heap, so each of these
# imports it in a fresh interpreter, never in this one
def test_no_collection_starts_while_the_entry_module_loads():
    code = """
        import gc
        starts = []
        gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(1))
        import cstarlab.__main__
        print(len(starts))
    """
    assert _fresh(code) == "0\n"


def test_the_entry_module_leaves_the_collector_on_and_its_imports_frozen():
    code = """
        import gc
        import cstarlab.__main__
        print(gc.isenabled(), gc.get_freeze_count() > 0)
    """
    assert _fresh(code) == "True True\n"


def test_the_entry_module_leaves_a_disabled_collector_disabled():
    code = """
        import gc
        gc.disable()
        import cstarlab.__main__
        print(gc.isenabled(), gc.get_freeze_count() > 0)
    """
    assert _fresh(code) == "False True\n"


def _console_script() -> tuple[str, str]:
    """The module and function that ``[project.scripts] cstarlab`` names."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, function = entry["cstarlab"].partition(":")
    return module, function


@pytest.mark.parametrize(
    "argv",
    [[command, *ARGV] for command in cli.COMMANDS] + [["spectrum", "--tol", "x"]],
    ids=[*cli.COMMANDS, "usage-error"],
)
def test_the_console_script_prints_what_python_m_prints(argv):
    # the lines of the script pip generates for [project.scripts]
    module, function = _console_script()
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    script, as_module = (
        subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, timeout=60
        )
        for entry in (["-c", wrapper], ["-m", "cstarlab"])
    )
    assert (script.returncode, script.stdout, script.stderr) == (
        as_module.returncode, as_module.stdout, as_module.stderr
    )
