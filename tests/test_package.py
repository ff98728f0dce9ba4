"""The package namespace is each data module's ``__all__``, imported on first
use; ``cli``, ``verify`` and ``sampling`` are not among the data modules.  A
fresh ``python -m cstarlab`` loads only what its command runs, and prints
what ``cli.main`` prints in process."""

import re
import subprocess
import sys

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


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import cstarlab.cli"],
        # the import system asks the package for ``cli`` before importing it
        ["-c", "from cstarlab import cli"],
        ["-m", "cstarlab", "spectrum", *ARGV],
    ],
    ids=["import-cli", "from-cstarlab-import-cli", "spectrum"],
)
def test_cli_loads_no_module_its_command_does_not_run(args):
    imported = _imported(*args)
    assert "cstarlab.cli" in imported
    unused = ("verify", "duality", "ideals", "gelfand", "sampling")
    assert imported.isdisjoint(f"cstarlab.{name}" for name in unused)


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
