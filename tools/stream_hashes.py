"""Print the sha256 of every output stream that a refactor must keep.

    python3 tools/stream_hashes.py > hashes.txt

Runs from any directory and imports the package from the ``src/`` of the
checkout it sits in, so running it in two checkouts and diffing the two
outputs proves that a change moved no output byte.  Each line is
``sha256  name``.  The streams are ``verify`` in text and structured format
for seeds {0, 1, 42, 7, 123} x ``--max-size`` {1, 4, 8, 12} (40 streams),
and the five data commands in both formats on the two golden documents of
``tests/test_cli.py``, with its coefficients and zero sets (20 streams).
Every stream is produced in process through ``cli.run``.  The digest is
of stdout alone, so its first 12 characters are the prefix that
``tests/test_cli.py`` pins where it pins one; the exit code ends the name.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cstarlab import cli  # noqa: E402

SEEDS = (0, 1, 42, 7, 123)
MAX_SIZES = (1, 4, 8, 12)
COEFFICIENTS = (0.5, -1 + 0.25j, 0.125j)


def _golden_cli_module():
    spec = importlib.util.spec_from_file_location(
        "golden_test_cli", ROOT / "tests" / "test_cli.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _streams():
    """(name, RunConfig) for every stream, in a fixed order."""
    for fmt in cli.FORMATS:
        for seed in SEEDS:
            for max_size in MAX_SIZES:
                config = cli.RunConfig(
                    command="verify", seed=seed, max_size=max_size, output_format=fmt
                )
                yield f"verify {fmt} seed={seed} max_size={max_size}", config
    golden = _golden_cli_module()
    for doc, text in golden.GOLDEN_DOCUMENTS.items():
        for command in cli.COMMANDS:
            if command == "verify":
                continue
            for fmt in cli.FORMATS:
                config = cli.RunConfig(
                    command=command,
                    inline=text,
                    output_format=fmt,
                    coefficients=COEFFICIENTS,
                    zero_set=golden.GOLDEN_ZERO_SETS[doc],
                )
                yield f"{command} {fmt} {doc}", config


def main() -> int:
    for name, config in _streams():
        out = io.StringIO()
        code = cli.run(config, out)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{digest}  {name} exit={code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
