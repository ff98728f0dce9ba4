"""Print every function in ``src/cstarlab`` that no real caller runs.

    python3 tools/reach.py

The callers: ``verify`` on the fifteen runs of the mutation kill table and
the five data commands on both golden documents of ``tests/test_cli.py``, in
both formats through ``cli.main`` so that argument parsing counts; six
checked ops of each ``perfbench`` workload; ``tests/test_acceptance.py``.
Unit tests are not callers.  Tracing starts before ``cstarlab`` is imported,
so import-time code counts.  Each line is ``file:line qualname``; the exit
code is 1 if a command exits nonzero or an acceptance test or a workload
check fails.
"""

import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
reached = set()
# a global trace that returns None sees each call and traces no line inside it
sys.settrace(lambda f, *_: reached.add((f.f_code.co_filename, f.f_code.co_firstlineno)))
import pytest  # noqa: E402
import stream_hashes  # noqa: E402  (pins BLAS to one thread, imports cstarlab)
from cstarlab import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
    golden, failed = stream_hashes._golden_cli_module(), 0
    for fmt in cli.FORMATS:
        for seed in (0, 1, 42, 7, 123):
            for size in (4, 8, 12):
                argv = ["verify", f"--seed={seed}", f"--max-size={size}", f"--format={fmt}"]
                failed += cli.main(argv)
        for doc, text in golden.GOLDEN_DOCUMENTS.items():
            zero_set = ",".join(golden.GOLDEN_ZERO_SETS[doc])
            for command in (c for c in cli.COMMANDS if c != "verify"):
                failed += cli.main([command, "--inline", text, "--format", fmt,
                                    "--coeffs", "0.5,-1+0.25j,0.125j", "--zero-set", zero_set])
    for workload in (cls(seed=0, workdir=tmp) for cls in WORKLOADS.values()):
        workload.setup()
        for params in map(workload.params, range(6)):
            workload.check(params, workload.run(params))
    failed += pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests/test_acceptance.py")])
sys.settrace(None)


def code_objects(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from code_objects(const)


for path in sorted((ROOT / "src" / "cstarlab").glob("*.py")):
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    for code in sorted(code_objects(module), key=lambda code: code.co_firstlineno):
        # <lambda> and comprehensions are not named functions
        if not code.co_name.startswith("<") and (str(path), code.co_firstlineno) not in reached:
            print(f"{path.name}:{code.co_firstlineno} {code.co_qualname}")
sys.exit(1 if failed else 0)
