"""The ``verify`` half of the mutation kill table; run with
``python3 -m pytest mutants`` (about 25 s on two CPUs).

Each line of ``mutants.jsonl`` is a plausible coding error in ``src/``: a
file, an exact old text, its replacement, the expectation ("killed",
"killed by raising" or "survives: ...") and ``killed``, the records that
fail under it.  Each mutant is applied to a temporary copy of ``src/``, where
its old text must occur exactly once, so that a refactor cannot turn a
mutant into a silent no-op.  A child process then runs ``run_suite`` on the
fifteen (seed, max_size) pairs under an address-space cap, and the test
asserts that the records it fails, with the number of runs each fails in,
are the recorded ones.

A failed record counts under its law name; a law that raised a
:class:`CstarError` counts as ``raised <Error> in <law>``, and a run that
``run_suite`` did not finish as ``crash <Error>``.  A mutant that hits the
cap ends in ``crash MemoryError``.  Two children run at once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MUTANTS = [
    json.loads(line)
    for line in (HERE / "mutants.jsonl").read_text(encoding="utf-8").splitlines()
    if line.strip()
]
ADDRESS_SPACE_CAP = 2 << 30  # bytes
CHILD_TIMEOUT_S = 300
WORKERS = 2

CHILD = """
import json, resource, sys
cap = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[1])
from cstarlab.verify import run_suite

killed = {}
for seed in (0, 1, 42, 7, 123):
    for max_size in (4, 8, 12):
        try:
            records = run_suite(seed=seed, max_size=max_size)
        except Exception as exc:
            names = {f"crash {type(exc).__name__}"}
        else:
            names = {
                f"raised {r.instance[7:].split(':')[0]} in {r.law}"
                if r.instance.startswith("raised ") else r.law
                for r in records if not r.passed
            }
        for name in names:
            killed[name] = killed.get(name, 0) + 1
print(json.dumps(killed, sort_keys=True))
"""


def _mutated_copy(mutant: dict | None, where: Path) -> Path:
    """A copy of ``src/`` under ``where`` with the mutant applied."""
    src = where / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = where / mutant["file"]
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant["old"])
        if count != 1:
            raise AssertionError(f"{mutant['id']}: old text occurs {count} times")
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    return src


def _kills(mutant: dict | None, where: Path) -> dict:
    """The failing records of ``run_suite`` on the mutated copy, or the
    error that stopped the harness itself."""
    try:
        src = _mutated_copy(mutant, where)
    except AssertionError as err:
        return {"harness": str(err)}
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(ADDRESS_SPACE_CAP)],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"child exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def kill_table(tmp_path_factory) -> dict:
    """Every mutant's kills, and ``None``'s for the unmutated source."""
    subjects = [None, *MUTANTS]
    places = [tmp_path_factory.mktemp("mutant") for _ in subjects]
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_kills, subjects, places))
    return {None if m is None else m["id"]: r for m, r in zip(subjects, results)}


def test_unmutated_source_fails_no_record(kill_table):
    assert kill_table[None] == {}


def test_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_mutant_fails_its_recorded_records(kill_table, mutant):
    assert kill_table[mutant["id"]] == mutant["killed"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_expectation_matches_the_recorded_kills(mutant):
    killed, expect = mutant["killed"], mutant["expect"]
    by_raising = all(k.startswith(("raised ", "crash ")) for k in killed)
    if expect.startswith("survives"):
        assert not killed
    elif expect == "killed by raising":
        assert killed and by_raising
    else:
        assert expect == "killed" and not by_raising
