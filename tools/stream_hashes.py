"""Print the sha256 of every output stream that a refactor must keep.

    python3 tools/stream_hashes.py > hashes.txt
    python3 tools/stream_hashes.py --against ../other-checkout
    python3 tools/stream_hashes.py --against ../other-checkout --drop NAME ...

Runs from any directory and imports the package from the ``src/`` of the
checkout it sits in, so running it in two checkouts and diffing the two
outputs proves that a change moved no output byte.  BLAS runs on one
thread, so the output does not depend on the number of CPUs.  Each line is
``sha256  name``.  The streams are ``verify`` in text and structured format
for seeds {0, 1, 42, 7, 123} x ``--max-size`` {1, 4, 8, 12} (40 streams),
and the five data commands in both formats on the two golden documents of
``tests/test_cli.py``, with its coefficients and zero sets (20 streams).
Those documents are 16 x 16 at most, so structured ``calculus`` and
``quotient`` also run on seeded normal-matrix documents at n {64, 256}, one
with n distinct eigenvalues and one with 32, each used at least once, with
every other character as the zero set (8 streams).
Every stream is produced in process through ``cli.run``.  The digest is
of stdout alone, so its first 12 characters are the prefix that
``tests/test_cli.py`` pins where it pins one; the exit code ends the name.

``verify`` sums the geometric series only at dimension 12 or less, so the
library streams that follow take ``neumann_inverse`` and
``perturbation_inverse`` at dimensions {32, 64, 512} for the same seeds, on
elements drawn as the ``algebra-session`` benchmark draws them (30
streams), and one :class:`Unconverged` partial sum.  Each digest is of the
coordinate bytes followed by the repr of the report, where there is one.

``verify`` also deduplicates at most 12 values and never takes a norm of a
matrix above 12 x 12, so the last library streams take, for the same seeds:
``spectrum`` points and ``dedup_points`` assignments at dimensions {64, 512,
2048} on the series element ``a``, on a purely imaginary element, on one on
a 1e-9 grid, on conjugate pairs (the spectrum of a real normal generator)
and on spread values with dimension/50 exact copies (75 streams); the
distinct spectrum and multiplicity map of a 256 x 256 normal generator with
24 distinct eigenvalues, each used at least once (5); at dimension 512 the
labels of a quotient's zero set, the coordinates of the projection of ``a``
and its quotient norm (5); and ``operator_norm`` of a materialized element
at n {16, 64} (10).

``verify`` folds each Gelfand-duality report into one record that shows
only its largest defect, so the last streams are whole reports, each
check's name, instance, defect repr and verdict: ``verify_equivalence`` on
the spaces and the function algebras of {1, ..., 12} points (24) and on 12
seeded normal generator algebras with repeated eigenvalues (12), and
``verify_naturality_tau`` on 12 seeded homomorphisms (12).

``verify`` builds generators of dimension 12 at most, so the construction
streams pin what ``make_normal_generator_algebra`` stores: the eigenvalues,
the eigenvector bytes, the distinct spectrum and the multiplicity map, for
the same seeds at n {64, 256, 512}, on a generator with n distinct
eigenvalues and on one with 32, each used at least once (30 streams).

``--against DIR`` runs the tool of the checkout at DIR in a child process,
prints the name of each stream whose hash differs or that only one side
has, then each entry of ``tests/test_cli.py`` whose stream differs, as
``label: old -> new`` with 12-character prefixes, DIR's first:
``structured (0, 4)`` for a ``GOLDEN_VERIFY_STREAMS`` key, ``text (0, 4)``
for a ``GOLDEN_VERIFY_TEXT_STREAMS`` key and ``spectrum matrix structured``
for a ``GOLDEN_DATA_STREAMS`` key.  It exits 1 if any stream differs.
Under each stream that differs it prints the first differing line (split
at each newline byte) of DIR's side (``- ``) and of this one (``+ ``),
escaped as in a bytes repr and cut to 200 characters; under a ``verify``
stream it then prints each record name whose lines differ, as ``name: -old
+new`` line counts (a witness line goes with the law above it; the count
line is ``-``).  The child writes each stream to the directory named by
``STREAM_HASHES_SAVE``, in the file named by its hash; an older tool hands
back hashes only.

``--drop NAME ...`` makes each ``verify`` stream the one ``cli.run`` prints
when the records whose ``CheckRecord.law`` is one of the names are left out
of ``run_suite``'s list; ``cli`` recomputes the summary and count lines from
what is left.  With ``--against DIR`` the names go on to DIR's tool, which
must know the option, so a change that only adds records diffs empty when
its new names are dropped.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread before numpy loads: the n = 256 generators' eigenvectors
# differ in their last bits between one and two OpenBLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cstarlab import (  # noqa: E402
    Unconverged,
    cli,
    dedup_points,
    ideal_from_closed_set,
    make_function_algebra,
    make_normal_generator_algebra,
    neumann_inverse,
    operator_norm,
    perturbation_inverse,
    quotient,
    spectrum,
    verify,
    verify_equivalence,
    verify_naturality_tau,
)
from cstarlab.sampling import (  # noqa: E402
    random_algebra,
    random_normal_generator_algebra,
    random_pullback_hom,
    random_unitary,
)
from cstarlab.spectra import DEFAULT_MERGE_TOL  # noqa: E402

SEEDS = (0, 1, 42, 7, 123)
MAX_SIZES = (1, 4, 8, 12)
COEFFICIENTS = (0.5, -1 + 0.25j, 0.125j)
SERIES_DIMS = (32, 64, 512)
SPECTRUM_DIMS = (64, 512, 2048)
NORM_DIMS = (16, 64)
CONSTRUCTION_DIMS = (64, 256, 512)
DOCUMENT_DIMS = (64, 256)
REPEATED_DISTINCT = 32
REPORT_SIZES = range(1, 13)
REPORT_SEEDS = range(12)
SAVE = "STREAM_HASHES_SAVE"


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
    for n in DOCUMENT_DIMS:
        for kind, distinct in (("distinct", n), ("repeated", REPEATED_DISTINCT)):
            rng = np.random.default_rng([SEEDS[0], n, distinct, 7])
            entries = _normal_generator(rng, distinct, n).reshape(-1).tolist()
            text = json.dumps(
                {"kind": "normal_matrix", "n": n, "entries": [[z.real, z.imag] for z in entries]}
            )
            # every other character, so the quotient keeps half of the spectrum
            zero_set = tuple(str(k) for k in range(0, distinct, 2))
            for command in ("calculus", "quotient"):
                config = cli.RunConfig(
                    command=command,
                    inline=text,
                    output_format="structured",
                    coefficients=COEFFICIENTS,
                    zero_set=zero_set,
                )
                yield f"{command} structured normal_matrix {kind} n={n}", config


def _series_inputs(seed, dim):
    """Elements (a, x, y) with norm(a) = 0.7 and y within |x|/2 of x."""
    rng = np.random.default_rng([seed, dim])
    algebra = make_function_algebra(tuple(f"x{i}" for i in range(dim)))

    def phase():
        return np.exp(2j * np.pi * rng.uniform(0, 1, dim))

    a = 0.7 * rng.uniform(0, 1, dim) * phase()
    a[rng.integers(0, dim)] = 0.7 * phase()[0]
    x = rng.uniform(0.8, 1.2, dim) * phase()
    y = x + 0.5 * x * rng.uniform(0, 1, dim) * phase()
    return algebra.element(a), algebra.element(x), algebra.element(y)


def _series_streams():
    """(name, bytes) for the series inverses, in a fixed order."""
    for seed in SEEDS:
        for dim in SERIES_DIMS:
            a, x, y = _series_inputs(seed, dim)
            s, report = neumann_inverse(a)
            stream = s.coords.tobytes() + repr(report).encode()
            yield f"neumann seed={seed} dim={dim}", stream
            s = perturbation_inverse(x, y)
            yield f"perturbation seed={seed} dim={dim}", s.coords.tobytes()
    a, _, _ = _series_inputs(SEEDS[0], SERIES_DIMS[-1])
    try:
        neumann_inverse(a, tol=1e-15, max_terms=40)
    except Unconverged as err:
        stream = err.partial.coords.tobytes() + repr(err.report).encode()
        yield f"neumann unconverged seed={SEEDS[0]} dim={SERIES_DIMS[-1]}", stream


def _normal_generator(rng, distinct, n):
    """A normal n x n matrix whose eigenvalues are ``distinct`` values with
    real parts well apart, each used at least once, in a random unitary basis."""
    while True:
        values = rng.uniform(-1, 1, distinct) + 1j * rng.uniform(-1, 1, distinct)
        if distinct < 2 or np.min(np.diff(np.sort(values.real))) > 1e-6:
            break
    picks = np.concatenate([np.arange(distinct), rng.integers(0, distinct, n - distinct)])
    eigenvalues = values[rng.permutation(picks)]
    U = random_unitary(rng, n)
    return (U * eigenvalues) @ U.conj().T


def _conjugate_pairs(rng, dim):
    half = rng.uniform(-1, 1, dim // 2) + 1j * rng.uniform(-1, 1, dim // 2)
    return np.concatenate([half, half.conj()])


def _planted(rng, dim):
    """Spread values whose first dim // 50 are exact copies of later ones."""
    values = rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim)
    values[: dim // 50] = values[rng.integers(dim // 50, dim, dim // 50)]
    return values


def _spectrum_streams():
    """(name, bytes) for spectra, quotients and operator norms, in a fixed order."""
    for seed in SEEDS:
        for dim in SPECTRUM_DIMS:
            rng = np.random.default_rng([seed, dim, 1])
            a, _, _ = _series_inputs(seed, dim)
            grid = rng.integers(-16, 16, dim) + 1j * rng.integers(-16, 16, dim)
            for kind, coords in (
                ("series", a.coords),
                ("imaginary", 1j * rng.uniform(-1, 1, dim)),
                ("grid", 1e-9 * grid),
                ("pairs", _conjugate_pairs(rng, dim)),
                ("planted", _planted(rng, dim)),
            ):
                points = spectrum(a.algebra.element(coords)).points
                _, assign = dedup_points(coords, DEFAULT_MERGE_TOL)
                stream = np.array(points, dtype=complex).tobytes() + repr(assign).encode()
                yield f"spectrum {kind} seed={seed} dim={dim}", stream
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 256, 24])
        algebra = make_normal_generator_algebra(_normal_generator(rng, 24, 256))
        points = np.array(algebra.distinct_spectrum.points, dtype=complex)
        stream = points.tobytes() + repr(algebra.multiplicity_map).encode()
        yield f"generator distinct=24 seed={seed} n=256", stream
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 512, 2])
        a, _, _ = _series_inputs(seed, 512)
        keys = sorted(rng.choice(512, 128, replace=False).tolist())
        q, projection = quotient(a.algebra, ideal_from_closed_set(a.algebra, keys))
        stream = repr(q.space.points).encode() + projection(a).coords.tobytes()
        yield f"quotient seed={seed} dim=512", stream + repr(q.quotient_norm(a)).encode()
    for seed in SEEDS:
        for n in NORM_DIMS:
            rng = np.random.default_rng([seed, n, 3])
            algebra = make_normal_generator_algebra(_normal_generator(rng, n, n))
            b = algebra.element(rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
            norm = operator_norm(algebra.materialize(b))
            yield f"operator_norm seed={seed} n={n}", repr(norm).encode()


def _report_bytes(report) -> bytes:
    lines = [report.subject]
    lines += [f"{c.law} {c.instance} {c.defect!r} {c.passed}" for c in report.checks]
    return "\n".join(lines).encode()


def _report_streams():
    """(name, bytes) for whole duality reports, in a fixed order."""
    for size in REPORT_SIZES:
        algebra = make_function_algebra(tuple(f"x{i}" for i in range(size)))
        yield f"equivalence space size={size}", _report_bytes(verify_equivalence(algebra.space))
        yield f"equivalence function size={size}", _report_bytes(verify_equivalence(algebra))
    for seed in REPORT_SEEDS:
        rng = np.random.default_rng([seed, 4])
        algebra = random_normal_generator_algebra(rng, max_n=12, repeats=True)
        yield f"equivalence normal seed={seed}", _report_bytes(verify_equivalence(algebra))
    for seed in REPORT_SEEDS:
        rng = np.random.default_rng([seed, 5])
        source, target = random_algebra(rng, 8), random_algebra(rng, 8)
        phi = random_pullback_hom(rng, source, target)
        yield f"naturality_tau seed={seed}", _report_bytes(verify_naturality_tau(phi))


def _construction_streams():
    """(name, bytes) for what a construction stores, in a fixed order."""
    for seed in SEEDS:
        for n in CONSTRUCTION_DIMS:
            for kind, distinct in (("distinct", n), ("repeated", REPEATED_DISTINCT)):
                rng = np.random.default_rng([seed, n, distinct, 6])
                algebra = make_normal_generator_algebra(_normal_generator(rng, distinct, n))
                stream = (
                    np.array(algebra.eigenvalues, dtype=complex).tobytes()
                    + algebra.eigenvectors.tobytes()
                    + np.array(algebra.distinct_spectrum.points, dtype=complex).tobytes()
                    + repr(algebra.multiplicity_map).encode()
                )
                yield f"construction {kind} seed={seed} n={n}", stream


@contextlib.contextmanager
def _without(names):
    """``verify.run_suite`` leaves out the records whose law is in ``names``."""
    run_suite = verify.run_suite
    if names:
        verify.run_suite = lambda *args, **kwargs: [
            rec for rec in run_suite(*args, **kwargs) if rec.law not in names
        ]
    try:
        yield
    finally:
        verify.run_suite = run_suite


def _run(config, drop=()) -> tuple[str, int]:
    """What ``cli.run`` prints for ``config``, and its exit code; a ``verify``
    stream leaves out the records whose law is in ``drop``."""
    out = io.StringIO()
    with _without(drop if config.command == "verify" else ()):
        code = cli.run(config, out)
    return out.getvalue(), code


def _named_streams(drop):
    """(name, bytes) for every stream, in a fixed order."""
    for name, config in _streams():
        text, code = _run(config, drop)
        yield f"{name} exit={code}", text.encode()
    yield from itertools.chain(
        _series_streams(), _spectrum_streams(), _report_streams(), _construction_streams()
    )


def _lines(drop, save=None):
    """Every ``sha256  name`` line, in a fixed order; each stream is also
    written to the directory ``save``, if given, in the file named by its hash."""
    for name, stream in _named_streams(drop):
        digest = hashlib.sha256(stream).hexdigest()
        if save:
            Path(save, digest).write_bytes(stream)
        yield f"{digest}  {name}"


def _by_name(lines) -> dict[str, str]:
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def _pins(theirs: dict[str, str], ours: dict[str, str]) -> None:
    """Print each ``tests/test_cli.py`` entry whose stream differs, old -> new,
    in the order of that file.  A stream that one side lacks reads as ``-``."""
    golden = _golden_cli_module()
    labels = {}
    for fmt, pins in (
        ("structured", golden.GOLDEN_VERIFY_STREAMS),
        ("text", golden.GOLDEN_VERIFY_TEXT_STREAMS),
    ):
        for seed, max_size in pins:
            labels[f"verify {fmt} seed={seed} max_size={max_size}"] = f"{fmt} ({seed}, {max_size})"
    for command, doc, fmt in golden.GOLDEN_DATA_STREAMS:
        labels[f"{command} {fmt} {doc}"] = f"{command} {doc} {fmt}"
    # a pin is a prefix of the hash of stdout, so an exit code alone moves none
    theirs, ours = (
        {name.rsplit(" exit=", 1)[0]: digest for name, digest in side.items()}
        for side in (theirs, ours)
    )
    for name, label in labels.items():
        old, new = theirs.get(name, "-")[:12], ours.get(name, "-")[:12]
        if old != new:
            print(f"{label}: {old} -> {new}")


def _laws(lines):
    """(record name, line) for each line of a ``verify`` stream."""
    law = "-"
    for line in lines:
        if line.startswith(b"{"):
            law = json.loads(line)["law"]
        elif not line.startswith(b" "):
            law = line.split(b": ", 1)[0].decode() if b": " in line else "-"
        yield law, line


def _show(name: str, old: Path, new: Path) -> None:
    """Under a stream that differs, its first differing line on each side and,
    for ``verify``, the lines of each record name that differ."""
    if not old.exists():  # DIR's tool predates STREAM_HASHES_SAVE
        return
    sides = [path.read_bytes().split(b"\n") for path in (old, new)]
    first = next(i for i, (a, b) in enumerate(itertools.zip_longest(*sides)) if a != b)
    for mark, lines in zip("-+", sides):
        line = repr(lines[first])[2:-1] if first < len(lines) else "(no such line)"
        print(f"  {mark} {line[:200]}")
    if name.startswith("verify "):
        old_laws, new_laws = (collections.Counter(_laws(lines)) for lines in sides)
        gone = collections.Counter(law for law, _ in (old_laws - new_laws).elements())
        came = collections.Counter(law for law, _ in (new_laws - old_laws).elements())
        for law in sorted(gone.keys() | came.keys()):
            print(f"  {law}: -{gone[law]} +{came[law]}")


def _against(other: Path, drop) -> int:
    """Print each stream that differs from the checkout at ``other``, with its
    lines that do, then each pinned entry that does; 1 if any stream differs.
    Both sides drop ``drop``."""
    with tempfile.TemporaryDirectory() as save:
        proc = subprocess.run(
            [sys.executable, str(other / "tools" / "stream_hashes.py")]
            + (["--drop", *drop] if drop else []),
            capture_output=True,
            text=True,
            env={**os.environ, SAVE: save},
        )
        if proc.returncode:
            print(f"the tool of {other} failed:\n{proc.stderr}", end="", file=sys.stderr)
            return 2
        theirs = _by_name(proc.stdout.splitlines())
        ours = _by_name(_lines(drop, save))
        differ = 0
        for name in [*ours, *(name for name in theirs if name not in ours)]:
            if name not in theirs:
                print(f"{name}  (only here)")
            elif name not in ours:
                print(f"{name}  (only in {other})")
            elif ours[name] != theirs[name]:
                print(name)
                _show(name, Path(save, theirs[name]), Path(save, ours[name]))
            else:
                continue
            differ += 1
    _pins(theirs, ours)
    print(f"{differ} of {len(ours.keys() | theirs.keys())} streams differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--against",
        type=Path,
        metavar="DIR",
        help="compare with the tool of the checkout at DIR, run in a child process",
    )
    parser.add_argument(
        "--drop",
        nargs="+",
        default=(),
        metavar="NAME",
        help="leave the records of these names out of every verify stream",
    )
    args = parser.parse_args(argv)
    if args.against is not None:
        return _against(args.against, args.drop)
    for line in _lines(args.drop, os.environ.get(SAVE)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
