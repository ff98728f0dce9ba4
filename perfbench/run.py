"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``; nothing needs installing.  BLAS is pinned to one thread before
numpy loads.  The run sets the workload up several times (median is
``setup_s``), then runs whole cycles of the workload's op schedule in a
closed loop with one client.  The number of cycles is the one that fills
``--seconds`` on the reference machine (``CYCLE_S``), so it does not depend
on how fast the machine is.  Each op's output is checked; failures are
counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
each op untraced and traced (same inputs), installs the span wrappers only
around the traced one, and reports the per-layer metrics.  The last stdout
line is the result object; the line before it and a file under
``perfbench/out/`` carry the environment and per-case rows.

The end-to-end times are reported at the reference machine's speed.  A
shared host has phases, seconds to minutes long, in which other tenants slow
it down; on the 2-vCPU VM the bounds were set on, interpreter work ran up to
1.8x slower in them and numpy work up to 1.5x.  So a
fixed calibration loop that never calls the package runs after every timed
step (set-up, op or cold start): a set-and-hash loop for workloads whose
ops are mostly interpreter work, a small matrix loop for those that are
mostly numpy work (``Workload.calibration``).  Every time the run reports
is its wall time multiplied by the loop's reference time over the loop's
median time in the run.  The raw wall times and the factor are in the
result file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# One CPU for the whole run, cold-start processes included (they inherit
# it), so the calibration loop measures the CPU the timed work runs on.
NPROC = len(os.sched_getaffinity(0))
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_ROUNDS = 5
COLD_RUNS = 20
TAIL_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("cold_start_s", "s"),
]

# Wall seconds of one cycle of each workload's ops, checks included, and of
# one cold start, on the machine the bounds were set on (README, "Noise").
# A run's cycle count comes from --seconds and these constants, never from
# the clock, so every run of a workload makes the same ops on any machine
# and op_tail_s is always the same percentile.
CYCLE_S = {"verify-grid": 1.6, "cli-docs": 8.0, "algebra-session": 0.9}
COLD_START_S = 0.25


if not (SRC / "cstarlab" / "__init__.py").is_file():
    print(f"no package source at {SRC}; run from the root of a cstarlab checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import ctypes  # noqa: E402
import glob  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from cstarlab import verify  # noqa: E402

from tracing import Instrumentation, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, hausdorff, normal_matrix  # noqa: E402

# name -> (unit, how it is computed).  Kinds: "self" and "incl" are seconds
# per traced op (self time, or outermost inclusive time, of one span name);
# "calls" and "counter" are exact counts over the first traced cycle.
PER_LAYER = {
    "interchange.parse_s": ("s/op", ("self", "interchange.parse")),
    "interchange.dump_s": ("s/op", ("incl", "interchange.dump")),
    "interchange.bytes_in": ("count", ("counter", "interchange.bytes_in")),
    "interchange.parse_mb_per_s": ("MB/s", ("parse_rate", None)),
    "algebra.construct_s": ("s/op", ("self", "algebra.construct")),
    "algebra.eigh_s": ("s/op", ("incl", "algebra.eigh")),
    "algebra.eigh_calls": ("count", ("calls", "algebra.eigh")),
    "algebra.constructions": ("count", ("calls", "algebra.construct")),
    "algebra.binop_calls": ("count", ("calls", "algebra.binop")),
    "algebra.binop_s": ("s/op", ("incl", "algebra.binop")),
    "algebra.eq_calls": ("count", ("calls", "algebra.eq")),
    "algebra.eq_s": ("s/op", ("incl", "algebra.eq")),
    "algebra.materialize_calls": ("count", ("calls", "algebra.materialize")),
    "algebra.materialize_s": ("s/op", ("incl", "algebra.materialize")),
    "spectra.dedup_s": ("s/op", ("incl", "spectra.dedup")),
    "spectra.dedup_points_in": ("count", ("counter", "spectra.dedup_points_in")),
    "spectra.dedup_points_out": ("count", ("counter", "spectra.dedup_points_out")),
    "spectral.neumann_s": ("s/op", ("incl", "spectral.neumann")),
    "spectral.neumann_terms": ("count", ("counter", "spectral.neumann_terms")),
    "spectral.neumann_terms_ratio": ("ratio", ("neumann_ratio", None)),
    "spectral.perturbation_s": ("s/op", ("incl", "spectral.perturbation")),
    "spectral.polynomial_s": ("s/op", ("incl", "spectral.polynomial")),
    "spectral.classify_s": ("s/op", ("incl", "spectral.classify")),
    "spectral.spectrum_s": ("s/op", ("incl", "spectral.spectrum")),
    "spectral.opnorm_s": ("s/op", ("incl", "spectral.opnorm")),
    "spectral.opnorm_calls": ("count", ("calls", "spectral.opnorm")),
    "gelfand.transform_s": ("s/op", ("incl", "gelfand.transform")),
    "ideals.lattice_calls": ("count", ("calls", "ideals.lattice")),
    "ideals.lattice_s": ("s/op", ("incl", "ideals.lattice")),
    "ideals.quotient_s": ("s/op", ("incl", "ideals.quotient")),
    "duality.equivalence_s": ("s/op", ("incl", "duality.equivalence")),
    "duality.naturality_s": ("s/op", ("incl", "duality.naturality")),
    "sampling.draw_s": ("s/op", ("incl", "sampling.draw")),
    **{
        f"verify.law.{law}_s": ("s/op", ("incl", f"verify.law.{law}"))
        for law, _ in verify.LAWS
    },
    "verify.records": ("count", ("counter", "verify.records")),
    "verify.failed_records": ("count", ("counter", "verify.failed_records")),
    "cli.format_s": ("s/op", ("self", "cli.run")),
    "trace.overhead_frac": ("fraction", ("overhead", None)),
    "trace.uncovered_frac": ("fraction", ("uncovered", None)),
    "inputs.hash": ("hash", ("input_hash", None)),
}


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def blas_threads():
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": NPROC,
        "machine": platform.machine(),
        "os": f"{platform.system()} {platform.release()}",
        "git_commit": git_commit(),
    }


def calibrate_python() -> float:
    """Wall seconds of a fixed pure-Python loop of sets and hashing.

    The collector is off while it runs and every set it makes is freed at
    once, so the heap the program left behind cannot change how long it takes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        seen = set()
        total = 0
        for i in range(20000):
            seen.add(frozenset((i % 7, i % 11, i % 13)))
            total += hash((i, i >> 1)) & 7
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


_CALIBRATION_MATRIX = np.random.default_rng(0).normal(size=(128, 128))


def calibrate_numpy() -> float:
    """Wall seconds of a fixed loop of small matrix products and ufuncs."""
    start = perf_counter()
    x = _CALIBRATION_MATRIX
    for _ in range(40):
        x = np.tanh(x @ _CALIBRATION_MATRIX * 0.01)
    return perf_counter() - start


# Each loop with its median wall seconds on the machine the bounds were set
# on, outside its slow phases: the speed the end-to-end times are scaled to.
CALIBRATIONS = {
    "python": (calibrate_python, 0.0110),
    "numpy": (calibrate_numpy, 0.0052),
}


class Speed:
    """The machine's speed over a run, from a calibration loop run between timed steps."""

    def __init__(self, kind: str):
        self.loop, self.reference_s = CALIBRATIONS[kind]
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(self.loop())

    def factor(self) -> float:
        """Multiplier that takes this run's wall times to the reference speed."""
        return self.reference_s / statistics.median(self.samples)


class Run:
    """Op timings and failures of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.cases: list = []
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, params, fn):
        """Time ``fn(params)``, check its output; returns (result, seconds) or None."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(params)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failures.append(f"{params!r}: {type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        try:
            self.workload.check(params, result)
        except Exception as exc:  # a check that raises is a failed check
            self.failures.append(f"{params!r}: check: {type(exc).__name__}: {exc}")
            return None
        return result, elapsed

    def record(self, params, elapsed: float) -> None:
        self.times.append(elapsed)
        self.cases.append(params)


def planned_ops(workload, seconds: float) -> int:
    """Ops in whole cycles that fill ``seconds`` on the reference machine."""
    return workload.cycle * max(1, round(seconds / CYCLE_S[workload.name]))


class ColdStart:
    """Wall time of ``python -m cstarlab spectrum`` on a 2x2 document."""

    def __init__(self, workdir: str, seed: int):
        rng = np.random.default_rng([seed, 7])
        self.eigenvalues = np.array([-1.0 + 0.5j, 1.0 - 0.25j]) * rng.uniform(0.5, 2.0)
        M = normal_matrix(rng, self.eigenvalues)
        path = os.path.join(workdir, "cold.json")
        with open(path, "w", encoding="utf-8") as handle:
            entries = [[z.real, z.imag] for z in M.reshape(-1)]
            json.dump({"kind": "normal_matrix", "n": 2, "entries": entries}, handle)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-m", "cstarlab", "spectrum", "--input", path, "--format", "structured"]
        self.times: list[float] = []
        self.attempts = 0

    def once(self, run: Run, speed: Speed) -> None:
        self.attempts += 1
        run.attempted += 1
        start = perf_counter()
        try:
            proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True, timeout=120)
            elapsed = perf_counter() - start
            speed.sample()
            if proc.returncode != 0:
                raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()}")
            points = json.loads(proc.stdout)["points"]
            gap = hausdorff([complex(*p) for p in points], self.eigenvalues)
            if gap > 1e-8:
                raise CheckFailed(f"Hausdorff distance {gap:.3e}")
        except (CheckFailed, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
            run.failures.append(f"cold start: {exc}")
            return
        self.times.append(elapsed)


def row(case: str, layer: str, n, dim, times) -> dict:
    """One ROADMAP row: {case, layer, n, dim, median_s, iqr_s, rounds}."""
    q1, q2, q3 = quartiles(times)
    return {
        "case": case,
        "layer": layer,
        "n": n,
        "dim": dim,
        "median_s": q2,
        "iqr_s": q3 - q1,
        "rounds": len(times),
    }


def case_rows(workload, run: Run) -> list[dict]:
    """End-to-end rows per op case, then one for the whole workload."""
    grouped: dict[tuple, list[float]] = {}
    for params, t in zip(run.cases, run.times):
        grouped.setdefault(workload.case(params), []).append(t)
    rows = [
        row(f"{workload.name}/{case}", "end_to_end", n, dim, times)
        for (case, n, dim), times in grouped.items()
    ]
    rows.append(row(workload.name, "end_to_end", None, None, run.times))
    return rows


def tail(times: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    count = len(ordered)
    if count > TAIL_BEYOND:
        return {
            "value": ordered[count - TAIL_BEYOND - 1],
            "percentile": 100.0 * (count - TAIL_BEYOND) / count,
            "samples_beyond": TAIL_BEYOND,
            "ops": count,
        }
    return {"value": ordered[-1], "percentile": 100.0, "samples_beyond": 0, "ops": count}


def end_to_end(workload, seconds: float, setups, speed: Speed, workdir: str, seed: int):
    run = Run(workload)
    cold_start = ColdStart(workdir, seed)
    ops = planned_ops(workload, seconds - COLD_RUNS * COLD_START_S)
    began = perf_counter()
    for i in range(ops):
        params = workload.params(i)
        done = run.op(params, workload.run)
        speed.sample()
        if done is not None:
            run.record(params, done[1])
        # cold starts are spread evenly over the ops so that they sample the
        # machine at the same moments as the ops do
        while cold_start.attempts < (i + 1) * COLD_RUNS // ops:
            cold_start.once(run, speed)
    ops_wall_s = perf_counter() - began
    factor = speed.factor()
    wall_p50 = quartiles(run.times or [float("nan")])[1]
    run.times = [t * factor for t in run.times]
    cold = [t * factor for t in cold_start.times]
    times = run.times or [float("nan")]
    _, p50, _ = quartiles(times)
    tail_info = tail(times)
    ok = run.attempted - len(run.failures)
    values = {
        "setup_s": statistics.median(setups) * factor,
        "op_p50_s": p50,
        "op_tail_s": tail_info["value"],
        "ops_per_s": len(run.times) / sum(times),
        "ok_frac": ok / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_start_s": statistics.median(cold) if cold else float("nan"),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    rows = case_rows(workload, run)
    detail = {
        "op_tail_s": tail_info,
        "cold_start_runs": cold,
        "ops_wall_s": ops_wall_s,
        "wall_op_p50_s": wall_p50,
        "calibration_s": quartiles(speed.samples),
        "speed_factor": factor,
    }
    return run, metrics, rows, detail


def traced(workload, seconds: float, seed: int):
    run = Run(workload)
    tracer = Tracer()
    traced_times: list[float] = []
    uncovered: list[float] = []
    per_op: list[dict] = []
    first: dict = {}  # aggregates at the end of the first cycle

    # each op runs twice, untraced and traced
    for i in range(planned_ops(workload, seconds / 2)):
        params = workload.params(i)
        plain = run.op(params, workload.run)
        if plain is not None:
            run.record(params, plain[1])
        tracer.request = f"{workload.name}#{i}"
        before = tracer.snapshot()
        spans = {}

        def traced_run(p):
            root = tracer.enter("op")
            try:
                return workload.run_traced(p, tracer)
            finally:
                spans["uncovered"] = tracer.exit(root)

        # installing the wrappers is not part of the timed op
        with Instrumentation(tracer):
            done = run.op(params, traced_run)
        if done is not None and plain is not None:
            try:
                workload.compare(plain[0], done[0])
            except CheckFailed as exc:
                run.failures.append(f"{params!r}: traced differs: {exc}")
                done = None
        if done is not None:
            traced_times.append(done[1])
            uncovered.append(spans["uncovered"])
            after = tracer.snapshot()
            per_op.append(
                {
                    name: after["inclusive"][name] - before["inclusive"].get(name, 0.0)
                    for name in after["inclusive"]
                    if name != "op"
                }
            )
        if i == workload.cycle - 1:
            first.update(tracer.snapshot())

    ops = max(1, len(traced_times))
    values = {}
    for name, (unit, (kind, key)) in PER_LAYER.items():
        if kind == "self":
            value = tracer.self_time.get(key, 0.0) / ops
        elif kind == "incl":
            value = tracer.inclusive.get(key, 0.0) / ops
        elif kind == "calls":
            value = first["calls"][key]
        elif kind == "counter":
            value = first["counters"][key]
        elif kind == "parse_rate":
            parse = tracer.self_time.get("interchange.parse", 0.0)
            value = tracer.counters["interchange.bytes_in"] / 1e6 / parse if parse else 0.0
        elif kind == "neumann_ratio":
            predicted = tracer.counters["spectral.neumann_terms_predicted"]
            used = tracer.counters["spectral.neumann_terms_traced"]
            value = used / predicted if predicted else 0.0
        elif kind == "overhead":
            value = quartiles(traced_times)[1] / quartiles(run.times)[1] - 1.0
        elif kind == "uncovered":
            value = sum(uncovered) / sum(traced_times) if traced_times else float("nan")
        else:
            value = workload.input_hash()
        values[name] = {"value": value, "unit": unit}
    rows = case_rows(workload, run)
    for name in sorted({k for op in per_op for k in op}):
        rows.append(row(workload.name, name, None, None, [op.get(name, 0.0) for op in per_op]))
    trace_path = OUT / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write(str(trace_path))
    detail = {"traced_ops": len(traced_times), "spans_file": str(trace_path.relative_to(ROOT))}
    return run, values, rows, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        speed = Speed(WORKLOADS[args.workload].calibration)
        setups = []
        for _ in range(SETUP_ROUNDS):
            workload = WORKLOADS[args.workload](args.seed, workdir)
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
            speed.sample()
        if args.trace:
            run, metrics, rows, detail = traced(workload, args.seconds, args.seed)
        else:
            run, metrics, rows, detail = end_to_end(
                workload, args.seconds, setups, speed, workdir, args.seed
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "input_hash": workload.input_hash(),
        "setup_wall_s": setups,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures[:20],
        "metrics": metrics,
        "rows": rows,
        **detail,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for message in run.failures[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({key: report[key] for key in ("environment", "input_hash", *detail)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
