"""The three closed-loop workloads and their output checks.

Every workload derives all of its inputs from the workload seed: set-up
inputs from ``default_rng([seed, tag])`` and the inputs of op ``i`` from
``default_rng([seed, i])``, so op ``i`` is the same whatever ran before it.
The package only ever sees the generated inputs.

The checks use numpy directly (``polyval``, ``svd``, closed-form
reciprocals, a local Hausdorff distance) and the eigenvalues and eigenbasis
chosen when a matrix was built; they never call back into the code being
measured.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

import numpy as np

# Package functions are called through their modules so that the traced
# run's attribute patches see the calls.
from cstarlab import cli, gelfand, ideals, spectral, verify
from cstarlab.algebra import FunctionAlgebra, NormalGeneratorAlgebra
from cstarlab.spaces import FiniteSpace

SETUP_TAG = 2**32 - 1


class CheckFailed(Exception):
    """An op finished but its output disagrees with the independent answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def hausdorff(a, b) -> float:
    """Hausdorff distance, in row blocks so the check adds little to peak RSS."""
    pa = np.asarray(a, dtype=complex).reshape(-1)
    pb = np.asarray(b, dtype=complex).reshape(-1)

    def directed(x, y) -> float:
        return max(
            float(np.abs(x[i : i + 128, None] - y[None, :]).min(axis=1).max())
            for i in range(0, len(x), 128)
        )

    return max(directed(pa, pb), directed(pb, pa))


def canonical(values) -> np.ndarray:
    """Values sorted by (real, imaginary), the package's character order."""
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


def distinct_values(rng, count: int, min_gap: float = 1e-6) -> np.ndarray:
    """Complex values in the unit square whose real parts are well apart.

    Separated real parts keep the canonical order of the known values equal
    to the order of the computed eigenvalues, so index labels line up.
    """
    while True:
        values = rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)
        if count < 2 or np.min(np.diff(np.sort(values.real))) > min_gap:
            return values


def unitary(rng, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def normal_matrix(rng, eigenvalues) -> np.ndarray:
    U = unitary(rng, len(eigenvalues))
    return (U * eigenvalues) @ U.conj().T


def repeated(rng, distinct, n: int) -> np.ndarray:
    """n eigenvalues using every distinct value at least once."""
    picks = np.concatenate(
        [np.arange(len(distinct)), rng.integers(0, len(distinct), n - len(distinct))]
    )
    return distinct[rng.permutation(picks)]


class Workload:
    name = ""
    cycle = 1
    # the calibration loop (run.CALIBRATIONS) for the kind of work the ops do
    calibration = "python"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()

    def op_rng(self, i: int):
        return np.random.default_rng([self.seed, i])

    def setup(self) -> None:
        raise NotImplementedError

    def params(self, i: int):
        raise NotImplementedError

    def case(self, params) -> tuple[str, int, int | None]:
        """(case label, n, dim) for the per-case rows of the result file."""
        raise NotImplementedError

    def run(self, params):
        raise NotImplementedError

    def run_traced(self, params, tracer):
        return self.run(params)

    def compare(self, plain, traced) -> None:
        """Raise CheckFailed if the traced op's result differs from the plain one."""

    def check(self, params, result) -> None:
        raise NotImplementedError

    def input_hash(self) -> int:
        """48-bit digest of the set-up inputs and the first cycle's inputs."""
        digest = self.digest.copy()
        for i in range(self.cycle):
            digest.update(repr(self.params(i)).encode())
        return int(digest.hexdigest()[:12], 16)


class VerifyGrid(Workload):
    """One op is ``verify.run_suite(seed, max_size)``, max_size cycling."""

    name = "verify-grid"
    SIZES = (4, 8, 12)
    cycle = len(SIZES)

    def setup(self) -> None:
        # lets numpy's lazy linalg initialisation finish before timing
        records = verify.run_suite(seed=self.seed, max_size=1)
        self.check(None, records)

    def params(self, i: int):
        return int(self.op_rng(i).integers(0, 2**31)), self.SIZES[i % self.cycle]

    def case(self, params):
        return f"max_size={params[1]}", params[1], None

    def run(self, params):
        seed, max_size = params
        return verify.run_suite(seed=seed, max_size=max_size)

    def run_traced(self, params, tracer):
        # the same walk as run_suite, one span per law
        seed, max_size = params
        rng = np.random.default_rng(seed)
        records = []
        for law, fn in verify.LAWS:
            frame = tracer.enter(f"verify.law.{law}")
            try:
                out = fn(rng, 1e-9, max_size)
            finally:
                tracer.exit(frame)
            records.extend(out)
        tracer.counters["verify.records"] += len(records)
        tracer.counters["verify.failed_records"] += sum(not r.passed for r in records)
        return records

    def compare(self, plain, traced) -> None:
        require(plain == traced, "traced law walk differs from run_suite")

    def check(self, params, records) -> None:
        require(len(records) > 0, "no records")
        failing = sorted({r.law for r in records if not r.passed})
        require(not failing, f"laws failed: {failing}")
        require(all(np.isfinite(r.defect) for r in records), "non-finite defect")


class Document:
    """A document on disk and what the benchmark knows about its element."""

    def __init__(self, label: str, path: str, n: int, values, labels):
        self.label = label
        self.path = path
        self.n = n
        # values[k] is the element's value at the character labelled labels[k]
        self.values = np.asarray(values, dtype=complex)
        self.labels = list(labels)
        self.by_label = dict(zip(self.labels, self.values))
        self.zero_set: tuple[str, ...] = ()


COMMANDS = ("spectrum", "classify", "characters", "calculus", "quotient")
FORMATS = ("text", "structured")
CLASSIFY_TOL = 1e-9
VALUE_TOL = 1e-8


def _pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


class CliDocs(Workload):
    """One op is an in-process ``cli.run`` on a document written at set-up."""

    name = "cli-docs"
    N = 256
    REPEATED_DISTINCT = 24
    POINTS = 2048
    ZERO_SET = 8

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, SETUP_TAG])
        docs = []
        distinct = distinct_values(rng, self.N)
        docs.append(self._matrix_doc("normal_distinct", rng, distinct, distinct))
        few = distinct_values(rng, self.REPEATED_DISTINCT)
        docs.append(
            self._matrix_doc("normal_repeated", rng, repeated(rng, few, self.N), few)
        )
        points = [f"p{k}" for k in range(self.POINTS)]
        values = distinct_values(rng, self.POINTS, min_gap=0.0)
        self._write(
            "functions",
            {"kind": "function_algebra", "points": points, "values": [_pair(v) for v in values]},
        )
        docs.append(
            Document("functions", self._path("functions"), self.POINTS, values, points)
        )
        self.docs = docs
        self.coeffs = tuple(
            complex(c) for c in rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        )
        for doc in docs:
            picks = sorted(rng.choice(len(doc.labels), self.ZERO_SET, replace=False))
            doc.zero_set = tuple(doc.labels[k] for k in picks)
        self.combos = [
            (cmd, fmt, d) for cmd in COMMANDS for fmt in FORMATS for d in range(len(docs))
        ]
        self.cycle = len(self.combos)
        self.digest.update(repr((self.coeffs, [doc.zero_set for doc in docs])).encode())

    def _path(self, label: str) -> str:
        return os.path.join(self.workdir, f"{label}.json")

    def _write(self, label: str, doc: dict) -> None:
        text = json.dumps(doc)
        self.digest.update(text.encode())
        with open(self._path(label), "w", encoding="utf-8") as handle:
            handle.write(text)

    def _matrix_doc(self, label, rng, eigenvalues, distinct) -> Document:
        M = normal_matrix(rng, eigenvalues)
        n = M.shape[0]
        self._write(
            label,
            {"kind": "normal_matrix", "n": n, "entries": [_pair(v) for v in M.reshape(-1)]},
        )
        known = canonical(distinct)
        return Document(label, self._path(label), n, known, [str(k) for k in range(len(known))])

    def params(self, i: int):
        return self.combos[i % self.cycle]

    def case(self, params):
        cmd, fmt, d = params
        doc = self.docs[d]
        return f"{cmd}/{fmt}/{doc.label}", doc.n, len(doc.values)

    def config(self, params) -> cli.RunConfig:
        cmd, fmt, d = params
        return cli.RunConfig(
            command=cmd,
            input_path=self.docs[d].path,
            output_format=fmt,
            coefficients=self.coeffs if cmd == "calculus" else None,
            zero_set=self.docs[d].zero_set if cmd == "quotient" else None,
        )

    def run(self, params):
        out = io.StringIO()
        code = cli.run(self.config(params), out=out)
        return code, out.getvalue()

    def check(self, params, result) -> None:
        cmd, fmt, d = params
        code, text = result
        require(code == 0, f"exit code {code}")
        doc = self.docs[d]
        lines = text.splitlines()
        if fmt == "structured":
            getattr(self, f"_check_{cmd}_structured")(doc, [json.loads(s) for s in lines])
        else:
            getattr(self, f"_check_{cmd}_text")(doc, lines)

    # independent answers

    def _spectrum_ok(self, points, expected) -> None:
        require(len(points) == len(expected), f"{len(points)} points, expected {len(expected)}")
        gap = hausdorff(points, expected)
        require(gap <= VALUE_TOL, f"Hausdorff distance {gap:.3e}")

    def _polyval(self, doc) -> np.ndarray:
        return np.polyval(np.flip(np.asarray(self.coeffs)), doc.values)

    def _expected_classes(self, doc) -> dict[str, float]:
        v = doc.values
        sa = float(np.max(np.abs(v - v.conj())))
        return {
            "self_adjoint": sa,
            "unitary": float(np.max(np.abs(np.abs(v) ** 2 - 1.0))),
            "projection": max(float(np.max(np.abs(v * v - v))), sa),
            "positive": float(np.max(np.abs(np.abs(v) - v))),
        }

    def _classes_ok(self, doc, got: dict[str, tuple[bool, float]], rel_tol: float) -> None:
        expected = self._expected_classes(doc)
        require(set(got) == set(expected), f"classes {sorted(got)}")
        for name, defect in expected.items():
            member, reported = got[name]
            require(member == (defect <= CLASSIFY_TOL), f"{name} membership")
            gap = abs(reported - defect)
            require(gap <= VALUE_TOL + rel_tol * defect, f"{name} defect {reported} vs {defect}")

    def _characters_ok(self, doc, labels, values) -> None:
        self._spectrum_ok(values, doc.values)
        require(sorted(labels) == sorted(doc.labels), "character labels")
        known = np.array([doc.by_label[label] for label in labels])
        require(np.max(np.abs(values - known)) <= VALUE_TOL, "character values")

    def _quotient_ok(self, doc, zero_set, dimension, norm, values) -> None:
        zs = doc.zero_set
        require(list(zero_set) == list(zs), "zero set")
        require(dimension == len(zs), "quotient dimension")
        known = np.array([doc.by_label[label] for label in zs])
        expected_norm = float(np.max(np.abs(known)))
        require(abs(norm - expected_norm) <= VALUE_TOL, f"quotient norm {norm} vs {expected_norm}")
        require(np.max(np.abs(np.asarray(values) - known)) <= VALUE_TOL, "coset values")

    # structured format

    @staticmethod
    def _complex(pairs) -> np.ndarray:
        arr = np.asarray(pairs, dtype=float).reshape(-1, 2)
        return arr[:, 0] + 1j * arr[:, 1]

    def _check_spectrum_structured(self, doc, records) -> None:
        require(len(records) == 1 and records[0]["kind"] == "spectrum", "spectrum record")
        self._spectrum_ok(self._complex(records[0]["points"]), doc.values)

    def _check_classify_structured(self, doc, records) -> None:
        got = {
            r["class"]: (r["member"], r["defect"])
            for r in records
            if r["kind"] == "classification"
        }
        self._classes_ok(doc, got, VALUE_TOL)

    def _check_characters_structured(self, doc, records) -> None:
        self._characters_ok(
            doc, [r["label"] for r in records], self._complex([r["value"] for r in records])
        )

    def _check_calculus_structured(self, doc, records) -> None:
        require(len(records) == 2, "calculus records")
        dumped, spec = records
        expected = self._polyval(doc)
        if dumped["kind"] == "function_algebra":
            got = self._complex(dumped["values"])
            require(np.max(np.abs(got - expected)) <= VALUE_TOL, "p(a) values")
        else:
            require(len(dumped["entries"]) == doc.n * doc.n, "p(a) matrix size")
        require(hausdorff(self._complex(spec["points"]), expected) <= VALUE_TOL, "spectrum of p(a)")

    def _check_quotient_structured(self, doc, records) -> None:
        require(len(records) == 2, "quotient records")
        head, image = records
        self._quotient_ok(
            doc, head["zero_set"], head["dimension"], head["norm"], self._complex(image["values"])
        )

    # text format

    @staticmethod
    def _after(line: str, marker: str) -> str:
        require(marker in line, f"missing {marker!r}")
        return line.split(marker, 1)[1].strip()

    def _complex_list(self, text: str) -> np.ndarray:
        return np.array([complex(tok) for tok in text.split(", ")])

    def _check_spectrum_text(self, doc, lines) -> None:
        points = np.array([complex(self._after(s, "=")) for s in lines[1:]])
        require(lines[0].startswith(f"{len(points)} spectrum point(s)"), "spectrum header")
        self._spectrum_ok(points, doc.values)

    def _check_classify_text(self, doc, lines) -> None:
        got = {}
        for line in lines:
            if line.startswith("positivity fails"):
                continue
            name, rest = line.split(": ", 1)
            verdict, defect = rest.split(" (defect ")
            got[name] = (verdict == "yes", float(defect.rstrip(")")))
        # text prints defects with four significant digits
        self._classes_ok(doc, got, 1e-3)

    def _check_characters_text(self, doc, lines) -> None:
        labels = [self._after(s, " at ").split(": value")[0].strip("'") for s in lines]
        values = np.array([complex(self._after(s, ": value")) for s in lines])
        self._characters_ok(doc, labels, values)

    def _check_calculus_text(self, doc, lines) -> None:
        require(len(lines) == 2, "calculus lines")
        expected = self._polyval(doc)
        coords = self._complex_list(self._after(lines[0], "p(a) coordinates:"))
        require(hausdorff(coords, expected) <= VALUE_TOL, "p(a) coordinates")
        spec = self._complex_list(self._after(lines[1], "spectrum of p(a):"))
        require(hausdorff(spec, expected) <= VALUE_TOL, "spectrum of p(a)")

    def _check_quotient_text(self, doc, lines) -> None:
        require(len(lines) == 4, "quotient lines")
        self._quotient_ok(
            doc,
            self._after(lines[1], "zero set:").split(", "),
            int(self._after(lines[0], "quotient dimension:")),
            float(self._after(lines[3], "quotient norm:")),
            self._complex_list(self._after(lines[2], "coset values:")),
        )


class AlgebraSession(Workload):
    """Algebras are built once; one op runs a fixed chain in one of them."""

    name = "algebra-session"
    calibration = "numpy"
    # The n=512 algebras cost 10-20x more per op than the others.  Giving the
    # repeated-eigenvalue algebra two slots puts the median inside one
    # algebra's ops instead of on the gap between the cheap and dear ones.
    SCHEDULE = ("functions512", "distinct512", "repeated512", "distinct64", "repeated512")
    cycle = len(SCHEDULE)
    REPEATED_DISTINCT = 32
    NEUMANN_NORM = 0.7
    COEFFS = (0.5, -1.0, 0.25j, 1.0)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, SETUP_TAG])
        self.algebras = {}
        self.known_dim = {}
        self.algebras["functions512"] = FunctionAlgebra(
            FiniteSpace(tuple(f"x{k}" for k in range(512)))
        )
        self.known_dim["functions512"] = 512
        for label, n, count in (
            ("distinct512", 512, None),
            ("repeated512", 512, self.REPEATED_DISTINCT),
            ("distinct64", 64, None),
        ):
            if count is None:
                eigenvalues = distinct_values(rng, n)
            else:
                eigenvalues = repeated(rng, distinct_values(rng, count), n)
            U = unitary(rng, n)
            M = (U * eigenvalues) @ U.conj().T
            if label == "distinct64":
                self.basis = (U, eigenvalues)  # for the materialize check
            # construction sets peak RSS; hold no extra n=512 basis during it
            del U
            self.digest.update(M.tobytes())
            self.algebras[label] = NormalGeneratorAlgebra(M)
            self.known_dim[label] = count or n

    def params(self, i: int):
        return i, self.SCHEDULE[i % self.cycle]

    def case(self, params):
        algebra = self.algebras[params[1]]
        n = getattr(algebra, "dimension_n", algebra.dim)
        return params[1], n, algebra.dim

    def inputs(self, params) -> dict:
        i, label = params
        rng = self.op_rng(i)
        d = self.algebras[label].dim
        phase = lambda: np.exp(2j * np.pi * rng.uniform(0, 1, d))  # noqa: E731
        a = self.NEUMANN_NORM * rng.uniform(0, 1, d) * phase()
        a[rng.integers(0, d)] = self.NEUMANN_NORM * phase()[0]
        x = rng.uniform(0.8, 1.2, d) * phase()
        return {
            "a": a,
            "b": rng.uniform(-1, 1, d) + 1j * rng.uniform(-1, 1, d),
            "x": x,
            # |y - x| <= x/2 coordinatewise keeps the perturbation series inside
            # its radius with a fixed ratio, so its term count does not vary
            "y": x + 0.5 * x * rng.uniform(0, 1, d) * phase(),
            "u": phase(),
            "zero_set": sorted(rng.choice(d, max(1, d // 4), replace=False).tolist()),
        }

    def run(self, params):
        label = params[1]
        A = self.algebras[label]
        v = self.inputs(params)
        a, b = A.element(v["a"]), A.element(v["b"])
        mixed = (a * b + a) - 0.5 * b
        out = {
            "v": v,
            "dim": A.dim,
            "mixed": mixed.coords,
            "gram_norm": (mixed.star() * mixed).norm(),
        }
        out["neumann"] = spectral.neumann_inverse(a)[0].coords
        out["perturbation"] = spectral.perturbation_inverse(A.element(v["x"]), A.element(v["y"])).coords
        out["polynomial"] = spectral.apply_polynomial(self.COEFFS, a).coords
        out["classes"] = spectral.classify_element(A.element(v["u"])).flags
        out["spectrum"] = spectral.spectrum(a).points
        out["round_trip"] = gelfand.gelfand_inverse(A, gelfand.gelfand_transform(a)).coords
        q, projection = ideals.quotient(A, ideals.ideal_from_closed_set(A, v["zero_set"]))
        out["coset"] = projection(a).coords
        out["quotient_norm"] = q.quotient_norm(a)
        if label == "distinct64":
            dense = A.materialize(a)
            out["dense"] = dense
            out["operator_norm"] = spectral.operator_norm(dense)
        return out

    def check(self, params, out) -> None:
        label = params[1]
        v = out["v"]
        a, b = v["a"], v["b"]
        require(out["dim"] == self.known_dim[label], f"dim {out['dim']}")
        mixed = a * b + a - 0.5 * b
        require(np.max(np.abs(out["mixed"] - mixed)) <= 1e-12, "products and sums")
        gram = float(np.max(np.abs(mixed)) ** 2)
        require(abs(out["gram_norm"] - gram) <= 1e-12 * (1 + gram), "star and norm")
        inv = 1.0 / (1.0 - a)
        require(np.max(np.abs(out["neumann"] - inv)) <= VALUE_TOL, "neumann inverse")
        inv = 1.0 / v["y"]
        require(np.max(np.abs(out["perturbation"] - inv)) <= VALUE_TOL, "perturbation inverse")
        p = np.polyval(np.flip(np.asarray(self.COEFFS)), a)
        require(np.max(np.abs(out["polynomial"] - p)) <= 1e-12, "polynomial")
        u = v["u"]
        expected = {
            "self_adjoint": float(np.max(np.abs(u - u.conj()))) <= CLASSIFY_TOL,
            "unitary": True,
            "projection": float(np.max(np.abs(u - u.conj()))) <= CLASSIFY_TOL
            and float(np.max(np.abs(u * u - u))) <= CLASSIFY_TOL,
            "positive": float(np.max(np.abs(np.abs(u) - u))) <= CLASSIFY_TOL,
        }
        require(out["classes"] == expected, f"classes {out['classes']}")
        require(len(out["spectrum"]) == len(a), "spectrum size")
        require(hausdorff(out["spectrum"], a) <= 1e-12, "spectrum points")
        require(np.array_equal(out["round_trip"], a), "Gelfand round trip")
        zs = v["zero_set"]
        require(np.array_equal(out["coset"], a[zs]), "coset values")
        require(out["quotient_norm"] == float(np.max(np.abs(a[zs]))), "quotient norm")
        if "dense" in out:
            sigma = float(np.linalg.svd(out["dense"], compute_uv=False)[0])
            require(abs(out["operator_norm"] - sigma) <= VALUE_TOL * (1 + sigma), "operator norm")
            # distinct eigenvalues: character k is the k-th eigenvalue in canonical order
            U, eigenvalues = self.basis
            rank = np.empty(len(eigenvalues), dtype=int)
            rank[np.lexsort((eigenvalues.imag, eigenvalues.real))] = np.arange(len(eigenvalues))
            expected = (U * a[rank]) @ U.conj().T
            require(np.max(np.abs(out["dense"] - expected)) <= VALUE_TOL, "materialize")


WORKLOADS = {w.name: w for w in (VerifyGrid, CliDocs, AlgebraSession)}
