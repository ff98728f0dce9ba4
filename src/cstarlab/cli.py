"""Command line interface.

Six commands: ``spectrum``, ``classify``, ``calculus``, ``quotient``,
``characters`` operate on one interchange document; ``verify`` runs the
seeded law suite and needs no input.  Exit codes: 0 success, 1 a verified
law failed, 2 invalid input or configuration.

Structured output (``--format structured``) is a stream of single-line
JSON records; given the same input, seed, and tolerance the bytes are
identical across runs, which makes golden-file diffing trivial.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass

# gelfand, ideals and verify serve one command each and are imported in it,
# so that a cold start loads only the modules its command runs
from .errors import CstarError, NonFinite
from .interchange import complex_pairs, document_to_json, write_element
from .interchange import load_document, load_path
from .spectra import DEFAULT_MERGE_TOL
from .spectral import apply_polynomial, classify_element, spectrum

__all__ = ["RunConfig", "run", "main", "COMMANDS"]

FORMATS = ("text", "structured")
# verify draws more and larger matrices as --max-size grows, and its work grows
# faster than the size cubed; far above this bound one dense matrix needs gigabytes
MAX_VERIFY_SIZE = 256


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; produced by ``main`` from argv."""

    command: str
    input_path: str | None = None
    inline: str | None = None
    tol: float = DEFAULT_MERGE_TOL
    seed: int = 0
    max_size: int = 8
    output_format: str = "text"
    coefficients: tuple[complex, ...] | None = None
    zero_set: tuple[str, ...] | None = None


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _fmt_all(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _fail(message: str) -> int:
    """Report bad input or configuration on stderr; the exit code is 2."""
    # on one line: a document's label can hold a line break, which repr escapes
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in message), file=sys.stderr)
    return 2


def _json_number(x: float) -> float | None:
    """``x``, or None where it is inf or NaN, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def _emit(out, record: dict) -> None:
    out.write(document_to_json(record) + "\n")


def _load_input(config: RunConfig):
    """The input's element; a file's or stdin's text, which can be megabytes, is
    a temporary, freed before the algebra is built (``--inline`` text is not)."""
    if config.inline is not None:
        return load_document(config.inline)
    if config.input_path is not None:
        return load_path(config.input_path)
    return load_document(sys.stdin.read())


def run(config: RunConfig, out=None) -> int:
    """Execute one configuration; returns the process exit code."""
    out = out if out is not None else sys.stdout
    if config.command not in COMMANDS:
        return _fail(f"unknown command {config.command!r}")
    if config.output_format not in FORMATS:
        return _fail(f"unknown format {config.output_format!r}")
    if not 0 < config.tol < math.inf:
        return _fail("--tol must be positive and finite")
    if config.seed < 0:
        return _fail("--seed must be non-negative")
    if config.max_size < 1:
        return _fail("--max-size must be at least 1")
    if config.max_size > MAX_VERIFY_SIZE:
        return _fail(f"--max-size must be at most {MAX_VERIFY_SIZE}")
    if config.input_path is not None and config.inline is not None:
        return _fail("give one of --input and --inline, not both")

    if config.command == "verify":
        return _cmd_verify(config, out)

    # a data command builds only acyclic containers, all freed by reference counting, so
    # the collector is paused; gc state is process-wide: run undoes only its change
    paused = gc.isenabled()
    gc.disable()
    try:
        try:
            element = _load_input(config)
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read input: {exc}")
        return _DATA_COMMANDS[config.command](config, element, out)
    except CstarError as exc:
        return _fail(f"invalid input: {exc}")
    finally:
        if paused:
            gc.enable()


def _spectrum_record(points, tol: float) -> dict:
    return {"kind": "spectrum", "merge_tol": tol, "points": complex_pairs(points)}


def _cmd_spectrum(config: RunConfig, element, out) -> int:
    points = spectrum(element, config.tol).points
    if config.output_format == "structured":
        _emit(out, _spectrum_record(points, config.tol))
    else:
        out.write(f"{len(points)} spectrum point(s), merge tolerance {config.tol:g}\n")
        for i, p in enumerate(points):
            out.write(f"  lambda[{i}] = {_fmt(p)}\n")
    return 0


def _cmd_classify(config: RunConfig, element, out) -> int:
    report = classify_element(element, config.tol)
    defects = report.witness_tolerances
    offender = report.positive_offender
    if config.output_format == "structured":
        for name in sorted(report.flags):
            # a defect too large for a float is inf; the flag stands all the same
            _emit(
                out,
                {
                    "kind": "classification",
                    "class": name,
                    "member": report.flags[name],
                    "defect": _json_number(defects[name]),
                },
            )
        if offender is not None:
            value = complex_pairs([offender])[0]
            _emit(out, {"kind": "positive_offender", "value": value})
    else:
        for name in sorted(report.flags):
            verdict = "yes" if report.flags[name] else "no"
            out.write(f"{name}: {verdict} (defect {defects[name]:.3e})\n")
        if offender is not None:
            out.write(f"positivity fails at character value {_fmt(offender)}\n")
    return 0


def _cmd_characters(config: RunConfig, element, out) -> int:
    from .gelfand import characters, gelfand_transform
    values = gelfand_transform(element).coords
    chars = characters(element.algebra)
    if config.output_format == "structured":
        pairs = complex_pairs(values)
        for chi in chars:
            _emit(
                out,
                {
                    "kind": "character",
                    "index": chi.index,
                    "label": chi.label,
                    "value": pairs[chi.index],
                },
            )
    else:
        for chi in chars:
            out.write(
                f"character {chi.index} at {chi.label!r}: "
                f"value {_fmt(values[chi.index])}\n"
            )
    return 0


def _cmd_calculus(config: RunConfig, element, out) -> int:
    if not config.coefficients:
        return _fail("calculus needs --coeffs (ascending, e.g. '1,0,2')")
    result = apply_polynomial(config.coefficients, element)
    points = spectrum(result, config.tol).points
    if config.output_format == "structured":
        write_element(result, out)
        _emit(out, _spectrum_record(points, config.tol))
    else:
        out.write(f"p(a) coordinates: {_fmt_all(result.coords)}\n")
        out.write(f"spectrum of p(a): {_fmt_all(points)}\n")
    return 0


def _cmd_quotient(config: RunConfig, element, out) -> int:
    from .ideals import ideal_from_closed_set, quotient
    if not config.zero_set:
        return _fail("quotient needs --zero-set (labels, e.g. 'p,q')")
    algebra = element.algebra
    ideal = ideal_from_closed_set(algebra, config.zero_set)
    q, projection = quotient(algebra, ideal)
    image = projection(element)
    norm = q.quotient_norm(element)
    if not math.isfinite(norm):
        raise NonFinite("quotient norm is not finite")
    if config.output_format == "structured":
        _emit(
            out,
            {
                "kind": "quotient",
                "dimension": q.dim,
                "zero_set": list(q.space.points),
                "norm": norm,
            },
        )
        write_element(image, out)
    else:
        out.write(f"quotient dimension: {q.dim}\n")
        out.write(f"zero set: {', '.join(q.space.points)}\n")
        out.write(f"coset values: {_fmt_all(image.coords)}\n")
        out.write(f"quotient norm: {norm:.12g}\n")
    return 0


def _cmd_verify(config: RunConfig, out) -> int:
    from .verify import run_suite, summarize
    records = run_suite(seed=config.seed, tol=config.tol, max_size=config.max_size)
    summary = summarize(records)
    failed = [row for row in summary if not row["pass"]]
    if config.output_format == "structured":
        for rec in records:
            _emit(
                out,
                {
                    "law": rec.law,
                    "instance": rec.instance,
                    "defect": _json_number(rec.defect),
                    "pass": rec.passed,
                },
            )
        for row in summary:
            worst = _json_number(row["max_defect"])
            _emit(out, {"kind": "summary", **row, "max_defect": worst})
    else:
        for row in summary:
            verdict = "pass" if row["pass"] else "FAIL"
            out.write(
                f"{row['law']}: {verdict} "
                f"({row['instances']} instances, max defect {row['max_defect']:.3e})\n"
            )
            if row["witness"]:
                out.write(f"  first failing instance: {row['witness']}\n")
        out.write(
            f"{len(summary) - len(failed)}/{len(summary)} laws verified "
            f"(seed={config.seed}, max_size={config.max_size}, tol={config.tol:g})\n"
        )
    return 1 if failed else 0


_DATA_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "calculus": _cmd_calculus,
    "quotient": _cmd_quotient,
    "characters": _cmd_characters,
}
COMMANDS = (*_DATA_COMMANDS, "verify")


def _parse_coeffs(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}")


def _parse_labels(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    """Options named after the ``RunConfig`` fields, with its defaults."""
    parser = argparse.ArgumentParser(
        prog="cstarlab",
        description="Spectra, classification, quotients, and law verification "
        "for finite commutative C*-algebras.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--input",
        dest="input_path",
        metavar="INPUT",
        help="path to an interchange JSON document (default: stdin)",
    )
    parser.add_argument(
        "--inline",
        help="interchange JSON document given directly on the command line",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=RunConfig.tol,
        help="absolute comparison and merge tolerance (default %(default)g)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=RunConfig.seed,
        help="seed for the verify suite (default %(default)s)",
    )
    parser.add_argument(
        "--max-size",
        type=int,
        default=RunConfig.max_size,
        help="largest space or matrix size exercised by verify (default %(default)s)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=RunConfig.output_format,
        dest="output_format",
        help="text for humans, structured for line-delimited JSON",
    )
    parser.add_argument(
        "--coeffs",
        type=_parse_coeffs,
        dest="coefficients",
        metavar="COEFFS",
        help="ascending polynomial coefficients for calculus, e.g. '1,0,2'",
    )
    parser.add_argument(
        "--zero-set",
        type=_parse_labels,
        help="comma-separated character labels defining the ideal for quotient",
    )
    return parser


def main(argv=None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))
