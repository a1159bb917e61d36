"""Command-line front end.

Subcommands:
    integrate   localize a class expression over a problem
    euler       Euler characteristic (expression fixed to the Euler class)
    check       vanishing / polynomiality certification

Problems come from built-in generators (--space sphere | cpn:<n> |
product:<spec>,<spec>) or from a JSON file (--file).  Results print as
canonical polynomial text, or as a JSON result document with --json.
All results go to stdout, diagnostics to stderr.

Exit codes: 0 success, 1 expression parse error, 2 invalid problem data or
direction, 3 localization sum is not a polynomial, 4 degree mismatch, 5 internal
error (an internal consistency check failed, or any other exception escaped),
6 the result has an integer too long to print (past str()'s digit limit), 74
stdout refused the output (as a full device does), 141 stdout was closed
before all output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .action import (
    FixedPoint,
    LocalizationProblem,
    NonGenericDirection,
    ValidationError,
    Weight,
    circle_reduce,
    validate,
)
from .classexpr import InhomogeneousExpression, ParseError, parse, render
from .exact import NotPolynomialError, RankMismatch, _form_text
from .localize import DegreeMismatch, localize, localize_euler, localize_top
from .spaces import projective_space, product, sphere_rotation

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_POLYNOMIAL = 3
EXIT_DEGREE = 4
EXIT_INTERNAL = 5
EXIT_LIMIT = 6

DOCUMENT_FORMAT = 1

# ASCII only: int() alone also reads '_' separators and other scripts' digits
_DIGITS = re.compile("[0-9]*")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


class DocumentError(Exception):
    """Problem file or space identifier is malformed."""


# ---------------------------------------------------------------------------
# problem sources

def parse_space(identifier):
    """Build a problem from a space identifier.

    Grammar: spec := 'sphere' | 'cpn:' <n> | 'product:' spec ',' spec
    (nested products associate greedily to the left argument).
    """
    try:
        problem, pos = _parse_space_at(identifier, 0)
    except RecursionError:
        raise DocumentError("space identifier nests too deeply") from None
    if pos != len(identifier):
        raise DocumentError(
            f"unexpected {identifier[pos:]!r} after space identifier"
        )
    return problem


def _parse_space_at(text, pos):
    if text.startswith("sphere", pos):
        return sphere_rotation(), pos + len("sphere")
    if text.startswith("cpn:", pos):
        start = pos + len("cpn:")
        pos = _DIGITS.match(text, start).end()
        try:
            n = int(text[start:pos])
        except ValueError:  # no digits, or more than int() reads
            raise DocumentError("cpn: needs a positive integer, e.g. cpn:2") from None
        if n < 1:
            raise DocumentError(f"cpn:{n} is not defined; need n >= 1")
        return projective_space(n), pos
    if text.startswith("product:", pos):
        pos += len("product:")
        left, pos = _parse_space_at(text, pos)
        if pos >= len(text) or text[pos] != ",":
            raise DocumentError("product: needs two comma-separated space identifiers")
        right, pos = _parse_space_at(text, pos + 1)
        return product(left, right), pos
    raise DocumentError(
        f"unknown space {text[pos:]!r}: expected sphere, cpn:<n>, or "
        f"product:<spec>,<spec>"
    )


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def document_to_problem(doc):
    """Decode a problem document (strict: integers, strings, arrays only)."""
    if not isinstance(doc, dict):
        raise DocumentError("problem document must be a JSON object")
    version = doc.get("format", DOCUMENT_FORMAT)
    if not _is_int(version) or version != DOCUMENT_FORMAT:
        raise DocumentError(f"unsupported format {version!r}")
    for key in ("torus_rank", "half_dim"):
        if not _is_int(doc.get(key)):
            raise DocumentError(f"{key} must be an integer")
    if not isinstance(doc.get("fixed_points"), list):
        raise DocumentError("fixed_points must be an array")
    points = []
    for entry in doc["fixed_points"]:
        if not isinstance(entry, dict):
            raise DocumentError("each fixed point must be a JSON object")
        name = entry.get("name")
        if not isinstance(name, str):
            raise DocumentError("fixed point name must be a string")
        weights = entry.get("weights")
        if not isinstance(weights, list):
            raise DocumentError(f"weights of point {name!r} must be an array")
        vectors = []
        for vector in weights:
            if not isinstance(vector, list) or not all(_is_int(c) for c in vector):
                raise DocumentError(
                    f"each weight of point {name!r} must be an array of integers"
                )
            vectors.append(Weight(tuple(vector)))
        sign = entry.get("sign", 1)
        if not _is_int(sign):
            raise DocumentError(f"sign of point {name!r} must be an integer")
        points.append(FixedPoint(name, tuple(vectors), sign))
    return LocalizationProblem(doc["torus_rank"], doc["half_dim"], tuple(points))


def load_problem_file(path):
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # the path itself is malformed, e.g. it holds a NUL
        raise DocumentError(f"cannot open {path!r}: {exc}") from None
    try:
        with handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    except ValueError:  # an integer with more digits than int() reads
        raise DocumentError(f"{path} has an integer literal that cannot be read") from None
    except RecursionError:
        raise DocumentError(f"{path} nests too deeply to read") from None
    return document_to_problem(doc)


# ---------------------------------------------------------------------------
# result documents

def _fraction_entry(fraction):
    return {
        "numerator": str(fraction.numerator),
        "denominator": [
            {"form": _form_text(form), "power": power}
            for form, power in fraction.sorted_denominator()
        ],
    }


def _per_point_entries(per_point_terms):
    return [{"name": label, **_fraction_entry(term)} for label, term in per_point_terms]


def result_document(result, include_per_point, expr_text):
    doc = {
        "format": DOCUMENT_FORMAT,
        "status": "polynomial",
        "value": str(result.value),
        "value_terms": [
            {
                "exponents": list(exponents),
                "numerator": coefficient.numerator,
                "denominator": coefficient.denominator,
            }
            for exponents, coefficient in result.value.sorted_terms()
        ],
        "expr": expr_text,
    }
    if include_per_point:
        doc["per_point"] = _per_point_entries(result.per_point_terms)
    return doc


def not_polynomial_document(error):
    return {
        "format": DOCUMENT_FORMAT,
        "status": "not_polynomial",
        "value": None,
        "value_terms": [],
        "residual": _fraction_entry(error.fraction),
        "per_point": _per_point_entries(error.per_point or ()),
    }


def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _terms_text(per_point_terms):
    return "".join(f"{label}: {term}\n" for label, term in per_point_terms)


def _fail(args, code, message):
    sys.stderr.write(f"error: {message}\n")
    if args.as_json:
        sys.stdout.write(_json({"format": DOCUMENT_FORMAT, "status": "error", "error": message}))
    return code


def _write(args, code, render, note=""):
    # render()'s text after `note`, or EXIT_LIMIT for an integer str() refuses
    try:
        text = render()
    except ValueError as exc:
        return _fail(args, EXIT_LIMIT, f"result too long to print: {exc}")
    sys.stderr.write(note)
    sys.stdout.write(text)
    return code


# ---------------------------------------------------------------------------
# subcommands

def _report(args, result, expr_text, line):
    # the result's text line is `line` with the value put in for {}
    def text():
        if args.as_json:
            return _json(result_document(result, args.terms, expr_text))
        terms = _terms_text(result.per_point_terms) if args.terms else ""
        return line.format(result.value) + "\n" + terms

    return _write(args, EXIT_OK, text)


def _cmd_integrate(args, problem):
    expr = parse(args.expr)
    result = (localize_top if args.top else localize)(problem, expr)
    return _report(args, result, render(expr), "{}")


def _cmd_euler(args, problem):
    result = localize_euler(problem)
    sys.stderr.write(f"fixed points: {len(problem.points)} (matches the localized integral)\n")
    return _report(args, result, "e", "{}")


def _cmd_check(args, problem):
    expr = parse(args.expr)
    result = localize(problem, expr)
    if result.class_degree < result.dimension:
        line = f"ok: degree {result.class_degree} < dimension {result.dimension}, sum is 0"
    else:
        line = "ok: polynomial, value = {}"
    return _report(args, result, render(expr), line)


# ---------------------------------------------------------------------------
# wiring

def _build_parser():
    class Parser(argparse.ArgumentParser):  # the subparsers inherit it
        def _print_message(self, message, file=None):
            # argparse ignores a failed write; let one to stdout (the help)
            # reach main's guard, and write usage errors as argparse does
            if message and file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

    parser = Parser(
        prog="torusloc",
        description=(
            "Exact fixed-point localization: evaluate equivariant integrals as "
            "sums over torus fixed points, certify cancellation, and extract "
            "characteristic numbers."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--space",
        metavar="ID",
        help="built-in space: sphere | cpn:<n> | product:<spec>,<spec>",
    )
    source.add_argument("--file", metavar="PATH", help="problem JSON file")
    common.add_argument(
        "--xi",
        metavar="A,B,...",
        help="integer direction; restrict to this circle subgroup first",
    )
    common.add_argument(
        "--terms", action="store_true", help="include the per-point term table"
    )
    common.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a JSON result document instead of plain text",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "integrate", parents=[common], help="localize a class expression"
    )
    p.add_argument("--expr", required=True, help="class expression, e.g. 'c1^2 + 3*c2'")
    p.add_argument(
        "--top",
        action="store_true",
        help="require top degree and print the scalar integral",
    )
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("euler", parents=[common], help="Euler characteristic")
    p.set_defaults(run=_cmd_euler)

    p = sub.add_parser(
        "check", parents=[common], help="vanishing / polynomiality certification"
    )
    p.add_argument("--expr", required=True, help="class expression to certify")
    p.set_defaults(run=_cmd_check)
    return parser


def _parse_direction(text):
    parts = text.split(",")
    try:
        if all(_INTEGER.fullmatch(part) for part in parts):
            return tuple(int(part) for part in parts)
    except ValueError:  # more digits than int() reads
        pass
    raise DocumentError(f"--xi must be comma-separated integers, got {text!r}")


def main(argv=None):
    try:
        try:
            return _execute(_build_parser().parse_args(argv))
        finally:  # also after --help, which leaves parse_args by SystemExit
            sys.stdout.flush()
    except BrokenPipeError:  # the reader left
        code = 141  # 128 + SIGPIPE, as a shell reports a producer killed by it
    except OSError as exc:  # the output refused the bytes, e.g. a full device
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        code = 74  # EX_IOERR of sysexits.h
    # send the rest to devnull so the exit flush cannot fail again
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _execute(args):
    try:
        if args.space is not None:
            problem = parse_space(args.space)
        else:
            problem = load_problem_file(args.file)
        validate(problem)
        if args.xi is not None:
            problem = circle_reduce(problem, _parse_direction(args.xi))
        return args.run(args, problem)
    except ParseError as exc:
        return _fail(args, EXIT_PARSE, f"expression parse error {exc}")
    except (RankMismatch, RuntimeError, AssertionError) as exc:
        # internal consistency checks; RankMismatch is a ValueError, so first
        return _fail(args, EXIT_INTERNAL, f"internal error: {exc}")
    except (DocumentError, ValidationError, NonGenericDirection, ValueError) as exc:
        return _fail(args, EXIT_INVALID, str(exc))
    except NotPolynomialError as exc:
        def text():
            if args.as_json:
                return _json(not_polynomial_document(exc))
            return f"residual: {exc.fraction}\n" + _terms_text(exc.per_point or ())

        note = "error: localization sum is not a polynomial; fixed-point data is inconsistent\n"
        return _write(args, EXIT_NOT_POLYNOMIAL, text, note)
    except (DegreeMismatch, InhomogeneousExpression) as exc:
        return _fail(args, EXIT_DEGREE, str(exc))
    except OSError:  # stdout refused the output: main reports it
        raise
    except Exception as exc:  # a fault of the program: one line, no traceback
        return _fail(args, EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
