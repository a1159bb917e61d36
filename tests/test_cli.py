"""Command-line interface: output formats, exit codes, JSON schemas."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from torusloc import FactoredRational, Polynomial
from torusloc.cli import (
    EXIT_DEGREE,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_LIMIT,
    EXIT_NOT_POLYNOMIAL,
    EXIT_OK,
    EXIT_PARSE,
    DocumentError,
    document_to_problem,
    main,
    parse_space,
)

from support import problem_to_document, variable

LOCALIZE = importlib.import_module("torusloc.localize")
POINT_TERM = LOCALIZE.point_term


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SINGLE_POINT = {
    "format": 1,
    "torus_rank": 1,
    "half_dim": 1,
    "fixed_points": [{"name": "only", "weights": [[1]], "sign": 1}],
}


@pytest.fixture
def single_point_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps(SINGLE_POINT))
    return str(path)


# ---------------------------------------------------------------------------
# happy paths

def test_integrate_top_scalar(capsys):
    code, out, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1^2", "--top")
    assert code == EXIT_OK
    assert out == "9\n"


def test_integrate_sphere_euler_top(capsys):
    code, out, _ = run(capsys, "integrate", "--space", "sphere", "--expr", "e", "--top")
    assert code == EXIT_OK
    assert out == "2\n"


def test_integrate_polynomial_value(capsys):
    code, out, _ = run(capsys, "integrate", "--space", "cpn:1", "--expr", "c1^3")
    assert code == EXIT_OK
    assert out == "2*u1^2 - 4*u1*u2 + 2*u2^2\n"


def test_euler_command(capsys):
    code, out, err = run(capsys, "euler", "--space", "cpn:3")
    assert code == EXIT_OK
    assert out == "4\n"
    assert "fixed points: 4" in err


def test_euler_product_space(capsys):
    code, out, _ = run(capsys, "euler", "--space", "product:sphere,sphere")
    assert code == EXIT_OK
    assert out == "4\n"


def test_nested_product_space(capsys):
    code, out, _ = run(capsys, "euler", "--space", "product:product:sphere,sphere,sphere")
    assert code == EXIT_OK
    assert out == "8\n"


def test_check_vanishing(capsys):
    code, out, _ = run(capsys, "check", "--space", "cpn:2", "--expr", "c1")
    assert code == EXIT_OK
    assert out.startswith("ok:")

    code, out, _ = run(capsys, "check", "--space", "sphere", "--expr", "1")
    assert code == EXIT_OK
    assert out.startswith("ok:")


def test_check_polynomial_certification(capsys):
    code, out, _ = run(capsys, "check", "--space", "cpn:1", "--expr", "c1^3")
    assert code == EXIT_OK
    assert "polynomial" in out


def test_terms_table(capsys):
    code, out, _ = run(capsys, "integrate", "--space", "sphere", "--expr", "e", "--terms")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "2"
    assert "north: 1" in lines and "south: 1" in lines


def test_xi_reduction(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "cpn:1", "--expr", "c1", "--top", "--xi", "0,1"
    )
    assert code == EXIT_OK
    assert out == "2\n"


def test_xi_euler(capsys):
    code, out, _ = run(capsys, "euler", "--space", "cpn:2", "--xi", "0,1,2")
    assert code == EXIT_OK
    assert out == "3\n"


# ---------------------------------------------------------------------------
# JSON output

def test_json_result_document(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "cpn:1", "--expr", "c1^3", "--json", "--terms"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["format"] == 1
    assert doc["status"] == "polynomial"
    # value_terms carry the value; the value string is its rendering
    rebuilt = Polynomial(
        2,
        {
            tuple(term["exponents"]): Fraction(term["numerator"], term["denominator"])
            for term in doc["value_terms"]
        },
    )
    assert rebuilt == Polynomial(2, {(2, 0): 2, (1, 1): -4, (0, 2): 2})
    assert doc["value"] == str(rebuilt)
    assert [entry["name"] for entry in doc["per_point"]] == ["p0", "p1"]
    for entry in doc["per_point"]:
        assert entry["denominator"] == []


def test_json_top_scalar(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "cpn:2", "--expr", "c2", "--top", "--json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["value"] == "3"
    assert doc["value_terms"] == [
        {"exponents": [0, 0, 0], "numerator": 3, "denominator": 1}
    ]


def test_json_echoes_normalized_expression(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "cpn:2", "--expr", "c1 c1", "--top", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["expr"] == "c1*c1"


# ---------------------------------------------------------------------------
# failure classes and exit codes

def test_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "integrate", "--space", "sphere", "--expr", "c1 ^")
    assert code == EXIT_PARSE
    assert out == ""
    assert "offset 4" in err


def test_deep_expressions_exit_1(capsys):
    for text in ("(" * 3000 + "c1^2" + ")" * 3000, "+".join(["c2"] * 3000)):
        code, out, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", text)
        assert code == EXIT_PARSE
        assert out == ""
        assert "nests deeper than" in err and "Traceback" not in err


def test_500_term_sum_evaluates(capsys):
    expr = "+".join(["c2"] * 500)
    code, out, _ = run(capsys, "integrate", "--space", "cpn:2", "--expr", expr, "--top")
    assert code == EXIT_OK
    assert out == "1500\n"


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")


@needs_digit_limit
def test_overlong_integer_literal_exit_1(capsys):
    digits = "1" * (DIGIT_LIMIT + 1)
    for prefix in ("", "c1*", "c", "c1^"):
        code, out, err = run(capsys, "integrate", "--space", "cpn:1", "--expr", prefix + digits)
        assert code == EXIT_PARSE
        assert out == ""
        assert f"offset {len(prefix)}: integer literal cannot be read" in err
        assert err.count("\n") == 1


# after the circle reduction along (0, 1, 2), E_1 = 3 at the first point of
# CP^2, where it is +-1 on CP^1, so 3^2147483648 would have to be built
@pytest.mark.parametrize(
    "space, xi",
    [
        pytest.param("cpn:1", (), id="cpn:1"),
        pytest.param("cpn:2", (), id="cpn:2"),
        pytest.param("cpn:2", ("--xi", "0,1,2"), id="cpn:2 --xi 0,1,2"),
    ],
)
def test_exponent_overflow_exit_2(capsys, space, xi):
    # refused before the power is computed, not after 2**31 products
    code, out, err = run(capsys, "integrate", "--space", space, "--expr", "c1^2147483648", *xi)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: exponent overflow: an exponent exceeds 2147483647\n"


# a sphere whose south pole has the north pole's sign: 7^6000/u at each pole
# leaves a residual whose numerator has 5,072 digits
SAME_SIGN_SPHERE = {
    **SINGLE_POINT,
    "fixed_points": [
        {"name": "north", "weights": [[1]], "sign": 1},
        {"name": "south", "weights": [[1]], "sign": 1},
    ],
}


@needs_digit_limit
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--space", "cpn:2", "--expr", "c2^1000000", "--xi", "0,1,2"),
        ("check", "--space", "cpn:2", "--expr", "c2^1000000", "--xi", "0,1,2"),
        # the value line fits, a term does not: nothing is written
        ("integrate", "--space", "sphere", "--expr", "7^6000*c1", "--terms"),
        # the residual of inconsistent data
        ("integrate", "--file", "{same_sign}", "--expr", "7^6000"),
    ],
    ids=["integrate", "check", "terms", "residual"],
)
def test_result_too_long_to_print_exit_6(capsys, tmp_path, argv, as_json):
    path = tmp_path / "same_sign.json"
    path.write_text(json.dumps(SAME_SIGN_SPHERE))
    argv = [str(path) if arg == "{same_sign}" else arg for arg in argv]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == EXIT_LIMIT
    assert err.startswith("error: result too long to print: ") and err.count("\n") == 1
    if as_json:
        message = err[len("error: "):-1]
        assert json.loads(out) == {"format": 1, "status": "error", "error": message}
    else:
        assert out == ""


def test_vanishing_power_past_the_exponent_limit_prints_0(capsys):
    # c3 is 0 at every point of CP^2, and a zero value never overflows
    code, out, err = run(
        capsys, "integrate", "--space", "cpn:2", "--expr", "c3^2147483648", "--xi", "0,1,2"
    )
    assert (code, out, err) == (0, "0\n", "")


@needs_digit_limit
def test_overlong_cpn_dimension_exit_2(capsys):
    code, out, err = run(capsys, "euler", "--space", "cpn:" + "1" * (DIGIT_LIMIT + 1))
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: cpn: needs a positive integer, e.g. cpn:2\n"


def test_digits_int_refuses_exit_cleanly(capsys):
    # '²' passes str.isdigit but not int()
    code, out, err = run(capsys, "integrate", "--space", "cpn:1", "--expr", "c²")
    assert (code, out) == (EXIT_PARSE, "")
    assert "offset 1: integer literal cannot be read" in err
    code, out, err = run(capsys, "euler", "--space", "cpn:²")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: cpn: needs a positive integer, e.g. cpn:2\n"


# '١' (Arabic-Indic one), '٣' (three) and '２' (fullwidth two) pass str.isdigit
# and int() reads them; only ASCII digits make a number

@pytest.mark.parametrize(
    "expr, offset",
    [("c١^2", 1), ("١*c1", 0), ("c1^١", 3), ("c1 ١", 3), ("c1 1١", 3)],
)
def test_non_ascii_digits_in_expression_exit_1(capsys, expr, offset):
    code, out, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", expr)
    assert (code, out) == (EXIT_PARSE, "")
    assert f"offset {offset}: integer literal cannot be read" in err


def test_non_ascii_digits_in_cpn_exit_2(capsys):
    code, out, err = run(capsys, "euler", "--space", "cpn:٣")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: cpn: needs a positive integer, e.g. cpn:2\n"


@pytest.mark.parametrize("xi", ["1_0, 2", "10, ２", "1_0, ２", "+-1, 2", "1 0, 2"])
def test_xi_takes_only_ascii_integers_exit_2(capsys, xi):
    code, out, err = run(
        capsys, "integrate", "--space", "cpn:1", "--expr", "c1^1", "--top", "--xi", xi
    )
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: --xi must be comma-separated integers, got {xi!r}\n"


def test_xi_keeps_signs_and_spaces(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "cpn:1", "--expr", "c1^1", "--top", "--xi", " +1 , -2 "
    )
    assert (code, out) == (EXIT_OK, "2\n")


def test_deeply_nested_file_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("euler",), ("euler", "--json")):
        code, out, err = run(capsys, *argv, "--file", str(path))
        assert code == EXIT_INVALID
        assert err == f"error: {path} nests too deeply to read\n"
        assert (out == "") != ("--json" in argv)


def test_deeply_nested_space_exit_2(capsys):
    space = "product:" * 1200 + "sphere" + ",sphere" * 1200
    code, out, err = run(capsys, "euler", "--space", space)
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: space identifier nests too deeply\n"
    with pytest.raises(DocumentError, match="nests too deeply"):
        parse_space(space)


def test_validation_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "torus_rank": 2,
                "half_dim": 1,
                "fixed_points": [{"name": "badpt", "weights": [[0, 0]]}],
            }
        )
    )
    code, out, err = run(capsys, "euler", "--file", str(path))
    assert code == EXIT_INVALID
    assert "badpt" in err


def test_unknown_space_exit_2(capsys):
    code, _, err = run(capsys, "euler", "--space", "torus")
    assert code == EXIT_INVALID
    assert "unknown space" in err


def test_malformed_file_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "euler", "--file", str(path))
    assert code == EXIT_INVALID
    assert "JSON" in err


def test_non_utf8_file_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": 1, "torus_rank": 1, "half_dim": 0, "fixed_points": "\xff"}')
    code, out, err = run(capsys, "euler", "--file", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")
    assert err.count("\n") == 1


@needs_digit_limit
def test_overlong_integer_in_file_exit_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"format": 1, "torus_rank": ' + "1" * (DIGIT_LIMIT + 1) + "}")
    code, out, err = run(capsys, "euler", "--file", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: {path} has an integer literal that cannot be read\n"


def test_path_with_nul_exit_2_names_the_path(capsys):
    # open() raises ValueError for the path, not the file's content
    code, out, err = run(capsys, "euler", "--file", "a\0b")
    assert (code, out) == (EXIT_INVALID, "")
    assert err == "error: cannot open 'a\\x00b': embedded null byte\n"


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_format_must_be_the_integer_1(capsys, tmp_path, version):
    path = tmp_path / "format.json"
    path.write_text(json.dumps({**SINGLE_POINT, "format": version}))
    code, out, err = run(capsys, "euler", "--file", str(path))
    assert (code, out) == (EXIT_INVALID, "")
    assert err == f"error: unsupported format {version!r}\n"


def test_non_generic_xi_exit_2(capsys):
    code, _, err = run(capsys, "euler", "--space", "cpn:1", "--xi", "1,1")
    assert code == EXIT_INVALID
    assert "not generic" in err


def test_not_polynomial_exit_3(capsys, single_point_file):
    code, out, err = run(capsys, "check", "--file", single_point_file, "--expr", "1")
    assert code == EXIT_NOT_POLYNOMIAL
    assert "not a polynomial" in err
    # the per-point table is still printed: the diagnostic lives in the
    # surviving denominators
    assert "only: (1) / (u1)" in out


def test_not_polynomial_json(capsys, single_point_file):
    code, out, _ = run(
        capsys, "check", "--file", single_point_file, "--expr", "1", "--json"
    )
    assert code == EXIT_NOT_POLYNOMIAL
    doc = json.loads(out)
    assert doc["status"] == "not_polynomial"
    assert doc["value"] is None
    assert doc["residual"]["denominator"] == [{"form": "u1", "power": 1}]
    assert doc["per_point"][0]["name"] == "only"


def test_degree_mismatch_exit_4(capsys):
    code, _, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1", "--top")
    assert code == EXIT_DEGREE
    assert "degree" in err


def test_inhomogeneous_exit_4(capsys):
    code, _, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1 + c2")
    assert code == EXIT_DEGREE
    assert "inhomogeneous" in err


def test_top_degree_gate_runs_before_evaluation(capsys, monkeypatch):
    def refuse(point, expr, rank):
        raise AssertionError("a point term was evaluated")

    monkeypatch.setattr(LOCALIZE, "point_term", refuse)
    code, out, err = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1^599", "--top")
    assert code == EXIT_DEGREE
    assert out == "" and "degree 1198" in err


# Sabotaged point terms that break an internal consistency check.

def doubled(point, expr, rank):
    term = POINT_TERM(point, expr, rank)
    return term + term


def plus_u1(point, expr, rank):
    return POINT_TERM(point, expr, rank) + FactoredRational(variable(rank, 0))


def plus_one(point, expr, rank):
    return POINT_TERM(point, expr, rank) + FactoredRational(Polynomial.constant(rank, 1))


def wrong_rank(point, expr, rank):
    return FactoredRational(Polynomial.constant(rank + 1, 1))


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize(
    "sabotage, argv, message",
    [
        (doubled, ("euler", "--space", "cpn:2"), "does not match fixed point count 3"),
        (plus_u1, ("integrate", "--space", "cpn:1", "--expr", "c1", "--top"), "is not homogeneous of degree 0"),
        # problems with no coordinate to eliminate, so point_term gets the full rank
        (wrong_rank, ("integrate", "--space", "product:sphere,sphere", "--expr", "c1"), "rank 2 vs rank 3"),
        # the degree law below and above top degree
        (plus_u1, ("check", "--space", "cpn:2", "--expr", "c1", "--xi", "0,1,2"), "3*u1 is not homogeneous of degree -1"),
        (plus_one, ("integrate", "--space", "cpn:1", "--expr", "c1^2"), "2 is not homogeneous of degree 1"),
        (plus_one, ("check", "--space", "cpn:1", "--expr", "c1^2"), "2 is not homogeneous of degree 1"),
    ],
)
def test_internal_error_exit_5(capsys, monkeypatch, sabotage, argv, message, as_json):
    monkeypatch.setattr(LOCALIZE, "point_term", sabotage)
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == EXIT_INTERNAL
    assert err.startswith("error: internal error: ") and err.count("\n") == 1
    assert message in err
    if as_json:
        assert json.loads(out) == {"format": 1, "status": "error", "error": err[7:-1]}
    else:
        assert out == ""


@pytest.mark.parametrize("as_json", [False, True])
def test_any_other_exception_exits_5_without_traceback(capsys, monkeypatch, as_json):
    def broken(point, expr, rank):
        raise KeyError("lost")

    monkeypatch.setattr(LOCALIZE, "point_term", broken)
    argv = ["integrate", "--space", "cpn:2", "--expr", "c1^2", "--top"]
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == EXIT_INTERNAL
    assert err == "error: internal error: KeyError: 'lost'\n"
    if as_json:
        assert json.loads(out) == {"format": 1, "status": "error", "error": err[7:-1]}
    else:
        assert out == ""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost more to import than the package itself
    code = (
        "import sys; before = set(sys.modules); import torusloc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_bad_xi_exit_2(capsys):
    code, _, err = run(capsys, "euler", "--space", "sphere", "--xi", "1,x")
    assert code == EXIT_INVALID
    assert "--xi" in err


def test_space_and_file_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["euler", "--space", "sphere", "--file", "x.json"])


def test_json_error_document(capsys):
    code, out, _ = run(
        capsys, "integrate", "--space", "sphere", "--expr", "c1(", "--json"
    )
    assert code == EXIT_PARSE
    doc = json.loads(out)
    assert doc["status"] == "error"


# ---------------------------------------------------------------------------
# documents and determinism

def test_problem_document_round_trip():
    problem = document_to_problem(SINGLE_POINT)
    assert problem_to_document(problem) == SINGLE_POINT
    again = document_to_problem(problem_to_document(problem))
    assert problem_to_document(again) == SINGLE_POINT


def test_document_rejects_bad_schema():
    with pytest.raises(DocumentError):
        document_to_problem([])
    with pytest.raises(DocumentError):
        document_to_problem({"format": 2, "torus_rank": 1, "half_dim": 1, "fixed_points": []})
    with pytest.raises(DocumentError):
        document_to_problem({"torus_rank": True, "half_dim": 1, "fixed_points": []})
    with pytest.raises(DocumentError):
        document_to_problem(
            {
                "torus_rank": 1,
                "half_dim": 1,
                "fixed_points": [{"name": "p", "weights": [[1.5]]}],
            }
        )


def test_parse_space_round_trips_document():
    problem = parse_space("product:cpn:1,sphere")
    doc = problem_to_document(problem)
    assert problem_to_document(document_to_problem(doc)) == doc


def test_output_determinism(capsys):
    first = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1^3", "--json", "--terms")
    second = run(capsys, "integrate", "--space", "cpn:2", "--expr", "c1^3", "--json", "--terms")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "torusloc", "euler", "--space", "cpn:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_without_traceback(monkeypatch, unbuffered):
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusloc", "integrate", "--space", "cpn:4", "--expr", "c1^9", "--terms"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader leaves before the first byte
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert not any(text in err.decode() for text in ("Traceback", "Exception ignored", "BrokenPipe"))


@pytest.mark.parametrize("unbuffered", [True, False])
def test_help_into_a_closed_pipe_exits_141_without_traceback(monkeypatch, unbuffered):
    # buffered, the help text fails at main's flush; unbuffered, at the write
    # inside argparse, which must not ignore the error
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = subprocess.Popen(
        [sys.executable, "-m", "torusloc", "integrate", "--help"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader leaves before the first byte
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the always-full device")
def test_full_stdout_exits_74_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "torusloc", "integrate", "--space", "cpn:1", "--expr", "c1", "--top"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert proc.returncode == 74
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
