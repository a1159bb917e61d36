"""The benchmark's four workloads.

A workload's `plan(seed)` is engine-free: the list of calls one pass makes,
in seeded order, each with its expected outcome from `oracle`.  The seed
picks only the call order and the circle directions; every expected value
is the same for every seed.  `prepare(plan, work, tracer)` runs after
torusloc is imported: it builds the problems (or, for `cli_batch`, writes
the problem files) and returns one thunk per call.  That is the set-up the
benchmark times.

Why each workload exists, and which layer it should expose, is in
README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle
from tracer import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "cli_child.py"
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Call:
    """One call of a pass: what to run and the outcome the oracle expects.

    `expected` is ("value", v) or ("raise", exception class name); for the
    command line, v is (exit code, stdout rule), see `stdout_matches`.
    """

    label: str
    op: str
    space: str = ""
    expr: str = ""
    xi: tuple = ()
    mutation: str = ""
    argv: tuple = ()
    expected: tuple = ()


def space_dims(spec):
    """The n of every CP^n factor in a space spec such as `product:cpn:1,cpn:2`."""
    return [int(part[len("cpn:"):]) for part in spec.replace("product:", "").split(",")]


def _shuffled(calls, rng):
    calls = list(calls)
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# plans

CHERN_FULL_RANK_SPACES = (
    "cpn:3",
    "cpn:4",
    "product:cpn:2,cpn:2",
    "product:cpn:1,cpn:2",
    "product:cpn:1,product:cpn:1,cpn:1",
)

CIRCLE_GENERIC_SPACES = ("cpn:8", "cpn:10", "cpn:12", "product:cpn:3,cpn:3")


def _chern_calls(spec, xi=()):
    dims = space_dims(spec)
    for partition in oracle.partitions(sum(dims)):
        expr = oracle.chern_expr(partition)
        yield Call(
            f"{spec} {expr}",
            "integrate_top",
            spec,
            expr,
            xi,
            expected=("value", oracle.chern_number(dims, partition)),
        )


def plan_chern_full_rank(seed):
    rng = random.Random(seed)
    calls = [call for spec in CHERN_FULL_RANK_SPACES for call in _chern_calls(spec)]
    return _shuffled(calls, rng)


def plan_circle_generic(seed):
    """Chern numbers and the Euler characteristic after a seeded circle reduction.

    The direction is a seeded permutation of 1..rank: generic (distinct
    entries, so no weight u_j - u_i pairs to zero), with entries bounded by
    the rank, so every seed does the same amount of arithmetic.
    """
    rng = random.Random(seed)
    calls = []
    for spec in CIRCLE_GENERIC_SPACES:
        dims = space_dims(spec)
        rank = sum(n + 1 for n in dims)
        xi = tuple(rng.sample(range(1, rank + 1), rank))
        calls.extend(_chern_calls(spec, xi))
        points = 1
        for n in dims:
            points *= n + 1
        calls.append(
            Call(f"{spec} e", "euler_characteristic", spec, "e", xi, expected=("value", points))
        )
    return _shuffled(calls, rng)


def plan_poly_and_fail(seed):
    rng = random.Random(seed)
    calls = [
        Call(
            f"{spec} {expr}",
            "localize",
            spec,
            expr,
            expected=("value", oracle.c1_power_on_projective_space(n, k)),
        )
        for spec, n, expr, k in (
            ("cpn:1", 1, "c1^101", 101),
            ("cpn:1", 1, "c1^151", 151),
            ("cpn:2", 2, "c1^6", 6),
            ("cpn:3", 3, "c1^6", 6),
        )
    ]
    calls += [
        Call(f"check cpn:4 {expr}", "check_vanishing", "cpn:4", expr, expected=("value", None))
        for expr in ("c1^3", "c2*c1", "c3")
    ]
    calls += [
        Call(
            f"{mutation} {spec}",
            "integrate_top",
            spec,
            f"c1^{sum(space_dims(spec))}",
            mutation=mutation,
            expected=("raise", "NotPolynomialError"),
        )
        for mutation, spec in (
            ("flip_sign", "cpn:3"),
            ("flip_sign", "cpn:4"),
            ("flip_sign", "product:cpn:2,cpn:2"),
            ("negate_weight", "cpn:4"),
        )
    ]
    return _shuffled(calls, rng)


def _cli(argv, code, stdout):
    return Call(" ".join(argv), "cli", argv=tuple(argv), expected=("value", (code, stdout)))


def plan_cli_batch(seed):
    rng = random.Random(seed)
    good_lines = oracle.projective_point_lines(2, 2)
    bad_lines = oracle.projective_point_lines(2, 2, flipped=(0,))
    calls = [
        # the README examples
        _cli(["integrate", "--space", "cpn:2", "--expr", "c1^2", "--top"], 0, "9\n"),
        _cli(["euler", "--space", "cpn:3"], 0, "4\n"),
        _cli(
            ["integrate", "--space", "cpn:1", "--expr", "c1^3"],
            0,
            oracle.render_polynomial(oracle.c1_power_on_projective_space(1, 3)) + "\n",
        ),
        _cli(
            ["check", "--space", "cpn:2", "--expr", "c1"],
            0,
            "ok: degree 2 < dimension 4, sum is 0\n",
        ),
        _cli(["integrate", "--space", "cpn:2", "--expr", "c2", "--top", "--xi", "0,1,2"], 0, "3\n"),
        # a JSON document with the per-point table
        _cli(
            ["integrate", "--space", "cpn:2", "--expr", "c1^2", "--top", "--json", "--terms"],
            0,
            ("json", oracle.projective_top_json(2)),
        ),
        # problem files: consistent, and with the sign of p0 flipped (exit 3)
        _cli(
            ["integrate", "--file", "{good}", "--expr", "c1^2", "--top", "--terms"],
            0,
            "9\n" + "".join(line + "\n" for line in good_lines),
        ),
        _cli(
            ["integrate", "--file", "{bad}", "--expr", "c1^2"],
            3,
            ("residual", bad_lines),
        ),
        # parse error, non-generic direction, degree mismatch
        _cli(["integrate", "--space", "cpn:2", "--expr", "c1^"], 1, ""),
        _cli(["integrate", "--space", "cpn:2", "--expr", "c1^2", "--xi", "1,1,2"], 2, ""),
        _cli(["integrate", "--space", "cpn:2", "--expr", "c1", "--top"], 4, ""),
    ]
    return _shuffled(calls, rng)


def stdout_matches(rule, stdout):
    """A stdout rule is exact text, ("json", document) or ("residual", point lines)."""
    if isinstance(rule, str):
        return stdout == rule
    kind, payload = rule
    if kind == "json":
        try:
            return json.loads(stdout) == payload
        except ValueError:
            return False
    lines = stdout.splitlines()
    return bool(lines) and lines[0].startswith("residual: (") and lines[1:] == payload


def outcome_matches(call, outcome):
    """Whether an outcome, ("value", v) or ("raise", class name), is what the oracle expects."""
    if call.op == "cli" and outcome[0] == "value":
        code, rule = call.expected[1]
        return outcome[1][0] == code and stdout_matches(rule, outcome[1][1])
    return outcome == call.expected


# ---------------------------------------------------------------------------
# set-up: problems and thunks (needs torusloc imported)

def _module(name):
    return sys.modules[f"torusloc.{name}"]


def build_space(spec):
    """Build a problem from a space spec with the spaces module (grammar as the CLI's)."""
    problem, rest = _build_space_at(spec)
    if rest:
        raise ValueError(f"trailing {rest!r} in space spec {spec!r}")
    return problem


def _build_space_at(text):
    spaces = _module("spaces")
    if text.startswith("cpn:"):
        digits = text[len("cpn:"):].split(",", 1)[0]
        return spaces.projective_space(int(digits)), text[len("cpn:") + len(digits):]
    if text.startswith("product:"):
        left, rest = _build_space_at(text[len("product:"):])
        right, rest = _build_space_at(rest[1:])
        return spaces.product(left, right), rest
    raise ValueError(f"unknown space spec {text!r}")


def mutate(problem, mutation):
    """Make fixed-point data inconsistent at the first point.

    flip_sign negates its orientation sign; negate_weight negates its first
    weight without touching the sign.
    """
    action = _module("action")
    first = problem.points[0]
    if mutation == "flip_sign":
        first = action.FixedPoint(first.label, first.weights, -first.sign)
    elif mutation == "negate_weight":
        weights = (first.weights[0].negated(),) + first.weights[1:]
        first = action.FixedPoint(first.label, weights, first.sign)
    else:
        raise ValueError(f"unknown mutation {mutation!r}")
    return action.LocalizationProblem(
        problem.rank, problem.half_dim, (first,) + problem.points[1:]
    )


def _library_thunk(call, problem):
    # Functions are looked up at call time, so a tracer's wrappers are used.
    localize = _module("localize")
    action = _module("action")
    if call.op == "localize":
        return lambda: dict(localize.localize(problem, call.expr).value.terms)
    if call.op == "check_vanishing":
        return lambda: localize.check_vanishing(problem, call.expr)
    if call.op == "integrate_top" and call.xi:
        return lambda: localize.integrate_top(action.circle_reduce(problem, call.xi), call.expr)
    if call.op == "integrate_top":
        return lambda: localize.integrate_top(problem, call.expr)
    if call.op == "euler_characteristic":
        return lambda: localize.euler_characteristic(action.circle_reduce(problem, call.xi))
    raise ValueError(f"unknown operation {call.op!r}")


def prepare_library(plan, work, tracer):
    problems = {}
    thunks = []
    for call in plan:
        key = (call.space, call.mutation)
        if key not in problems:
            problem = build_space(call.space)
            problems[key] = mutate(problem, call.mutation) if call.mutation else problem
        thunks.append(_library_thunk(call, problems[key]))
    return thunks


def _child_env():
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):  # as in run.main
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_cli(argv, env, tracer):
    """One CLI process; under an active tracer it runs the traced child instead."""
    program = [str(CHILD)] if tracer.active else ["-m", "torusloc"]
    done = subprocess.run(
        [sys.executable, *program, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    if tracer.active:
        last = done.stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if last.startswith(MARKER):
            tracer.absorb(json.loads(last[len(MARKER):]))
    return done.returncode, done.stdout


def prepare_cli(plan, work, tracer):
    files = {
        "good": oracle.projective_document(2),
        "bad": oracle.projective_document(2, flipped=(0,)),
    }
    paths = {}
    for name, document in files.items():
        paths[name] = str(work / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    env = _child_env()
    thunks = []
    for call in plan:
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in call.argv]
        thunks.append(lambda argv=argv: _run_cli(argv, env, tracer))
    return thunks


@dataclass(frozen=True)
class Workload:
    name: str
    plan: object  # seed -> [Call]
    prepare: object  # (plan, work dir, tracer) -> [thunk]
    imports: tuple  # modules the set-up imports
    child_rss: bool  # peak RSS is that of child processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("chern_full_rank", plan_chern_full_rank, prepare_library, ("torusloc",), False),
        Workload("circle_generic", plan_circle_generic, prepare_library, ("torusloc",), False),
        Workload("poly_and_fail", plan_poly_and_fail, prepare_library, ("torusloc",), False),
        Workload(
            "cli_batch", plan_cli_batch, prepare_cli, ("torusloc", "torusloc.cli"), True
        ),
    )
}
