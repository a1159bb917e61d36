"""Self-tests of the benchmark: oracles, tracer, determinism, output contract.

    python3 -m pytest -q bench/test_bench.py

Each traced profile below is one set-up plus one pass of a workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from run import Tally, traced_pass, traced_setup
from tracer import PER_LAYER, Tracer, layer_metrics, merge
from workloads import ROOT, SRC, WORKLOADS

sys.path.insert(0, str(SRC))

BENCH = Path(__file__).resolve().parent

# layer metrics that must be nonzero on each workload (the prediction table in README.md)
NONZERO = {
    "chern_full_rank": (
        "exact.linear_divide.calls",
        "exact.linear_divide.s",
        "exact.linear_divide.fail_ratio",
        "exact.FactoredRational.init.self_s",
        "exact.FactoredRational.add.calls",
        "exact.FactoredRational.add.self_s",
        "exact.lcm_forms_peak",
        "exact.numerator_terms_peak",
        "localize.localize.self_s",
        "localize.point_term.calls",
        "localize.point_term.self_s",
        "spaces.build.s",
    ),
    "poly_and_fail": (
        "exact.linear_divide.calls",
        "exact.linear_divide.s",
        "exact.linear_divide.fail_ratio",
        "exact.FactoredRational.init.self_s",
        "exact.Polynomial.mul.calls",
        "exact.Polynomial.mul.s",
        "exact.Polynomial.add.s",
        "localize.localize.self_s",
        "localize.point_term.calls",
        "localize.point_term.self_s",
        "spaces.build.s",
    ),
    "circle_generic": (
        "exact.Polynomial.mul.calls",
        "exact.Polynomial.mul.s",
        "exact.Polynomial.add.s",
        "classexpr.restrict.calls",
        "classexpr.restrict.s",
        "classexpr.parse.s",
        "classexpr.degree.s",
        "localize.localize.self_s",
        "localize.point_term.calls",
        "localize.point_term.self_s",
        "action.validate.s",
        "action.circle_reduce.s",
        "action.equivariant_euler.calls",
        "spaces.build.s",
    ),
    "cli_batch": (
        "cli.import_s",
        "cli.main.self_s",
        "cli.parse_space.s",
        "cli.load_problem_file.s",
        "cli.result_document.s",
        "spaces.build.s",
    ),
}

# binding sites each public function is called through, by module
SITES = {
    "torusloc.exact": ("linear_divide",),
    "torusloc.localize": ("restrict", "validate", "point_term", "localize", "parse", "degree"),
    "torusloc.classexpr": ("equivariant_euler", "restrict", "degree"),
    "torusloc.cli": ("localize", "validate", "circle_reduce", "parse_space", "main"),
    "torusloc": ("localize", "integrate_top", "circle_reduce"),
}
DUNDERS = {
    "Polynomial": ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__pow__"),
    "FactoredRational": ("__init__", "__add__", "__sub__", "__neg__"),
}

_profiles = {}


def traced(name, seed, tmp_path_factory):
    """(profile, outcomes by label) of one traced set-up and pass; cached per (name, seed)."""
    key = (name, seed)
    if key not in _profiles:
        workload = WORKLOADS[name]
        plan = workload.plan(seed)
        tracer = Tracer()
        setup, thunks = traced_setup(workload, plan, tmp_path_factory.mktemp(name), tracer)
        tally = Tally()
        _, profile = traced_pass(tally, plan, thunks, tracer)
        assert tally.failed == 0, tally.mismatches
        _profiles[key] = (merge(setup, profile), tally.outcomes)
    return _profiles[key]


def counts(profile):
    """Everything in a profile that must repeat exactly: calls, counters and peaks."""
    return (
        {name: row[0] for name, row in profile["spans"].items()},
        profile["counters"],
        profile["peaks"],
    )


def test_oracle_closed_forms():
    assert len(list(oracle.partitions(4))) == 5
    assert oracle.chern_number((2,), (1, 1)) == 9
    assert oracle.chern_number((4,), (1, 1, 1, 1)) == 625
    assert oracle.chern_number((1, 1), (2,)) == 4
    assert oracle.chern_number((2, 2), (1, 1, 1, 1)) == 486
    value = oracle.c1_power_on_projective_space(1, 3)
    assert oracle.render_polynomial(value) == "2*u1^2 - 4*u1*u2 + 2*u2^2"
    # at top degree the divided-difference sum is the Chern number
    assert oracle.c1_power_on_projective_space(3, 3) == {(0, 0, 0, 0): 64}


def test_tracer_wraps_every_binding_site_and_restores():
    import torusloc.cli  # noqa: F401

    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for module, attrs in SITES.items()
        for attr in attrs
    }
    exact = sys.modules["torusloc.exact"]
    originals.update(
        ((cls, dunder), getattr(exact, cls).__dict__[dunder])
        for cls, dunders in DUNDERS.items()
        for dunder in dunders
    )

    def current(owner, attr):
        if owner.startswith("torusloc"):
            return getattr(sys.modules[owner], attr)
        return getattr(exact, owner).__dict__[attr]

    tracer = Tracer()
    with tracer.installed():
        for (owner, attr), original in originals.items():
            assert current(owner, attr).__wrapped__ is original, (owner, attr)
        # one wrapper per function, shared by all of its binding sites
        assert sys.modules["torusloc.cli"].localize is sys.modules["torusloc"].localize
    for (owner, attr), original in originals.items():
        assert current(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("name", sorted(NONZERO))
def test_layer_counters_nonzero_on_their_workload(name, tmp_path_factory):
    metrics = layer_metrics(traced(name, 1, tmp_path_factory)[0])
    assert set(metrics) == {metric for metric, _ in PER_LAYER}
    assert [m for m in NONZERO[name] if not metrics[m] > 0] == []


def test_counts_repeat_exactly_under_one_seed(tmp_path_factory):
    first = counts(traced("chern_full_rank", 1, tmp_path_factory)[0])
    _profiles.pop(("chern_full_rank", 1))
    second = counts(traced("chern_full_rank", 1, tmp_path_factory)[0])
    assert first == second


@pytest.mark.parametrize("name", ["chern_full_rank", "poly_and_fail"])
def test_counts_do_not_depend_on_the_seed(name, tmp_path_factory):
    assert counts(traced(name, 1, tmp_path_factory)[0]) == counts(
        traced(name, 2, tmp_path_factory)[0]
    )


def test_circle_generic_values_do_not_depend_on_the_seed(tmp_path_factory):
    assert WORKLOADS["circle_generic"].plan(1) != WORKLOADS["circle_generic"].plan(2)
    assert traced("circle_generic", 1, tmp_path_factory)[1] == traced(
        "circle_generic", 2, tmp_path_factory
    )[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli_batch",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names
    record = json.loads(done.stdout.splitlines()[-2])["record"]
    assert record["seed"] == 3 and record["passes"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
