"""Outside-in tracer for torusloc: spans around every public call, no edits to the package.

`Tracer.install` wraps each public function of the torusloc modules at every
binding site it is called through -- its defining module and every torusloc
module that imported it by name, the package itself included -- plus the
arithmetic dunders of `Polynomial` and `FactoredRational`.  One wrapper per
function records a span (name, parent span, start, end, request id).
`restore` puts the originals back.

Modules are looked up in `sys.modules`: the package-level `localize`
function shadows the `torusloc.localize` submodule as an attribute, so
`import torusloc.localize as m` would yield the function.

`take` turns the spans into a profile: per span name the call count,
inclusive time of the outermost calls (`s`) and self time (`self_s`, span
time minus the time its child spans cover), plus the counters and peaks the
probes record.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from statistics import median
from types import FunctionType

LAYERS = ("exact", "action", "classexpr", "localize", "spaces", "cli")

DUNDERS = {
    "Polynomial": (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__",
    ),
    "FactoredRational": ("__init__", "__add__", "__sub__", "__neg__"),
}

# Prefix of the stderr line on which a traced child process reports its profile.
MARKER = "@@torusloc-bench-profile@@"

# Per-layer metrics of the traced run, in report order, with their units.
# `<span>.calls`, `<span>.s` and `<span>.self_s` read the span table; the
# others are derived in `layer_metrics`.
PER_LAYER = (
    ("exact.linear_divide.calls", "count"),
    ("exact.linear_divide.s", "s"),
    ("exact.linear_divide.fail_ratio", "ratio"),
    ("exact.FactoredRational.init.self_s", "s"),
    ("exact.Polynomial.mul.calls", "count"),
    ("exact.Polynomial.mul.s", "s"),
    ("exact.Polynomial.add.s", "s"),
    ("exact.FactoredRational.add.calls", "count"),
    ("exact.FactoredRational.add.self_s", "s"),
    ("exact.lcm_forms_peak", "count"),
    ("exact.numerator_terms_peak", "count"),
    ("classexpr.restrict.calls", "count"),
    ("classexpr.restrict.s", "s"),
    ("classexpr.parse.s", "s"),
    ("classexpr.degree.s", "s"),
    ("localize.localize.self_s", "s"),
    ("localize.point_term.calls", "count"),
    ("localize.point_term.self_s", "s"),
    ("action.validate.s", "s"),
    ("action.circle_reduce.s", "s"),
    ("action.equivariant_euler.calls", "count"),
    ("spaces.build.s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.parse_space.s", "s"),
    ("cli.load_problem_file.s", "s"),
    ("cli.result_document.s", "s"),
)


def _count_failed_division(tracer, result):
    if result is None:
        tracer.counters["exact.linear_divide.fails"] += 1


def _lcm_forms(tracer, args, kwargs):
    left, right = args
    forms = left.denominator.keys() | getattr(right, "denominator", {}).keys()
    tracer.peak("exact.lcm_forms", len(forms))


def _numerator_terms(tracer, args, kwargs):
    numerator = args[1] if len(args) > 1 else kwargs.get("numerator")
    tracer.peak("exact.numerator_terms", len(getattr(numerator, "terms", ())))


# span name -> (probe on the arguments, probe on the result)
PROBES = {
    "exact.linear_divide": (None, _count_failed_division),
    "exact.FactoredRational.add": (_lcm_forms, None),
    "exact.FactoredRational.init": (_numerator_terms, None),
}


def empty_profile():
    return {"spans": {}, "counters": {}, "peaks": {}, "import_s": []}


def merge(a, b):
    """Combine two profiles: calls, times and counters add, peaks take the maximum."""
    out = empty_profile()
    for profile in (a, b):
        for name, row in profile["spans"].items():
            total = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                total[i] += value
        for name, value in profile["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in profile["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, 0), value)
        out["import_s"].extend(profile["import_s"])
    return out


class Tracer:
    """Records spans while installed; `take` aggregates and clears them."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, outermost, request]
        self.counters = Counter()
        self.peaks = {}
        self.request = None  # identifier shared by the spans of one benchmark call
        self.absorbed = empty_profile()  # profiles reported by traced child processes
        self._stack = []
        self._depth = Counter()
        self._originals = []

    @property
    def active(self):
        return bool(self._originals)

    def peak(self, name, value):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def absorb(self, profile):
        self.absorbed = merge(self.absorbed, profile)

    def _wrap(self, name, function):
        before, after = PROBES.get(name, (None, None))
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, depth[name] == 0, tracer.request]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[2] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding site of the public torusloc functions and the dunders."""
        if self.active:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"torusloc.{layer}")
            if module is None:  # cli is imported only by workloads that use it
                continue
            for attr, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "torusloc" and not module_name.startswith("torusloc."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    self._replace(module, attr, wrappers[value])
        exact = sys.modules["torusloc.exact"]
        for class_name, dunders in DUNDERS.items():
            cls = getattr(exact, class_name)
            for dunder in dunders:
                function = cls.__dict__[dunder]
                if function not in wrappers:
                    span = f"exact.{class_name}.{function.__name__.strip('_')}"
                    wrappers[function] = self._wrap(span, function)
                self._replace(cls, dunder, wrappers[function])

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def take(self):
        """The profile of everything recorded since the last take; clears it."""
        if self._stack:
            raise RuntimeError("cannot aggregate while a span is open")
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, parent, start, end, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        table = {}
        for index, (name, _, start, end, outermost, _) in enumerate(spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            if outermost:
                row[1] += end - start
            row[2] += end - start - covered[index]
        own = {
            "spans": table,
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
            "import_s": [],
        }
        profile = merge(own, self.absorbed)
        spans.clear()
        self.counters.clear()
        self.peaks.clear()
        self.absorbed = empty_profile()
        return profile


def layer_metrics(profile):
    """The PER_LAYER metrics of one profile, as {name: value}."""
    spans = profile["spans"]
    derived = {
        "exact.linear_divide.fail_ratio": (
            profile["counters"].get("exact.linear_divide.fails", 0)
            / spans["exact.linear_divide"][0]
            if "exact.linear_divide" in spans
            else 0.0
        ),
        "exact.lcm_forms_peak": profile["peaks"].get("exact.lcm_forms", 0),
        "exact.numerator_terms_peak": profile["peaks"].get("exact.numerator_terms", 0),
        "spaces.build.s": sum(row[1] for name, row in spans.items() if name.startswith("spaces.")),
        "cli.import_s": median(profile["import_s"]) if profile["import_s"] else 0.0,
    }
    columns = {"calls": 0, "s": 1, "self_s": 2}
    metrics = {}
    for name, _ in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, column = name.rsplit(".", 1)
        metrics[name] = spans.get(span, [0, 0.0, 0.0])[columns[column]]
    return metrics
