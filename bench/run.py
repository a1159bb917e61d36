"""Run one torusloc benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/torusloc`.  One process, one caller,
no threads: a closed loop that makes each call of the workload's list in
turn and checks every answer against the engine-free oracle.

With `--trace 0` the run measures the end-to-end metrics with no tracer
installed.  With `--trace 1` it reports the per-layer metrics from the
outside-in tracer, and the tracing overhead (traced minus untraced
`pass_s`).  The last line of stdout is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
run's record (Python version, nproc, seed, commit, passes, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

from tracer import PER_LAYER, Tracer, layer_metrics, merge
from workloads import ROOT, SRC, WORKLOADS, outcome_matches

SETUP_REPEATS = 21
UNTRACED_SHARE = 0.3  # of --seconds, in a traced run, for the untraced passes
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def purge_torusloc():
    for name in [n for n in sys.modules if n == "torusloc" or n.startswith("torusloc.")]:
        del sys.modules[name]


def timed_setup(workload, plan, work, tracer):
    """Import torusloc afresh and prepare the calls: (seconds, thunks)."""
    purge_torusloc()
    gc.collect()  # the dropped modules are cycles; free them outside the timed region
    start = time.perf_counter()
    for module in workload.imports:
        importlib.import_module(module)
    thunks = workload.prepare(plan, work, tracer)
    return time.perf_counter() - start, thunks


class Tally:
    """Latencies and oracle checks of every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.outcomes = {}  # label -> outcome of the latest pass

    def run_pass(self, plan, thunks, tracer=None):
        """One pass over the call list: (pass seconds, per-call seconds)."""
        gc.collect()
        latencies = []
        outcomes = []
        clock = time.perf_counter
        pass_start = clock()
        for index, thunk in enumerate(thunks):
            if tracer is not None:
                tracer.request = index
            start = clock()
            try:
                outcome = ("value", thunk())
            except Exception as exc:  # every call must end; a wrong exception is a failure
                outcome = ("raise", type(exc).__name__)
            latencies.append(clock() - start)
            outcomes.append(outcome)
        pass_s = clock() - pass_start
        for call, outcome in zip(plan, outcomes):
            self.outcomes[call.label] = outcome
            self.attempted += 1
            if not outcome_matches(call, outcome):
                self.failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(f"{call.label}: got {outcome!r:.300}")
        return pass_s, latencies


def run_plain(workload, plan, seconds, work):
    tracer = Tracer()  # never installed: the end-to-end run has no tracing
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, thunks = timed_setup(workload, plan, work, tracer)
        setups.append(setup_s)
    tally = Tally()
    tally.run_pass(plan, thunks)  # warm-up, checked but not timed
    passes, latencies = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_s, pass_latencies = tally.run_pass(plan, thunks)
        passes.append(pass_s)
        latencies.extend(pass_latencies)
    who = resource.RUSAGE_CHILDREN if workload.child_rss else resource.RUSAGE_SELF
    metrics = {
        "setup_s": median(setups),
        "pass_s": median(passes),
        "call_p50_ms": median(latencies) * 1e3,
        "call_p90_ms": quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    record = {
        "passes": len(passes),
        "calls_per_pass": len(plan),
        "calls_per_percentile": len(latencies),
        "setup_repeats": SETUP_REPEATS,
        "error_ratio": tally.failed / tally.attempted,
    }
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, record


def traced_setup(workload, plan, work, tracer):
    """Import torusloc afresh and prepare the calls under the tracer: (profile, thunks)."""
    purge_torusloc()
    for module in workload.imports:
        importlib.import_module(module)
    with tracer.installed():
        thunks = workload.prepare(plan, work, tracer)
    return tracer.take(), thunks


def traced_pass(tally, plan, thunks, tracer):
    """One pass with the tracer installed: (pass seconds, profile)."""
    with tracer.installed():
        pass_s = tally.run_pass(plan, thunks, tracer)[0]
    return pass_s, tracer.take()


def run_traced(workload, plan, seconds, work):
    tracer = Tracer()
    setup_profile, thunks = traced_setup(workload, plan, work, tracer)
    tally = Tally()
    tally.run_pass(plan, thunks)  # warm-up
    start = time.perf_counter()
    untraced = []
    while not untraced or time.perf_counter() - start < seconds * UNTRACED_SHARE:
        untraced.append(tally.run_pass(plan, thunks)[0])
    traced, per_pass = [], []
    while not traced or time.perf_counter() - start < seconds:
        pass_s, profile = traced_pass(tally, plan, thunks, tracer)
        traced.append(pass_s)
        per_pass.append(layer_metrics(merge(setup_profile, profile)))
    units = dict(PER_LAYER)
    metrics = {
        name: (median(p[name] for p in per_pass), units[name]) for name, _ in PER_LAYER
    }
    record = {
        "passes": len(traced),
        "untraced_passes": len(untraced),
        "calls_per_pass": len(plan),
        "untraced_pass_s": median(untraced),
        "traced_pass_s": median(traced),
        "tracing_overhead_s": median(traced) - median(untraced),
        "error_ratio": tally.failed / tally.attempted,
    }
    return tally, metrics, record


def commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusloc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torusloc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no torusloc sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # Import torusloc from cached bytecode, as an installed package does, whatever
    # PYTHONDONTWRITEBYTECODE says; the cache goes next to the sources.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = None
    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="torusloc-bench-", dir=scratch)
    try:
        run = run_traced if args.trace else run_plain
        tally, metrics, record = run(workload, plan, args.seconds, Path(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in tally.mismatches:
        sys.stderr.write(f"mismatch: {line}\n")
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        commit=commit(),
        source_sha256=source_digest(),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
