"""Run the torusloc command line once under the benchmark's tracer.

    PYTHONPATH=src python3 bench/cli_child.py integrate --space cpn:2 --expr c1^2 --top

Stdout and the exit code are those of `python -m torusloc` with the same
arguments.  The last line of stderr is the trace profile, after a marker,
with the time this process took to import `torusloc.cli` as `import_s`.
"""

import sys
import time


def main():
    start = time.perf_counter()
    import torusloc.cli  # noqa: F401  imported first, so the import is timed alone

    import_s = time.perf_counter() - start

    import json

    from tracer import MARKER, Tracer

    tracer = Tracer()
    with tracer.installed():
        code = sys.modules["torusloc.cli"].main(sys.argv[1:])
    profile = tracer.take()
    profile["import_s"] = [import_s]
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(profile) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
