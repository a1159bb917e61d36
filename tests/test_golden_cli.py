"""Golden CLI stdout: each case in CASES prints exactly what golden_cli.txt records.

The golden file holds, per case, the command line, its exit code and its
stdout, byte for byte.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from torusloc import projective_space
from torusloc.cli import main

from support import problem_to_document

GOLDEN = Path(__file__).with_name("golden_cli.txt")
FLIPPED = "{flipped}"  # stands for a CP^2 problem file with p0's sign flipped

CASES = [
    # the five README examples
    ("integrate", "--space", "cpn:2", "--expr", "c1^2", "--top"),
    ("euler", "--space", "cpn:3"),
    ("integrate", "--space", "cpn:1", "--expr", "c1^3"),
    ("check", "--space", "cpn:2", "--expr", "c1"),
    ("integrate", "--space", "cpn:2", "--expr", "c2", "--top", "--xi", "0,1,2"),
    # JSON documents with the per-point table
    ("integrate", "--space", "cpn:2", "--expr", "c1^3", "--json", "--terms"),
    ("euler", "--space", "product:cpn:1,cpn:1", "--json", "--terms"),
    ("integrate", "--space", "cpn:1", "--expr", "c1^5", "--json", "--terms"),
    # circle reduction: per-point terms with non-integral coefficients
    ("integrate", "--space", "cpn:2", "--expr", "c1^2", "--top", "--xi", "1,3,7", "--terms"),
    ("integrate", "--space", "cpn:3", "--expr", "c1*c2", "--top", "--xi", "2,3,5,11", "--terms"),
    ("check", "--space", "cpn:2", "--expr", "c1", "--xi", "1,3,7", "--terms"),
    ("integrate", "--space", "cpn:2", "--expr", "c1^2", "--top", "--xi", "1,3,7", "--json", "--terms"),
    # inconsistent data: the sum does not cancel, exit 3
    ("integrate", "--file", FLIPPED, "--expr", "c1^2", "--top"),
    ("integrate", "--file", FLIPPED, "--expr", "c1^2", "--top", "--json"),
    # check below and above top degree, and on inconsistent data
    ("check", "--space", "cpn:2", "--expr", "c1", "--json", "--terms"),
    ("check", "--space", "cpn:1", "--expr", "c1^3"),
    ("check", "--file", FLIPPED, "--expr", "c1^2"),
]


def _write_flipped(directory):
    doc = problem_to_document(projective_space(2))
    doc["fixed_points"][0]["sign"] = -1
    path = Path(directory) / "flipped_cp2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def render_golden(directory):
    flipped = _write_flipped(directory)
    chunks = []
    for case in CASES:
        argv = [flipped if arg == FLIPPED else arg for arg in case]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        command = " ".join(shlex.quote(arg) for arg in case)
        chunks.append(f"$ torusloc {command}\n[exit {code}]\n{out.getvalue()}")
    return "".join(chunks)


def test_cli_stdout_matches_golden(tmp_path):
    assert render_golden(tmp_path).encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_bytes(render_golden(scratch).encode("utf-8"))
