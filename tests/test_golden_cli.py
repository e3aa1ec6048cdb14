"""Golden CLI values: recorded stdout and exit codes of fast commands.

A change that only restructures code must leave these outputs alone: the
headers, row labels and exit codes match exactly, and every number matches
to 1e-13 relative.  After a change that is meant to move a value, rewrite
the rows it moves with

    PYTHONPATH=src python tests/test_golden_cli.py ARG...

which reruns only the rows whose argv starts with ARG... (`optimize` takes
every optimize row, `pair --pair vo1:d1=3,d2=1,nphi=64` that one row) and
leaves every other row as recorded, so digits that differ from host to host
within the tolerance stay put.  A new row is an entry with its argv alone,
filled in the same way.  Say in the change log which values moved and why.
"""

import contextlib
import io
import json
import math
import pathlib

import pytest

from spheremaps import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
REL = 1e-13


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same(got, want):
    a, b = _number(got), _number(want)
    if a is None or b is None:
        return got == want
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= REL * abs(b)


def _load(path=GOLDEN):
    return json.loads(path.read_text())


@pytest.mark.parametrize("case", _load(), ids=lambda c: " ".join(c["argv"]))
def test_output_matches_golden(case):
    code, out = _run(case["argv"])
    assert code == case["exit"]
    got, want = out.splitlines(), case["stdout"].splitlines()
    assert len(got) == len(want)
    for line, ref in zip(got, want):
        cells, ref_cells = line.split(","), ref.split(",")
        assert len(cells) == len(ref_cells), (line, ref)
        assert all(map(_same, cells, ref_cells)), (line, ref)


def _regenerate(prefix, path=GOLDEN):
    """Rerun the rows whose argv starts with prefix and rewrite the file;
    the argvs of the rerun rows, in file order."""
    cases, rerun = _load(path), []
    for case in cases:
        if case["argv"][:len(prefix)] == prefix:
            case["exit"], case["stdout"] = _run(case["argv"])
            rerun.append(case["argv"])
    if rerun:
        path.write_text(json.dumps(cases, indent=1) + "\n")
    return rerun


def test_regenerating_reruns_only_the_named_rows(tmp_path):
    golden = tmp_path / "golden_cli.json"
    stale = {"exit": 0, "stdout": "stale\n"}
    golden.write_text(json.dumps([
        {"argv": ["degree", "--map", "power:d=3"], **stale},
        {"argv": ["degree", "--map", "power:d=2"], **stale},
        {"argv": ["degree", "--map", "power:d=2", "--format", "tsv"], **stale},
        {"argv": ["degree", "--map", "power:d=2,extra=1"]}]))
    rerun = _regenerate(["degree", "--map", "power:d=2"], golden)
    assert rerun == [["degree", "--map", "power:d=2"],
                     ["degree", "--map", "power:d=2", "--format", "tsv"]]
    rows = json.loads(golden.read_text())
    assert rows[0] == {"argv": ["degree", "--map", "power:d=3"], **stale}
    assert [rows[i]["exit"] for i in (1, 2)] == [0, 0]
    assert rows[1]["stdout"] == _run(rows[1]["argv"])[1] != "stale\n"
    assert "exit" not in rows[3]
    assert _regenerate(["seminorm"], golden) == []
    assert json.loads(golden.read_text()) == rows
    assert _regenerate(["degree", "--map", "power:d=2,extra=1"], golden)
    assert json.loads(golden.read_text())[3]["exit"] == 2


if __name__ == "__main__":
    import sys

    if len(sys.argv) < 2:
        sys.exit(__doc__)
    rerun = _regenerate(sys.argv[1:])
    if not rerun:
        sys.exit(f"no row's argv starts with {sys.argv[1:]}")
    for argv in rerun:
        print("rewrote", " ".join(argv))
