"""Golden CLI values: recorded stdout and exit codes of fast commands.

A change that only restructures code must leave these outputs alone: the
headers, row labels and exit codes match exactly, and every number matches
to 1e-13 relative.  After a change that is meant to move a value, rewrite
the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and say in the change log which values moved and why.
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


def _load():
    return json.loads(GOLDEN.read_text())


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


if __name__ == "__main__":
    cases = []
    for case in _load():
        code, out = _run(case["argv"])
        cases.append({"argv": case["argv"], "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
