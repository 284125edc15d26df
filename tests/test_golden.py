"""Byte-for-byte CLI output against files recorded from an earlier build.

The files under tests/golden/ pin the stdout of the sweep and spectrum
verbs, so a change to how they compute must reproduce the same bytes.
"""

import os

import pytest

from bonft import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SWEEP = ["vanishing", "--max-d", "3", "--l-bound", "3", "--random-count", "40",
         "--seed", "7"]
SPECTRUM = ["spectrum", "-i", os.path.join(GOLDEN, "u.json"), "--lax-dim", "16"]

CASES = [
    (SWEEP + ["--format", "json"], "vanishing.json"),
    (SWEEP, "vanishing.csv"),
    (["combi", "--max-d", "5"], "combi.csv"),
    (SPECTRUM, "spectrum.json"),
    (SPECTRUM + ["--format", "csv"], "spectrum.csv"),
]


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_stdout_matches_golden(argv, name, capsys):
    assert cli.main(argv) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()
