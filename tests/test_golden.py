"""Byte-for-byte CLI output against files recorded from an earlier build.

The files under tests/golden/ pin the output of every verb, on stdout and
through -o FILE, so a change to how they compute or write must reproduce
the same bytes.  inverse and evolve read
the pinned transform output as their input state.
"""

import os

import pytest

from bonft import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
U = os.path.join(GOLDEN, "u.json")
UC = os.path.join(GOLDEN, "uc.json")
SMALL = ["--lax-dim", "32", "--modes", "8"]
SWEEP = ["vanishing", "--max-d", "3", "--l-bound", "3", "--random-count", "40",
         "--seed", "7"]
SPECTRUM = ["spectrum", "-i", U, "--lax-dim", "16"]
STATE = os.path.join(GOLDEN, "transform.json")

CASES = [
    (SWEEP + ["--format", "json"], "vanishing.json"),
    (SWEEP, "vanishing.csv"),
    (["combi", "--max-d", "5"], "combi.csv"),
    (["combi", "--max-d", "5", "--format", "json"], "combi.json"),
    (SPECTRUM, "spectrum.json"),
    (SPECTRUM + ["--format", "csv"], "spectrum.csv"),
    (["spectrum", "-i", UC, "--lax-dim", "16"], "spectrum_complex.json"),
    (["transform", "-i", U] + SMALL, "transform.json"),
    (["transform", "-i", U], "transform_default.json"),
    (["transform", "-i", UC] + SMALL, "transform_complex.json"),
    (["inverse", "-i", STATE, "--lax-dim", "32"], "inverse.json"),
    (["evolve", "-i", STATE, "--t", "0.05"], "evolve.json"),
    (["evolve", "-i", os.path.join(GOLDEN, "transform_complex.json"), "--t", "0.05"],
     "evolve_complex.json"),
    (["compare", "-i", U] + SMALL + ["--grid", "32", "--t", "0.05"], "compare.json"),
    (["compare", "-i", U] + SMALL + ["--grid", "32", "--t", "0.05", "--format", "csv"],
     "compare.csv"),
    (["compare", "-i", U] + SMALL + ["--t", "0.05"], "compare_default.json"),
    (["continuity", "--max-m", "2000"], "continuity.csv"),
    (["continuity"], "continuity_default.csv"),
    (["continuity", "--s", "-0.45", "--k", "8", "--max-m", "600000",
      "--max-probes", "40", "--format", "json"], "continuity_verify.json"),
    (["bracket"], "bracket.json"),
]


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_stdout_matches_golden(argv, name, capsys):
    assert cli.main(argv) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_output_file_matches_golden(argv, name, tmp_path, capsys):
    path = tmp_path / name
    assert cli.main(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert path.read_bytes() == fh.read()
