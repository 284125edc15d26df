import json

import pytest

from bonft import cli
from bonft.birkhoff import state_from_json
from bonft.hardy import potential_from_json, potential_to_json

pytestmark = pytest.mark.filterwarnings(
    "ignore::bonft.errors.TruncationWarning")


@pytest.fixture
def potential_file(tmp_path):
    obj = potential_to_json(__import__("bonft").Potential(
        0.5, 2, {1: 0.02 + 0.01j, 2: -0.015j}, real=True))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_transform_then_inverse_round_trip(tmp_path, potential_file):
    state_path = str(tmp_path / "state.json")
    rc = cli.main(["transform", "-i", potential_file, "-o", state_path,
                   "--lax-dim", "48"])
    assert rc == 0
    state = state_from_json(json.loads(open(state_path).read()))
    assert state.real_flag
    back_path = str(tmp_path / "back.json")
    rc = cli.main(["inverse", "-i", state_path, "-o", back_path,
                   "--lax-dim", "48"])
    assert rc == 0
    u = potential_from_json(json.loads(open(back_path).read()))
    want = potential_from_json(json.loads(open(potential_file).read()))
    for n in (1, 2):
        assert u.coeff(n) == pytest.approx(want.coeff(n), abs=1e-9)


def test_spectrum_output_is_deterministic(tmp_path, potential_file):
    outs = []
    for name in ("a.json", "b.json"):
        path = str(tmp_path / name)
        assert cli.main(["spectrum", "-i", potential_file, "-o", path]) == 0
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["lambdas"][0] != payload["lambdas"][1]
    assert len(payload["lambdas"]) == payload["K_use"] + 1


def test_evolve_preserves_moduli(tmp_path, potential_file):
    state_path = str(tmp_path / "state.json")
    cli.main(["transform", "-i", potential_file, "-o", state_path,
              "--lax-dim", "48"])
    out_path = str(tmp_path / "later.json")
    assert cli.main(["evolve", "-i", state_path, "--t", "0.7",
                     "-o", out_path]) == 0
    before = state_from_json(json.loads(open(state_path).read()))
    after = state_from_json(json.loads(open(out_path).read()))
    for n in (1, -1, 2, -2):
        assert abs(after.coord(n)) == pytest.approx(abs(before.coord(n)),
                                                    abs=1e-14)


def test_vanishing_csv_counts(tmp_path):
    path = str(tmp_path / "v.csv")
    assert cli.main(["vanishing", "--max-d", "2", "--l-bound", "2",
                     "-o", path]) == 0
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "check,count"
    rows = dict(line.split(",") for line in lines[1:])
    assert rows == {"exhaustive_d1": "5", "exhaustive_d2": "25",
                    "random": "0", "violations": "0"}


def test_combi_json_counts(tmp_path):
    path = str(tmp_path / "c.json")
    assert cli.main(["combi", "--max-d", "3", "--format", "json",
                     "-o", path]) == 0
    payload = json.loads(open(path).read())
    assert payload["instances"] == {"1": 1, "2": 4, "3": 15}
    assert payload["violations"] == 0


def test_continuity_csv_columns(tmp_path):
    path = str(tmp_path / "cont.csv")
    assert cli.main(["continuity", "--s", "-0.45", "--k", "8",
                     "--max-m", "1500", "--max-probes", "3",
                     "-o", path]) == 0
    lines = open(path).read().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["m", "delta", "d0", "dt", "ratio", "omega_gap_pred",
                      "omega_gap_meas", "phase_bound_ok"]
    assert len(lines) == 4
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_bracket_small(tmp_path):
    path = str(tmp_path / "b.json")
    assert cli.main(["bracket", "--modes", "1", "--scale", "0.005",
                     "-o", path]) == 0
    payload = json.loads(open(path).read())
    assert payload["max_dev_canonical"] < 1e-5
    assert payload["max_dev_holomorphic"] < 1e-5


def test_error_exit_codes(tmp_path, potential_file, monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["transform", "-i", str(bad)]) == 1
    assert "line" in capsys.readouterr().err
    assert cli.main(["transform", "-i", str(tmp_path / "missing.json")]) == 1
    assert cli.main(["spectrum", "-i", potential_file, "--lax-dim", "oops"]) == 1
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()

    # property violations surface as exit 3 after the report is written
    monkeypatch.setattr(cli, "sweep_vanishing",
                        lambda *a, **k: ({1: 5}, 0, [(3,)]))
    out = str(tmp_path / "viol.csv")
    assert cli.main(["vanishing", "--max-d", "1", "--l-bound", "2",
                     "-o", out]) == 3
    assert "property violation" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, capsys):
    state = {"s": 0.5, "N_b": 1,
             "plus": [{"n": 1, "re": 5.0, "im": 0.0}],
             "minus": [{"n": -1, "re": 5.0, "im": 0.0}],
             "real": True}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert cli.main(["inverse", "-i", str(path), "--lax-dim", "16"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("modes", ["0", "-1"])
def test_compare_rejects_nonpositive_modes(potential_file, capsys, modes):
    # --modes 0 used to fall back to K_use = M/2 without a word
    argv = ["compare", "-i", potential_file, "--lax-dim", "32", "--grid", "32",
            "--t", "0.05", "--modes", modes]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--modes" in captured.err
