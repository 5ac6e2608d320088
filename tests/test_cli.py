"""End-to-end runs of the command-line entry points."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from paralens.cli import main, parse_game_spec
from paralens.demos import run_gan
from paralens.errors import SpecFormatError


def _pd_spec():
    return {
        "players": [
            {"name": "row", "strategies": ["C", "D"]},
            {"name": "col", "strategies": ["C", "D"]},
        ],
        "payoffs": {
            "C,C": [2, 2],
            "C,D": [0, 3],
            "D,C": [3, 0],
            "D,D": [1, 1],
        },
        "selection": "argmax_each",
    }


def _path_of(raiser):
    with pytest.raises(SpecFormatError) as exc:
        parse_game_spec(raiser)
    return exc.value.path


def test_spec_error_paths():
    spec = _pd_spec()
    assert _path_of([]) == "$"
    bad = copy.deepcopy(spec)
    del bad["players"]
    assert _path_of(bad) == "$.players"
    bad = copy.deepcopy(spec)
    bad["players"][0] = "row"
    assert _path_of(bad) == "$.players[0]"
    bad = copy.deepcopy(spec)
    del bad["players"][1]["name"]
    assert _path_of(bad) == "$.players[1].name"
    bad = copy.deepcopy(spec)
    bad["players"][1]["name"] = "row"
    assert _path_of(bad) == "$.players[1].name"
    bad = copy.deepcopy(spec)
    bad["players"][0]["strategies"] = []
    assert _path_of(bad) == "$.players[0].strategies"
    bad = copy.deepcopy(spec)
    bad["players"][0]["strategies"] = ["C", "D,E"]
    assert _path_of(bad) == "$.players[0].strategies[1]"
    bad = copy.deepcopy(spec)
    bad["players"][0]["strategies"] = ["C", "C"]
    assert _path_of(bad) == "$.players[0].strategies"
    bad = copy.deepcopy(spec)
    del bad["payoffs"]
    assert _path_of(bad) == "$.payoffs"
    bad = copy.deepcopy(spec)
    bad["payoffs"]["C"] = [1, 1]
    assert _path_of(bad) == "$.payoffs['C']"
    bad = copy.deepcopy(spec)
    bad["payoffs"]["C,X"] = bad["payoffs"].pop("C,D")
    assert _path_of(bad) == "$.payoffs['C,X']"
    bad = copy.deepcopy(spec)
    bad["payoffs"]["C,C"] = [True, 2]
    assert _path_of(bad) == "$.payoffs['C,C'][0]"
    bad = copy.deepcopy(spec)
    bad["payoffs"]["C,C"] = ["two", 2]
    assert _path_of(bad) == "$.payoffs['C,C'][0]"
    bad = copy.deepcopy(spec)
    bad["payoffs"]["C,D"] = [0, "1/0"]
    bad["payoffs"]["D,C"] = ["1/0", 0]
    assert _path_of(bad) == "$.payoffs['C,D'][1]"
    bad = copy.deepcopy(spec)
    del bad["payoffs"]["D,D"]
    assert _path_of(bad) == "$.payoffs"
    bad = copy.deepcopy(spec)
    bad["selection"] = "argmin_each"
    assert _path_of(bad) == "$.selection"
    bad = copy.deepcopy(spec)
    bad["selection"] = ["argmax", "softmax"]
    assert _path_of(bad) == "$.selection[1]"


def test_spec_parses_rationals_and_tags():
    spec = _pd_spec()
    spec["payoffs"]["C,C"] = ["3/2", 1.5]
    spec["selection"] = ["argmax", "total"]
    game, selection = parse_game_spec(spec)
    assert selection == ["argmax", "total"]
    assert [p.labels for p in game.players] == [("C", "D"), ("C", "D")]
    assert game.payoff(("C", "C")) == ("3/2", "3/2")
    # a payoff written the same way twice is read once
    assert game.values[("C", "D")][1] is game.values[("D", "C")][0]


def test_solve_bundled_dilemma(capsys):
    assert main(["solve", "pd.json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"agrees":true,"oracle":[["D","D"]],"selection":"argmax_each",'
        '"solutions":[["D","D"]]}\n'
    )


# Written to a file by the golden test: one player, and three players.
_ONE = {
    "players": [{"name": "a", "strategies": ["x", "y", "z"]}],
    "payoffs": {"x": [1], "y": [3], "z": [3]},
}
_THREE = {
    "players": [{"name": n, "strategies": ["L", "R"]} for n in "abc"],
    "payoffs": {
        f"{i},{j},{k}": [int(i == j), int(j == k), int(i == k) + (k == "R")]
        for i in "LR"
        for j in "LR"
        for k in "LR"
    },
}

_GOLDEN = [
    ("pd.json", None, 0, '{"agrees":true,"oracle":[["D","D"]],"selection":"argmax_each","solutions":[["D","D"]]}'),
    ("pd.json", "hicks_sum", 0, '{"agrees":true,"oracle":[["C","C"]],"selection":"hicks_sum","solutions":[["C","C"]]}'),
    ("pd.json", "argmax_each", 0, '{"agrees":true,"oracle":[["D","D"]],"selection":"argmax_each","solutions":[["D","D"]]}'),
    ("pd.json", "argmax,total", 0, '{"agrees":true,"oracle":[["D","C"],["D","D"]],"selection":["argmax","total"],"solutions":[["D","C"],["D","D"]]}'),
    ("pd.json", "total,argmax", 0, '{"agrees":true,"oracle":[["C","D"],["D","D"]],"selection":["total","argmax"],"solutions":[["C","D"],["D","D"]]}'),
    ("matching_pennies.json", None, 0, '{"agrees":true,"oracle":[],"selection":"argmax_each","solutions":[]}'),
    ("matching_pennies.json", "hicks_sum", 0, '{"agrees":true,"oracle":[["H","H"],["H","T"],["T","H"],["T","T"]],"selection":"hicks_sum","solutions":[["H","H"],["H","T"],["T","H"],["T","T"]]}'),
    ("matching_pennies.json", "argmax_each", 0, '{"agrees":true,"oracle":[],"selection":"argmax_each","solutions":[]}'),
    ("matching_pennies.json", "argmax,total", 0, '{"agrees":true,"oracle":[["H","H"],["T","T"]],"selection":["argmax","total"],"solutions":[["H","H"],["T","T"]]}'),
    ("matching_pennies.json", "total,argmax", 0, '{"agrees":true,"oracle":[["H","T"],["T","H"]],"selection":["total","argmax"],"solutions":[["H","T"],["T","H"]]}'),
    ("coordination.json", None, 0, '{"agrees":true,"oracle":[["A","A"],["B","B"]],"selection":"argmax_each","solutions":[["A","A"],["B","B"]]}'),
    ("coordination.json", "hicks_sum", 0, '{"agrees":true,"oracle":[["A","A"]],"selection":"hicks_sum","solutions":[["A","A"]]}'),
    ("coordination.json", "argmax_each", 0, '{"agrees":true,"oracle":[["A","A"],["B","B"]],"selection":"argmax_each","solutions":[["A","A"],["B","B"]]}'),
    ("coordination.json", "argmax,total", 0, '{"agrees":true,"oracle":[["A","A"],["B","B"]],"selection":["argmax","total"],"solutions":[["A","A"],["B","B"]]}'),
    ("coordination.json", "total,argmax", 0, '{"agrees":true,"oracle":[["A","A"],["B","B"]],"selection":["total","argmax"],"solutions":[["A","A"],["B","B"]]}'),
    ("one", None, 0, '{"agrees":true,"oracle":[["y"],["z"]],"selection":"argmax_each","solutions":[["y"],["z"]]}'),
    ("one", "hicks_sum", 0, '{"agrees":true,"oracle":[["y"],["z"]],"selection":"hicks_sum","solutions":[["y"],["z"]]}'),
    ("one", "total", 0, '{"agrees":true,"oracle":[["x"],["y"],["z"]],"selection":["total"],"solutions":[["x"],["y"],["z"]]}'),
    ("three", None, 0, '{"agrees":true,"oracle":[["L","L","L"],["R","R","R"]],"selection":"argmax_each","solutions":[["L","L","L"],["R","R","R"]]}'),
    ("three", "hicks_sum", 0, '{"agrees":true,"oracle":[["R","R","R"]],"selection":"hicks_sum","solutions":[["R","R","R"]]}'),
    ("three", "argmax,total,argmax", 0, '{"agrees":true,"oracle":[["L","L","L"],["L","L","R"],["R","R","R"]],"selection":["argmax","total","argmax"],"solutions":[["L","L","L"],["L","L","R"],["R","R","R"]]}'),
    # --max-strategies caps strategies per decision, not the oracle's profiles, in either spelling
    ("pd.json --max-strategies 3", "argmax_each", 0, '{"agrees":true,"oracle":[["D","D"]],"selection":"argmax_each","solutions":[["D","D"]]}'),
    ("pd.json --max-strategies 3", "argmax,argmax", 0, '{"agrees":true,"oracle":[["D","D"]],"selection":["argmax","argmax"],"solutions":[["D","D"]]}'),
]


@pytest.mark.parametrize("spec, selection, code, stdout", _GOLDEN)
def test_solve_golden_output(spec, selection, code, stdout, tmp_path, capsys):
    if spec in ("one", "three"):
        path = tmp_path / f"{spec}.json"
        path.write_text(json.dumps(_ONE if spec == "one" else _THREE), encoding="utf-8")
        spec = str(path)
    # the spec column may carry extra flags after the file name
    argv = ["solve", *spec.split()] + ([] if selection is None else ["--selection", selection])
    assert main(argv) == code
    assert capsys.readouterr().out == stdout + "\n"


def test_solve_output_is_reproducible(capsys):
    main(["solve", "pd.json"])
    first = capsys.readouterr().out
    main(["solve", "pd.json"])
    assert capsys.readouterr().out == first


def test_solve_hicks_selection(capsys):
    assert main(["solve", "pd.json", "--selection", "hicks_sum"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solutions"] == [["C", "C"]]
    assert report["agrees"] is True


def test_solve_other_fixtures(capsys):
    assert main(["solve", "matching_pennies.json"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == []
    assert main(["solve", "coordination.json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solutions"] == [["A", "A"], ["B", "B"]]


def test_solve_with_tag_override(capsys):
    assert main(["solve", "pd.json", "--selection", "argmax,total"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"] == ["argmax", "total"]
    assert report["solutions"] == [["D", "C"], ["D", "D"]]
    assert report["agrees"] is True


def test_solve_rejects_bad_inputs(tmp_path, capsys):
    assert main(["solve", "pd.json", "--selection", "argmax"]) == 2
    assert "--selection" in capsys.readouterr().err
    assert main(["solve", "/nonexistent/game.json"]) == 2
    assert "no such spec" in capsys.readouterr().err
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_pd_spec()).replace("[2, 2]", "[2, " + "7" * 5000 + "]"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff{")
    for path in (tmp_path, huge, latin1):
        assert main(["solve", str(path)]) == 2
        assert str(path) in capsys.readouterr().err
    # exponents are bounded before Fraction expands them into integers
    for payoff in ("1e5000", "1e999999999", "7" * 4000 + "e1000", "1e-4300"):
        spec = _pd_spec()
        spec["payoffs"]["D,C"] = [3, payoff]
        path = tmp_path / "big_exponent.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "$.payoffs['D,C'][1]: payoff has more than 4300 digits" in err
    spec["payoffs"]["D,C"] = [3, "1e4299"]  # 4,300 digits: within the limit
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    for flag, value in (("--max-strategies", "-1"), ("--max-costates", "-5")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "pd.json", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_solve_hicks_total_past_the_digit_limit(tmp_path, capsys):
    # each payoff has 4,300 digits, within the limit; their sum has 4,301
    big = int("9" * 4300)
    spec = {
        "players": [{"name": "a", "strategies": ["x"]}, {"name": "b", "strategies": ["y"]}],
        "payoffs": {"x,y": [big, big]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["solve", str(path), "--selection", "argmax_each"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [["x", "y"]]
    assert main(["solve", str(path), "--selection", "hicks_sum"]) == 1
    assert capsys.readouterr() == ("", "error: payoff has more than 4300 digits\n")


def test_solve_user_spec_from_disk(tmp_path, capsys):
    # the dilemma with the labels' roles swapped: now C dominates
    spec = _pd_spec()
    spec["payoffs"] = {
        "C,C": [1, 1],
        "C,D": [3, 0],
        "D,C": [0, 3],
        "D,D": [2, 2],
    }
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solutions"] == [["C", "C"]]
    assert report["agrees"] is True


def test_train_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["train", "linreg", "--steps", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out} (5 steps)" in printed
    assert "final loss = " in printed
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 6
    assert lines[1].startswith("0,")


_TRAIN_GOLDEN = Path(__file__).parent / "golden" / "train"


# stdout and CSV bytes of each run with default steps and alpha, recorded
# with numpy 2.4 and its bundled OpenBLAS on x86-64
@pytest.mark.parametrize(
    "argv, name",
    [
        (["linreg"], "linreg"),
        (["mlp"], "mlp"),
        (["gan"], "gan"),
        (["gan", "--seed", "3", "--steps", "50"], "gan_seed3_steps50"),
    ],
)
def test_train_golden_output(argv, name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", *argv]) == 0
    assert capsys.readouterr().out == (_TRAIN_GOLDEN / f"{name}.stdout").read_text("utf-8")
    written = (tmp_path / f"{argv[0]}.csv").read_bytes()
    assert written == (_TRAIN_GOLDEN / f"{name}.csv").read_bytes()


# a step size far past stability: the loss overflows and the run stops at
# the first non-finite value with one line on stderr and exit 1
@pytest.mark.parametrize("demo, step", [("linreg", 70), ("mlp", 79)])
def test_train_divergence_fails_loudly(demo, step, tmp_path, capsys):
    assert main(["train", demo, "--alpha", "10", "--out", str(tmp_path / "run.csv")]) == 1
    err = f"error: training diverged at step {step}: non-finite value at node 'loss'\n"
    assert capsys.readouterr() == ("", err)


def test_train_zero_steps_is_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["train", "gan", "--steps", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "step,d_fake,d_real\n"


def test_train_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["train", "gan", "--steps", "5", "--seed", "3", "--out", str(a)])
    main(["train", "gan", "--steps", "5", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_train_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "linreg", "--steps", "1"]) == 0
    assert "wrote linreg.csv (1 steps)" in capsys.readouterr().out
    assert (tmp_path / "linreg.csv").is_file()


def test_train_flag_validation(capsys):
    for alpha in ("1/0", "1e400"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "linreg", "--alpha", alpha])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err
    for flag in ("--steps", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "linreg", flag, "-3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_gan_with_zero_rate_keeps_parameters():
    result = run_gan(seed=1, steps=3, alpha=0)
    for snap in result.snapshots:
        for key in ("gen", "disc"):
            assert np.array_equal(snap[key], result.initial_params[key])


def test_check_single_name(capsys):
    assert main(["check", "--filter", "pd-solutions"]) == 0
    assert capsys.readouterr().out == "ok pd-solutions (4 instances)\n"


def test_check_unknown_name(capsys):
    assert main(["check", "--filter", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err
    assert "pd-solutions" in err


def test_check_stops_at_the_first_failing_instance(monkeypatch):
    from paralens import checks

    real, calls = checks.lens_equal, []

    def fails_fifth(lhs, rhs):
        calls.append(None)
        return len(calls) != 5 and real(lhs, rhs)

    monkeypatch.setattr(checks, "lens_equal", fails_fifth)
    result = checks.check_lens_category_laws()
    assert (result.ok, result.instances) == (False, 5)
    assert result.detail == "right identity failed at round 1"
    assert len(calls) == 5


def test_check_catches_a_planted_bug(capsys, monkeypatch):
    import paralens.smooth_autodiff as sa

    real = sa.gd_lens
    monkeypatch.setattr(sa, "gd_lens", lambda alpha, dim: real(-alpha, dim))
    assert main(["check", "--filter", "gradient-descent-lens"]) == 1
    assert "FAIL gradient-descent-lens" in capsys.readouterr().out
