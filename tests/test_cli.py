"""End-to-end runs of the command-line entry points."""

import copy
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paralens import cli
from paralens.cli import DEMO_NAMES, main, parse_game_spec
from paralens.demos import DEMOS, run_gan
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
    assert game.values[("C", "C")] == (Fraction(3, 2), Fraction(3, 2))
    # 3/2 ranks third among each player's values 0, 1, 3/2, 3
    assert game.payoff(("C", "C")) == ("2", "2")
    # a payoff written the same way twice is read once
    assert game.values[("C", "D")][1] is game.values[("D", "C")][0]
    # the rest of the grammar every supported Python reads alike
    for text, value in {" 3/2 ": Fraction(3, 2), "-1.5e3": -1500, ".5": Fraction(1, 2), "5.": 5}.items():
        spec["payoffs"]["D,C"] = [3, text]
        assert parse_game_spec(spec)[0].values[("D", "C")] == (3, value)



class _Level(IntEnum):
    ONE = 1


class _Real(float):
    pass


@pytest.mark.parametrize("payoff", [np.float64(1.5), _Level.ONE, _Real(1.5)], ids=["numpy-float64", "int-enum", "float-subclass"])
def test_a_payoff_of_a_subclass_of_a_json_type_is_an_offence(payoff):
    # a decoded spec holds exactly int, float and str; from Python, a subclass of one is no payoff
    players = [{"name": "p", "strategies": ["x", "y"]}, {"name": "q", "strategies": ["x", "y"]}]
    spec = {"players": players, "payoffs": {"x,x": [1, 1], "x,y": [payoff, 2], "y,x": [0, 0], "y,y": [0, 0]}}
    with pytest.raises(SpecFormatError) as exc:
        parse_game_spec(spec)
    assert str(exc.value) == "$.payoffs['x,y'][0]: payoffs must be numbers or rational strings"


@pytest.mark.parametrize("selection", [5, {}])
def test_a_selection_that_is_neither_a_string_nor_a_list_is_an_offence(selection):
    spec = _pd_spec()
    spec["selection"] = selection
    with pytest.raises(SpecFormatError) as exc:
        parse_game_spec(spec)
    assert str(exc.value) == "$.selection: expected a string or a list of tags"


def test_a_valid_spec_is_read_by_columns(monkeypatch):
    # a (2,12,2) spec as the benchmark generates it: ints and "p/q" strings, one value shared by both players
    rng = random.Random(12)
    moves = [f"s{j}" for j in range(12)]
    pools = ([3, "5/2"], [3, "-7/3"])
    payoffs = {f"{a},{b}": [rng.choice(pool) for pool in pools] for a in moves for b in moves}
    spec = {"players": [{"name": f"p{i}", "strategies": moves} for i in range(2)], "payoffs": payoffs}
    walks, reads = [], []
    real_walk, real_read = cli._walk_payoffs, cli._read_rational
    monkeypatch.setattr(cli, "_walk_payoffs", lambda *args: walks.append(args) or real_walk(*args))
    monkeypatch.setattr(cli, "_read_rational", lambda v, path: reads.append(v) or real_read(v, path))
    game = parse_game_spec(json.loads(json.dumps(spec)))[0]
    assert walks == [] and sorted(map(str, reads)) == ["-7/3", "3", "5/2"]
    assert game.levels == ((Fraction(5, 2), 3), (Fraction(-7, 3), 3))
    threes = [vals for vals in game.values.values() if vals[0] == vals[1] == 3]
    assert threes and all(vals[0] is vals[1] is threes[0][0] for vals in threes)
    monkeypatch.undo()
    # 1, 1.0 and "1" side by side read as one value with one rank
    mixed = {"players": [{"name": "p", "strategies": ["a", "b", "c"]}, {"name": "q", "strategies": ["x"]}]}
    mixed["payoffs"] = {"a,x": [1, 1.0], "b,x": [1.0, "1"], "c,x": ["1", 1]}
    game = parse_game_spec(mixed)[0]
    assert set(game.values.values()) == {(1, 1)} and game.levels == ((1,), (1,))
    assert set(game.payoff.table.values()) == {("0", "0")}
    # but an int and an equal float whose text reads as another integer stay apart
    mixed["payoffs"] = {"a,x": [2**60, 0], "b,x": [2.0**60, 0], "c,x": [2**60, 0]}
    values = parse_game_spec(mixed)[0].values
    assert values[("a", "x")][0] == values[("c", "x")][0] == 2**60
    assert values[("b", "x")][0] == Fraction(str(2.0**60)) != 2**60

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
    ("pd.json", "argmax,argmax", 0, '{"agrees":true,"oracle":[["D","D"]],"selection":["argmax","argmax"],"solutions":[["D","D"]]}'),
    ("pd.json", "total,argmax", 0, '{"agrees":true,"oracle":[["C","D"],["D","D"]],"selection":["total","argmax"],"solutions":[["C","D"],["D","D"]]}'),
    ("pd.json", "total,total", 0, '{"agrees":true,"oracle":[["C","C"],["C","D"],["D","C"],["D","D"]],"selection":["total","total"],"solutions":[["C","C"],["C","D"],["D","C"],["D","D"]]}'),
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
    ("three", "total,total,total", 0, '{"agrees":true,"oracle":[["L","L","L"],["L","L","R"],["L","R","L"],["L","R","R"],["R","L","L"],["R","L","R"],["R","R","L"],["R","R","R"]],"selection":["total","total","total"],"solutions":[["L","L","L"],["L","L","R"],["L","R","L"],["L","R","R"],["R","L","L"],["R","L","R"],["R","R","L"],["R","R","R"]]}'),
    ("three", "argmax,total,argmax", 0, '{"agrees":true,"oracle":[["L","L","L"],["L","L","R"],["R","R","R"]],"selection":["argmax","total","argmax"],"solutions":[["L","L","L"],["L","L","R"],["R","R","R"]]}'),
]


@pytest.mark.parametrize("spec, selection, code, stdout", _GOLDEN)
def test_solve_golden_output(spec, selection, code, stdout, tmp_path, capsys):
    if spec in ("one", "three"):
        path = tmp_path / f"{spec}.json"
        path.write_text(json.dumps(_ONE if spec == "one" else _THREE), encoding="utf-8")
        spec = str(path)
    argv = ["solve", spec] + ([] if selection is None else ["--selection", selection])
    assert main(argv) == code
    assert capsys.readouterr().out == stdout + "\n"


def test_solve_output_is_reproducible(capsys):
    main(["solve", "pd.json"])
    first = capsys.readouterr().out
    main(["solve", "pd.json"])
    assert capsys.readouterr().out == first


_SOLVE_IN_A_FRESH_PROCESS = """
import sys
import paralens
from paralens.cli import main
main(["solve", "pd.json"])
main(["solve", "pd.json", "--selection", "hicks_sum"])
print(sorted({"numpy", "paralens.smooth_autodiff", "paralens.demos", "paralens.checks"} & set(sys.modules)))
"""


def test_a_solve_loads_neither_numpy_nor_the_smooth_side(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _SOLVE_IN_A_FRESH_PROCESS], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [_GOLDEN[0][3], _GOLDEN[1][3], "[]"]


def test_the_train_choices_are_the_demos():
    assert DEMO_NAMES == tuple(sorted(DEMOS))


def test_a_stdout_closed_early_exits_1_and_points_stdout_at_devnull(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class Closed(io.TextIOBase):  # a pipe whose reader is gone, as under `| head -c 5`
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", Closed())
    try:
        assert main(["solve", "pd.json"]) == 1
        # the interpreter's last flush of stdout then writes to the null device
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


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
    # the enumeration cap is a constant, not a flag
    for flag, value in (("--max-strategies", "3"), ("--max-costates", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "pd.json", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_a_short_table_fails_at_the_spec_cost(tmp_path, capsys):
    # 10**30 profiles: a parse that touched the whole product would never return
    players = [{"name": f"p{i}", "strategies": [f"m{j}" for j in range(10)]} for i in range(30)]
    path = tmp_path / "wide.json"
    for payoffs, message in (
        ({}, "$.payoffs: missing profile " + ",".join(["m0"] * 30)),
        ({",".join(["m0"] * 30): [1] * 30}, "$.payoffs: missing profile " + ",".join(["m0"] * 29 + ["m1"])),
        ({"m0,m1": [1, 2]}, "$.payoffs['m0,m1']: profile has 2 moves for 30 players"),
        ({",".join(["m0"] * 29 + ["x"]): [1] * 30}, "unknown move 'x' for player 29"),
    ):
        path.write_text(json.dumps({"players": players, "payoffs": payoffs}), encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err


def _one_move_spec(n):
    return {
        "players": [{"name": f"p{i}", "strategies": ["a"]} for i in range(n)],
        "payoffs": {",".join(["a"] * n): [0] * n},
    }


def test_a_spec_past_the_player_bound_exits_2(tmp_path, capsys):
    # the nested Nash product recurses per player; 200 players would exhaust the stack
    path = tmp_path / "many.json"
    path.write_text(json.dumps(_one_move_spec(200)), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == "error: $.players: more than 32 players"
    path.write_text(json.dumps(_one_move_spec(32)), encoding="utf-8")
    for selection in ("argmax_each", "hicks_sum", ",".join(["argmax", "total"] * 16)):
        assert main(["solve", str(path), "--selection", selection]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solutions"] == [["a"] * 32] and report["agrees"] is True


def test_solve_hicks_total_past_the_digit_limit(tmp_path, capsys):
    # each payoff has 4,300 digits, within the limit; their sum has 4,301,
    # which is ranked, never rendered
    big = int("9" * 4300)
    spec = {
        "players": [{"name": "a", "strategies": ["x"]}, {"name": "b", "strategies": ["y"]}],
        "payoffs": {"x,y": [big, big]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["solve", str(path), "--selection", "argmax_each"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [["x", "y"]]
    assert main(["solve", str(path), "--selection", "hicks_sum"]) == 0
    assert json.loads(capsys.readouterr().out)["solutions"] == [["x", "y"]]


def test_parse_bounds_an_int_payoff_before_rendering_it():
    # json.loads refuses such an int, but a library caller can pass one;
    # 10**4300 has 4,301 digits and the bit length of 10**4300 - 1, which has 4,300
    spec = _pd_spec()
    for big in (10**4300, -(10**4300), 10**5000):
        spec["payoffs"]["D,C"] = [3, big]
        with pytest.raises(SpecFormatError) as exc:
            parse_game_spec(spec)
        assert str(exc.value) == "$.payoffs['D,C'][1]: payoff has more than 4300 digits"
    spec["payoffs"]["D,C"] = [3, 10**4300 - 1]
    assert parse_game_spec(spec)[0].values[("D", "C")] == (3, 10**4300 - 1)


@pytest.mark.parametrize("selection", ["argmax_each", "hicks_sum"])
def test_solve_thousand_digit_denominators_in_time(selection, tmp_path, capsys):
    # 288 distinct payoffs over distinct odd denominators of 1,000 digits, each
    # player's values a few units of 10**-1000 apart: ranks and totals must not
    # go through a common denominator, nor compare every pair of exact totals
    base = 10**999
    strategies = [f"s{j}" for j in range(12)]
    profiles = [f"{a},{b}" for a in strategies for b in strategies]
    payoffs = {key: [f"{base // 3 + j}/{base + 4 * j + 1}", f"{base // 7 + j}/{base + 4 * j + 3}"] for j, key in enumerate(profiles)}
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"players": [{"name": "a", "strategies": strategies}, {"name": "b", "strategies": strategies}], "payoffs": payoffs}), encoding="utf-8")
    start = time.perf_counter()
    assert main(["solve", str(path), "--selection", selection]) == 0
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert report["agrees"] is True and report["solutions"]
    assert elapsed < 2, f"{selection} took {elapsed:.2f} s"


def test_solve_rejects_duplicate_keys(tmp_path, capsys):
    # every profile is there; a plain json.loads would keep the last C,C and solve
    text = json.dumps(_pd_spec()).replace('"C,C": [2, 2]', '"C,C": [9, 9], "C,C": [2, 2]')
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "duplicate key 'C,C'" in err and str(path) in err
    # a duplicate player field too, however deep
    spec = _pd_spec()
    spec["players"][1]["name"] = "__dup__"
    path.write_text(json.dumps(spec).replace('"__dup__"', '"x", "strategies": ["C"]'), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    assert "duplicate key 'strategies'" in capsys.readouterr().err


def test_solve_a_spec_nested_too_deep_to_decode_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith(f"error: $: invalid JSON in {path}: ")


# Fraction reads these on 3.11 or 3.12 but not on 3.10
_NEWER_GRAMMAR = ["1_000", "1_0/3", "3/1_0", "3 / 2"]


@pytest.mark.parametrize("text", _NEWER_GRAMMAR)
def test_a_rational_outside_the_oldest_grammar_exits_2(text, tmp_path, capsys):
    spec = _pd_spec()
    spec["payoffs"]["D,C"] = [3, text]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == f"error: $.payoffs['D,C'][1]: cannot read {text!r} as a rational"
    with pytest.raises(SystemExit) as exc:
        main(["train", "linreg", "--alpha", text])
    assert exc.value.code == 2
    assert f"argument --alpha: cannot read {text!r} as a rational" in capsys.readouterr().err


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


# a step size past stability: a score leaves its bound of 1e100 in magnitude,
# or the GAN's first layer overflows after one step, and the run stops with
# one line on stderr and exit 1
_PAST_THE_BOUND = r"score [0-9.]+e\+1[0-9][0-9] is past the bound 1e\+100"


@pytest.mark.parametrize(
    "demo, step, flags, reason",
    [
        ("linreg", 182, ["--alpha", "0.18"], _PAST_THE_BOUND),
        ("linreg", 23, ["--alpha", "10"], _PAST_THE_BOUND),
        ("mlp", 26, ["--alpha", "10"], _PAST_THE_BOUND),
        ("gan", 1, ["--alpha", "1e300", "--steps", "5"], "non-finite value at node 'lin0'"),
    ],
    ids=["linreg-182", "linreg-23", "mlp-26", "gan-1"],
)
def test_train_divergence_fails_loudly(demo, step, flags, reason, tmp_path, capsys):
    assert main(["train", demo, *flags, "--out", str(tmp_path / "run.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: training diverged at step {step}: {reason}\n", err), err


def test_train_with_large_but_bounded_scores_exits_cleanly(tmp_path, capsys):
    # the discriminator's scores grow to about 2e6 and stay there
    assert main(["train", "gan", "--alpha", "1000", "--steps", "200", "--out", str(tmp_path / "run.csv")]) == 0
    assert "final d_fake = 1993587.08" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv", [
    ["train", "linreg", "--steps"],
    ["train", "linreg", "--seed"],
])
def test_a_non_integer_count_names_its_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-1]}: 'abc' is not a non-negative integer" in err
    assert "_nonneg_int" not in err


def test_gan_with_zero_rate_keeps_parameters():
    start = run_gan(seed=1, steps=0, alpha=0).final_params
    for steps in (1, 2, 3):
        params = run_gan(seed=1, steps=steps, alpha=0).final_params
        for key in ("gen", "disc"):
            assert np.array_equal(params[key], start[key])


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
