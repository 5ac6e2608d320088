"""Properties: mutated specs and flags make the CLI fail cleanly or succeed.

Mutations of the bundled dilemma replace or delete any field of the decoded
spec, then splice the bytes of its JSON text.  Whatever comes out, ``main``
returns an exit code and lets no exception escape, and a spec that does not
parse exits 2.  Mutated ``train`` and ``check`` flags (non-numbers,
negatives, huge exponents, ``nan``/``inf``, unknown demo and check names)
let no exception but argparse's exit escape, and a rejected flag exits 2
naming the flag on stderr.  Faults injected into a valid spec are named as
a walk over its entries in key order names the first of them, and that walk
raises whenever it runs.
"""

import json
from importlib import resources
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from paralens import cli
from paralens.checks import ALL_CHECKS
from paralens.cli import load_spec_file, main, parse_game_spec
from paralens.demos import DEMOS
from paralens.errors import SpecFormatError

PD = json.loads(
    resources.files("paralens").joinpath("specs").joinpath("pd.json").read_text("utf-8")
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_DELETE = object()


def _mutate(spec, path, replacement):
    if not path:
        return replacement
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return spec


@st.composite
def mutated_specs(draw):
    spec = json.loads(json.dumps(PD))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(spec))))
        replacement = draw(json_values | st.just(_DELETE)) if path else draw(json_values)
        spec = _mutate(spec, path, replacement)
    data = json.dumps(spec).encode("utf-8")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data = data[:i] + draw(st.binary(max_size=3)) + data[j:]
    return data


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=mutated_specs())
def test_mutated_specs_exit_cleanly(data, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    code = main(["solve", str(path)])
    try:
        parse_game_spec(load_spec_file(str(path)))
    except SpecFormatError:
        assert code == 2
    else:
        assert code in (0, 1)


@st.composite
def integer_specs(draw):
    """A spec of 1-3 players with 1-3 strategies each and integer payoffs,
    some at the digit limit."""
    n = draw(st.integers(1, 3))
    players = [{"name": f"p{i}", "strategies": [f"s{j}" for j in range(draw(st.integers(1, 3)))]} for i in range(n)]
    ints = st.integers(-50, 50) | st.integers(-(10**40), 10**40) | st.sampled_from([10**4300 - 1, 1 - 10**4300])
    profiles = [[]]
    for player in players:
        profiles = [p + [m] for p in profiles for m in player["strategies"]]
    return {"players": players, "payoffs": {",".join(p): draw(st.lists(ints, min_size=n, max_size=n)) for p in profiles}}


@settings(max_examples=60, deadline=None)
@given(spec=integer_specs())
def test_integer_payoffs_parse_as_their_text(spec):
    game = parse_game_spec(spec)[0]
    texts = {key: [str(v) for v in vals] for key, vals in spec["payoffs"].items()}
    same = parse_game_spec({"players": spec["players"], "payoffs": texts})[0]
    assert game.values == same.values and game.levels == same.levels and game.grids == same.grids
    assert game.payoff.dom == same.payoff.dom and game.payoff.cod == same.payoff.cod
    assert game.payoff.table == same.payoff.table


_BAD_PAYOFFS = [True, False, None, [1], "1_000", "abc", "1/0", 10**4300, "9" * 4301]
_FAULTS = ("unknown move", "move count", "non-list row", "row length", "bad payoff", "deleted profile", "extra key")


def _first_offence(spec):
    """What a walk over the payoffs in key order reports first, or the first
    profile missing in product order; ``None`` for a valid table."""
    moves = [player["strategies"] for player in spec["players"]]
    n = len(moves)
    for key, row in spec["payoffs"].items():
        at = f"$.payoffs[{key!r}]"
        prof = key.split(",")
        if len(prof) != n:
            return f"{at}: profile has {len(prof)} moves for {n} players"
        for i, move in enumerate(prof):
            if move not in moves[i]:
                return f"{at}: unknown move {move!r} for player {i}"
        if not isinstance(row, list) or len(row) != n:
            return f"{at}: expected a list of {n} payoffs"
        for i, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                return f"{at}[{i}]: payoffs must be numbers or rational strings"
            if v in ("1_000", "abc", "1/0"):
                return f"{at}[{i}]: cannot read {v!r} as a rational"
            if v in (10**4300, "9" * 4301):
                return f"{at}[{i}]: payoff has more than 4300 digits"
    for prof in product(*moves):
        if ",".join(prof) not in spec["payoffs"]:
            return f"$.payoffs: missing profile {','.join(prof)}"
    return None


@st.composite
def faulty_specs(draw):
    """A valid spec of 1-3 players with 1-4 moves each, then 1-2 faults at
    random key positions."""
    n = draw(st.integers(1, 3))
    moves = [[f"m{j}" for j in range(draw(st.integers(1, 4)))] for _ in range(n)]
    payoff = st.integers(-3, 3) | st.sampled_from(["1/2", "-3/4", "2", "0.5", 1.0, 0.5, 2.0])
    pairs = [[",".join(p), draw(st.lists(payoff, min_size=n, max_size=n))] for p in product(*moves)]
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(_FAULTS)) if pairs else "extra key"
        j = draw(st.integers(0, len(pairs) - 1 if pairs else 0))
        key = pairs[j][0] if pairs else ""
        if fault == "unknown move":
            prof = key.split(",")
            prof[draw(st.integers(0, len(prof) - 1))] = "zz"
            pairs[j][0] = ",".join(prof)
        elif fault == "move count":
            pairs[j][0] = draw(st.sampled_from([f"{key},m0", key.rpartition(",")[0]]))
        elif fault == "non-list row":
            pairs[j][1] = draw(st.sampled_from([None, 1, "1", {"0": 1}, True]))
        elif fault == "row length":
            pairs[j][1] = [0] * draw(st.sampled_from([n - 1, n + 1]))
        elif fault == "bad payoff":
            row = list(pairs[j][1]) if isinstance(pairs[j][1], list) and pairs[j][1] else [0]
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_PAYOFFS))
            pairs[j][1] = row
        elif fault == "deleted profile":
            del pairs[j]
        else:
            extra = draw(st.sampled_from([["m0"] * (n + 1), ["m0"] * (n - 1) + ["zz"]]))
            pairs.insert(j, [",".join(extra), [0] * n])
    return {"players": [{"name": f"p{i}", "strategies": m} for i, m in enumerate(moves)], "payoffs": dict(pairs)}


_WALK = cli._walk_payoffs


def _raising_walk(*args):
    """``cli._walk_payoffs``, which must raise whenever it runs: it only names an offence."""
    with pytest.raises(SpecFormatError) as exc:
        _WALK(*args)
    raise exc.value


_TWO_BY_TWO = [{"name": "p", "strategies": ["x", "y"]}, {"name": "q", "strategies": ["x", "y"]}]


@settings(max_examples=300, deadline=None)
@given(spec=faulty_specs())
# a true after an equal 1, in its own player's column and in another's: keyed
# by value alone, the true would be read as the 1
@example(spec={"players": _TWO_BY_TWO, "payoffs": {"x,x": [1, 1], "x,y": [True, 2], "y,x": [0, 0], "y,y": [0, 0]}})
@example(spec={"players": _TWO_BY_TWO, "payoffs": {"x,x": [1, 3], "x,y": [2, True], "y,x": [0, 0], "y,y": [0, 0]}})
def test_the_first_offence_is_named(spec):
    expected = _first_offence(spec)
    try:
        with patch.object(cli, "_walk_payoffs", _raising_walk):
            parse_game_spec(spec)
    except SpecFormatError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


# -- train and check flags ------------------------------------------------

_NO_DIGITS = st.text(alphabet="abcdefinxyz_-+/. ", max_size=6)
_NAN_INF = st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "Infinity"])
_HUGE_EXPONENT = st.integers(309, 10**9).map(lambda k: f"{'-' if k % 2 else ''}1e{k}")
_HUGE_INT = st.integers(4301, 6000).map(lambda n: "9" * n)  # past Python's int-string limit

# each flag's value strategy: (value, rejected?)
_FLAG_VALUES = {
    "--seed": st.one_of(
        st.integers(0, 10**30).map(lambda v: (str(v), False)),
        st.integers(max_value=-1).map(lambda v: (str(v), True)),
        st.one_of(_NO_DIGITS, _NAN_INF, _HUGE_EXPONENT, _HUGE_INT, st.just("2.0")).map(
            lambda v: (v, True)
        ),
    ),
    "--steps": st.one_of(
        st.integers(0, 3).map(lambda v: (str(v), False)),
        st.integers(max_value=-1).map(lambda v: (str(v), True)),
        st.one_of(_NO_DIGITS, _NAN_INF, _HUGE_EXPONENT, _HUGE_INT, st.just("1e1")).map(
            lambda v: (v, True)
        ),
    ),
    "--alpha": st.one_of(
        st.sampled_from(["1/20", "0", "-1/2", "3", "1e-400", "1e300", "1.7e308"]).map(
            lambda v: (v, False)
        ),
        st.integers(-(10**6), 10**6).map(lambda v: (str(v), False)),
        st.one_of(_NO_DIGITS, _NAN_INF, _HUGE_EXPONENT, st.just("1/0")).map(lambda v: (v, True)),
    ),
}


def _run(argv, capsys):
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag this way
        code = exc.code
    return code, capsys.readouterr().err


@st.composite
def train_argvs(draw):
    """One mutated flag of ``paralens train``; the others stay valid and small."""
    values = {"--seed": (str(draw(st.integers(0, 99))), False), "--steps": ("2", False)}
    values["--alpha"] = draw(_FLAG_VALUES["--alpha"].filter(lambda v: not v[1]))
    demo, flag = draw(st.sampled_from(sorted(DEMOS))), draw(st.sampled_from(["demo", *_FLAG_VALUES]))
    if flag == "demo":
        demo = draw(st.text(max_size=8).filter(lambda s: s not in DEMOS))
        rejected = True
    else:
        values[flag] = draw(_FLAG_VALUES[flag])
        rejected = values[flag][1]
    flags = [f"{name}={value}" for name, (value, _) in values.items()]
    return flags + ["--", demo], flag, rejected


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=train_argvs())
# an update past float range (numpy's overflow warning escaped), and an exponent
# that Fraction would expand into a 10^9-digit integer before any check
@example(case=(["--seed=0", "--steps=2", "--alpha=1.7e308", "--", "gan"], "--alpha", False))
@example(case=(["--seed=0", "--steps=2", "--alpha=1e999999999", "--", "linreg"], "--alpha", True))
def test_train_flags_exit_cleanly(case, tmp_path, capsys):
    tail, flag, rejected = case
    code, err = _run(["train", f"--out={tmp_path / 'run.csv'}", *tail], capsys)
    if rejected:
        assert code == 2 and flag in err, err
    else:
        assert code in (0, 1), err


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(name=st.text(max_size=12) | st.sampled_from([n.upper() for n in ALL_CHECKS]))
def test_check_filter_exits_cleanly(name, capsys):
    assume(name not in ALL_CHECKS)
    code, err = _run(["check", f"--filter={name}"], capsys)
    assert code == 2 and "--filter" in err, err


def test_out_that_cannot_be_written_names_the_flag(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "run.csv"):
        code, err = _run(["train", "linreg", "--steps=1", f"--out={out}"], capsys)
        assert code == 2 and "--out" in err, err
