"""Command-line front door.

    paralens solve <spec.json> [--selection ...]
    paralens train <demo> [--seed N --steps N --alpha Q --out PATH]
    paralens check [--filter NAME]

Game specs are JSON; see the bundled fixtures under specs/.  Solve reports
are emitted as a single sorted JSON line so identical inputs give
byte-identical output.  Exit codes: 0 success, 1 a property or solve
failure or a stdout closed early (then pointed at ``os.devnull``, so the
interpreter's last flush stays quiet), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from importlib import resources
from itertools import chain, product as iter_product
from math import prod
from typing import NoReturn, Sequence

from .errors import ParalensError, SpecFormatError
from .finite_base import FinSet, split_tuple
from .selection_games import (
    SELECTION_TAGS,
    NormalFormGame,
    brute_force_hicks,
    brute_force_nash,
    compositional_game,
    game_of_rows,
    hicks_games,
    solution_set,
)

DEMO_NAMES = ("gan", "linreg", "mlp")  # sorted(demos.DEMOS), so that solve never imports numpy

_deviation_oracle = brute_force_nash  # the name bench/tracing.py times

_MAX_PAYOFF_DIGITS = 4300  # Python's int-string limit, which a spec value must stay within
_PAYOFF_BOUND = 10**_MAX_PAYOFF_DIGITS  # the least positive int past the digit limit
_MAX_PLAYERS = 32  # 32 players of two moves have 2**32 profiles to list; left-nested carriers recurse once per player
# Python 3.10's Fraction grammar; later versions also read "1_000" and "3 / 2"
_RATIONAL = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:[eE][-+]?\d+)?)\s*")


def parse_game_spec(data: object) -> tuple[NormalFormGame, str | list[str] | None]:
    """Validate a decoded spec and build the game, reading its payoff table by columns.

    A payoff's type is exactly the decoder's ``int``, ``float`` or ``str``; any other, a ``bool`` or a subclass
    too, is an offence.  Raises SpecFormatError with the JSON path of the first offence, which a walk names.
    """
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    players: list[FinSet] = []
    raw_players = data.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        raise SpecFormatError("expected a nonempty list", "$.players")
    if len(raw_players) > _MAX_PLAYERS:
        raise SpecFormatError(f"more than {_MAX_PLAYERS} players", "$.players")
    seen_names = set()
    for i, entry in enumerate(raw_players):
        path = f"$.players[{i}]"
        if not isinstance(entry, dict):
            raise SpecFormatError("expected an object", path)
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise SpecFormatError("missing player name", f"{path}.name")
        if name in seen_names:
            raise SpecFormatError(f"duplicate player name {name!r}", f"{path}.name")
        seen_names.add(name)
        strategies = entry.get("strategies")
        if not isinstance(strategies, list) or not strategies:
            raise SpecFormatError("expected a nonempty list", f"{path}.strategies")
        for j, s in enumerate(strategies):
            if not isinstance(s, str) or not s or "," in s:
                raise SpecFormatError(
                    "strategy labels must be nonempty strings without commas",
                    f"{path}.strategies[{j}]",
                )
        if len(set(strategies)) != len(strategies):
            raise SpecFormatError("duplicate strategy labels", f"{path}.strategies")
        players.append(FinSet(tuple(strategies)))

    raw_payoffs = data.get("payoffs")
    if not isinstance(raw_payoffs, dict):
        raise SpecFormatError("expected an object keyed by comma-joined profiles", "$.payoffs")
    values = _payoff_columns(players, raw_payoffs) or _walk_payoffs(players, raw_payoffs)  # both accept the same tables: the walk only raises

    selection = data.get("selection")
    if selection is not None:
        _validate_selection(selection, len(players), "$.selection")
    return game_of_rows(tuple(players), values), selection


def _payoff_columns(players: list[FinSet], raw_payoffs: dict) -> dict | None:
    """The table in product order, read in whole-table passes, or ``None`` at any offence, which
    ``_walk_payoffs`` then names.  Each distinct payoff value is read once, its ``Fraction`` shared by
    every player; an int and an equal float stay apart, as a float's text may read as another integer."""
    if len(raw_payoffs) != prod(map(len, players)):  # with equal counts, no key but the profiles' can exist
        return None
    profiles = list(iter_product(*[p.labels for p in players]))
    rows = list(map(raw_payoffs.get, map(",".join, profiles)))  # None where a profile is missing
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(players)}:
        return None
    flat = list(chain.from_iterable(rows))
    if not (types := set(map(type, flat))) <= {int, float, str}:  # no bool, which a value key merges with an equal int
        return None
    keys = list(zip(map(type, flat), flat)) if {int, float} <= types else flat
    try:
        read = {k: _read_rational(v, "$.payoffs") for k, v in dict(zip(keys, flat)).items()}
    except SpecFormatError:
        return None
    return dict(zip(profiles, zip(*[map(read.__getitem__, keys)] * len(players))))  # one row per n values


def _walk_payoffs(players: list[FinSet], raw_payoffs: dict) -> NoReturn:
    """Raise at the first offence, in key order, of a table ``_payoff_columns`` refused, else at its first missing profile."""
    n = len(players)
    for key, vals in raw_payoffs.items():  # a JSON path is formatted only to raise
        prof = key.split(",")
        if len(prof) != n:
            raise SpecFormatError(f"profile has {len(prof)} moves for {n} players", f"$.payoffs[{key!r}]")
        for i, move in enumerate(prof):
            if move not in players[i]:
                raise SpecFormatError(f"unknown move {move!r} for player {i}", f"$.payoffs[{key!r}]")
        if not isinstance(vals, list) or len(vals) != n:
            raise SpecFormatError(f"expected a list of {n} payoffs", f"$.payoffs[{key!r}]")
        for i, v in enumerate(vals):
            if type(v) not in (int, float, str):
                raise SpecFormatError("payoffs must be numbers or rational strings", f"$.payoffs[{key!r}][{i}]")
            _read_rational(v, f"$.payoffs[{key!r}][{i}]")  # raises if unreadable
    missing = next(prof for prof in iter_product(*[p.labels for p in players]) if ",".join(prof) not in raw_payoffs)
    raise SpecFormatError(f"missing profile {','.join(missing)}", "$.payoffs")


def _read_rational(v: int | float | str, path: str) -> Fraction:
    """A payoff or flag value whose numerator and denominator stay within the digit limit.

    An ``int`` is bounded and read as itself; its text would always match.
    Any other value's text must match ``_RATIONAL``, so it reads the same on
    every supported Python, and the exponent is bounded before ``Fraction``
    expands it into an integer.
    """
    if isinstance(v, int):
        if not -_PAYOFF_BOUND < v < _PAYOFF_BOUND:
            raise SpecFormatError(f"payoff has more than {_MAX_PAYOFF_DIGITS} digits", path)
        return Fraction(v)
    text = str(v)
    if not _RATIONAL.fullmatch(text):
        raise SpecFormatError(f"cannot read {v!r} as a rational", path)
    mantissa, _, exponent = text.lower().partition("e")
    try:
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
        if digits <= _MAX_PAYOFF_DIGITS:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SpecFormatError(f"cannot read {v!r} as a rational", path)
    raise SpecFormatError(f"payoff has more than {_MAX_PAYOFF_DIGITS} digits", path)


def _validate_selection(selection: object, n: int, path: str) -> None:
    if isinstance(selection, str):
        if selection not in ("argmax_each", "hicks_sum"):
            raise SpecFormatError(f"unknown selection {selection!r}", path)
        return
    if isinstance(selection, list):
        if len(selection) != n:
            raise SpecFormatError(f"expected {n} per-player tags", path)
        for i, tag in enumerate(selection):
            if tag not in SELECTION_TAGS:
                raise SpecFormatError(f"unknown tag {tag!r}", f"{path}[{i}]")
        return
    raise SpecFormatError("expected a string or a list of tags", path)


def load_spec_file(path: str) -> object:
    """Read a spec from disk or a bundled fixture by name; a repeated key is found by length, then named."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        bundle = resources.files("paralens").joinpath("specs").joinpath(path)
        if "/" not in path and bundle.is_file():
            text = bundle.read_text(encoding="utf-8")
        else:
            raise SpecFormatError(f"no such spec file: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # also an integer too long to convert, a duplicate key or deep nesting
        raise SpecFormatError(f"invalid JSON in {path}: {exc}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; ``json.loads`` alone keeps the last of two equal keys."""
    obj = dict(pairs)
    if len(obj) != len(pairs):  # walk the pairs only to name the first repeated key; set.add returns None
        seen: set = set()
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


def cmd_solve(args: argparse.Namespace) -> int:
    data = load_spec_file(args.spec)
    game, spec_selection = parse_game_spec(data)
    n = len(game.players)
    selection: str | list[str]
    if args.selection is not None:
        if args.selection in ("argmax_each", "hicks_sum"):
            selection = args.selection
        else:
            selection = args.selection.split(",")
        _validate_selection(selection, n, "--selection")
    elif spec_selection is not None:
        selection = spec_selection
    else:
        selection = "argmax_each"

    if selection == "hicks_sum":
        route_a, route_b = hicks_games(game)
        sols_a, sols_b = solution_set(route_a), solution_set(route_b)
        oracle = brute_force_hicks(game)
        agrees = sols_a == sols_b == oracle
        sols = sols_a
    else:
        tags = ["argmax"] * n if selection == "argmax_each" else list(selection)
        open_g = compositional_game(game, tags)
        sols = solution_set(open_g)
        oracle = brute_force_nash(game, tags=tags)
        agrees = sols == oracle

    report = {
        "selection": selection,
        "solutions": [split_tuple(game.players, s) for s in sols],
        "oracle": [split_tuple(game.players, s) for s in oracle],
        "agrees": agrees,
    }
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return 0 if agrees else 1


def cmd_train(args: argparse.Namespace) -> int:
    from .demos import DEMOS, write_csv

    run = DEMOS[args.demo]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.steps is not None:
        kwargs["steps"] = args.steps
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    result = run(**kwargs)
    out = args.out if args.out is not None else f"{args.demo}.csv"
    try:
        write_csv(result, out)
    except OSError as exc:
        raise SpecFormatError(f"cannot write {out}: {exc.strerror}", "--out") from exc
    print(f"wrote {out} ({len(result.rows)} steps)")
    for key in sorted(result.final_metrics):
        print(f"final {key} = {result.final_metrics[key]}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import ALL_CHECKS, run_checks

    names = None
    if args.filter is not None:
        if args.filter not in ALL_CHECKS:
            known = ", ".join(ALL_CHECKS)
            print(f"error: --filter: unknown check {args.filter!r}; known: {known}", file=sys.stderr)
            return 2
        names = [args.filter]
    failed = False
    for result in run_checks(names):
        if result.ok:
            print(f"ok {result.name} ({result.instances} instances)")
        else:
            failed = True
            print(f"FAIL {result.name}: {result.detail}")
    return 1 if failed else 0


def _fraction_arg(text: str) -> Fraction:
    try:
        value = _read_rational(text, "--alpha")
        float(value)  # the demos step in floats
    except (SpecFormatError, OverflowError):
        raise argparse.ArgumentTypeError(f"cannot read {text!r} as a rational within float range")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


@cache  # one parser per process, however often main runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paralens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game spec and compare with the oracle")
    p_solve.add_argument("spec", help="path to a spec JSON (bundled: pd.json, matching_pennies.json, coordination.json)")
    p_solve.add_argument("--selection", help="argmax_each, hicks_sum, or comma-joined per-player tags")
    p_solve.set_defaults(fn=cmd_solve)

    p_train = sub.add_parser("train", help="run a training demo and write per-step CSV")
    p_train.add_argument("demo", choices=DEMO_NAMES)
    p_train.add_argument("--seed", type=_nonneg_int)
    p_train.add_argument("--steps", type=_nonneg_int)
    p_train.add_argument("--alpha", type=_fraction_arg)
    p_train.add_argument("--out")
    p_train.set_defaults(fn=cmd_train)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--filter", help="run a single named check")
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParalensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout early
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
