"""Selection relations, decisions, and normal-form game assembly.

The frozen solution sets here were worked out by hand from the payoff
tables and double-checked with the deviation enumeration oracle, which
is itself tested directly against the same hand values.
"""

import gc
import inspect
import random
import re
import weakref
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paralens.checks import random_finfn, random_finset, random_lens, random_obj, random_para, random_relation
from paralens.cli import parse_game_spec
from paralens.errors import CompositionError, SizeCapError
from paralens.finite_base import (
    FINITE,
    FinFn,
    FinProd,
    FinSet,
    UNIT_SET,
    finset_tuple_product,
    iter_functions,
    split_tuple,
    tuple_label,
)
from paralens import lens_core
from paralens.lens_core import (
    Lens,
    LensObj,
    lens_assoc,
    lens_compose,
    lens_equal,
    lens_id,
    lens_runit,
    lens_swap,
    obj_pair,
    unit_obj,
)
from paralens.para_optic import ParaLens, in_context, para_costate_solution_input, reparametrise
from paralens.selection_games import (
    SELECTION_TAGS,
    OpenGame,
    SelectionRelation,
    arena,
    argmax_rel,
    brute_force_hicks,
    brute_force_nash,
    compositional_game,
    decision,
    game_of_rows,
    hicks_games,
    nash_product,
    nash_relation,
    relations_equal,
    sel_pushforward,
    solution_set,
    sum_of_payoffs_lens,
    total_rel,
)
from paralens.smooth_autodiff import gd_lens


def _game(players, table):
    """The game of a payoff table keyed by tuples of moves, entered through its spec."""
    spec = {
        "players": [{"name": f"p{i}", "strategies": list(p.labels)} for i, p in enumerate(players)],
        "payoffs": {",".join(prof): [str(v) for v in vals] for prof, vals in table.items()},
    }
    return parse_game_spec(spec)[0]


def _pd():
    cd = FinSet(("C", "D"))
    return _game([cd, cd], {("C", "C"): (2, 2), ("C", "D"): (0, 3), ("D", "C"): (3, 0), ("D", "D"): (1, 1)})


def _coordination():
    ab = FinSet(("A", "B"))
    return _game([ab, ab], {("A", "A"): (2, 2), ("A", "B"): (0, 0), ("B", "A"): (0, 0), ("B", "B"): (1, 1)})


def _pennies():
    ht = FinSet(("H", "T"))
    return _game([ht, ht], {("H", "H"): (1, -1), ("H", "T"): (-1, 1), ("T", "H"): (-1, 1), ("T", "T"): (1, -1)})


def _battle():
    bs = FinSet(("B", "S"))
    return _game([bs, bs], {("B", "B"): (2, 1), ("B", "S"): (0, 0), ("S", "B"): (0, 0), ("S", "S"): (1, 2)})


# -- relations ----------------------------------------------------------


def test_argmax_frozen():
    moves = FinSet(("x", "y", "z"))
    grid = FinSet(("0", "1", "2"))
    rel = argmax_rel(moves, grid)
    k = FinFn(moves, grid, {"x": "2", "y": "1", "z": "2"})
    assert rel.accepts("x", k)
    assert not rel.accepts("y", k)
    assert rel.accepts("z", k)
    # rewards are ranked by their position in the carrier, not read as numbers
    lohi = FinSet(("lo", "hi"))
    rel = argmax_rel(moves, lohi)
    k = FinFn(moves, lohi, {"x": "lo", "y": "hi", "z": "lo"})
    assert [m for m in moves.labels if rel.accepts(m, k)] == ["y"]


def test_argmax_finds_the_largest_reward_once_per_reward_function(monkeypatch):
    n = 40
    moves = FinSet(tuple(f"m{i}" for i in range(n)))
    grid = FinSet(tuple(str(i) for i in range(7)))
    rel = argmax_rel(moves, grid)
    k = FinFn(moves, grid, {m: str(i % 7) for i, m in enumerate(moves.labels)})
    k2 = FinFn(moves, grid, {m: str(i % 5) for i, m in enumerate(moves.labels)})
    calls = [0]
    real = FinFn.__call__

    def counted(self, x):
        calls[0] += 1
        return real(self, x)

    monkeypatch.setattr(FinFn, "__call__", counted)
    accepted = [m for m in moves.labels if rel.accepts(m, k)]
    assert accepted == [m for i, m in enumerate(moves.labels) if i % 7 == 6]
    assert calls[0] == n  # each move ranked once
    # a different reward function gets its own maximum
    accepted = [m for m in moves.labels if rel.accepts(m, k2)]
    assert accepted == [m for i, m in enumerate(moves.labels) if i % 5 == 4]


def test_argmax_rejects_reward_function_outside_its_rewards():
    moves = FinSet(("x", "y"))
    rel = argmax_rel(moves, FinSet(("0", "1")))
    k = FinFn(moves, FinSet(("0", "1", "2")), {"x": "2", "y": "0"})
    with pytest.raises(CompositionError):
        rel.accepts("x", k)


def test_nash_product_rejects_reward_function_of_the_wrong_type():
    cd = FinSet(("C", "D"))
    grid = FinSet(("0", "1"))
    rel = nash_product(argmax_rel(cd, grid), argmax_rel(cd, grid))
    wide = FinSet(("0", "1", "2"))
    k = FinFn(
        FinProd(cd, cd),
        FinProd(wide, grid),
        {xy: ("2", "0") for xy in FinProd(cd, cd)},
    )
    with pytest.raises(CompositionError, match="reward function"):
        rel.accepts(("C", "D"), k)


def test_a_bare_reward_function_with_a_stray_rank_fails_where_it_is_ranked():
    cd, grid = FinSet(("C", "D")), FinSet(("0", "1"))
    rel = reduce(nash_product, [argmax_rel(cd, grid) for _ in range(3)])

    def k(w):  # not a FinFn, so only the values read are checked
        return ("2" if w == (("D", "C"), "C") else "0", "1"), "0"

    with pytest.raises(CompositionError, match="reward function maps 'D' to '2'"):
        rel.accepts((("C", "C"), "C"), k)


def test_a_pushforward_checks_a_reward_before_its_backward_leg_reads_it():
    port = LensObj(FinSet(("a", "b")), FinSet(("0", "1")))
    read = []

    def backward(_, z):
        read.append(z)
        return z

    f = Lens(FINITE, port, port, lambda x: (x, None), backward)
    rel = nash_product(sel_pushforward(f, argmax_rel(port.fwd, port.bwd)), argmax_rel(port.fwd, port.bwd))
    with pytest.raises(CompositionError, match="reward function maps 'a' to '2'"):
        rel.accepts(("a", "a"), lambda w: ("2", "0"))
    assert read == []
    # a FinFn is checked for its type where it enters, before any value is read
    wide = FinFn(port.fwd, FinSet(("0", "1", "2")), {"a": "0", "b": "1"})
    with pytest.raises(CompositionError, match="costate map has type"):
        sel_pushforward(f, argmax_rel(port.fwd, port.bwd)).accepts("a", wide)
    assert read == []


def test_a_pushforward_tests_only_an_unchecked_rewards_values(monkeypatch):
    # a FinFn's values are in its codomain, which the pushforward has compared with its rewards, so only
    # a plain function's are tested, once per source state
    moves, ranks, levels = FinSet(("a", "b", "c")), FinSet(("0", "1")), FinSet(("lo", "hi"))
    f = Lens(FINITE, LensObj(moves, ranks), LensObj(moves, levels), lambda x: (x, None), lambda _, z: "1" if z == "hi" else "0")
    k = FinFn(moves, levels, {"a": "lo", "b": "hi", "c": "hi"})
    tested, contains = [], FinSet.__contains__
    monkeypatch.setattr(FinSet, "__contains__", lambda self, x: tested.append(self is levels) or contains(self, x))
    pushed = sel_pushforward(f, argmax_rel(moves, ranks))
    for reward, tests in ((k, 0), (lambda y: k(y), 3)):
        tested.clear()
        assert [y for y in moves if pushed.accepts(y, reward)] == ["b", "c"]
        assert tested.count(True) == tests


def test_nash_product_restricts_once_per_frozen_move(monkeypatch):
    n = 12
    moves = FinSet(tuple(f"m{i}" for i in range(n)))
    grid = FinSet(tuple(str(i) for i in range(5)))
    rel = nash_product(argmax_rel(moves, grid), argmax_rel(moves, grid))
    k = FinFn(
        FinProd(moves, moves),
        FinProd(grid, grid),
        {(a, b): (str((i * j) % 5), str((i + j) % 5))
         for i, a in enumerate(moves) for j, b in enumerate(moves)},
    )
    calls = [0]
    real = FinFn.__call__

    def counted(self, x):
        calls[0] += self is k
        return real(self, x)

    monkeypatch.setattr(FinFn, "__call__", counted)
    for xy in k.dom:
        rel.accepts(xy, k)
    # each of the two restrictions of k reads it once per profile
    assert calls[0] <= 2 * n * n


def _slot(rel) -> tuple:
    """The slot ``rel.accepts`` closes over: the reward function it was last
    asked about (``None`` once that function died) and its best responses."""
    seen, found = inspect.getclosurevars(rel.accepts).nonlocals["memo"]
    return seen(), found


def _alternate(rel, fresh, states, ks) -> list:
    """Accepted states per reward function, feeding ``rel`` the functions in
    turn at each state, and checking each answer against a fresh relation."""
    accepted = [[] for _ in ks]
    for _ in range(2):
        for x in states:
            for i, k in enumerate(ks):
                ok = rel.accepts(x, k)
                assert ok == fresh().accepts(x, k)
                if ok:
                    accepted[i].append(x)
    return accepted


def test_relations_remember_each_reward_function_while_it_lives(monkeypatch):
    """A relation keeps the last reward function asked about, weakly, with
    its best responses: a run of questions about one function finds them
    once, and alternating functions recomputes them with the same answers."""
    moves, grid = FinSet(("x", "y", "z")), FinSet(("0", "1", "2"))
    ks = [FinFn(moves, grid, dict(zip(moves, images))) for images in (("2", "1", "2"), ("0", "1", "0"))]
    rel = argmax_rel(moves, grid)
    assert _alternate(rel, lambda: argmax_rel(moves, grid), moves, ks) == [["x", "z"] * 2, ["y"] * 2]
    assert _slot(rel) == (ks[1], {"y"})
    calls = [0]
    real = FinFn.__call__

    def counted(self, x):
        calls[0] += self is ks[0]
        return real(self, x)

    monkeypatch.setattr(FinFn, "__call__", counted)
    assert [rel.accepts(x, ks[0]) for x in list(moves) * 2] == [True, False, True] * 2
    monkeypatch.undo()
    assert calls[0] == len(moves)  # each move ranked once for the whole run
    assert _slot(rel) == (ks[0], {"x", "z"})
    dead = weakref.ref(ks.pop(0))
    gc.collect()
    assert dead() is None and _slot(rel)[0] is None

    cd, grid = FinSet(("C", "D")), FinSet(("0", "1", "2", "3"))
    profiles = FinProd(cd, cd)
    pd_ranks = {("C", "C"): ("2", "2"), ("C", "D"): ("0", "3"), ("D", "C"): ("3", "0"), ("D", "D"): ("1", "1")}
    coordination = {("C", "C"): ("2", "2"), ("C", "D"): ("0", "0"), ("D", "C"): ("0", "0"), ("D", "D"): ("1", "1")}
    ks = [FinFn(profiles, FinProd(grid, grid), t) for t in (pd_ranks, coordination)]
    eps = argmax_rel(cd, grid)
    rel = nash_product(eps, argmax_rel(cd, grid))

    def fresh():
        return nash_product(argmax_rel(cd, grid), argmax_rel(cd, grid))

    want = [[("D", "D")] * 2, [("C", "C"), ("D", "D")] * 2]
    assert _alternate(rel, fresh, profiles, ks) == want
    assert _slot(rel) == (ks[1], {("C", "C"), ("D", "D")})
    # the restrictions the product handed its factors died with the call
    assert _slot(eps)[0] is None
    dead = weakref.ref(ks.pop())
    gc.collect()
    assert dead() is None and _slot(rel)[0] is None


def _pushed_pair(seed: int):
    """Two argmax relations, each pushed forward along a random lens."""
    rng = random.Random(seed)
    a, b = LensObj(FinSet(("a0", "a1", "a2")), FinSet(("0", "1"))), LensObj(FinSet(("b0", "b1")), FinSet(("0", "1", "2")))
    c, d = LensObj(FinSet(("c0", "c1")), FinSet(("0", "1", "2"))), LensObj(FinSet(("d0", "d1", "d2")), FinSet(("0", "1")))
    eps, delta = argmax_rel(a.fwd, a.bwd), argmax_rel(c.fwd, c.bwd)
    pushed = sel_pushforward(random_lens(rng, a, b), eps), sel_pushforward(random_lens(rng, c, d), delta)
    ks = [random_finfn(rng, FinProd(b.fwd, d.fwd), FinProd(b.bwd, d.bwd)) for _ in range(6)]
    return (eps, delta), pushed, ks


def test_a_pushforward_threads_each_reward_function_once(monkeypatch):
    built = [0]
    post_init = FinFn.__post_init__

    def counted(self):  # the lens's get is built with the pushforward, so each checked function is a threaded table
        built[0] += 1
        post_init(self)

    _, pushed, ks = _pushed_pair(36)
    restrictions = []  # every reward function the two pushforwards are asked about, kept alive

    def recorded(rel):
        def accepts(x, k):
            if not any(k is seen for seen in restrictions):
                restrictions.append(k)
            return rel.accepts(x, k)

        return SelectionRelation(rel.obj, accepts)

    rel = nash_product(*map(recorded, pushed))
    monkeypatch.setattr(FinFn, "__post_init__", counted)
    for k in ks:
        for xy in rel.obj.fwd:
            rel.accepts(xy, k)
    # under the product, every frozen move hands a pushforward a new restriction
    assert len(restrictions) > len(ks)
    assert built[0] == len(restrictions)


def test_inner_memos_keep_no_entry_for_a_dead_restriction():
    inner, pushed, ks = _pushed_pair(37)
    rel = nash_product(*pushed)
    for k in ks:
        for xy in rel.obj.fwd:
            rel.accepts(xy, k)
            # the restrictions handed to the factors died with the call, and no slot kept one alive
            assert [_slot(r)[0] for r in (*pushed, *inner)] == [None] * 4
            assert _slot(rel)[0] is k


def test_relations_equal_keeps_one_reward_function_alive_at_a_time():
    # a memo entry lives as long as its k, so holding every k would hold every entry
    cd, grid = FinSet(("C", "D")), FinSet(("0", "1"))
    seen = []

    def accepts(x, k):
        if not seen or seen[-1]() is not k:
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(k))
        return True

    rel = SelectionRelation(LensObj(FinProd(cd, cd), FinProd(grid, grid)), accepts)
    assert relations_equal(rel, total_rel(rel.obj))
    assert len(seen) == 4**4


def test_relations_equal_asks_each_relation_once_per_state_and_reward_function():
    obj = LensObj(FinSet(("a", "b", "c")), FinSet(("0", "1")))
    calls = ([], [])

    def counted(seen):
        def accepts(x, k):
            seen.append((x, k))  # holding every k, so no two share an id
            return k(x) == "1"

        return SelectionRelation(obj, accepts)

    assert relations_equal(counted(calls[0]), counted(calls[1]))
    asked = [[(x, id(k)) for x, k in seen] for seen in calls]
    # both relations are asked about the same 8 reward functions, each built once
    assert asked[0] == asked[1] and len(set(asked[0])) == len(asked[0]) == 3 * 2**3
    assert len({k for _, k in asked[0]}) == 2**3


def test_argmax_rejects_empty_moves():
    with pytest.raises(CompositionError):
        argmax_rel(FinSet(()), FinSet(("0",)))


def test_total_accepts_everything():
    obj = LensObj(FinSet(("a", "b")), FinSet(("0", "1")))
    rel = total_rel(obj)
    assert all(rel.accepts(x, k) for k in iter_functions(obj.fwd, obj.bwd) for x in obj.fwd.labels)
    assert not relations_equal(argmax_rel(obj.fwd, obj.bwd), rel)


def test_nash_product_on_dilemma_costate():
    cd = FinSet(("C", "D"))
    grid = FinSet(("0", "1", "2", "3"))
    rel = nash_product(argmax_rel(cd, grid), argmax_rel(cd, grid))
    k = FinFn(
        FinProd(cd, cd),
        FinProd(grid, grid),
        {
            ("C", "C"): ("2", "2"),
            ("C", "D"): ("0", "3"),
            ("D", "C"): ("3", "0"),
            ("D", "D"): ("1", "1"),
        },
    )
    verdict = {xy: rel.accepts(xy, k) for xy in k.dom.labels}
    assert verdict == {
        ("C", "C"): False,
        ("C", "D"): False,
        ("D", "C"): False,
        ("D", "D"): True,
    }


def test_pushforward_along_identity_is_noop():
    rng = random.Random(30)
    for _ in range(10):
        obj = LensObj(FinSet(("a", "b")), FinSet(("0", "1")))
        eps = random_relation(rng, obj)
        assert relations_equal(sel_pushforward(lens_id(FINITE, obj), eps), eps)


def test_pushforward_functoriality():
    """Pushing along a composite equals pushing in two stages."""
    rng = random.Random(31)
    from paralens.checks import random_lens, random_obj

    for _ in range(25):
        a, b, c = (random_obj(rng, 2) for _ in range(3))
        f = random_lens(rng, a, b)
        g = random_lens(rng, b, c)
        eps = random_relation(rng, a)
        lhs = sel_pushforward(lens_compose(f, g), eps)
        rhs = sel_pushforward(g, sel_pushforward(f, eps))
        assert relations_equal(lhs, rhs)


def test_pushforward_guards():
    obj = LensObj(FinSet(("a", "b", "c", "d", "e")), FinSet(("0",)))
    eps = total_rel(obj)
    other = LensObj(FinSet(("q",)), FinSet(("0",)))
    with pytest.raises(CompositionError):
        sel_pushforward(lens_id(FINITE, other), eps)
    with pytest.raises(CompositionError, match="finite"):
        sel_pushforward(gd_lens(0.1, 1), eps)


def test_pushforward_checks_its_cap_before_enumerating(monkeypatch):
    big = FinSet(tuple(f"s{i}" for i in range(1500)))
    obj = LensObj(FinProd(big, big), UNIT_SET)

    def no_iteration(self):
        raise AssertionError("the source states were enumerated")

    monkeypatch.setattr(FinProd, "__iter__", no_iteration)
    with pytest.raises(SizeCapError) as exc:
        sel_pushforward(lens_id(FINITE, obj), total_rel(obj))
    assert exc.value.count == 2_250_000


def _enumerated_pushforward(f, eps) -> SelectionRelation:
    """The definition, checked state by state: (y, k) is accepted iff some x
    with get(x) = y is accepted by ``eps`` against k threaded back through
    ``f``'s legs."""

    def accepts(y, k):
        def threaded(x):
            z, r = f.forward(x)
            return f.backward(r, k(z))

        fk = FinFn(f.src.fwd, f.src.bwd, threaded)
        return any(eps.accepts(x, fk) for x in f.src.fwd.labels if f.get(x) == y)

    return SelectionRelation(f.dst, accepts)


def test_sel_pushforward_matches_its_enumerated_definition():
    rng = random.Random(15)
    verdicts = []
    for _ in range(150):
        a = random_obj(rng, 3)
        b = LensObj(random_finset(rng, 2), random_finset(rng, 2))
        f = random_lens(rng, a, b)
        eps, delta = random_relation(rng, a), random_relation(rng, b)
        pushed, definition = sel_pushforward(f, eps), _enumerated_pushforward(f, eps)
        assert relations_equal(pushed, definition)
        verdicts.append(relations_equal(pushed, delta))
        assert verdicts[-1] == relations_equal(definition, delta)
    assert True in verdicts and False in verdicts


# -- decisions ----------------------------------------------------------


def test_a_decision_is_the_right_unitor_on_its_port():
    rng = random.Random(38)
    for _ in range(10):
        moves, grid = random_finset(rng), random_finset(rng)
        port = LensObj(moves, grid)
        d = decision(moves, grid)
        assert d.leaves == (port,) and d.params == d.dst == port and d.src == unit_obj(FINITE)
        assert lens_equal(d.carrier, lens_runit(FINITE, port))
        for w in moves:
            # the move is played as chosen; the reward goes to the port unchanged
            assert d.carrier.get((w, "•")) == w
            assert all(d.carrier.put(((w, "•"), r)) == (r, "•") for r in grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_arena_is_purely_structural(n):
    rng = random.Random(n)
    players = tuple(random_finset(rng, 4) for _ in range(n))
    grids = tuple(random_finset(rng, 4) for _ in range(n))
    # a composite's legs are its leaves' legs, so a term with no leaf has none
    assert arena(players, grids).carrier.legs == ()


def test_context_agrees_with_pointwise_play():
    rng = random.Random(7)
    for _ in range(20):
        src, dst = random_obj(rng), random_obj(rng)
        p = random_para(rng, src, dst)
        k = random_finfn(rng, dst.fwd, dst.bwd)
        for h in src.fwd:
            reward = para_costate_solution_input(in_context(p, h, k))
            for w in p.params.fwd:
                # k answers the play, and the reward is the parameter half of what put hands back
                assert reward(w) == p.carrier.put(((w, h), k(p.carrier.get((w, h)))))[0]


def test_solution_set_needs_closed_boundaries():
    d = decision(FinSet(("L", "R")), FinSet(("0", "1")))
    game = OpenGame(d, total_rel(d.params))
    with pytest.raises(CompositionError):
        solution_set(game)


def test_open_game_checks_the_port():
    g = _pd()
    from paralens.selection_games import game_scalar

    scalar = game_scalar(g)
    wrong = argmax_rel(FinSet(("C", "D")), FinSet(("0", "1", "2", "3")))
    with pytest.raises(CompositionError):
        OpenGame(scalar, wrong)


def test_open_game_rejects_a_relation_on_another_reward_carrier():
    # the Hicks joint argmax ranks payoff totals, so it lives on the
    # reparametrised scalar's port: same profiles, other rewards
    g = _pd()
    scalar, collapse = compositional_game(g).lens, sum_of_payoffs_lens(g)
    joint = argmax_rel(scalar.params.fwd, collapse.src.bwd)
    with pytest.raises(CompositionError, match="does not live on the game's parameter port"):
        OpenGame(scalar, joint)
    assert solution_set(OpenGame(reparametrise(scalar, collapse), joint)) == (("C", "C"),)


# -- normal-form games --------------------------------------------------


def test_profile_values_decode():
    g = _pd()
    assert g.values[("C", "D")] == (0, 3)
    assert g.values[("D", "D")] == (1, 1)
    assert [grid.labels for grid in g.grids] == [
        ("0", "1", "2", "3"),
        ("0", "1", "2", "3"),
    ]
    assert g.levels == ((0, 1, 2, 3), (0, 1, 2, 3))


# equal values written differently, so that neither the text nor the parsed
# object of a payoff tells which values are equal
_EQUAL_WRITTEN_DIFFERENTLY = (1, "1", "2/2", 1.0, "3/2", 1.5, 0, "-1/2", "-0.5")


@st.composite
def _specs(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    players = [{"name": f"p{i}", "strategies": [f"s{j}" for j in range(m)]} for i, m in enumerate(sizes)]
    pool = st.sampled_from(_EQUAL_WRITTEN_DIFFERENTLY)
    payoffs = {
        ",".join(prof): draw(st.lists(pool, min_size=len(sizes), max_size=len(sizes)))
        for prof in iter_product(*[p["strategies"] for p in players])
    }
    return {"players": players, "payoffs": payoffs}


@settings(max_examples=150, deadline=None)
@given(spec=_specs())
def test_each_player_ranks_their_distinct_values_once(spec):
    g, _ = parse_game_spec(spec)
    ranks = {p: split_tuple(g.grids, g.payoff(tuple_label(p))) for p in g.values}
    for i, grid in enumerate(g.grids):
        distinct = {vals[i] for vals in g.values.values()}
        assert len(grid) == len(distinct)
        assert grid.labels == tuple(str(r) for r in range(len(distinct)))
        assert g.levels[i] == tuple(sorted(distinct))
        for p, q in iter_product(g.values, repeat=2):
            a, b = int(ranks[p][i]), int(ranks[q][i])
            assert (a < b) == (g.values[p][i] < g.values[q][i])
            assert (a == b) == (g.values[p][i] == g.values[q][i])
    assert solution_set(compositional_game(g)) == brute_force_nash(g)
    route_reparam, route_pushed = hicks_games(g)
    assert solution_set(route_reparam) == solution_set(route_pushed) == brute_force_hicks(g)


# one value per group, each written four ways
_SPELLINGS = ((1, "2/2", 1.0, "1e0"), ("3/2", 1.5, "15e-1", "6/4"), (0, "0/7", -0.0, "0e3"), (-2, "-4/2", -2.0, "-0.2e1"))


@st.composite
def _spelled_specs(draw):
    """A spec whose payoff keys come in a shuffled order and whose equal
    values are written in different ways."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    players = [{"name": f"p{i}", "strategies": [f"s{j}" for j in range(m)]} for i, m in enumerate(sizes)]
    spelled = st.sampled_from(_SPELLINGS).flatmap(st.sampled_from)
    profiles = draw(st.permutations([",".join(p) for p in iter_product(*[p["strategies"] for p in players])]))
    payoffs = {key: draw(st.lists(spelled, min_size=len(sizes), max_size=len(sizes))) for key in profiles}
    return {"players": players, "payoffs": payoffs}


def _exact_rows(spec) -> tuple:
    """The players and the product-ordered table of a spec's exact values, one
    ``Fraction`` object per payoff, however the spec writes it."""
    players = tuple(FinSet(tuple(p["strategies"])) for p in spec["players"])
    rows = {tuple(key.split(",")): tuple(map(Fraction, vals)) for key, vals in spec["payoffs"].items()}
    return players, {p: rows[p] for p in iter_product(*[p.labels for p in players])}


@settings(max_examples=150, deadline=None)
@given(spec=_spelled_specs())
def test_parsing_builds_the_game_of_its_exact_values(spec):
    parsed, _ = parse_game_spec(spec)
    players, values = _exact_rows(spec)
    built = game_of_rows(players, values)
    product_order = list(values)
    assert parsed.players == built.players == players
    # equal values spelled differently share a rank, in the parsed game as in the built one
    assert parsed.grids == built.grids
    assert parsed.levels == built.levels
    assert list(parsed.values) == product_order
    assert list(parsed.values.values()) == list(values.values())
    assert parsed.payoff.table == built.payoff.table
    assert list(parsed.payoff.table) == [tuple_label(p) for p in product_order]


def _hicks_by_hand(g):
    """The profiles whose payoffs, summed profile by profile, reach the best total."""
    totals = {p: sum(vals, Fraction(0)) for p, vals in g.values.items()}
    best = max(totals.values())
    return tuple(tuple_label(p) for p in g.values if totals[p] == best)


@settings(max_examples=150, deadline=None)
@given(spec=_spelled_specs())
@example(spec={  # the best total 3/2 comes from three different combinations
    "players": [{"name": "a", "strategies": ["x", "y", "z"]}, {"name": "b", "strategies": ["u", "v"]}],
    "payoffs": {"x,u": ["3/2", 0], "x,v": [1, "1/2"], "y,u": [0, 1.5], "y,v": [-2, 1], "z,u": [1.0, "2/4"], "z,v": [0, 0]},
})
def test_brute_force_hicks_sums_as_a_per_profile_sum_does(spec):
    parsed, _ = parse_game_spec(spec)
    built = game_of_rows(*_exact_rows(spec))  # no two payoffs share an object
    for g in (parsed, built):
        assert brute_force_hicks(g) == _hicks_by_hand(g)


def test_brute_force_oracles_frozen():
    assert brute_force_nash(_pd()) == (("D", "D"),)
    assert brute_force_nash(_pennies()) == ()
    assert brute_force_nash(_coordination()) == (("A", "A"), ("B", "B"))
    assert brute_force_nash(_battle()) == (("B", "B"), ("S", "S"))
    assert brute_force_hicks(_pd()) == (("C", "C"),)
    assert brute_force_hicks(_battle()) == (("B", "B"), ("S", "S"))
    # only argmax players are held to deviations
    assert brute_force_nash(_pd(), tags=["argmax", "total"]) == (("D", "C"), ("D", "D"))
    assert brute_force_nash(_pennies(), tags=["total", "total"]) == (
        ("H", "H"), ("H", "T"), ("T", "H"), ("T", "T"),
    )
    # tags are checked as compositional_game checks them
    with pytest.raises(CompositionError, match="unknown selection tag 'bogus'"):
        brute_force_nash(_pd(), tags=["argmax", "bogus"])
    with pytest.raises(CompositionError, match="one selection tag per player"):
        brute_force_nash(_pd(), tags=["argmax"])


def test_game_scalar_recovers_the_payoff_table():
    from paralens.checks import random_game
    from paralens.selection_games import game_scalar

    rng = random.Random(38)
    for g in [_pd()] + [random_game(rng) for _ in range(30)]:
        scalar = game_scalar(g)
        reward = para_costate_solution_input(scalar)
        assert scalar.params.fwd.labels == g.payoff.dom.labels
        for prof in g.payoff.dom.labels:
            assert reward(prof) == g.payoff(prof)


@pytest.mark.parametrize("n, cold", [(2, 11), (3, 15)])
def test_a_game_builds_its_arena_once_per_shape(monkeypatch, n, cold):
    """Cold: n decisions and n - 1 tensors of 3 lenses each, already flat,
    then the context (6 lenses); its reward is read off the context's legs
    and builds none.  Warm: only the context's 6."""
    built = [0]
    post_init = Lens.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    moves = [FinSet(("C", "D"))] * n
    profiles = list(iter_product(*[m.labels for m in moves]))

    def game(shift):
        # each player's values are a permutation of 0 … len(profiles) - 1, so every game has one shape
        return _game(moves, {p: [(j + shift * (i + 1)) % len(profiles) for i in range(n)]
                             for j, p in enumerate(profiles)})

    arena.cache_clear()
    monkeypatch.setattr(Lens, "__post_init__", counted)
    for shift, want in ((0, cold), (1, 6), (2, 6)):
        built[0] = 0
        g = game(shift)
        assert solution_set(compositional_game(g)) == brute_force_nash(g)
        assert built[0] == want
    assert arena.cache_info().currsize == 1


def test_a_shape_and_its_tags_build_one_nash_relation():
    def game(shift):
        return _game([FinSet(("C", "D"))] * 2, {p: [(j + shift) % 4, (j * 3 + shift) % 4]
                                                 for j, p in enumerate(iter_product("CD", repeat=2))})

    nash_relation.cache_clear()
    g, h = game(0), game(1)
    assert g.grids == h.grids and g.payoff != h.payoff
    both = compositional_game(g, ["argmax", "total"])
    assert compositional_game(h, ("argmax", "total")).sel is both.sel
    assert compositional_game(g).sel is compositional_game(h, ["argmax", "argmax"]).sel is not both.sel
    assert [solution_set(compositional_game(x, tags)) == brute_force_nash(x, tags)
            for x in (g, h, g) for tags in (None, ["argmax", "total"])] == [True] * 6
    assert nash_relation.cache_info().currsize == 2
    # one shape per strategy label below, so every game misses the cache
    maxsize = nash_relation.cache_info().maxsize
    assert maxsize == 64
    for i in range(maxsize + 1):
        one = parse_game_spec({"players": [{"name": "p", "strategies": [f"s{i}"]}], "payoffs": {f"s{i}": [0]}})[0]
        assert solution_set(compositional_game(one)) == (f"s{i}",)
    assert nash_relation.cache_info().currsize == maxsize


@st.composite
def _same_shape_specs(draw):
    """Two to four specs of one shape, generated like the benchmark's: n
    players with k strategies each and exactly v distinct payoffs per player,
    with fresh payoffs for every spec."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    strategies = [f"s{j}" for j in range(k)]
    profiles = [",".join(p) for p in iter_product(strategies, repeat=n)]
    v = draw(st.integers(1, min(4, len(profiles))))
    players = [{"name": f"p{i}", "strategies": strategies} for i in range(n)]
    specs = []
    for _ in range(draw(st.integers(2, 4))):
        columns = []
        for _ in range(n):
            pool = draw(st.lists(st.integers(-6, 6), min_size=v, max_size=v, unique=True))
            rest = draw(st.lists(st.sampled_from(pool), min_size=len(profiles) - v, max_size=len(profiles) - v))
            columns.append(draw(st.permutations(pool + rest)))
        specs.append({"players": players, "payoffs": {p: [c[j] for c in columns] for j, p in enumerate(profiles)}})
    return specs


def _solve(g, selection) -> tuple:
    if selection == "hicks_sum":
        route_reparam, route_pushed = hicks_games(g)
        assert solution_set(route_reparam) == solution_set(route_pushed)
        return solution_set(route_reparam)
    return solution_set(compositional_game(g, selection))


@settings(max_examples=60, deadline=None)
@given(specs=_same_shape_specs(), data=st.data())
def test_a_warm_arena_solves_as_a_cold_one(specs, data):
    games = [parse_game_spec(spec)[0] for spec in specs]
    n = len(games[0].players)
    tags = data.draw(st.lists(st.sampled_from(["argmax", "total"]), min_size=n, max_size=n))
    selections = (None, tags, "hicks_sum")  # None: every player argmax
    arena.cache_clear()
    nash_relation.cache_clear()
    warm = []
    for g in games:
        for selection in selections:
            warm.append(_solve(g, selection))
            if selection == "hicks_sum":
                assert warm[-1] == brute_force_hicks(g)
            else:
                assert warm[-1] == brute_force_nash(g, tags=selection)
    # every solve after the first ran on the arena the first one built
    assert arena.cache_info().hits == len(warm) - 1 and arena.cache_info().currsize == 1
    # one relation per distinct list of tags, shared by every game of the shape
    relations = len({("argmax",) * n, tuple(tags)})
    assert nash_relation.cache_info().currsize == relations
    assert nash_relation.cache_info().hits == 2 * len(games) - relations
    cold = []
    for g in games:
        for selection in selections:
            arena.cache_clear()
            nash_relation.cache_clear()
            cold.append(_solve(g, selection))
    assert cold == warm


def test_solution_sets_match_oracle_on_fixtures():
    for g in (_pd(), _pennies(), _coordination(), _battle()):
        assert solution_set(compositional_game(g)) == brute_force_nash(g)


def test_solution_sets_match_oracle_on_random_games():
    from paralens.checks import random_game

    rng = random.Random(32)
    for _ in range(40):
        g = random_game(rng)
        assert solution_set(compositional_game(g)) == brute_force_nash(g)


def test_mixed_selection_tags_on_dilemma():
    g = _pd()
    assert solution_set(compositional_game(g, ["argmax", "total"])) == (
        ("D", "C"),
        ("D", "D"),
    )
    assert solution_set(compositional_game(g, ["total", "argmax"])) == (
        ("C", "D"),
        ("D", "D"),
    )
    with pytest.raises(CompositionError):
        compositional_game(g, ["argmax"])
    with pytest.raises(CompositionError):
        compositional_game(g, ["argmax", "softmax"])
    # the "argmax_each" spelling belongs to the CLI; a string is read as one tag per character
    with pytest.raises(CompositionError, match="one selection tag per player"):
        compositional_game(g, "argmax_each")
    with pytest.raises(CompositionError, match="unknown selection tag 'a'"):
        compositional_game(g, "at")


# -- joint-total maximisation -------------------------------------------


def test_sum_lens_tables():
    # the dilemma plays the totals 2, 3 and 4; ("0","0") totals 0, below all
    # of them, ("1","2") totals 3 and ("3","3") totals 6, which no profile plays
    collapse = sum_of_payoffs_lens(_pd())
    assert collapse.src.bwd.labels == ("0", "1", "2")
    assert FINITE.apply(collapse.get, ("C", "C")) == ("C", "C")
    assert FINITE.apply(collapse.put, (("C", "C"), ("2", "2"))) == "2"
    assert FINITE.apply(collapse.put, (("D", "C"), ("3", "0"))) == "1"
    assert FINITE.apply(collapse.put, (("C", "C"), ("0", "0"))) == "0"
    assert FINITE.apply(collapse.put, (("C", "C"), ("1", "2"))) == "1"
    assert FINITE.apply(collapse.put, (("C", "C"), ("3", "3"))) == "2"


def test_sum_lens_ranks_only_played_totals():
    # 3 players x 4 moves, all 192 payoffs distinct: the grid product has
    # 64**3 tuples and about 244,000 distinct totals, the game 64 profiles
    rng = random.Random(31)
    moves = FinSet(("a", "b", "c", "d"))
    draws = iter(rng.sample(range(10**6), 192))
    g = _game([moves] * 3, {p: tuple(next(draws) for _ in range(3)) for p in iter_product(moves.labels, repeat=3)})
    collapse = sum_of_payoffs_lens(g)
    played = {sum(vals) for vals in g.values.values()}
    assert len(collapse.src.bwd) == len(played) <= 64
    want = brute_force_hicks(g)
    assert [solution_set(route) for route in hicks_games(g)] == [want, want]


@st.composite
def _pooled_games(draw):
    # each profile plays one of a few payoff vectors, so most games leave
    # some tuples of the grid product unplayed
    n = draw(st.integers(1, 3))
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[value] * n), min_size=1, max_size=4))
    players = tuple(FinSet(tuple(f"m{j}" for j in range(draw(st.integers(1, 3))))) for _ in range(n))
    profiles = list(iter_product(*[p.labels for p in players]))
    return game_of_rows(players, {p: draw(st.sampled_from(pool)) for p in profiles})


@settings(max_examples=150, deadline=None)
@given(g=_pooled_games())
def test_sum_lens_ranks_unplayed_tuples_weakly(g):
    collapse = sum_of_payoffs_lens(g)
    w = next(iter(collapse.src.fwd))
    played = {g.payoff(tuple_label(list(p))) for p in g.values}
    rank, total = {}, {}
    for r in iter_product(*[grid.labels for grid in g.grids]):
        r = tuple_label(list(r))
        label = collapse.put((w, r))
        assert label in collapse.src.bwd
        rank[r] = int(label)
        total[r] = sum((level[int(i)] for level, i in zip(g.levels, split_tuple(g.grids, r))), Fraction(0))
    for r in rank:  # the rank of the greatest played total at or below its own, or 0
        assert rank[r] == max((rank[p] for p in played if total[p] <= total[r]), default=0)
    for r, s in iter_product(rank, repeat=2):
        if total[r] <= total[s]:
            assert rank[r] <= rank[s]
        if r in played and s in played:
            assert (rank[r] < rank[s]) == (total[r] < total[s])
            assert (rank[r] == rank[s]) == (total[r] == total[s])


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), digits=st.sampled_from([1, 30, 300]))
def test_sum_lens_ranks_every_total_exactly(data, n, digits):
    # values a few units of 10**-digits apart, so totals of different
    # combinations tie or differ far below any fixed precision
    base = 10**digits
    near = st.builds(lambda a, b: Fraction(base // 3 + a, base + b), st.integers(-3, 3), st.sampled_from([0, 1, 2, base]))
    levels = [sorted(set(data.draw(st.lists(near, min_size=1, max_size=4)))) for _ in range(n)]
    players = [FinSet(tuple(f"s{j}" for j in range(len(level)))) for level in levels]
    g = game_of_rows(tuple(players), {p: tuple(level[int(m[1:])] for level, m in zip(levels, p)) for p in iter_product(*[p.labels for p in players])})
    collapse = sum_of_payoffs_lens(g)
    w = next(iter(collapse.src.fwd))
    rank, total = {}, {}
    for r in iter_product(*[grid.labels for grid in g.grids]):
        rank[r] = int(collapse.put((w, tuple_label(list(r)))))
        total[r] = sum((level[int(i)] for level, i in zip(g.levels, r)), Fraction(0))
    assert len(collapse.src.bwd) == len(set(total.values()))
    for r, s in iter_product(rank, repeat=2):
        assert (rank[r] < rank[s]) == (total[r] < total[s])
        assert (rank[r] == rank[s]) == (total[r] == total[s])


@settings(max_examples=150, deadline=None)
@given(g=_pooled_games())
def test_sum_lens_backward_is_a_bisect_into_the_played_totals(g):
    # on every tuple of the grid product, played or not: the index of the greatest played total at or below its own, or 0
    collapse = sum_of_payoffs_lens(g)
    ordered = sorted({sum(vals) for vals in g.values.values()})
    for r in iter_product(*[grid.labels for grid in g.grids]):
        total = sum((level[int(i)] for level, i in zip(g.levels, r)), Fraction(0))
        assert collapse.backward(None, tuple_label(list(r))) == str(max(bisect_right(ordered, total) - 1, 0))


@pytest.mark.parametrize("n", [2, 3])
def test_a_closed_games_reward_legs_split_nothing(monkeypatch, n):
    # the context's state point and costate values are checked where they are made, so the unitors
    # of the decisions, which take them apart only to drop or rejoin the parts, emit no split; the
    # state compiles to its point and the costate to its map, so the one reward leg calls the payoff
    # alone and packs no residual
    sources, real = [], lens_core.compile_make

    def recorded(source, namespace, filename):
        sources.append("\n".join(source))
        return real(source, namespace, filename)

    g = _game([FinSet(("L", "R"))] * n, {p: [i % 2] * n for i, p in enumerate(iter_product("LR", repeat=n))})
    lens = compositional_game(g).lens
    monkeypatch.setattr(lens_core, "compile_make", recorded)
    lens_core._compile.cache_clear()
    reward = para_costate_solution_input(lens)
    assert len(sources) == 1 and "split_elem" not in sources[0]
    assert re.findall(r"\b[fbpk]\d+\(", sources[0]) == ["k1("] and "p0" not in sources[0].partition("\n")[2]
    assert not re.search(r"\br\d*\b", sources[0])  # no residual, packed or unpacked
    assert reward.table == g.payoff.table
    # the Hicks route that reparametrises by the sum-of-payoffs lens reads the lens's backward leg of the payoff
    collapse = sum_of_payoffs_lens(g)
    reward = para_costate_solution_input(hicks_games(g)[0].lens)
    assert all(reward(w) == collapse.backward(None, g.payoff(w)) for w in lens.params.fwd)


def test_a_reward_or_threaded_reward_outside_its_codomain_names_the_element_and_the_image():
    m, r = FinSet(("a", "b", "c")), FinSet(("0", "1"))
    port, unit = LensObj(m, r), unit_obj(FINITE)
    back = lambda x, _: ("1" if x[0] == "a" else "9", "•")
    scalar = ParaLens(FINITE, (port,), unit, unit, Lens(FINITE, obj_pair(FINITE, port, unit), unit, lambda x: ("•", x), back))
    for rel in (argmax_rel(m, r), total_rel(port)):  # read whole before any profile is asked about
        with pytest.raises(CompositionError, match=r"^image '9' of 'b' is not in codomain \{0,1\}$"):
            solution_set(OpenGame(scalar, rel))
    pushed = sel_pushforward(Lens(FINITE, port, port, lambda x: (x, x), lambda x, z: "7" if x == "c" else z), argmax_rel(m, r))
    with pytest.raises(CompositionError, match=r"^image '7' of 'c' is not in codomain \{0,1\}$"):
        pushed.accepts("a", FinFn(m, r, {"a": "0", "b": "1", "c": "0"}))


def test_hicks_routes_agree_on_fixtures():
    for g in (_pd(), _pennies(), _coordination(), _battle()):
        a, b = hicks_games(g)
        want = brute_force_hicks(g)
        assert solution_set(a) == want
        assert solution_set(b) == want


@pytest.mark.parametrize("n, k, v", [(3, 4, 4), (2, 8, 8), (10, 2, 4)])
def test_a_warm_nash_solve_builds_one_finfn_its_reward(monkeypatch, n, k, v):
    """The restrictions the product hands its factors are plain functions,
    so a solve builds one checked function: the reward off the scalar."""
    rng = random.Random(n * 100 + k)  # n players of k moves, payoffs drawn from range(v)
    moves = [FinSet(tuple(f"m{j}" for j in range(k)))] * n
    g = _game(moves, {p: [rng.randrange(v) for _ in range(n)] for p in iter_product(*[m.labels for m in moves])})
    mixed = ["argmax", "total"] * (n // 2) + ["argmax"] * (n % 2)
    for tags in (None, mixed):  # cold: the arena and each Nash relation are built once per shape
        solution_set(compositional_game(g, tags))
    built = [0]
    post_init = FinFn.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(FinFn, "__post_init__", counted)
    for tags in (None, mixed):
        built[0] = 0
        assert solution_set(compositional_game(g, tags)) == brute_force_nash(g, tags)
        assert built[0] == 1


def test_hicks_routes_agree_on_random_games():
    from paralens.checks import random_game

    rng = random.Random(33)
    for _ in range(25):
        g = random_game(rng)
        a, b = hicks_games(g)
        want = brute_force_hicks(g)
        assert solution_set(a) == want
        assert solution_set(b) == want


def test_dilemma_nash_and_hicks_disjoint():
    g = _pd()
    nash = solution_set(compositional_game(g))
    hicks = solution_set(hicks_games(g)[0])
    assert nash == (("D", "D"),)
    assert hicks == (("C", "C"),)
    assert set(nash).isdisjoint(hicks)


# -- coherence of the product -------------------------------------------


def test_nash_product_commutes_with_swap():
    rng = random.Random(34)
    a = LensObj(FinSet(("a0", "a1")), FinSet(("0", "1")))
    b = LensObj(FinSet(("b0", "b1")), FinSet(("0", "2")))
    for _ in range(12):
        eps = random_relation(rng, a)
        delta = random_relation(rng, b)
        pushed = sel_pushforward(
            lens_swap(FINITE, a, b), nash_product(eps, delta)
        )
        assert relations_equal(pushed, nash_product(delta, eps))


def test_nash_product_commutes_with_reassociation():
    rng = random.Random(35)
    a = LensObj(FinSet(("a0", "a1")), FinSet(("0",)))
    b = LensObj(FinSet(("b0", "b1")), FinSet(("1",)))
    c = LensObj(FinSet(("c0", "c1")), FinSet(("0", "3")))
    for _ in range(6):
        e1, e2, e3 = (random_relation(rng, o) for o in (a, b, c))
        nested_left = nash_product(nash_product(e1, e2), e3)
        nested_right = nash_product(e1, nash_product(e2, e3))
        pushed = sel_pushforward(
            lens_assoc(FINITE, a, b, c), nested_left
        )
        assert relations_equal(pushed, nested_right)


# -- the players' Nash relation, read by columns --------------------------


@st.composite
def _small_ports(draw):
    """One to three players of one or two moves, rank grids of one or two labels (in either order, so
    a rank is a label's position, not its value) and per-player tags, on a port of at most 4,096 reward functions."""
    n = draw(st.integers(1, 3))
    players = tuple(FinSet(tuple(f"m{j}" for j in range(draw(st.integers(1, 2))))) for _ in range(n))
    grids = tuple(FinSet(draw(st.sampled_from([("0",), ("0", "1"), ("1", "0")]))) for _ in range(n))
    tags = tuple(draw(st.sampled_from(SELECTION_TAGS)) for _ in range(n))
    assume(len(finset_tuple_product(grids)) ** len(finset_tuple_product(players)) <= 4096)
    return players, grids, tags


@settings(max_examples=60, deadline=None)
@given(_small_ports())
def test_the_nash_relation_is_the_folded_binary_product(port):
    players, grids, tags = port
    factors = [argmax_rel(m, r) if tag == "argmax" else total_rel(LensObj(m, r)) for m, r, tag in zip(players, grids, tags)]
    nash_relation.cache_clear()
    try:
        assert relations_equal(nash_relation(players, grids, tags), reduce(nash_product, factors))
    finally:
        nash_relation.cache_clear()


def test_the_nash_relation_checks_a_reward_before_it_unpacks_it():
    cd, grid = FinSet(("C", "D")), FinSet(("0", "1"))
    nash_relation.cache_clear()
    rel = nash_relation((cd,) * 3, (grid,) * 3, ("argmax", "total", "argmax"))
    # not a FinFn: each value is checked against the whole rank product, a total player's rank too
    for bad in (("2", "0"), "0", ["0", "0"], (("0", "0"), "2"), (("0", "2"), "0"), ((("0", "0"), "0"), "0")):
        with pytest.raises(CompositionError, match=re.escape(f"reward function maps (('C', 'C'), 'C') to {bad!r}")):
            rel.accepts((("C", "C"), "C"), lambda w, bad=bad: bad)
    # a FinFn of the wrong type, codomain or domain, is refused before any value is read
    wide = FinSet(("0", "1", "2"))
    for dom, cod in ((rel.obj.fwd, finset_tuple_product([grid, wide, grid])), (FinProd(cd, cd), rel.obj.bwd)):
        k = FinFn(dom, cod, lambda w: next(iter(cod)))
        with pytest.raises(CompositionError, match="^reward function is not "):
            rel.accepts((("C", "C"), "C"), k)
        assert k.table == {}
    # an argmax player with no move has no best response, and a total one leaves no profile to keep
    empty = FinSet(())
    with pytest.raises(CompositionError, match="^argmax over the empty move set is undefined$"):
        nash_relation((cd, empty), (grid, grid), ("total", "argmax"))
    rel = nash_relation((cd, empty), (grid, grid), ("argmax", "total"))
    assert relations_equal(rel, nash_product(argmax_rel(cd, grid), total_rel(LensObj(empty, grid))))
    assert not rel.accepts(("C", "x"), FinFn(rel.obj.fwd, rel.obj.bwd, {}))
    nash_relation.cache_clear()


def test_a_game_of_200_players_solves_with_no_recursion_per_player():
    # each player's relation is a column of the one reward, so no restriction nests in another; the left-nested
    # profile carrier bounds the player count instead (its iteration recurses once per player)
    n = 200
    g = game_of_rows((FinSet(("a",)),) * n, {("a",) * n: (Fraction(0),) * n})
    for tags in (None, ["argmax", "total"] * (n // 2)):
        assert solution_set(compositional_game(g, tags)) == brute_force_nash(g, tags) == (tuple_label(["a"] * n),)
    arena.cache_clear()
    nash_relation.cache_clear()


def test_relations_on_different_ports_are_not_compared():
    a, b = LensObj(FinSet(("x",)), FinSet(("r",))), LensObj(FinSet(("y",)), FinSet(("r",)))
    with pytest.raises(CompositionError, match="^relations live on different parameter ports$"):
        relations_equal(total_rel(a), total_rel(b))
