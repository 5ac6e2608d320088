"""Selection relations, decisions, and normal-form game assembly.

The frozen solution sets here were worked out by hand from the payoff
tables and double-checked with the deviation enumeration oracle, which
is itself tested directly against the same hand values.
"""

import random

import pytest

from paralens.checks import random_relation
from paralens.errors import CompositionError, SizeCapError
from paralens.finite_base import (
    FINITE,
    FinFn,
    FinSet,
    UNIT_SET,
    finset_product,
)
from paralens.lens_core import (
    LensObj,
    costate_fn,
    lens_assoc,
    lens_compose,
    lens_id,
    lens_swap,
)
from paralens.para_optic import ParamObj, para_costate_solution_input
from paralens.selection_games import (
    argmax_rel,
    brute_force_hicks,
    brute_force_nash,
    compositional_game,
    context,
    decision,
    equilibria,
    hicks_games,
    is_sel_morphism,
    nash_product,
    normal_form_game,
    open_game,
    profile_values,
    relation_subset,
    relations_equal,
    sel_pushforward,
    solution_set,
    sum_of_payoffs_lens,
    total_rel,
)
from paralens.smooth_autodiff import gd_lens


def _pd():
    cd = FinSet(("C", "D"))
    return normal_form_game(
        [cd, cd],
        {
            ("C", "C"): (2, 2),
            ("C", "D"): (0, 3),
            ("D", "C"): (3, 0),
            ("D", "D"): (1, 1),
        },
    )


def _coordination():
    ab = FinSet(("A", "B"))
    return normal_form_game(
        [ab, ab],
        {
            ("A", "A"): (2, 2),
            ("A", "B"): (0, 0),
            ("B", "A"): (0, 0),
            ("B", "B"): (1, 1),
        },
    )


def _pennies():
    ht = FinSet(("H", "T"))
    return normal_form_game(
        [ht, ht],
        {
            ("H", "H"): (1, -1),
            ("H", "T"): (-1, 1),
            ("T", "H"): (-1, 1),
            ("T", "T"): (1, -1),
        },
    )


def _battle():
    bs = FinSet(("B", "S"))
    return normal_form_game(
        [bs, bs],
        {
            ("B", "B"): (2, 1),
            ("B", "S"): (0, 0),
            ("S", "B"): (0, 0),
            ("S", "S"): (1, 2),
        },
    )


# -- relations ----------------------------------------------------------


def test_argmax_frozen():
    moves = FinSet(("x", "y", "z"))
    grid = FinSet(("0", "1", "2"))
    rel = argmax_rel(moves, grid)
    k = FinFn(moves, grid, {"x": "2", "y": "1", "z": "2"})
    assert rel.accepts("x", k)
    assert not rel.accepts("y", k)
    assert rel.accepts("z", k)


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
    assert calls[0] <= 2 * n
    # a different reward function gets its own maximum
    accepted = [m for m in moves.labels if rel.accepts(m, k2)]
    assert accepted == [m for i, m in enumerate(moves.labels) if i % 5 == 4]


def test_argmax_rejects_reward_function_outside_its_rewards():
    moves = FinSet(("x", "y"))
    rel = argmax_rel(moves, FinSet(("0", "1")))
    k = FinFn(moves, FinSet(("0", "1", "2")), {"x": "2", "y": "0"})
    with pytest.raises(CompositionError):
        rel.accepts("x", k)


def test_argmax_rejects_empty_moves():
    with pytest.raises(CompositionError):
        argmax_rel(FinSet(()), FinSet(("0",)))


def test_total_accepts_everything():
    obj = ParamObj(FinSet(("a", "b")), FinSet(("0", "1")))
    rel = total_rel(obj)
    assert relation_subset(argmax_rel(obj.fwd, obj.bwd), rel)
    assert not relation_subset(rel, argmax_rel(obj.fwd, obj.bwd))


def test_nash_product_on_dilemma_costate():
    cd = FinSet(("C", "D"))
    grid = FinSet(("0", "1", "2", "3"))
    rel = nash_product(argmax_rel(cd, grid), argmax_rel(cd, grid))
    k = FinFn(
        finset_product(cd, cd),
        finset_product(grid, grid),
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
        obj = ParamObj(FinSet(("a", "b")), FinSet(("0", "1")))
        eps = random_relation(rng, obj)
        assert relations_equal(sel_pushforward(lens_id(FINITE, obj.as_obj()), eps), eps)


def test_pushforward_functoriality():
    """Pushing along a composite equals pushing in two stages."""
    rng = random.Random(31)
    from paralens.checks import random_lens, random_obj

    for _ in range(25):
        a, b, c = (random_obj(rng, 2) for _ in range(3))
        f = random_lens(rng, a, b)
        g = random_lens(rng, b, c)
        eps = random_relation(rng, ParamObj(a.fwd, a.bwd))
        lhs = sel_pushforward(lens_compose(f, g), eps)
        rhs = sel_pushforward(g, sel_pushforward(f, eps))
        assert relations_equal(lhs, rhs)


def test_pushforward_guards():
    obj = ParamObj(FinSet(("a", "b", "c", "d", "e")), FinSet(("0",)))
    eps = total_rel(obj)
    with pytest.raises(SizeCapError) as exc:
        sel_pushforward(lens_id(FINITE, obj.as_obj()), eps, max_size=4)
    assert exc.value.count == 5
    other = LensObj(FinSet(("q",)), FinSet(("0",)))
    with pytest.raises(CompositionError):
        sel_pushforward(lens_id(FINITE, other), eps)
    with pytest.raises(CompositionError, match="finite"):
        sel_pushforward(gd_lens(0.1, 1), eps)


def test_sel_morphism_examples():
    moves = FinSet(("a", "b"))
    grid = FinSet(("0", "1"))
    arg = argmax_rel(moves, grid)
    every = total_rel(ParamObj(moves, grid))
    ident = lens_id(FINITE, LensObj(moves, grid))
    assert is_sel_morphism(ident, arg, arg)
    assert is_sel_morphism(ident, arg, every)
    # an indifferent agent is not an optimiser
    assert not is_sel_morphism(ident, every, arg)
    with pytest.raises(CompositionError):
        is_sel_morphism(ident, arg, total_rel(ParamObj(grid, grid)))


# -- decisions ----------------------------------------------------------


def test_decision_strategy_order_and_play():
    obs = FinSet(("h0", "h1"))
    moves = FinSet(("L", "R"))
    grid = FinSet(("0", "1"))
    d = decision(obs, moves, grid)
    assert d.params.fwd.labels == (("L", "L"), ("L", "R"), ("R", "L"), ("R", "R"))
    assert d.params.bwd is grid
    assert FINITE.apply(d.carrier.get, (("L", "R"), "h0")) == "L"
    assert FINITE.apply(d.carrier.get, (("L", "R"), "h1")) == "R"
    # coplay hands the reward straight to the parameter port
    assert FINITE.apply(d.carrier.put, ((("R", "L"), "h1"), "1")) == ("1", "•")


def test_decision_respects_strategy_cap():
    obs = FinSet(("a", "b", "c"))
    moves = FinSet(("m0", "m1", "m2", "m3"))
    with pytest.raises(SizeCapError) as exc:
        decision(obs, moves, FinSet(("0",)), max_size=10)
    assert exc.value.count == 64


def test_context_agrees_with_pointwise_play():
    obs = FinSet(("h0", "h1"))
    moves = FinSet(("L", "R"))
    grid = FinSet(("0", "1"))
    d = decision(obs, moves, grid)
    game = open_game(d, argmax_rel(d.params.fwd, grid))
    k = FinFn(moves, grid, {"L": "1", "R": "0"})
    for h in obs.labels:
        reward = context(game, h, k)
        for w in d.params.fwd.labels:
            played = FINITE.apply(d.carrier.get, (w, h))
            assert reward(w) == k(played)
    assert equilibria(game, "h0", k) == (("L", "L"), ("L", "R"))
    assert equilibria(game, "h1", k) == (("L", "L"), ("R", "L"))


def test_solution_set_needs_closed_boundaries():
    obs = FinSet(("h0", "h1"))
    d = decision(obs, FinSet(("L", "R")), FinSet(("0", "1")))
    game = open_game(d, total_rel(d.params))
    with pytest.raises(CompositionError):
        solution_set(game)


def test_open_game_checks_the_port():
    g = _pd()
    from paralens.selection_games import game_scalar

    scalar = game_scalar(g)
    wrong = argmax_rel(FinSet(("C", "D")), FinSet(("0", "1", "2", "3")))
    with pytest.raises(CompositionError):
        open_game(scalar, wrong)


# -- normal-form games --------------------------------------------------


def test_normal_form_validation():
    cd = FinSet(("C", "D"))
    with pytest.raises(CompositionError, match="payoffs for"):
        normal_form_game([cd], {("C",): (1, 2), ("D",): (0,)})
    with pytest.raises(CompositionError, match="profile product"):
        normal_form_game([cd], {("C",): (1,)})
    with pytest.raises(CompositionError):
        normal_form_game([], {})


def test_profile_values_decode():
    g = _pd()
    assert profile_values(g, ("C", "D")) == (0, 3)
    assert profile_values(g, ("D", "D")) == (1, 1)
    assert [grid.labels for grid in g.grids] == [
        ("0", "1", "2", "3"),
        ("0", "1", "2", "3"),
    ]


def test_brute_force_oracles_frozen():
    assert brute_force_nash(_pd()) == (("D", "D"),)
    assert brute_force_nash(_pennies()) == ()
    assert brute_force_nash(_coordination()) == (("A", "A"), ("B", "B"))
    assert brute_force_nash(_battle()) == (("B", "B"), ("S", "S"))
    assert brute_force_hicks(_pd()) == (("C", "C"),)
    assert brute_force_hicks(_battle()) == (("B", "B"), ("S", "S"))
    with pytest.raises(SizeCapError):
        brute_force_nash(_pd(), max_size=3)


def test_game_scalar_recovers_the_payoff_table():
    g = _pd()
    from paralens.selection_games import game_scalar

    scalar = game_scalar(g)
    reward = costate_fn(para_costate_solution_input(scalar))
    assert scalar.params.fwd.labels == g.payoff.dom.labels
    for prof in g.payoff.dom.labels:
        assert reward(prof) == g.payoff(prof)


def test_solution_sets_match_oracle_on_fixtures():
    for g in (_pd(), _pennies(), _coordination(), _battle()):
        assert solution_set(compositional_game(g)) == brute_force_nash(g)


def test_equilibria_of_closed_game_equal_solution_set():
    game = compositional_game(_pd())
    k = FinFn(UNIT_SET, UNIT_SET, {"•": "•"})
    assert equilibria(game, "•", k) == solution_set(game)


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
    with pytest.raises(CompositionError):
        compositional_game(g, "argmin_each")


# -- joint-total maximisation -------------------------------------------


def test_sum_lens_tables():
    collapse = sum_of_payoffs_lens(_pd())
    assert collapse.src.bwd.labels == ("0", "1", "2", "3", "4", "5", "6")
    assert FINITE.apply(collapse.get, ("C", "C")) == ("C", "C")
    assert FINITE.apply(collapse.put, (("C", "C"), ("2", "2"))) == "4"
    assert FINITE.apply(collapse.put, (("D", "C"), ("3", "0"))) == "3"


def test_hicks_routes_agree_on_fixtures():
    for g in (_pd(), _pennies(), _coordination(), _battle()):
        a, b = hicks_games(g)
        want = brute_force_hicks(g)
        assert solution_set(a) == want
        assert solution_set(b) == want


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
    a = ParamObj(FinSet(("a0", "a1")), FinSet(("0", "1")))
    b = ParamObj(FinSet(("b0", "b1")), FinSet(("0", "2")))
    for _ in range(12):
        eps = random_relation(rng, a)
        delta = random_relation(rng, b)
        pushed = sel_pushforward(
            lens_swap(FINITE, a.as_obj(), b.as_obj()), nash_product(eps, delta)
        )
        assert relations_equal(pushed, nash_product(delta, eps))


def test_nash_product_commutes_with_reassociation():
    rng = random.Random(35)
    a = ParamObj(FinSet(("a0", "a1")), FinSet(("0",)))
    b = ParamObj(FinSet(("b0", "b1")), FinSet(("1",)))
    c = ParamObj(FinSet(("c0", "c1")), FinSet(("0", "3")))
    for _ in range(6):
        e1, e2, e3 = (random_relation(rng, o) for o in (a, b, c))
        nested_left = nash_product(nash_product(e1, e2), e3)
        nested_right = nash_product(e1, nash_product(e2, e3))
        pushed = sel_pushforward(
            lens_assoc(FINITE, a.as_obj(), b.as_obj(), c.as_obj()), nested_left
        )
        assert relations_equal(pushed, nested_right)
