import gc
import random
import tracemalloc
import weakref

import pytest

from paralens.errors import CompositionError, SizeCapError
from paralens.finite_base import (
    FINITE,
    UNIT_LABEL,
    UNIT_SET,
    FinFn,
    FinProd,
    FinSet,
    enumerate_functions,
    finset_tuple_product,
    parse_payoff,
    payoff_grid,
    payoff_label,
    split_tuple,
    tuple_label,
)
from paralens.lens_core import costate_fn
from paralens.para_optic import para_costate_solution_input
from paralens.selection_games import compositional_game, normal_form_game, solution_set
from fractions import Fraction
from itertools import product as iter_product


def test_finset_basics():
    s = FinSet(("a", "b", "c"))
    assert len(s) == 3
    assert list(s) == ["a", "b", "c"]
    assert "b" in s and "z" not in s


def test_finset_rejects_duplicates_and_nonstrings():
    with pytest.raises(CompositionError):
        FinSet(("a", "a"))
    with pytest.raises(CompositionError):
        FinSet(("a", 3))


def test_unit_set():
    assert UNIT_SET.labels == (UNIT_LABEL,)
    assert UNIT_LABEL == "•"


def test_product_order_first_factor_slowest():
    p = FinProd(FinSet(("a", "b")), FinSet(("x", "y")))
    assert p.labels == (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))


def test_product_elements_cannot_collide():
    # rendered as "(x,y)" strings, (a,b)×(c) and (a)×(b,c) would coincide
    p = FinProd(FinSet(("a,b", "a")), FinSet(("c", "b,c")))
    assert len(p) == len(set(p.labels)) == 4
    assert ("a,b", "c") in p and ("a", "b,c") in p
    assert "(a,b,c)" not in p and ["a", "c"] not in p


def test_product_carrier_is_not_enumerated():
    a = FinSet(tuple(f"a{i}" for i in range(1000)))
    b = FinSet(tuple(f"b{i}" for i in range(1000)))
    tracemalloc.start()
    try:
        p = FinProd(a, b)
        assert len(p) == 10**6
        assert FINITE.contains(p, ("a999", "b0"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_tuple_label_left_associated():
    assert tuple_label([]) == UNIT_LABEL
    assert tuple_label(["a"]) == "a"
    assert tuple_label(["a", "b"]) == ("a", "b")
    assert tuple_label(["a", "b", "c"]) == (("a", "b"), "c")


def test_tuple_product_and_split():
    sets = [FinSet(("a", "b")), FinSet(("x", "y")), FinSet(("0", "1"))]
    prod = finset_tuple_product(sets)
    assert len(prod) == 8
    for la in sets[0].labels:
        for lb in sets[1].labels:
            for lc in sets[2].labels:
                lbl = tuple_label([la, lb, lc])
                assert lbl in prod
                assert split_tuple(sets, lbl) == (la, lb, lc)
    assert finset_tuple_product([]) is UNIT_SET
    assert finset_tuple_product([sets[0]]) == sets[0]


def test_finfn_validates_table():
    dom, cod = FinSet(("a", "b")), FinSet(("x",))
    FinFn(dom, cod, {"a": "x", "b": "x"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x", "b": "zzz"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x", "b": "x", "c": "x"})


def test_finfn_rejects_label_outside_domain():
    f = FinFn(FinSet(("a", "b")), FinSet(("x",)), {"a": "x", "b": "x"})
    with pytest.raises(CompositionError, match=r"'zz'.*\{a,b\}"):
        FINITE.apply(f, "zz")


def test_unhashable_elements_are_rejected_by_name():
    s = FinSet(("a", "b"))
    f = FinFn(s, s, {"a": "b", "b": "a"})
    cases = (
        (f, ["a"]),
        (FINITE.product(f, f), ["a", "b"]),
        (FINITE.product(f, f), (["a"], "b")),
        (FINITE.compose(f, f), ["a"]),
    )
    for fn, bad in cases:
        before = dict(fn.table)
        with pytest.raises(CompositionError) as exc:
            fn(bad)
        assert str(exc.value) == f"element {bad!r} is not in domain {fn.dom}"
        assert fn.table == before


def test_finfn_procedure_checks_image_at_first_evaluation():
    f = FINITE.morphism(FinSet(("a", "b")), FinSet(("x",)), lambda a: "y")
    with pytest.raises(CompositionError, match="codomain"):
        f("a")
    assert f.table == {}


def test_fn_compose_and_identity():
    rng = random.Random(20)
    for _ in range(50):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        sets = [
            FinSet(tuple(f"v{i}_{j}" for j in range(n))) for i, n in enumerate(sizes)
        ]
        f = FinFn(sets[0], sets[1], {x: rng.choice(sets[1].labels) for x in sets[0].labels})
        g = FinFn(sets[1], sets[2], {x: rng.choice(sets[2].labels) for x in sets[1].labels})
        h = FinFn(sets[2], sets[3], {x: rng.choice(sets[3].labels) for x in sets[2].labels})
        compose, eq = FINITE.compose, FINITE.mor_equal
        assert eq(compose(compose(f, g), h), compose(f, compose(g, h)))
        assert eq(compose(FINITE.identity(sets[0]), f), f)
        assert eq(compose(f, FINITE.identity(sets[1])), f)


def test_fn_compose_rejects_mismatch():
    f = FinFn(FinSet(("a",)), FinSet(("x",)), {"a": "x"})
    g = FinFn(FinSet(("y",)), FinSet(("z",)), {"y": "z"})
    with pytest.raises(CompositionError):
        FINITE.compose(f, g)


def test_fn_product_componentwise():
    f = FinFn(FinSet(("a", "b")), FinSet(("x", "y")), {"a": "x", "b": "y"})
    g = FinFn(FinSet(("0",)), FinSet(("p", "q")), {"0": "q"})
    fg = FINITE.product(f, g)
    assert fg(("a", "0")) == ("x", "q")
    assert fg(("b", "0")) == ("y", "q")


def test_product_and_split_reject_non_pairs():
    f = FinFn(FinSet(("a", "b")), FinSet(("x",)), {"a": "x", "b": "x"})
    fg = FINITE.product(f, f)
    for bad in ("ab", ("a", "b", "a")):
        with pytest.raises(CompositionError, match="not a pair"):
            FINITE.split_elem(bad)
        with pytest.raises(CompositionError):
            fg(bad)
    with pytest.raises(CompositionError):
        fg(("a", "zz"))
    assert fg.table == {}


def test_composite_checks_membership_at_its_edges(monkeypatch):
    s = FinSet(("a", "b"))
    c = FinProd(FinProd(FinProd(s, s), s), s)
    idents = [FINITE.identity(c) for _ in range(8)]
    composite = idents[0]
    for f in idents[1:]:
        composite = FINITE.compose(composite, f)
    calls, depth = [0], [0]
    real = FinProd.__contains__

    def counted(self, xy):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(self, xy)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FinProd, "__contains__", counted)
    assert [composite(x) for x in c] == list(c)
    # each identity checks an element and its image once; the seven
    # composites check nothing
    assert calls[0] == 2 * len(idents) * len(c)
    with pytest.raises(CompositionError):
        composite(((("a", "b"), "zz"), "a"))


def test_solution_input_checks_membership_a_fixed_number_of_times_per_profile(monkeypatch):
    calls, depth = [0], [0]
    real = FinProd.__contains__

    def counted(self, xy):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(self, xy)
        finally:
            depth[0] -= 1

    per_profile = []
    for n in (2, 3):
        players = [FinSet(("L", "M", "R"))] * n
        profiles = list(iter_product(*[p.labels for p in players]))
        table = {p: [i % 3 for i in range(j, j + n)] for j, p in enumerate(profiles)}
        lens = compositional_game(normal_form_game(players, table)).lens
        reward = costate_fn(para_costate_solution_input(lens))
        monkeypatch.setattr(FinProd, "__contains__", counted)
        calls[0] = 0
        for w in reward.dom:
            reward(w)
        monkeypatch.undo()
        per_profile.append(calls[0] / len(reward.dom))
    # the reward map and the costate map it reads each check a profile and
    # its image once; the lenses of the game inside them check nothing
    assert per_profile == [4, 4]


def test_product_carriers_die_with_their_game():
    players = [FinSet(("C", "D")), FinSet(("C", "D"))]
    table = {("C", "C"): (2, 2), ("C", "D"): (0, 3), ("D", "C"): (3, 0), ("D", "D"): (1, 1)}
    game = compositional_game(normal_form_game(players, table))
    assert solution_set(game) == (("D", "D"),)
    profiles = weakref.ref(game.lens.params.fwd)
    del game, players
    gc.collect()
    assert profiles() is None


def test_enumerate_functions_order_and_count():
    dom, cod = FinSet(("p", "q")), FinSet(("0", "1"))
    fns = enumerate_functions(dom, cod)
    assert len(fns) == 4
    tables = [f.table for f in fns]
    # earliest domain label varies slowest
    assert tables == [
        {"p": "0", "q": "0"},
        {"p": "0", "q": "1"},
        {"p": "1", "q": "0"},
        {"p": "1", "q": "1"},
    ]


def test_enumerate_functions_cap():
    dom = FinSet(tuple(f"d{i}" for i in range(5)))
    cod = FinSet(tuple(f"c{i}" for i in range(4)))
    with pytest.raises(SizeCapError) as exc:
        enumerate_functions(dom, cod, max_size=100)
    assert exc.value.count == 4**5


def test_payoff_labels():
    assert payoff_label(Fraction(3, 2)) == "3/2"
    assert payoff_label(2) == "2"
    assert payoff_label(Fraction(-1)) == "-1"
    assert parse_payoff("3/2") == Fraction(3, 2)
    assert parse_payoff("-7") == Fraction(-7)


def test_payoff_grid_sorted_and_deduplicated():
    g = payoff_grid([Fraction(2), Fraction(1), Fraction(3, 2), Fraction(1)])
    assert g.labels == ("1", "3/2", "2")
    g2 = payoff_grid([Fraction(-1), Fraction(0), Fraction(1)])
    assert g2.labels == ("-1", "0", "1")
