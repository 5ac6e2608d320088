import gc
import random
import tracemalloc
import weakref
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralens.errors import CompositionError, SizeCapError
from paralens.finite_base import (
    FINITE,
    UNIT_LABEL,
    UNIT_SET,
    FinFn,
    FinProd,
    FinSet,
    finset_tuple_product,
    iter_functions,
    split_tuple,
    tuple_label,
)
from paralens.lens_core import LensObj, lens_compose, lens_id
from paralens.para_optic import para_costate_solution_input
from paralens.checks import pd_game
from paralens.cli import parse_game_spec
from paralens.selection_games import arena, compositional_game, solution_set
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
    # "CD" is not the set {C, D}: a string is not a sequence of labels
    with pytest.raises(CompositionError, match="not a string"):
        FinSet("CD")
    with pytest.raises(CompositionError):
        FinSet("")


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


class _Label(str):
    """A ``str`` subclass: a member of a label set by equality, tested with ``in`` rather than an index lookup."""


_POOL = ("a", "b", "c")
_VALUES = st.recursive(
    st.one_of(
        st.sampled_from(_POOL + ("z",)),
        st.sampled_from(_POOL).map(_Label),
        st.integers(-1, 2),
        st.none(),
        st.lists(st.sampled_from(_POOL), max_size=2),
    ),
    lambda inner: st.one_of(st.tuples(inner), st.tuples(inner, inner), st.tuples(inner, inner, inner)),
    max_leaves=8,
)


def _carriers(depth: int):
    sets = st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True).map(FinSet)
    if depth == 0:
        return sets
    products = st.builds(FinProd, _carriers(depth - 1), _carriers(depth - 1))
    return st.one_of(sets, products, products)


@st.composite
def _element(draw, c):
    """An element of ``c``; a label may be a ``str`` subclass."""
    if isinstance(c, FinProd):
        return draw(_element(c.left)), draw(_element(c.right))
    label = draw(st.sampled_from(c.labels))
    return _Label(label) if draw(st.booleans()) else label


def _nodes(x, path=()):
    """Each component of ``x`` and ``x`` itself, with its path of indexes into nested pairs."""
    yield path, x
    if type(x) is tuple and len(x) == 2:
        for i in (0, 1):
            yield from _nodes(x[i], path + (i,))


@st.composite
def _fault(draw, x, path=None):
    """``x`` with one component, more often a pair than a label, nested one level too deep or too shallow,
    or replaced by a label or any value."""
    if path is None:
        nodes = list(_nodes(x))
        pairs = [p for p, y in nodes if type(y) is tuple and len(y) == 2]
        path = draw(st.sampled_from(pairs if pairs and draw(st.booleans()) else [p for p, _ in nodes]))
    if path:
        y = draw(_fault(x[path[0]], path[1:]))
        return (y, x[1]) if path[0] == 0 else (x[0], y)
    fault = draw(st.sampled_from(("deeper", "shallower", "label", "other")))
    if fault == "deeper":
        return (x, x)
    if fault == "shallower" and type(x) is tuple and len(x) == 2:
        return x[draw(st.integers(0, 1))]
    return draw(st.sampled_from(_POOL) if fault == "label" else _VALUES)


def _member(c, x) -> bool:
    """Membership by its recursive definition: a label of a set, or a pair whose components are members."""
    if isinstance(c, FinSet):
        return isinstance(x, str) and x in c.labels
    return isinstance(x, tuple) and len(x) == 2 and _member(c.left, x[0]) and _member(c.right, x[1])


@settings(max_examples=300, deadline=None)
@given(c=_carriers(4), data=st.data())
def test_product_membership_matches_its_recursive_definition(c, data):
    x = data.draw(_element(c))
    for y in (x, *(data.draw(_fault(x)) for _ in range(4)), data.draw(_VALUES)):
        assert (y in c) is _member(c, y)


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
    assert split_tuple([], UNIT_LABEL) == ()


def test_finfn_validates_table():
    dom, cod = FinSet(("a", "b")), FinSet(("x",))
    FinFn(dom, cod, {"a": "x", "b": "x"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x", "b": "zzz"})
    with pytest.raises(CompositionError):
        FinFn(dom, cod, {"a": "x", "b": "x", "c": "x"})


def test_a_table_is_checked_in_one_pass(monkeypatch):
    s = FinSet(("a", "b"))
    dom, cod = FinProd(FinProd(s, s), s), FinProd(s, s)
    table = {x: [("a", "b"), ("b", "a")][i % 2] for i, x in enumerate(dom)}
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
    f = FinFn(dom, cod, table)
    # each distinct image once; the keys are looked up in the table, not checked against dom
    assert calls[0] == 2
    assert [f(x) for x in dom] == list(table.values()) and f.table == table
    assert calls[0] == 2
    monkeypatch.undo()
    small, x = FinSet(("a", "b")), FinSet(("x",))
    for data, message in (
        ({"a": "x"}, "table does not match domain {a,b}: missing ['b'], extra []"),
        ({"a": "x", "b": "x", "c": "x"}, "table does not match domain {a,b}: missing [], extra ['c']"),
        ({"a": "x", "c": "x"}, "table does not match domain {a,b}: missing ['b'], extra ['c']"),
        ({"a": "x", "b": "zzz"}, "image 'zzz' of 'b' is not in codomain {x}"),
        ({"b": "q", "a": "w"}, "image 'w' of 'a' is not in codomain {x}"),
        ({"a": ["x"], "b": "x"}, "image ['x'] of 'a' is not in codomain {x}"),
    ):
        with pytest.raises(CompositionError) as exc:
            FinFn(small, x, data)
        assert str(exc.value) == message
    pair = FinProd(small, small)
    full = dict.fromkeys(pair, "x")
    for data, message in (
        ({("a", "a"): "x"}, "missing [('a', 'b'), ('b', 'a'), ('b', 'b')], extra []"),
        ({**full, ("a", "c"): "x"}, "missing [], extra [('a', 'c')]"),
        ({**full, "a": "x"}, "missing [], extra ['a']"),
        ({("c", "c") if xy == ("b", "a") else xy: "x" for xy in pair}, "missing [('b', 'a')], extra [('c', 'c')]"),
    ):
        with pytest.raises(CompositionError) as exc:
            FinFn(pair, x, data)
        assert str(exc.value) == "table does not match domain {a,b}×{a,b}: " + message


class _Unreadable(Exception):
    """What an image that fails to compute raises."""


@settings(max_examples=300, deadline=None)
@given(dom=_carriers(2), cod=_carriers(2), data=st.data())
def test_a_tabulated_function_reads_as_a_lazy_one_in_domain_order(dom, cod, data):
    # an image is an element of cod, or, if faults are drawn, any value or one that fails to compute
    image = st.one_of(_element(cod), _VALUES, st.just(_Unreadable)) if data.draw(st.booleans()) else _element(cod)
    by = {x: data.draw(image) for x in dom}

    def fn(x):
        if by[x] is _Unreadable:
            raise _Unreadable(x)
        return by[x]

    lazy = FinFn(dom, cod, fn)
    try:
        want = [lazy(x) for x in dom]
    except (CompositionError, _Unreadable) as exc:  # the first bad image in domain order, or what failed before it
        with pytest.raises(type(exc)) as got:
            FinFn.tabulated(dom, cod, fn)
        assert str(got.value) == str(exc)
        return
    f = FinFn.tabulated(dom, cod, fn)
    assert f.table == lazy.table and [f(x) for x in dom] == want
    assert FINITE.mor_equal(f, lazy) and FINITE.mor_equal(FINITE.tabulate(dom, cod, fn), lazy)
    with pytest.raises(CompositionError, match="is not in domain"):
        f("zz")


def test_a_tabulated_function_checks_only_its_distinct_images(monkeypatch):
    s = FinSet(("a", "b"))
    dom, cod = FinProd(FinProd(s, s), s), FinProd(s, s)
    calls = [0]
    real = FinProd.__contains__

    def counted(self, xy):
        calls[0] += 1
        return real(self, xy)

    monkeypatch.setattr(FinProd, "__contains__", counted)
    f = FinFn.tabulated(dom, cod, lambda x: ("a", "b") if x[1] == "a" else ("b", "a"))
    # no key is checked against dom: two images, each a pair of labels read off its factors' indexes
    assert calls[0] == 2 and len(f.table) == 8 and [f(x) for x in dom] == list(f.table.values())
    assert calls[0] == 2
    for empty in (FinSet(()), FinProd(s, FinSet(()))):
        assert FinFn.tabulated(empty, cod, lambda x: 1 / 0).table == {}


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
    composite = reduce(lens_compose, [lens_id(FINITE, LensObj(c, c))] * 8)
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
    assert [composite.get(x) for x in c] == list(c)
    # the composite's get checks an element and its image once; the eight
    # identities inside it run on their legs and check nothing
    assert calls[0] == 2 * len(c)
    with pytest.raises(CompositionError):
        composite.get(((("a", "b"), "zz"), "a"))


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

    counts = []
    for n in (2, 3):
        players = [{"name": f"p{i}", "strategies": ["L", "M", "R"]} for i in range(n)]
        profiles = list(iter_product(["L", "M", "R"], repeat=n))
        payoffs = {",".join(p): [i % 3 for i in range(j, j + n)] for j, p in enumerate(profiles)}
        lens = compositional_game(parse_game_spec({"players": players, "payoffs": payoffs})[0]).lens
        monkeypatch.setattr(FinProd, "__contains__", counted)
        calls[0] = 0
        reward = para_costate_solution_input(lens)
        built = calls[0]
        for w in reward.dom:
            reward(w)
        monkeypatch.undo()
        assert built == len(set(reward.table.values())) < len(reward.dom)
        counts.append((built, calls[0] - built))
    # building the reward reads every profile from the product's own elements,
    # so it checks no profile and each of the 3 distinct rank tuples once; the
    # lenses of the game inside it check nothing, and reading it checks nothing
    assert counts == [(3, 0), (3, 0)]


def test_arena_cache_is_bounded_and_a_payoff_dies_with_its_game():
    # one shape per strategy label, so every game below misses the cache
    def game(label):
        return parse_game_spec({"players": [{"name": "p", "strategies": [label]}], "payoffs": {label: [0]}})[0]

    arena.cache_clear()
    g = game("s0")
    assert solution_set(compositional_game(g)) == ("s0",)
    first = weakref.ref(arena(g.players, g.grids))
    del g
    gc.collect()
    assert first() is not None  # kept by the cache alone
    maxsize = arena.cache_info().maxsize
    for i in range(1, maxsize + 1):
        assert solution_set(compositional_game(game(f"s{i}"))) == (f"s{i}",)
    gc.collect()
    assert arena.cache_info().currsize == maxsize
    assert first() is None

    # the cached arena and the relations' memos keep no part of a game's payoff
    g = pd_game()
    open_g = compositional_game(g)
    assert solution_set(open_g) == (("D", "D"),)
    payoff = weakref.ref(g.payoff)
    del g, open_g
    gc.collect()
    assert payoff() is None
    assert arena.cache_info().currsize == maxsize


def test_enumerate_functions_order_and_count():
    dom, cod = FinSet(("p", "q")), FinSet(("0", "1"))
    fns = list(iter_functions(dom, cod))
    assert len(fns) == 4
    tables = [f.table for f in fns]
    # earliest domain label varies slowest
    assert tables == [
        {"p": "0", "q": "0"},
        {"p": "0", "q": "1"},
        {"p": "1", "q": "0"},
        {"p": "1", "q": "1"},
    ]


def test_enumerate_functions_on_a_product_domain():
    dom, cod = FinProd(FinSet(("p", "q")), FinSet(("r",))), FinSet(("0", "1", "2"))
    fns = list(iter_functions(dom, cod))
    assert len(fns) == 9 and len({tuple(f.table.items()) for f in fns}) == 9
    assert fns[1].table == {("p", "r"): "0", ("q", "r"): "1"}
    assert all(f(("q", "r")) in cod for f in fns)


def test_enumerate_functions_cap():
    dom = FinSet(tuple(f"d{i}" for i in range(10)))
    cod = FinSet(tuple(f"c{i}" for i in range(4)))
    with pytest.raises(SizeCapError) as exc:
        iter_functions(dom, cod)
    assert exc.value.count == 4**10

