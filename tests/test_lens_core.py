"""Lens algebra over the finite base: composition, tensor, structural maps.

The composite backward map is checked against a hand-traced table; the
law suites draw random lenses and decide equality by enumeration.  Over
the smooth base, random composites of leaves that may write into their
cotangent are compared with closure references byte for byte.
"""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralens.checks import random_lens, random_obj
from paralens.errors import CompositionError, UnsupportedOperationError
from paralens.finite_base import FINITE, FiniteBase, FinFn, FinProd, FinSet
from paralens import lens_core
from paralens.lens_core import (
    COSTATE,
    FRESH,
    LEAF,
    OWNS,
    STATE,
    Lens,
    _compile,
    LensObj,
    get_put_lens,
    lens_assoc,
    lens_assoc_inv,
    lens_compose,
    lens_equal,
    lens_id,
    lens_lunit,
    lens_lunit_inv,
    lens_runit,
    lens_runit_inv,
    lens_swap,
    lens_tensor,
    make_costate,
    make_state,
    obj_pair,
    rewire,
    unit_obj,
)
from paralens.para_optic import embed_trivial
from paralens.smooth_autodiff import SMOOTH, Pair, flat_dim, join_flat, split_flat


A = LensObj(FinSet(("a0", "a1")), FinSet(("p", "q")))
B = LensObj(FinSet(("b0", "b1")), FinSet(("r", "s")))
C = LensObj(FinSet(("c0",)), FinSet(("t", "u")))


def _l1() -> Lens:
    get = FinFn(A.fwd, B.fwd, {"a0": "b0", "a1": "b1"})
    put = FinFn(
        FinProd(A.fwd, B.bwd),
        A.bwd,
        {("a0", "r"): "p", ("a0", "s"): "q", ("a1", "r"): "q", ("a1", "s"): "p"},
    )
    return get_put_lens(FINITE, A, B, get, put)


def _l2() -> Lens:
    get = FinFn(B.fwd, C.fwd, {"b0": "c0", "b1": "c0"})
    put = FinFn(
        FinProd(B.fwd, C.bwd),
        B.bwd,
        {("b0", "t"): "r", ("b0", "u"): "s", ("b1", "t"): "s", ("b1", "u"): "r"},
    )
    return get_put_lens(FINITE, B, C, get, put)


def test_boundary_validation():
    get = FinFn(A.fwd, B.fwd, {"a0": "b0", "a1": "b1"})
    bad_put = FinFn(FinProd(A.fwd, C.bwd), A.bwd, {
        ("a0", "t"): "p", ("a0", "u"): "p", ("a1", "t"): "p", ("a1", "u"): "p",
    })
    with pytest.raises(CompositionError):
        get_put_lens(FINITE, A, B, get, bad_put)


def test_compose_forward():
    comp = lens_compose(_l1(), _l2())
    assert comp.src == A and comp.dst == C
    assert FINITE.apply(comp.get, "a0") == "c0"
    assert FINITE.apply(comp.get, "a1") == "c0"


def test_compose_backward_replays_first_leg():
    # traced by hand through put1(x, put2(get1(x), z))
    comp = lens_compose(_l1(), _l2())
    expected = {
        ("a0", "t"): "p",
        ("a0", "u"): "q",
        ("a1", "t"): "p",
        ("a1", "u"): "q",
    }
    for (x, z), want in expected.items():
        assert FINITE.apply(comp.put, (x, z)) == want


def test_compose_rejects_mismatch():
    with pytest.raises(CompositionError):
        lens_compose(_l2(), _l1())


def test_composite_put_rejects_elements_outside_its_domain():
    comp = lens_compose(_l1(), _l2())
    tensor = lens_tensor(_l1(), _l2())
    for put, bad in (
        (comp.put, "ab"),
        (comp.put, ("zz", "t")),
        (comp.put, ("a0", "zz")),
        (tensor.put, "ab"),
        (tensor.put, (("a0", "b0"), "st")),
        (tensor.put, (("a0", "b0"), ("r", "zz"))),
    ):
        with pytest.raises(CompositionError):
            put(bad)
        assert put.table == {}


def test_composite_get_rejects_elements_outside_its_domain():
    comp = lens_compose(_l1(), _l2())
    tensor = lens_tensor(_l1(), _l2())
    for get, bad in ((comp.get, "zz"), (tensor.get, "ab"), (tensor.get, ("a0", "zz"))):
        with pytest.raises(CompositionError):
            get(bad)
        assert get.table == {}


def test_a_leg_that_returns_a_non_pair_fails_where_a_tensor_splits_it():
    # legs check nothing, so only the split the generated leg makes of a leaf's output can
    bc = obj_pair(FINITE, B, C)
    ids = lens_tensor(lens_id(FINITE, B), lens_id(FINITE, C))
    forward_liar = lens_compose(Lens(FINITE, A, bc, lambda x: ("ab", None), lambda _, z: "p"), ids)
    with pytest.raises(CompositionError, match="is not a pair"):
        forward_liar.forward("a0")
    backward_liar = lens_compose(ids, Lens(FINITE, bc, A, lambda y: ("a0", None), lambda _, z: "rs"))
    _, r = backward_liar.forward(("b0", "c0"))
    with pytest.raises(CompositionError, match="is not a pair"):
        backward_liar.backward(r, "p")


def test_only_a_composite_whose_legs_are_read_is_generated():
    assert _compile.cache_info().maxsize is not None
    _compile.cache_clear()
    inner = lens_tensor(lens_compose(_l1(), _l2()), lens_swap(FINITE, A, B))
    outer = lens_compose(inner, lens_tensor(lens_id(FINITE, C), lens_id(FINITE, obj_pair(FINITE, B, A))))
    assert _compile.cache_info().currsize == 0
    assert outer.get(("a1", ("a0", "b1"))) == ("c0", ("b1", "a0"))
    assert _compile.cache_info().currsize == 1


def test_only_a_leaf_that_overwrites_an_unowned_cotangent_changes_the_generated_legs(monkeypatch):
    sources, compile_make = [], lens_core.compile_make

    def recorded(source, namespace, filename):
        sources.append("\n".join(source))
        return compile_make(source, namespace, filename)

    monkeypatch.setattr(lens_core, "compile_make", recorded)
    _compile.cache_clear()

    def legs(first, second):
        """The source of a composite whose first leaf's cotangent is what its second leaf's backward leg returns."""
        leaf = [Lens(FINITE, A, A, lambda x: (x, None), lambda _, z: z, term=term) for term in (first, second)]
        ids = [lens_id(FINITE, B), lens_id(FINITE, B)]
        lens = lens_compose(lens_tensor(leaf[0], ids[0]), lens_tensor(leaf[1], ids[1]))
        assert lens.backward(lens.forward(("a0", "b1"))[1], ("q", "r")) == ("q", "r")
        return sources[-1]

    plain = legs(LEAF, LEAF)
    # declaring fresh results changes nothing, nor does an overwriting leaf handed one
    assert legs(FRESH, LEAF) == legs(LEAF, FRESH) == legs(FRESH, FRESH) == legs(OWNS, FRESH) == plain
    assert "copy_elem" not in plain
    # the composite's own cotangent, or a result not declared fresh, is copied for an overwriting leaf
    for first, second in ((OWNS, LEAF), (LEAF, OWNS), (OWNS, OWNS)):
        assert legs(first, second).count("base.copy_elem(") == 1


def test_pure_structure_passes_its_input_through(monkeypatch):
    calls = []
    for name in ("split_elem", "pair_elem", "copy_elem"):
        real = getattr(FiniteBase, name)
        monkeypatch.setattr(FiniteBase, name, lambda self, *args, name=name, real=real: calls.append(name) or real(self, *args))
    ab = obj_pair(FINITE, A, B)
    for lens in (
        lens_compose(lens_swap(FINITE, A, B), lens_swap(FINITE, B, A)),
        lens_compose(lens_assoc(FINITE, A, B, C), lens_assoc_inv(FINITE, A, B, C)),
        lens_compose(lens_runit_inv(FINITE, ab), lens_runit(FINITE, ab)),
        lens_tensor(lens_id(FINITE, A), lens_id(FINITE, B)),
    ):
        x, z = next(iter(lens.src.fwd)), next(iter(lens.dst.bwd))
        y, r = lens.forward(x)
        assert y is x and lens.backward(r, z) is z
    assert calls == []
    # a rejoined value is owned as the whole was: the composite's own z still reaches an
    # overwriting leaf as a copy, and what a fresh leaf returns reaches it as is
    owns = Lens(FINITE, ab, ab, lambda x: (x, None), lambda _, z: z, term=OWNS)
    fresh = Lens(FINITE, ab, ab, lambda x: (x, None), lambda _, z: tuple(z), term=FRESH)
    swaps = lens_compose(lens_swap(FINITE, A, B), lens_swap(FINITE, B, A))
    x, z = ("a0", "b1"), ("q", "r")
    for lens, copies in ((lens_compose(owns, swaps), 1), (lens_compose(lens_compose(owns, swaps), fresh), 0)):
        calls.clear()
        assert lens.backward(lens.forward(x)[1], z) == z
        assert calls.count("copy_elem") == copies


def test_lens_equal_discriminates():
    assert lens_equal(_l1(), _l1())
    other = _l1()
    tweaked = FinFn(
        FinProd(A.fwd, B.bwd),
        A.bwd,
        {("a0", "r"): "q", ("a0", "s"): "q", ("a1", "r"): "q", ("a1", "s"): "p"},
    )
    assert not lens_equal(other, get_put_lens(FINITE, A, B, other.get, tweaked))


def test_lens_equal_requires_same_boundary():
    with pytest.raises(CompositionError):
        lens_equal(_l1(), _l2())


def test_lens_equal_undecidable_on_smooth():
    ident = lens_id(SMOOTH, LensObj(2, 2))
    with pytest.raises(UnsupportedOperationError):
        lens_equal(ident, ident)


def test_identity_and_associativity_random():
    rng = random.Random(99)
    for _ in range(50):
        a, b, c, d = (random_obj(rng) for _ in range(4))
        l1, l2, l3 = random_lens(rng, a, b), random_lens(rng, b, c), random_lens(rng, c, d)
        assert lens_equal(lens_compose(lens_id(FINITE, a), l1), l1)
        assert lens_equal(lens_compose(l1, lens_id(FINITE, b)), l1)
        assert lens_equal(
            lens_compose(lens_compose(l1, l2), l3),
            lens_compose(l1, lens_compose(l2, l3)),
        )


def test_tensor_componentwise():
    t = lens_tensor(_l1(), _l2())
    assert FINITE.apply(t.get, ("a0", "b1")) == ("b0", "c0")
    back = FINITE.apply(t.put, (("a1", "b0"), ("s", "u")))
    assert back == ("p", "s")


def test_state_and_costate():
    st = make_state(FINITE, A, "a1")
    assert st.src == unit_obj(FINITE)
    assert FINITE.apply(st.get, "•") == "a1"
    with pytest.raises(CompositionError):
        make_state(FINITE, A, "nope")

    fn = FinFn(A.fwd, A.bwd, {"a0": "q", "a1": "p"})
    co = make_costate(FINITE, A, fn)
    assert co.dst == unit_obj(FINITE)
    assert {x: co.put((x, "•")) for x in A.fwd.labels} == fn.table


def test_a_state_and_a_costate_return_only_checked_elements():
    # a state's leaf is its point and a costate's its map, so a state's point is checked when it is built,
    # on a product carrier of either base, and a costate's values by its checked map
    ab, smooth = obj_pair(FINITE, A, B), LensObj((2, 1), (2, 1))
    for base, obj, bad in (
        (FINITE, ab, "a0"),
        (FINITE, ab, ("a0", "b0", "c0")),
        (SMOOTH, smooth, np.zeros(3)),
        (SMOOTH, smooth, [np.zeros(2), np.zeros(1)]),
    ):
        with pytest.raises(CompositionError, match="state point .* is not an element of"):
            make_state(base, obj, bad)
    state = make_state(FINITE, ab, ("a1", "b0"))
    costate_map = FinFn(FinProd(B.fwd, A.fwd), FinProd(B.bwd, A.bwd), lambda ba: ("s", "q"))
    costate = make_costate(FINITE, obj_pair(FINITE, B, A), costate_map)
    assert (state.term, state.legs, costate.term, costate.legs) == (STATE, (("a1", "b0"),), COSTATE, (costate_map,))
    # alone, a state's get is its point and its put the unit, and a costate's put is its map
    assert state.get("•") == ("a1", "b0") and state.put(("•", ("q", "s"))) == "•"
    assert costate.get(("b1", "a0")) == "•" and costate.put((("b1", "a0"), "•")) == ("s", "q")
    # the legs check nothing, so only the costate's map can reject the value it makes
    liar = lens_compose(lens_swap(FINITE, A, B), make_costate(FINITE, obj_pair(FINITE, B, A), FinFn(costate_map.dom, costate_map.cod, lambda ba: "s")))
    with pytest.raises(CompositionError, match=r"^image 's' of \('b0', 'a1'\) is not in codomain"):
        liar.backward(liar.forward(("a1", "b0"))[1], "•")
    played = lens_compose(lens_compose(state, lens_swap(FINITE, A, B)), costate)
    _, r = played.forward("•")
    assert played.get("•") == "•" and played.backward(r, "•") == "•"
    # the swap reads both parts of the point, and of the costate's value, so both are split
    assert lens_compose(state, lens_swap(FINITE, A, B)).get("•") == ("b0", "a1")
    assert lens_compose(lens_swap(FINITE, A, B), costate).put((("a1", "b0"), "•")) == ("q", "s")


def test_relabel_lens_ignores_forward_point():
    r = lens_swap(FINITE, A, B)
    assert FINITE.apply(r.get, ("a0", "b1")) == ("b1", "a0")
    assert FINITE.apply(r.put, (("a0", "b1"), ("r", "q"))) == ("q", "r")
    assert FINITE.apply(r.put, (("a1", "b0"), ("r", "q"))) == ("q", "r")


def _edge_cases():
    unit = unit_obj(FINITE)
    dropped = lens_compose(rewire(FINITE, [A, unit], (0, 1), 0), _l1())
    ident = lens_compose(lens_id(FINITE, A), lens_id(FINITE, A))
    return {
        "embed_trivial unit slot": (embed_trivial(_l1()).carrier.get, ("zz", "a0")),
        "rewire dropped unit leaf": (dropped.get, ("a0", "zz")),
        "lens_id forward input": (ident.put, ("zz", "p")),
    }


@pytest.mark.parametrize("case", ["embed_trivial unit slot", "rewire dropped unit leaf", "lens_id forward input"])
def test_composite_rejects_a_non_member_only_a_structural_lens_reads(case):
    morphism, bad = _edge_cases()[case]
    with pytest.raises(CompositionError):
        morphism(bad)
    assert morphism.table == {}


def test_a_chain_builds_each_morphism_when_first_read(monkeypatch):
    built = []
    init = FinFn.__post_init__

    def counted(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(FinFn, "__post_init__", counted)
    chain = lens_compose(
        lens_tensor(lens_id(FINITE, A), lens_swap(FINITE, B, C)),
        lens_assoc_inv(FINITE, A, C, B),
    )
    assert built == []
    for name in ("get", "put"):
        first = getattr(chain, name)
        assert built == [first]
        assert getattr(chain, name) is first
        built.clear()


def test_structural_round_trips_random():
    rng = random.Random(5)
    for _ in range(30):
        a, b = random_obj(rng, 2), random_obj(rng, 2)
        assert lens_equal(
            lens_compose(lens_lunit_inv(FINITE, a), lens_lunit(FINITE, a)),
            lens_id(FINITE, a),
        )
        assert lens_equal(
            lens_compose(lens_runit_inv(FINITE, a), lens_runit(FINITE, a)),
            lens_id(FINITE, a),
        )
        assert lens_equal(
            lens_compose(lens_swap(FINITE, a, b), lens_swap(FINITE, b, a)),
            lens_id(FINITE, obj_pair(FINITE, a, b)),
        )


def test_interchange_shuffles_middle_pair():
    x = rewire(FINITE, [A, B, C, A], ((0, 1), (2, 3)), ((0, 2), (1, 3)))
    lhs = (("a0", "b1"), ("c0", "a1"))
    assert FINITE.apply(x.get, lhs) == (("a0", "c0"), ("b1", "a1"))
    inv = rewire(FINITE, [A, C, B, A], ((0, 1), (2, 3)), ((0, 2), (1, 3)))
    assert lens_equal(lens_compose(x, inv), lens_id(FINITE, x.src))


def _blocks(sizes, order):
    """Indices of the concatenated blocks ``sizes`` taken in ``order``."""
    starts = np.cumsum([0] + list(sizes))
    return np.concatenate([np.arange(starts[i], starts[i + 1]) for i in order]).astype(int)


def test_structural_lenses_move_vector_slices():
    a, b, c, d = LensObj(1, 2), LensObj(2, 1), LensObj(3, 1), LensObj(1, 2)
    cases = [
        (lens_lunit(SMOOTH, a), [a], [0]),
        (lens_lunit_inv(SMOOTH, a), [a], [0]),
        (lens_runit(SMOOTH, b), [b], [0]),
        (lens_runit_inv(SMOOTH, b), [b], [0]),
        (lens_swap(SMOOTH, a, b), [a, b], [1, 0]),
        (lens_assoc(SMOOTH, a, b, c), [a, b, c], [0, 1, 2]),
        (lens_assoc_inv(SMOOTH, a, b, c), [a, b, c], [0, 1, 2]),
        (rewire(SMOOTH, [a, b, c, d], ((0, 1), (2, 3)), ((0, 2), (1, 3))), [a, b, c, d], [0, 2, 1, 3]),
    ]
    for lens, leaves, order in cases:
        fwd = _blocks([o.fwd for o in leaves], order)
        bwd = _blocks([o.bwd for o in leaves], order)
        x = np.arange(float(flat_dim(lens.src.fwd)))
        z = 100.0 + np.arange(float(flat_dim(lens.dst.bwd)))
        assert np.array_equal(join_flat(lens.get(split_flat(lens.src.fwd, x))), x[fwd])
        back = lens.put(split_flat(lens.put.dom, np.concatenate([x, z])))
        assert np.array_equal(join_flat(back)[bwd], z)


@pytest.mark.parametrize(
    "src, dst",
    [(0, 1), ((0, 1, 2), 0), ("0", 0), (-1, -1), ((0,), 0), ([0], 0), (True, True), ((0, None), (0, 0))],
)
def test_rewire_rejects_a_malformed_bracketing(src, dst):
    with pytest.raises(CompositionError):
        rewire(FINITE, [A], src, dst)


# -- rewire against a recursive split/join written out here ---------------


def _ref_split(base, tree, x, parts: dict) -> dict:
    if isinstance(tree, tuple):
        u, v = base.split_elem(x)
        _ref_split(base, tree[1], v, _ref_split(base, tree[0], u, parts))
    elif tree is not None:
        parts[tree] = x
    return parts


def _ref_join(base, tree, parts: dict, absent):
    if isinstance(tree, tuple):
        return base.pair_elem(_ref_join(base, tree[0], parts, absent), _ref_join(base, tree[1], parts, absent))
    return parts[tree] if tree in parts else absent()


def _plain(x):
    """A comparable rendering of an element that keeps its pair type."""
    if isinstance(x, tuple):
        return (type(x).__name__,) + tuple(_plain(e) for e in x)
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, tuple(x.tolist()))
    return x


@st.composite
def _bracketing(draw, items: list):
    if not items:
        return None
    if len(items) == 1:
        return items[0]
    k = draw(st.integers(1, len(items) - 1))
    return (draw(_bracketing(items[:k])), draw(_bracketing(items[k:])))


@st.composite
def _rewire_cases(draw):
    """Leaves (``True`` for a unit leaf) and two bracketings of them.

    Every other leaf sits on both sides; a unit leaf, or a ``None``, may sit
    on either side, both or neither.
    """
    units = draw(st.lists(st.booleans(), min_size=1, max_size=6))

    def side():
        items = [i for i, unit in enumerate(units) if not unit or draw(st.booleans())]
        items += [None] * draw(st.integers(0, 2))
        return draw(_bracketing(draw(st.permutations(items))))

    return units, side(), side()


@pytest.mark.parametrize("base", [FINITE, SMOOTH], ids=["finite", "smooth"])
@settings(max_examples=150, deadline=None)
@given(case=_rewire_cases())
def test_rewire_matches_a_recursive_split_and_join(base, case):
    units, src, dst = case
    if base is FINITE:
        carriers = [FinSet((f"a{i}", f"b{i}")) for i in range(len(units))]
        values = {i: f"b{i}" for i in range(len(units))}
        marker = "not a unit"
    else:
        carriers = [1 + i % 3 for i in range(len(units))]
        values = {i: np.arange(float(d)) + i for i, d in enumerate(carriers)}
        marker = np.array([-1.0])
    leaves = [unit_obj(base) if u else LensObj(c, c) for u, c in zip(units, carriers)]
    members = {i: base.unit_elem() if u else values[i] for i, u in enumerate(units)}
    lens = rewire(base, leaves, src, dst)
    x = _ref_join(base, src, members, base.unit_elem)
    expected = _ref_join(base, dst, _ref_split(base, src, x, {}), base.unit_elem)
    y, r = lens.forward(x)
    assert _plain(y) == _plain(expected) == _plain(lens.get(x))
    assert _plain(lens.backward(r, y)) == _plain(x)
    # the legs check nothing: a leaf dropped on the way reads as the unit, whatever it held
    marked = _ref_join(base, src, {i: marker if u else values[i] for i, u in enumerate(units)}, lambda: marker)
    expected = _ref_join(base, dst, _ref_split(base, src, marked, {}), base.unit_elem)
    assert _plain(lens.forward(marked)[0]) == _plain(expected)
    # the legs are compiled once per shape and shared
    assert rewire(base, leaves, src, dst).forward is lens.forward
    if base is SMOOTH and isinstance(dst, tuple):
        assert type(y) is Pair


# -- composites against the closure-based definitions ---------------------
#
# on the finite base every drawn leaf is a LEAF; on the smooth base a leaf is
# LEAF, FRESH or OWNS, so the generated backward legs' ownership rule is drawn
# too: an OWNS leaf writes into its cotangent, which must be owned or a copy


def _ref_compose(l1: Lens, l2: Lens) -> Lens:
    """Sequential composition as closures over the legs, pairing the two residuals."""
    f1, b1, f2, b2 = l1.forward, l1.backward, l2.forward, l2.backward

    def forward(x):
        y1, r1 = f1(x)
        y2, r2 = f2(y1)
        return y2, (r1, r2)

    return Lens(l1.base, l1.src, l2.dst, forward, lambda r, z: b1(r[0], b2(r[1], z)))


def _ref_tensor(l1: Lens, l2: Lens) -> Lens:
    """Parallel composition as closures that split and pair at every call."""
    base, f1, b1, f2, b2 = l1.base, l1.forward, l1.backward, l2.forward, l2.backward

    def forward(xs):
        x1, x2 = base.split_elem(xs)
        (y1, r1), (y2, r2) = f1(x1), f2(x2)
        return base.pair_elem(y1, y2), (r1, r2)

    def backward(r, zs):
        z1, z2 = base.split_elem(zs)
        return base.pair_elem(b1(r[0], z1), b2(r[1], z2))

    return Lens(base, obj_pair(base, l1.src, l2.src), obj_pair(base, l1.dst, l2.dst), forward, backward)


def _ref_rewire(base, leaves, src, dst) -> Lens:
    """A rewire whose legs are the recursive split and join above."""
    unit = base.unit_elem
    boundary = rewire(base, leaves, src, dst)
    return Lens(
        base,
        boundary.src,
        boundary.dst,
        lambda x: (_ref_join(base, dst, _ref_split(base, src, x, {}), unit), None),
        lambda _, z: _ref_join(base, src, _ref_split(base, dst, z, {}), unit),
    )


def _obj(base, shape) -> LensObj:
    """The boundary a shape (a ``LensObj`` or a pair of shapes) brackets."""
    return obj_pair(base, _obj(base, shape[0]), _obj(base, shape[1])) if isinstance(shape, tuple) else shape


def _atoms(shape) -> list:
    return _atoms(shape[0]) + _atoms(shape[1]) if isinstance(shape, tuple) else [shape]


def _indexed(shape, count):
    """``shape`` with its atoms replaced by their indices, left to right."""
    if isinstance(shape, tuple):
        return _indexed(shape[0], count), _indexed(shape[1], count)
    return next(count)


# op: (its leaves, read off a shape), source and target bracketings, the library lens on those leaves
_STRUCTURAL = {
    "lunit_inv": (lambda s: [s], 0, (None, 0), lens_lunit_inv),
    "runit_inv": (lambda s: [s], 0, (0, None), lens_runit_inv),
    "lunit": (lambda s: [s[1]], (None, 0), 0, lens_lunit),
    "runit": (lambda s: [s[0]], (0, None), 0, lens_runit),
    "swap": (lambda s: list(s), (0, 1), (1, 0), lens_swap),
    "assoc": (lambda s: [*s[0], s[1]], ((0, 1), 2), (0, (1, 2)), lens_assoc),
    "assoc_inv": (lambda s: [s[0], *s[1]], (0, (1, 2)), ((0, 1), 2), lens_assoc_inv),
}


def _finite_atom(rng: random.Random) -> LensObj:
    return random_obj(rng, 2)


def _smooth_atom(rng: random.Random) -> LensObj:
    width = rng.randint(1, 3)
    return LensObj(width, width)


def _leaf_target(draw, rng: random.Random, atom, shape):
    """One atom, or a pair of them while ``shape`` is small."""
    return atom(rng) if len(_atoms(shape)) > 3 else draw(st.sampled_from([atom(rng), (atom(rng), atom(rng))]))


def _finite_leaf(draw, rng: random.Random, shape):
    out = _leaf_target(draw, rng, _finite_atom, shape)
    lens = random_lens(rng, _obj(FINITE, shape), _obj(FINITE, out))
    return lens, lens, out


def _arrays(x) -> list:
    """The arrays in ``x``, a nest of tuples, left to right."""
    if isinstance(x, tuple):
        return [a for part in x for a in _arrays(part)]
    return [x] if isinstance(x, np.ndarray) else []


def _smooth_leaf(draw, rng: random.Random, shape, terms=(LEAF, FRESH, OWNS)):
    """A leaf of a drawn term, and its reference: a LEAF with the same legs, all of which write nothing.

    Forward, an ``OWNS`` leaf passes its input on, as ``gd_lens`` does; any other leaf maps it through
    a random matrix ``w``.  Each keeps its input as its residual.  Backward, a ``FRESH`` leaf returns new arrays and an
    ``OWNS`` one writes ``r − c·z`` into ``z``; a ``LEAF`` returns one of those new arrays, its residual,
    or, on a square boundary, its cotangent, as it is.
    """
    term = draw(st.sampled_from(terms))
    out = shape if term == OWNS else _leaf_target(draw, rng, _smooth_atom, shape)
    src, dst = _obj(SMOOTH, shape), _obj(SMOOTH, out)
    a, b = src.fwd, dst.fwd
    w = np.array([rng.uniform(-1.0, 1.0) for _ in range(flat_dim(a) * flat_dim(b))]).reshape(flat_dim(b), flat_dim(a))
    c = rng.uniform(-1.0, 1.0)
    returned = draw(st.sampled_from(["fresh", "residual"] + ["cotangent"] * (a == b))) if term == LEAF else "fresh"

    def forward(x):
        return (x if term == OWNS else split_flat(b, w @ join_flat(x))), x

    def pure(r, z):
        if returned != "fresh":
            return r if returned == "residual" else z
        return split_flat(a, join_flat(r) - join_flat(z) * c if term == OWNS else join_flat(r) * c + w.T @ join_flat(z))

    def owns(r, z):
        for r_leaf, z_leaf in zip(_arrays(r), _arrays(z)):
            np.subtract(r_leaf, np.multiply(z_leaf, c, out=z_leaf), out=z_leaf)
        return z

    return Lens(SMOOTH, src, dst, forward, owns if term == OWNS else pure, term=term), Lens(SMOOTH, src, dst, forward, pure), out


def _grow(draw, rng: random.Random, base, shape, depth: int):
    """A random lens out of ``shape``, the same lens built from the reference definitions, and its target shape."""
    unit = unit_obj(base)
    a = _obj(base, shape)
    ops = ["leaf"] * 4 + ["id", "lunit_inv", "runit_inv", "rewire"]
    if depth > 0:
        ops += ["compose"] * 4
    if isinstance(shape, tuple):
        ops += ["swap"] + ["tensor"] * 3 * (depth > 0)
        ops += ["lunit"] * (shape[0] == unit) + ["runit"] * (shape[1] == unit)
        ops += ["assoc"] * isinstance(shape[0], tuple) + ["assoc_inv"] * isinstance(shape[1], tuple)
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return (_smooth_leaf if base is SMOOTH else _finite_leaf)(draw, rng, shape)
    if op == "compose":
        l1, r1, mid = _grow(draw, rng, base, shape, depth - 1)
        l2, r2, out = _grow(draw, rng, base, mid, depth - 1)
        return lens_compose(l1, l2), _ref_compose(r1, r2), out
    if op == "tensor":
        l1, r1, out1 = _grow(draw, rng, base, shape[0], depth - 1)
        l2, r2, out2 = _grow(draw, rng, base, shape[1], depth - 1)
        return lens_tensor(l1, l2), _ref_tensor(r1, r2), (out1, out2)
    if op == "id":
        return lens_id(base, a), Lens(base, a, a, lambda x: (x, None), lambda _, z: z), shape
    if op == "rewire":
        atoms = _atoms(shape)
        src = _indexed(shape, iter(range(len(atoms))))
        dst = draw(_bracketing(draw(st.permutations(range(len(atoms))))))
        out = _shape_of(base, dst, atoms)
        return rewire(base, atoms, src, dst), _ref_rewire(base, atoms, src, dst), out
    parts_of, src, dst, make = _STRUCTURAL[op]
    parts = parts_of(shape)
    leaves = [_obj(base, p) for p in parts]
    return make(base, *leaves), _ref_rewire(base, leaves, src, dst), _shape_of(base, dst, parts)


def _shape_of(base, tree, parts):
    """The shape a bracketing of ``parts`` builds; ``None`` is the unit."""
    if isinstance(tree, tuple):
        return _shape_of(base, tree[0], parts), _shape_of(base, tree[1], parts)
    return unit_obj(base) if tree is None else parts[tree]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_composites_match_their_closure_definitions(data, rng):
    shape = data.draw(st.sampled_from([random_obj(rng, 2), (random_obj(rng, 2), random_obj(rng, 2))]))
    lens, ref, _ = _grow(data.draw, rng, FINITE, shape, 4)
    assert lens.src == ref.src and lens.dst == ref.dst
    assert lens_equal(lens, ref)


def _point(rng: random.Random, c):
    """An element of the smooth carrier ``c``, each leaf its own array."""
    if isinstance(c, tuple):
        return Pair((_point(rng, c[0]), _point(rng, c[1])))
    return np.array([rng.uniform(-2.0, 2.0) for _ in range(c)])


def _raw(x):
    """An element's pair structure and the bytes of its leaves."""
    return tuple(map(_raw, x)) if isinstance(x, tuple) else x.tobytes()


def _held(*values) -> list:
    """The bytes of every array in ``values``."""
    return [a.tobytes() for a in _arrays(values)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rng=st.randoms(use_true_random=False))
def test_smooth_composites_match_their_closure_definitions_and_write_no_argument(data, rng):
    shape = data.draw(st.sampled_from([_smooth_atom(rng), (_smooth_atom(rng), _smooth_atom(rng))]))
    grown, grown_ref, _ = _grow(data.draw, rng, SMOOTH, shape, 4)
    # closed at its source by an OWNS leaf, as an optimiser closes a model's port: what the term returns is
    # handed to it as is only if a FRESH leaf made it
    owns, owns_ref, _ = _smooth_leaf(data.draw, rng, shape, (OWNS,))
    lens, ref = lens_compose(owns, grown), _ref_compose(owns_ref, grown_ref)
    assert lens.src == ref.src and lens.dst == ref.dst
    x, z = _point(rng, lens.src.fwd), _point(rng, lens.dst.bwd)
    copies = SMOOTH.copy_elem(x), SMOOTH.copy_elem(z)
    kept = _held(x, z)
    assert _raw(lens.get(x)) == _raw(ref.get(copies[0]))
    assert _raw(lens.put(Pair((x, z)))) == _raw(ref.put(Pair(copies)))
    assert _held(x, z) == kept
    y, r = lens.forward(x)
    kept = _held(x, z, y, r)
    assert _raw(lens.backward(r, z)) == _raw(ref.put(Pair(copies)))
    assert _held(x, z, y, r) == kept


_AB = LensObj(FinSet(("a",)), FinSet(("b",)))
_FINITE_ID, _SMOOTH_ID = lens_id(FINITE, _AB), lens_id(SMOOTH, LensObj(1, 1))


@pytest.mark.parametrize(
    "misuse, error, fragment",
    [
        (lambda: lens_compose(_FINITE_ID, _SMOOTH_ID), CompositionError, "cannot compose lenses over different bases"),
        (lambda: lens_tensor(_FINITE_ID, _SMOOTH_ID), CompositionError, "cannot tensor lenses over different bases"),
        (lambda: make_costate(FINITE, _AB, FINITE.identity(_AB.fwd)), CompositionError, "type {a} → {a}, expected {a} → {b}"),
        (lambda: rewire(FINITE, [_AB, _AB], (0, 1), 0), CompositionError, "only unit leaves may be dropped or introduced"),
        (lambda: _FINITE_ID.get_put, AttributeError, "get_put"),
    ],
    ids=["compose-bases", "tensor-bases", "costate-type", "rewire-drop", "unknown-attribute"],
)
def test_each_misuse_raises_its_error(misuse, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        misuse()


def test_lenses_over_different_bases_are_unequal():
    assert lens_equal(_FINITE_ID, _SMOOTH_ID) is False
