"""Lens algebra over the finite base: composition, tensor, structural maps.

The composite backward map is checked against a hand-traced table; the
law suites draw random lenses and decide equality by enumeration.
"""

import random

import numpy as np
import pytest

from paralens.checks import random_lens, random_obj
from paralens.errors import CompositionError, UnsupportedOperationError
from paralens.finite_base import FINITE, FinFn, FinProd, FinSet
from paralens.lens_core import (
    Lens,
    LensObj,
    costate_fn,
    lens_assoc,
    lens_assoc_inv,
    lens_compose,
    lens_equal,
    lens_id,
    lens_interchange,
    lens_lunit,
    lens_lunit_inv,
    lens_runit,
    lens_runit_inv,
    lens_swap,
    lens_tensor,
    make_costate,
    make_state,
    obj_pair,
    relabel_lens,
    rewire,
    unit_obj,
)
from paralens.para_optic import embed_trivial
from paralens.smooth_autodiff import SMOOTH, flat_dim, join_flat, split_flat


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
    return Lens(FINITE, A, B, get, put)


def _l2() -> Lens:
    get = FinFn(B.fwd, C.fwd, {"b0": "c0", "b1": "c0"})
    put = FinFn(
        FinProd(B.fwd, C.bwd),
        B.bwd,
        {("b0", "t"): "r", ("b0", "u"): "s", ("b1", "t"): "s", ("b1", "u"): "r"},
    )
    return Lens(FINITE, B, C, get, put)


def test_boundary_validation():
    get = FinFn(A.fwd, B.fwd, {"a0": "b0", "a1": "b1"})
    bad_put = FinFn(FinProd(A.fwd, C.bwd), A.bwd, {
        ("a0", "t"): "p", ("a0", "u"): "p", ("a1", "t"): "p", ("a1", "u"): "p",
    })
    with pytest.raises(CompositionError):
        Lens(FINITE, A, B, get, bad_put)


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


def test_lens_equal_discriminates():
    assert lens_equal(_l1(), _l1())
    other = _l1()
    tweaked = FinFn(
        FinProd(A.fwd, B.bwd),
        A.bwd,
        {("a0", "r"): "q", ("a0", "s"): "q", ("a1", "r"): "q", ("a1", "s"): "p"},
    )
    assert not lens_equal(other, Lens(FINITE, A, B, other.get, tweaked))


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
    recovered = costate_fn(co)
    assert {x: FINITE.apply(recovered, x) for x in A.fwd.labels} == fn.table


def test_costate_fn_requires_trivial_target():
    with pytest.raises(CompositionError):
        costate_fn(_l1())


def test_relabel_lens_ignores_forward_point():
    r = relabel_lens(
        FINITE,
        A,
        LensObj(A.fwd, A.bwd),
        lambda x: x,
        lambda v: {"p": "q", "q": "p"}[v],
    )
    assert FINITE.apply(r.get, "a0") == "a0"
    assert FINITE.apply(r.put, ("a0", "p")) == "q"
    assert FINITE.apply(r.put, ("a1", "p")) == "q"


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
    x = lens_interchange(FINITE, A, B, C, A)
    lhs = (("a0", "b1"), ("c0", "a1"))
    assert FINITE.apply(x.get, lhs) == (("a0", "c0"), ("b1", "a1"))
    inv = lens_interchange(FINITE, A, C, B, A)
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
        (lens_interchange(SMOOTH, a, b, c, d), [a, b, c, d], [0, 2, 1, 3]),
    ]
    for lens, leaves, order in cases:
        fwd = _blocks([o.fwd for o in leaves], order)
        bwd = _blocks([o.bwd for o in leaves], order)
        x = np.arange(float(flat_dim(lens.src.fwd)))
        z = 100.0 + np.arange(float(flat_dim(lens.dst.bwd)))
        assert np.array_equal(join_flat(lens.get(split_flat(lens.src.fwd, x))), x[fwd])
        back = lens.put(split_flat(lens.put.dom, np.concatenate([x, z])))
        assert np.array_equal(join_flat(back)[bwd], z)
