import gc
import re

import pytest

from paralens.checks import pd_game
from paralens.demos import run_gan, run_linreg, run_mlp
from paralens.errors import CompositionError
from paralens.finite_base import (
    FINITE,
    UNIT_LABEL,
    FinFn,
    FinProd,
    FinSet,
    UNIT_SET,
)
from paralens.lens_core import (
    LensObj,
    get_put_lens,
    lens_assoc,
    lens_compose,
    lens_equal,
    lens_id,
    lens_tensor,
    obj_pair,
    unit_obj,
)
from paralens.para_optic import (
    ParaLens,
    embed_trivial,
    flatten_params,
    para_compose,
    para_costate_solution_input,
    para_tensor,
    reparametrise,
)
from paralens.selection_games import arena, compositional_game, hicks_games, solution_set
from paralens.smooth_autodiff import apply_R, gan_model, gd_lens, mlp_map


def _switch_para() -> ParaLens:
    """One parametrised step: the parameter picks which output to emit."""
    params = LensObj(FinSet(("w0", "w1")), FinSet(("r0", "r1")))
    src = LensObj(FinSet(("x0",)), FinSet(("s0",)))
    dst = LensObj(FinSet(("y0", "y1")), FinSet(("r0", "r1")))
    dom = FinProd(params.fwd, src.fwd)
    get = FinFn(dom, dst.fwd, {("w0", "x0"): "y0", ("w1", "x0"): "y1"})
    put = FinFn(
        FinProd(dom, dst.bwd),
        FinProd(params.bwd, src.bwd),
        {
            (wx, r): (r, "s0")
            for wx in dom.labels
            for r in dst.bwd.labels
        },
    )
    carrier = get_put_lens(FINITE, LensObj(dom, FinProd(params.bwd, src.bwd)), dst, get, put)
    return ParaLens(FINITE, (params,), src, dst, carrier)


def _echo_para(tag: str) -> ParaLens:
    """A scalar on port ``{tag}0, {tag}1`` whose feedback ``{tag}r0, {tag}r1`` echoes the choice."""
    port = LensObj(FinSet((f"{tag}0", f"{tag}1")), FinSet((f"{tag}r0", f"{tag}r1")))
    u = unit_obj(FINITE)
    src = obj_pair(FINITE, port, u)
    carrier = get_put_lens(
        FINITE,
        src,
        u,
        FinFn(src.fwd, UNIT_SET, lambda wx: UNIT_LABEL),
        FinFn(FinProd(src.fwd, UNIT_SET), src.bwd, lambda wxr: (f"{tag}r{wxr[0][0][-1]}", UNIT_LABEL)),
    )
    return ParaLens(FINITE, (port,), u, u, carrier)


def test_shape_fold_and_leaves():
    q1, q2 = _echo_para("a").params, _echo_para("b").params
    both = para_tensor(_echo_para("a"), _echo_para("b"))
    assert both.params.fwd == FinProd(q1.fwd, q2.fwd)
    assert both.params.bwd == FinProd(q1.bwd, q2.bwd)
    assert both.leaves == (q1, q2)


def test_unit_param():
    p = embed_trivial(lens_id(FINITE, LensObj(FinSet(("m",)), FinSet(("u",)))))
    assert p.leaves == (unit_obj(FINITE),)
    assert p.params.fwd is UNIT_SET and p.params.bwd is UNIT_SET
    # the unit port is one unit leaf, never an empty list of leaves
    with pytest.raises(CompositionError, match="at least one leaf"):
        ParaLens(FINITE, (), p.src, p.dst, p.carrier)


def test_list_leaves_build_the_tuple_leaved_lens():
    # a list of leaves is taken as the tuple of them: the lens hashes and composes as its twin
    a, b = _echo_para("a"), _echo_para("b")
    listed = ParaLens(FINITE, list(a.leaves), a.src, a.dst, a.carrier)
    assert listed.leaves == a.leaves and listed == a and hash(listed) == hash(a)
    for lhs, rhs in (
        (para_tensor(listed, b), para_tensor(a, b)),
        (para_tensor(b, listed), para_tensor(b, a)),
        (para_compose(listed, b), para_compose(a, b)),
    ):
        assert lhs.leaves == rhs.leaves and lens_equal(lhs.carrier, rhs.carrier)


def test_embed_trivial_wraps_plain_lens():
    p = embed_trivial(lens_id(FINITE, LensObj(FinSet(("m", "n")), FinSet(("u",)))))
    assert p.params == unit_obj(FINITE)
    assert FINITE.apply(p.carrier.get, (UNIT_LABEL, "m")) == "m"


def test_para_compose_parameter_order():
    p = _switch_para()
    q = _switch_para()
    # q consumes p's output, so its source must be rebuilt to match
    q2 = ParaLens(
        FINITE,
        (q.params,),
        p.dst,
        q.dst,
        get_put_lens(
            FINITE,
            LensObj(
                FinProd(q.params.fwd, p.dst.fwd),
                FinProd(q.params.bwd, p.dst.bwd),
            ),
            q.dst,
            FinFn(
                FinProd(q.params.fwd, p.dst.fwd),
                q.dst.fwd,
                {
                    (w, y): "y0" if w == "w0" else "y1"
                    for w in q.params.fwd.labels
                    for y in p.dst.fwd.labels
                },
            ),
            FinFn(
                FinProd(FinProd(q.params.fwd, p.dst.fwd), q.dst.bwd),
                FinProd(q.params.bwd, p.dst.bwd),
                {
                    ((w, y), r): (r, r)
                    for w in q.params.fwd.labels
                    for y in p.dst.fwd.labels
                    for r in q.dst.bwd.labels
                },
            ),
        ),
    )
    comp = para_compose(p, q2)
    # later stage's parameters ride leftmost
    assert comp.params.fwd == FinProd(q2.params.fwd, p.params.fwd)
    assert comp.leaves == (q2.params, p.params)
    out = FINITE.apply(
        comp.carrier.get, (("w1", "w0"), "x0")
    )
    assert out == "y1"  # q2 holds w1, ignores p's y0, emits y1


def test_para_tensor_componentwise_evaluation():
    p, q = _switch_para(), _switch_para()
    t = para_tensor(p, q)
    for wp in ("w0", "w1"):
        for wq in ("w0", "w1"):
            out = FINITE.apply(
                t.carrier.get,
                ((wp, wq), ("x0", "x0")),
            )
            want = (
                "y0" if wp == "w0" else "y1", "y0" if wq == "w0" else "y1"
            )
            assert out == want


def test_reparametrise_requires_matching_port():
    p = _switch_para()
    wrong = lens_id(FINITE, LensObj(FinSet(("zz",)), FinSet(("ww",))))
    with pytest.raises(CompositionError):
        reparametrise(p, wrong)


def test_flatten_leaf_is_noop():
    p = _switch_para()
    assert flatten_params(p) is p


def test_flatten_drops_unit_factor():
    p = _switch_para()
    ident = embed_trivial(lens_id(FINITE, p.src))
    comp = para_compose(ident, p)
    assert comp.params.fwd == FinProd(p.params.fwd, UNIT_SET)
    flat = flatten_params(comp)
    assert flat.params == p.params
    assert flat.leaves == (p.params,)
    assert lens_equal(flat.carrier, p.carrier)


def test_para_tensor_of_multi_leaf_operands():
    a, b, c, d = (_echo_para(t) for t in "abcd")
    unit = unit_obj(FINITE)
    left = para_compose(a, b)
    right = para_tensor(c, para_compose(embed_trivial(lens_id(FINITE, unit)), d))
    assert left.leaves == (b.params, a.params)
    assert right.leaves == (c.params, d.params, unit)
    t = para_tensor(left, right)
    assert t.leaves == (b.params, a.params, c.params, d.params, unit)
    flat = flatten_params(t)
    want = obj_pair(
        FINITE, obj_pair(FINITE, obj_pair(FINITE, b.params, a.params), c.params), d.params
    )
    assert t.params == obj_pair(FINITE, want, unit)
    assert flat.leaves == (want,)
    x, z = t.src.fwd.labels[0], t.dst.bwd.labels[0]
    w = ((("b1", "a0"), "c1"), "d0")
    feedback, _ = FINITE.apply(flat.carrier.put, ((w, x), z))
    assert feedback == ((("br1", "ar0"), "cr1"), "dr0")


def _multi_leaf_scalars() -> tuple[ParaLens, ParaLens, ParaLens]:
    """Scalars of two, two and three leaves, one of them an ``embed_trivial`` unit leaf."""
    e = {t: _echo_para(t) for t in "abcdef"}
    unit = embed_trivial(lens_id(FINITE, unit_obj(FINITE)))
    x = para_compose(e["a"], e["b"])
    y = para_compose(unit, e["c"])
    z = para_compose(e["d"], para_compose(e["e"], e["f"]))
    return x, y, z


def _left_fold(leaves) -> LensObj:
    out = leaves[0]
    for q in leaves[1:]:
        out = obj_pair(FINITE, out, q)
    return out


def test_composites_of_multi_leaf_operands_are_strictly_associative():
    x, y, z = _multi_leaf_scalars()
    assert (len(x.leaves), len(y.leaves), len(z.leaves)) == (2, 2, 3)
    assert y.leaves[1] == unit_obj(FINITE)
    lhs, rhs = para_compose(para_compose(x, y), z), para_compose(x, para_compose(y, z))
    assert lhs.leaves == rhs.leaves == z.leaves + y.leaves + x.leaves
    assert lhs.params == rhs.params == _left_fold(lhs.leaves)
    assert lens_equal(lhs.carrier, rhs.carrier)
    lhs, rhs = para_tensor(para_tensor(x, y), z), para_tensor(x, para_tensor(y, z))
    assert lhs.leaves == rhs.leaves == x.leaves + y.leaves + z.leaves
    assert lhs.params == rhs.params == _left_fold(lhs.leaves)
    # the tensor is strict on the port; its boundaries differ by the associator
    u = x.src
    assoc = lens_assoc(FINITE, u, u, u)
    assert lens_equal(
        lens_compose(lhs.carrier, assoc),
        lens_compose(lens_tensor(lens_id(FINITE, lhs.params), assoc), rhs.carrier),
    )


def test_flatten_drops_exactly_the_unit_leaves():
    x, y, z = _multi_leaf_scalars()
    unit = unit_obj(FINITE)
    for p in (para_compose(para_compose(x, y), z), para_tensor(y, para_tensor(x, z))):
        kept = tuple(q for q in p.leaves if q != unit)
        assert len(kept) == len(p.leaves) - 1
        flat = flatten_params(p)
        assert flat.leaves == (_left_fold(kept),)
        assert flat.src == p.src and flat.dst == p.dst
    p = para_compose(x, z)
    assert flatten_params(p) is p


def test_composites_with_a_two_leaf_first_operand_by_value():
    a, b, c = (_echo_para(t) for t in "abc")
    comp = para_compose(para_compose(a, b), c)
    assert comp.params == _left_fold((c.params, b.params, a.params))
    x, z = comp.src.fwd.labels[0], comp.dst.bwd.labels[0]
    feedback, _ = FINITE.apply(comp.carrier.put, (((("c1", "b0"), "a1"), x), z))
    assert feedback == (("cr1", "br0"), "ar1")
    # para_tensor(a, para_compose(b, c)) has port ((Pa, Pc), Pb)
    t = para_tensor(a, para_compose(b, c))
    assert t.params == _left_fold((a.params, c.params, b.params))
    x, z = t.src.fwd.labels[0], t.dst.bwd.labels[0]
    feedback, _ = FINITE.apply(t.carrier.put, (((("a0", "c1"), "b1"), x), z))
    assert feedback == (("ar0", "cr1"), "br1")
    t = para_tensor(para_compose(b, c), a)
    x, z = t.src.fwd.labels[0], t.dst.bwd.labels[0]
    feedback, _ = FINITE.apply(t.carrier.put, (((("c0", "b1"), "a1"), x), z))
    assert feedback == (("cr0", "br1"), "ar1")


def _subterms(term):
    yield term
    if isinstance(term, tuple) and term[0] in ("compose", "tensor"):
        for t in term[1:]:
            yield from _subterms(t)


def test_benchmarked_composites_keep_their_terms():
    # one-leaf operands regroup by exactly the middle-four interchange and lens_assoc;
    # each decision is the right unitor on its port, so the arena has no leaf
    interchange = ("rewire", ((0, 1), (2, 3)), ((0, 2), (1, 3)))
    runit = ("rewire", (0, None), 0)
    moves, grid = FinSet(("C", "D")), FinSet(("0", "1"))
    three = arena((moves,) * 3, (grid,) * 3)
    assert three.carrier.term == (
        "compose", interchange, ("tensor", ("compose", interchange, ("tensor", runit, runit)), runit)
    )
    gan = gan_model(apply_R(mlp_map((2, 4, 2))), apply_R(mlp_map((2, 4, 1))), 0.01)
    terms = list(_subterms(gan.carrier.term))
    assert ("rewire", ((0, 1), 2), (0, (1, 2))) in terms
    assert interchange in terms


def test_solution_input_costate():
    params = LensObj(FinSet(("w0", "w1")), FinSet(("g0", "g1")))
    u = unit_obj(FINITE)
    dom = FinProd(params.fwd, UNIT_SET)
    reward = {"w0": "g1", "w1": "g0"}
    carrier = get_put_lens(
        FINITE,
        LensObj(dom, FinProd(params.bwd, UNIT_SET)),
        u,
        FinFn(dom, UNIT_SET, {x: UNIT_LABEL for x in dom.labels}),
        FinFn(
            FinProd(dom, UNIT_SET),
            FinProd(params.bwd, UNIT_SET),
            {
                ((w, UNIT_LABEL), UNIT_LABEL): (
                    reward[w], UNIT_LABEL
                )
                for w in params.fwd.labels
            },
        ),
    )
    p = ParaLens(FINITE, (params,), u, u, carrier)
    fn = para_costate_solution_input(p)
    assert (fn.dom, fn.cod) == (params.fwd, params.bwd)
    assert {w: FINITE.apply(fn, w) for w in params.fwd.labels} == reward


def test_solution_input_rejects_open_boundaries():
    with pytest.raises(CompositionError):
        para_costate_solution_input(_switch_para())


def test_dropped_lenses_leave_no_cyclic_garbage():
    # lenses must be freed by reference counting alone; a reference cycle,
    # such as a recursive local helper, leaves every one to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        g = pd_game()
        solution_set(compositional_game(g))
        for route in hicks_games(g):
            solution_set(route)
        run_linreg(steps=3)
        run_mlp(steps=3)
        run_gan(steps=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


_AB = LensObj(FinSet(("a",)), FinSet(("b",)))
_FINITE_PARA, _SMOOTH_PARA = embed_trivial(lens_id(FINITE, _AB)), apply_R(mlp_map((1, 1)))


@pytest.mark.parametrize(
    "misuse, fragment",
    [
        (lambda: ParaLens(FINITE, (unit_obj(FINITE),), _AB, _AB, lens_id(FINITE, _AB)), "expected ⟨{•}×{a}, {•}×{b}⟩ → ⟨{a}, {b}⟩"),
        (lambda: para_compose(_FINITE_PARA, _SMOOTH_PARA), "cannot compose parametrised lenses over different bases"),
        (lambda: para_tensor(_FINITE_PARA, _SMOOTH_PARA), "cannot tensor parametrised lenses over different bases"),
        (lambda: reparametrise(_FINITE_PARA, gd_lens(0.1, 1)), "reparametrising lens lives over a different base"),
    ],
    ids=["carrier-boundary", "compose-bases", "tensor-bases", "reparametrise-bases"],
)
def test_each_misuse_raises_its_error(misuse, fragment):
    with pytest.raises(CompositionError, match=re.escape(fragment)):
        misuse()
