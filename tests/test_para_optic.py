import gc

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
    lens_equal,
    lens_id,
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
from paralens.selection_games import compositional_game, hicks_games, solution_set


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
    return ParaLens(FINITE, (params,), src, dst, carrier, 0)


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
    return ParaLens(FINITE, (port,), u, u, carrier, 0)


def test_shape_fold_and_leaves():
    q1, q2 = _echo_para("a").params, _echo_para("b").params
    both = para_tensor(_echo_para("a"), _echo_para("b"))
    assert both.params.fwd == FinProd(q1.fwd, q2.fwd)
    assert both.params.bwd == FinProd(q1.bwd, q2.bwd)
    assert both.leaves == (q1, q2) and both.param_shape == (0, 1)
    # the bracketing must number the leaves once each, left to right
    for bad in ((1, 0), 0, (0, (1, 2)), (0, 0), (0, 1, 2), None):
        with pytest.raises(CompositionError):
            ParaLens(FINITE, both.leaves, both.src, both.dst, both.carrier, bad)


def test_unit_param():
    p = embed_trivial(lens_id(FINITE, LensObj(FinSet(("m",)), FinSet(("u",)))))
    assert p.leaves == (unit_obj(FINITE),) and p.param_shape == 0
    assert p.params.fwd is UNIT_SET and p.params.bwd is UNIT_SET


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
        0,
    )
    comp = para_compose(p, q2)
    # later stage's parameters ride leftmost
    assert comp.params.fwd == FinProd(q2.params.fwd, p.params.fwd)
    assert comp.leaves == (q2.params, p.params)
    assert comp.param_shape == (0, 1)
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
    assert flat.leaves == (p.params,) and flat.param_shape == 0
    assert lens_equal(flat.carrier, p.carrier)


def test_para_tensor_of_multi_leaf_operands():
    a, b, c, d = (_echo_para(t) for t in "abcd")
    unit = unit_obj(FINITE)
    left = para_compose(a, b)
    right = para_tensor(c, para_compose(embed_trivial(lens_id(FINITE, unit)), d))
    assert left.leaves == (b.params, a.params) and left.param_shape == (0, 1)
    assert right.leaves == (c.params, d.params, unit) and right.param_shape == (0, (1, 2))
    t = para_tensor(left, right)
    assert t.leaves == (b.params, a.params, c.params, d.params, unit)
    assert t.param_shape == ((0, 1), (2, (3, 4)))
    flat = flatten_params(t)
    want = obj_pair(
        FINITE, obj_pair(FINITE, obj_pair(FINITE, b.params, a.params), c.params), d.params
    )
    assert flat.leaves == (want,) and flat.param_shape == 0
    x, z = t.src.fwd.labels[0], t.dst.bwd.labels[0]
    w = ((("b1", "a0"), "c1"), "d0")
    feedback, _ = FINITE.apply(flat.carrier.put, ((w, x), z))
    assert feedback == ((("br1", "ar0"), "cr1"), "dr0")


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
    p = ParaLens(FINITE, (params,), u, u, carrier, 0)
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
        solution_set(compositional_game(g, "argmax_each"))
        for route in hicks_games(g):
            solution_set(route)
        run_linreg(steps=3)
        run_mlp(steps=3)
        run_gan(steps=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
