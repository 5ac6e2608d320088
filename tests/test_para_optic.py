import gc

import pytest

from paralens.checks import pd_game
from paralens.demos import run_gan
from paralens.errors import CompositionError
from paralens.finite_base import (
    FINITE,
    UNIT_LABEL,
    FinFn,
    FinSet,
    UNIT_SET,
    finset_product,
)
from paralens.lens_core import Lens, LensObj, costate_fn, lens_equal, lens_id, unit_obj
from paralens.para_optic import (
    ParaLens,
    ParamObj,
    ShapeLeaf,
    ShapePair,
    embed_trivial,
    flatten_params,
    is_unit_param,
    para_compose,
    para_costate_solution_input,
    para_tensor,
    reparametrise,
    shape_leaves,
    shape_obj,
    unit_param,
)
from paralens.selection_games import compositional_game, hicks_games, solution_set


def _switch_para() -> ParaLens:
    """One parametrised step: the parameter picks which output to emit."""
    params = ParamObj(FinSet(("w0", "w1")), FinSet(("r0", "r1")))
    src = LensObj(FinSet(("x0",)), FinSet(("s0",)))
    dst = LensObj(FinSet(("y0", "y1")), FinSet(("r0", "r1")))
    dom = finset_product(params.fwd, src.fwd)
    get = FinFn(dom, dst.fwd, {("w0", "x0"): "y0", ("w1", "x0"): "y1"})
    put = FinFn(
        finset_product(dom, dst.bwd),
        finset_product(params.bwd, src.bwd),
        {
            (wx, r): (r, "s0")
            for wx in dom.labels
            for r in dst.bwd.labels
        },
    )
    carrier = Lens(FINITE, LensObj(dom, finset_product(params.bwd, src.bwd)), dst, get, put)
    return ParaLens(FINITE, params, src, dst, carrier, ShapeLeaf(params))


def test_shape_fold_and_leaves():
    q1 = ParamObj(FinSet(("a",)), FinSet(("b",)))
    q2 = ParamObj(FinSet(("c", "d")), FinSet(("e",)))
    shape = ShapePair(ShapeLeaf(q1), ShapeLeaf(q2))
    folded = shape_obj(FINITE, shape)
    assert folded.fwd == finset_product(q1.fwd, q2.fwd)
    assert folded.bwd == finset_product(q1.bwd, q2.bwd)
    assert shape_leaves(shape) == [q1, q2]


def test_unit_param():
    u = unit_param(FINITE)
    assert u.fwd is UNIT_SET and u.bwd is UNIT_SET
    assert is_unit_param(FINITE, u)
    assert not is_unit_param(FINITE, ParamObj(FinSet(("a",)), UNIT_SET))


def test_embed_trivial_wraps_plain_lens():
    p = embed_trivial(lens_id(FINITE, LensObj(FinSet(("m", "n")), FinSet(("u",)))))
    assert is_unit_param(FINITE, p.params)
    assert FINITE.apply(p.carrier.get, (UNIT_LABEL, "m")) == "m"


def test_para_compose_parameter_order():
    p = _switch_para()
    q = _switch_para()
    # q consumes p's output, so its source must be rebuilt to match
    q2 = ParaLens(
        FINITE,
        q.params,
        p.dst,
        q.dst,
        Lens(
            FINITE,
            LensObj(
                finset_product(q.params.fwd, p.dst.fwd),
                finset_product(q.params.bwd, p.dst.bwd),
            ),
            q.dst,
            FinFn(
                finset_product(q.params.fwd, p.dst.fwd),
                q.dst.fwd,
                {
                    (w, y): "y0" if w == "w0" else "y1"
                    for w in q.params.fwd.labels
                    for y in p.dst.fwd.labels
                },
            ),
            FinFn(
                finset_product(finset_product(q.params.fwd, p.dst.fwd), q.dst.bwd),
                finset_product(q.params.bwd, p.dst.bwd),
                {
                    ((w, y), r): (r, r)
                    for w in q.params.fwd.labels
                    for y in p.dst.fwd.labels
                    for r in q.dst.bwd.labels
                },
            ),
        ),
        ShapeLeaf(q.params),
    )
    comp = para_compose(p, q2)
    # later stage's parameters ride leftmost
    assert comp.params.fwd == finset_product(q2.params.fwd, p.params.fwd)
    assert comp.param_shape == ShapePair(q2.param_shape, p.param_shape)
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
    assert comp.params.fwd == finset_product(p.params.fwd, UNIT_SET)
    flat = flatten_params(comp)
    assert flat.params == p.params
    assert isinstance(flat.param_shape, ShapeLeaf)
    assert lens_equal(flat.carrier, p.carrier)


def test_solution_input_costate():
    params = ParamObj(FinSet(("w0", "w1")), FinSet(("g0", "g1")))
    u = unit_obj(FINITE)
    dom = finset_product(params.fwd, UNIT_SET)
    reward = {"w0": "g1", "w1": "g0"}
    carrier = Lens(
        FINITE,
        LensObj(dom, finset_product(params.bwd, UNIT_SET)),
        u,
        FinFn(dom, UNIT_SET, {x: UNIT_LABEL for x in dom.labels}),
        FinFn(
            finset_product(dom, UNIT_SET),
            finset_product(params.bwd, UNIT_SET),
            {
                ((w, UNIT_LABEL), UNIT_LABEL): (
                    reward[w], UNIT_LABEL
                )
                for w in params.fwd.labels
            },
        ),
    )
    p = ParaLens(FINITE, params, u, u, carrier, ShapeLeaf(params))
    co = para_costate_solution_input(p)
    fn = costate_fn(co)
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
        run_gan(steps=3)
        assert gc.collect() == 0
    finally:
        gc.enable()
