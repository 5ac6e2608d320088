"""Reverse-mode engine: primitives, graph evaluation, lenses, training steps.

Derivative values are pitted against closed forms where one exists and
against central finite differences otherwise.  The MLP forward pass is
re-implemented with straight numpy as an independent oracle.
"""

import numpy as np
import pytest

from paralens.checks import fd_gradient, rel_close
from paralens.errors import CompositionError, NumericError, SpecFormatError
from paralens.lens_core import LensObj
from paralens.para_optic import flatten_params, para_compose, reparametrise
from paralens.smooth_autodiff import (
    PRIMITIVES,
    GraphBuilder,
    Node,
    SmoothMap,
    Wire,
    apply_R,
    backward_eval,
    compose_maps,
    copy_lens,
    forward_eval,
    ga_lens,
    gan_step,
    gd_lens,
    graph_from_json,
    graph_to_json,
    identity_map,
    mlp_map,
    sqerr_head,
    train_step,
    unit_loss_costate,
)


def _mul_graph():
    b = GraphBuilder(in_dim=2)
    p = b.param(2)
    out = b.node(PRIMITIVES["mul"](2), p, b.input())
    return b.build(out)


# -- construction and validation ----------------------------------------


def test_wire_rejects_bad_slice():
    with pytest.raises(CompositionError):
        Wire("input", 3, 1)


def test_graph_rejects_duplicate_node_names():
    n1 = Node("n", PRIMITIVES["neg"](1), (Wire("input", 0, 1),))
    n2 = Node("n", PRIMITIVES["neg"](1), (Wire("n", 0, 1),))
    with pytest.raises(CompositionError, match="duplicate"):
        SmoothMap(0, 1, 1, (n1, n2), Wire("n", 0, 1))


def test_graph_rejects_forward_reference():
    n1 = Node("a", PRIMITIVES["neg"](1), (Wire("b", 0, 1),))
    n2 = Node("b", PRIMITIVES["neg"](1), (Wire("input", 0, 1),))
    with pytest.raises(CompositionError, match="unknown source"):
        SmoothMap(0, 1, 1, (n1, n2), Wire("a", 0, 1))


def test_graph_rejects_oversized_slice():
    n = Node("a", PRIMITIVES["neg"](2), (Wire("input", 0, 2),))
    with pytest.raises(CompositionError, match="exceeds"):
        SmoothMap(0, 1, 2, (n,), Wire("a", 0, 2))


def test_graph_rejects_arity_mismatch():
    n = Node("a", PRIMITIVES["add"](1), (Wire("input", 0, 1),))
    with pytest.raises(CompositionError, match="takes 2 inputs"):
        SmoothMap(0, 1, 1, (n,), Wire("a", 0, 1))


def test_graph_rejects_dangling_node():
    n1 = Node("a", PRIMITIVES["neg"](1), (Wire("input", 0, 1),))
    n2 = Node("b", PRIMITIVES["neg"](1), (Wire("input", 0, 1),))
    with pytest.raises(CompositionError, match="not feeding the output"):
        SmoothMap(0, 1, 1, (n1, n2), Wire("a", 0, 1))


def test_non_finite_input_rejected():
    f = _mul_graph()
    with pytest.raises(NumericError):
        forward_eval(f, np.array([1.0, np.inf]), np.array([1.0, 1.0]))


def test_overflow_inside_graph_names_node():
    f = _mul_graph()
    big = np.array([1e308, 1.0])
    with pytest.raises(NumericError, match="n0"):
        forward_eval(f, big, big)


# -- primitive derivatives against closed forms -------------------------


def test_linear_vjp_by_hand():
    prim = PRIMITIVES["linear"](2, 2)
    w = np.array([1.0, 2.0, 3.0, 4.0])  # [[1,2],[3,4]] row-major
    x = np.array([5.0, 6.0])
    assert np.allclose(prim.forward(w, x), [17.0, 39.0])
    dw, dx = prim.vjp((w, x), np.array([1.0, 1.0]))
    assert np.allclose(dw, [5.0, 6.0, 5.0, 6.0])
    assert np.allclose(dx, [4.0, 6.0])


def test_tanh_vjp_at_zero():
    prim = PRIMITIVES["tanh"](1)
    (dx,) = prim.vjp((np.array([0.0]),), np.array([1.0]))
    assert np.allclose(dx, [1.0])


def test_relu_kink_uses_zero_subgradient():
    prim = PRIMITIVES["relu"](3)
    x = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(prim.forward(x), [0.0, 0.0, 2.0])
    (dx,) = prim.vjp((x,), np.array([1.0, 1.0, 1.0]))
    assert np.allclose(dx, [0.0, 0.0, 1.0])


def test_sigmoid_vjp_at_zero():
    prim = PRIMITIVES["sigmoid"](1)
    (dx,) = prim.vjp((np.array([0.0]),), np.array([1.0]))
    assert np.allclose(dx, [0.25])


def test_sqerr_vjp_by_hand():
    prim = PRIMITIVES["sqerr"](1)
    a, b = np.array([3.0]), np.array([1.0])
    assert np.allclose(prim.forward(a, b), [4.0])
    da, db = prim.vjp((a, b), np.array([1.0]))
    assert np.allclose(da, [4.0]) and np.allclose(db, [-4.0])


def test_sum_vjp_broadcasts():
    prim = PRIMITIVES["sum"](3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(prim.forward(x), [6.0])
    (dx,) = prim.vjp((x,), np.array([2.0]))
    assert np.allclose(dx, [2.0, 2.0, 2.0])


def test_bias_is_add():
    assert PRIMITIVES["bias"] is PRIMITIVES["add"]


# -- evaluation ---------------------------------------------------------


def test_forward_backward_mul():
    f = _mul_graph()
    p = np.array([2.0, 3.0])
    x = np.array([5.0, 7.0])
    y, tape = forward_eval(f, p, x)
    assert np.allclose(y, [10.0, 21.0])
    dp, dx = backward_eval(f, tape, np.array([1.0, 1.0]))
    assert np.allclose(dp, x) and np.allclose(dx, p)


def test_fanout_sums_cotangents():
    b = GraphBuilder(in_dim=1)
    t = b.node(PRIMITIVES["tanh"](1), b.input())
    y = b.node(PRIMITIVES["mul"](1), t, t)
    f = b.build(y)
    x = np.array([0.3])
    _, tape = forward_eval(f, np.zeros(0), x)
    _, dx = backward_eval(f, tape, np.array([1.0]))
    th = np.tanh(0.3)
    assert rel_close(dx, [2.0 * th * (1.0 - th * th)], rtol=1e-12)


def test_tape_single_use():
    f = _mul_graph()
    _, tape = forward_eval(f, np.ones(2), np.ones(2))
    backward_eval(f, tape, np.ones(2))
    with pytest.raises(CompositionError, match="consumed"):
        backward_eval(f, tape, np.ones(2))


def test_tape_bound_to_its_graph():
    f, g = _mul_graph(), _mul_graph()
    _, tape = forward_eval(f, np.ones(2), np.ones(2))
    with pytest.raises(CompositionError, match="different graph"):
        backward_eval(g, tape, np.ones(2))


def test_identity_map():
    f = identity_map(3)
    x = np.array([1.0, -2.0, 3.0])
    y, tape = forward_eval(f, np.zeros(0), x)
    assert np.allclose(y, x)
    _, dx = backward_eval(f, tape, np.array([4.0, 5.0, 6.0]))
    assert np.allclose(dx, [4.0, 5.0, 6.0])


def test_compose_maps_layout_and_values():
    rng = np.random.default_rng(1)
    f = mlp_map((2, 3, 2))
    g = mlp_map((2, 2, 1))
    comp = compose_maps(f, g)
    assert comp.param_dim == f.param_dim + g.param_dim
    pf = rng.uniform(-1, 1, f.param_dim)
    pg = rng.uniform(-1, 1, g.param_dim)
    x = rng.uniform(-1, 1, 2)
    # second stage's parameters come first in the composite vector
    y = forward_eval(comp, np.concatenate([pg, pf]), x)[0]
    mid = forward_eval(f, pf, x)[0]
    assert rel_close(y, forward_eval(g, pg, mid)[0], rtol=1e-12)


def test_mlp_against_plain_numpy():
    rng = np.random.default_rng(2)
    f = mlp_map((2, 3, 1))
    p = rng.uniform(-1, 1, f.param_dim)
    x = rng.uniform(-1, 1, 2)
    w1 = p[0:6].reshape(3, 2)
    b1 = p[6:9]
    w2 = p[9:12].reshape(1, 3)
    b2 = p[12:13]
    want = w2 @ np.tanh(w1 @ x + b1) + b2
    assert rel_close(forward_eval(f, p, x)[0], want, rtol=1e-12)


def test_mlp_relu_variant():
    f = mlp_map((1, 2, 1), activation="relu")
    assert any(n.prim.name == "relu" for n in f.nodes)
    with pytest.raises(CompositionError):
        mlp_map((1, 2, 1), activation="softplus")


def test_sqerr_head_value():
    rng = np.random.default_rng(3)
    f = mlp_map((2, 3, 2))
    lossy = sqerr_head(f)
    p = rng.uniform(-1, 1, f.param_dim)
    x = rng.uniform(-1, 1, 2)
    t = rng.uniform(-1, 1, 2)
    out = forward_eval(lossy, p, np.concatenate([x, t]))[0]
    want = ((forward_eval(f, p, x)[0] - t) ** 2).sum()
    assert rel_close(out, [want], rtol=1e-12)


def test_json_round_trip():
    f = sqerr_head(mlp_map((2, 3, 1)))
    data = graph_to_json(f)
    g = graph_from_json(data)
    rng = np.random.default_rng(4)
    p = rng.uniform(-1, 1, f.param_dim)
    x = rng.uniform(-1, 1, f.in_dim)
    assert np.array_equal(forward_eval(f, p, x)[0], forward_eval(g, p, x)[0])


def test_json_errors_carry_paths():
    f = mlp_map((1, 2, 1))
    data = graph_to_json(f)
    data["nodes"][1]["prim"] = "frobnicate"
    with pytest.raises(SpecFormatError, match=r"\$\.nodes\[1\]"):
        graph_from_json(data)
    data2 = graph_to_json(f)
    data2["output"] = ["lin1", 0]
    with pytest.raises(SpecFormatError, match=r"\$\.output"):
        graph_from_json(data2)
    with pytest.raises(SpecFormatError, match="missing key"):
        graph_from_json({"param_dim": 0})
    bad_nodes = graph_to_json(f)
    bad_nodes["nodes"] = 5
    with pytest.raises(SpecFormatError, match=r"\$\.nodes:"):
        graph_from_json(bad_nodes)
    bad_inputs = graph_to_json(f)
    bad_inputs["nodes"][0]["inputs"] = 5
    with pytest.raises(SpecFormatError, match=r"\$\.nodes\[0\]\.inputs"):
        graph_from_json(bad_inputs)
    for i, prim, args in ((0, "linear", [1]), (1, "tanh", [-1])):
        bad_args = graph_to_json(f)
        bad_args["nodes"][i].update(prim=prim, args=args)
        with pytest.raises(SpecFormatError, match=rf"\$\.nodes\[{i}\]\.args"):
            graph_from_json(bad_args)


# -- lenses and steps ---------------------------------------------------


def test_apply_r_matches_direct_evaluation():
    rng = np.random.default_rng(5)
    f = mlp_map((2, 4, 2))
    lensed = apply_R(f)
    p = rng.uniform(-1, 1, f.param_dim)
    x = rng.uniform(-1, 1, 2)
    dy = rng.uniform(-1, 1, 2)
    y, tape = forward_eval(f, p, x)
    dp, dx = backward_eval(f, tape, dy)
    assert np.array_equal(lensed.carrier.get(np.concatenate([p, x])), y)
    assert np.array_equal(
        lensed.carrier.put(np.concatenate([p, x, dy])), np.concatenate([dp, dx])
    )


def test_optimiser_lens_formulas():
    p = np.array([1.0, 2.0])
    g = np.array([10.0, -4.0])
    down = gd_lens(0.1, 2)
    assert np.allclose(down.get(p), p)
    assert np.allclose(down.put(np.concatenate([p, g])), [0.0, 2.4])
    up = ga_lens(0.1, 2)
    assert np.allclose(up.put(np.concatenate([p, g])), [2.0, 1.6])
    with pytest.raises(NumericError):
        gd_lens(float("nan"), 2)


def test_copy_lens_duplicates_and_sums():
    tie = copy_lens(2)
    p = np.array([1.0, 2.0])
    assert np.allclose(tie.get(p), [1.0, 2.0, 1.0, 2.0])
    back = tie.put(np.array([1.0, 2.0, 10.0, 20.0, 1.0, 2.0]))
    assert np.allclose(back, [11.0, 22.0])


def test_train_step_reports_pre_update_loss():
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    rng = np.random.default_rng(6)
    p = rng.uniform(-0.5, 0.5, f.param_dim)
    data = np.array([0.4, 0.9])
    p2, loss = train_step(model, p, data, unit_loss_costate())
    assert loss == pytest.approx(float(forward_eval(f, p, data)[0][0]))
    g_fd = fd_gradient(lambda v: float(forward_eval(f, v, data)[0][0]), p)
    assert rel_close(p2, p - 0.05 * g_fd, rtol=1e-4, atol=1e-8)


def test_train_step_requires_scalar_loss():
    f = mlp_map((1, 2, 2))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    with pytest.raises(CompositionError):
        train_step(model, np.zeros(f.param_dim), np.zeros(1), unit_loss_costate())


def test_gan_step_against_finite_differences():
    gen_graph = mlp_map((2, 3, 2))
    disc_graph = mlp_map((2, 3, 1))
    gen, disc = apply_R(gen_graph), apply_R(disc_graph)
    rng = np.random.default_rng(7)
    pg = rng.uniform(-0.5, 0.5, gen_graph.param_dim)
    pd = rng.uniform(-0.5, 0.5, disc_graph.param_dim)
    z = rng.uniform(-1, 1, 2)
    real = rng.uniform(-1, 1, 2)
    alpha = 0.01

    pg2, pd2, (d_fake, d_real) = gan_step(gen, disc, pg, pd, z, real, alpha)

    def value(pdv, pgv):
        fake = forward_eval(gen_graph, pgv, z)[0]
        return (
            forward_eval(disc_graph, pdv, fake)[0][0]
            + forward_eval(disc_graph, pdv, real)[0][0]
        )

    assert d_fake == pytest.approx(
        float(forward_eval(disc_graph, pd, forward_eval(gen_graph, pg, z)[0])[0][0])
    )
    assert d_real == pytest.approx(float(forward_eval(disc_graph, pd, real)[0][0]))
    grad_d = fd_gradient(lambda v: value(v, pg), pd)
    grad_g = fd_gradient(lambda v: value(pd, v), pg)
    assert rel_close(pd2, pd + alpha * grad_d, rtol=1e-4, atol=1e-8)
    assert rel_close(pg2, pg - alpha * grad_g, rtol=1e-4, atol=1e-8)


def test_gan_step_ties_discriminator_gradients():
    # with a unit learning rate the discriminator delta is exactly the sum
    # of the gradients from its two uses
    gen_graph = mlp_map((2, 3, 2))
    disc_graph = mlp_map((2, 3, 1))
    gen, disc = apply_R(gen_graph), apply_R(disc_graph)
    rng = np.random.default_rng(8)
    pg = rng.uniform(-0.5, 0.5, gen_graph.param_dim)
    pd = rng.uniform(-0.5, 0.5, disc_graph.param_dim)
    z = rng.uniform(-1, 1, 2)
    real = rng.uniform(-1, 1, 2)

    _, pd2, _ = gan_step(gen, disc, pg, pd, z, real, 1.0)
    fake = forward_eval(gen_graph, pg, z)[0]
    _, tape1 = forward_eval(disc_graph, pd, fake)
    dp1, _ = backward_eval(disc_graph, tape1, np.ones(1))
    _, tape2 = forward_eval(disc_graph, pd, real)
    dp2, _ = backward_eval(disc_graph, tape2, np.ones(1))
    assert rel_close(pd2 - pd, dp1 + dp2, rtol=1e-10)


def test_r_functoriality_on_one_pair():
    rng = np.random.default_rng(9)
    f = mlp_map((2, 3, 2))
    g = mlp_map((2, 2, 1))
    comp = compose_maps(f, g)
    flat = flatten_params(para_compose(apply_R(f), apply_R(g)))
    p = rng.uniform(-0.5, 0.5, comp.param_dim)
    x = rng.uniform(-0.5, 0.5, 2)
    dy = rng.uniform(-1, 1, 1)
    y, tape = forward_eval(comp, p, x)
    dp, dx = backward_eval(comp, tape, dy)
    assert rel_close(flat.carrier.get(np.concatenate([p, x])), y, rtol=1e-10)
    assert rel_close(
        flat.carrier.put(np.concatenate([p, x, dy])),
        np.concatenate([dp, dx]),
        rtol=1e-10,
    )
