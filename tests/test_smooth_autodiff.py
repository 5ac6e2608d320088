"""Reverse-mode engine: primitives, graph evaluation, lenses, training steps.

Derivative values are pitted against closed forms where one exists and
against central finite differences otherwise.  The MLP forward pass is
re-implemented with straight numpy as an independent oracle.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paralens import smooth_autodiff
from paralens.checks import check_weight_tying, fd_gradient, rel_close
from paralens.errors import CompositionError, NumericError
from paralens.demos import run_gan, run_linreg, run_mlp
from paralens.lens_core import Lens, LensObj, compile_make
from paralens.para_optic import flatten_params, para_compose, reparametrise
from paralens.smooth_autodiff import (
    PRIMITIVES,
    SMOOTH,
    GraphBuilder,
    Node,
    Pair,
    SmoothMap,
    Wire,
    apply_R,
    as_vector,
    backward_eval,
    compose_maps,
    copy_lens,
    flat_dim,
    forward_eval,
    ga_lens,
    gan_model,
    gan_step,
    gd_lens,
    join_flat,
    mlp_map,
    split_flat,
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


def _linear_tanh_graph(extra_neg: bool = False):
    b = GraphBuilder(in_dim=1)
    h = b.node(PRIMITIVES["linear"](1, 1), b.param(1), b.input(), name="lin")
    if extra_neg:
        h = b.node(PRIMITIVES["neg"](1), h, name="flip")
    return b.build(b.node(PRIMITIVES["tanh"](1), h, name="squash"))


@pytest.mark.parametrize("extra_neg", [False, True])
def test_non_finite_value_is_named_at_its_first_node(extra_neg):
    # tanh(inf) = 1 keeps the output finite; with the neg, two nodes are non-finite
    big = np.array([1e308])
    with pytest.raises(NumericError, match="node 'lin'"):
        forward_eval(_linear_tanh_graph(extra_neg), big, big)


def test_a_node_without_inputs_is_a_constant():
    const = smooth_autodiff.Primitive("const", (), (), 2, lambda: np.array([1.0, 2.0]), lambda ins, c: ())
    b = GraphBuilder(in_dim=2)
    f = b.build(b.node(PRIMITIVES["mul"](2), b.node(const), b.input()))
    y, tape = forward_eval(f, np.zeros(0), np.array([3.0, 4.0]))
    assert np.array_equal(y, [3.0, 8.0])
    assert np.array_equal(backward_eval(f, tape, np.ones(2))[1], [1.0, 2.0])


@pytest.mark.parametrize("width", [1, 2])
def test_vjp_cotangent_of_the_wrong_width_names_its_node(width):
    # unchecked, a 1-wide cotangent would broadcast over the 3-wide wire and a
    # 2-wide one would fail inside numpy
    short = smooth_autodiff.Primitive("neg", (3,), (3,), 3, lambda a: -a, lambda ins, c: (-c[:width],))
    f = SmoothMap(0, 3, 3, (Node("short", short, (Wire("input", 0, 3),)),), Wire("short", 0, 3))
    _, tape = forward_eval(f, np.zeros(0), np.ones(3))
    with pytest.raises(NumericError, match=rf"node 'short'.*shape \({width},\).*dimension 3"):
        backward_eval(f, tape, np.ones(3))


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


@pytest.mark.parametrize("bad", [np.ones(3), np.array([1.0, np.nan])])
def test_a_rejected_cotangent_leaves_the_tape_unspent(bad):
    f = _mul_graph()
    _, tape = forward_eval(f, np.array([2.0, 3.0]), np.array([5.0, 7.0]))
    with pytest.raises(NumericError, match="output cotangent"):
        backward_eval(f, tape, bad)
    dp, dx = backward_eval(f, tape, np.ones(2))
    assert np.array_equal(dp, [5.0, 7.0]) and np.array_equal(dx, [2.0, 3.0])


# -- generated legs against a per-node interpreter ------------------------


def _interpret(f: SmoothMap, p, x, dy):
    """``f``'s node outputs, output, per-node inputs and port cotangents, one node at a time.

    Contributions are added into views of zeroed cotangent buffers, wires
    in order, nodes in reverse, the summation order the generated legs keep.
    """
    at = {"param": (0, 0), "input": (1, 0)}
    width = 0
    for node in f.nodes:
        at[node.name] = (2, width)
        width += node.prim.out_dim
    bufs = [p, x, np.empty(width)]
    slices = []
    for node in f.nodes:
        ins = [(at[w.src][0], at[w.src][1] + w.lo, at[w.src][1] + w.hi) for w in node.inputs]
        args = [bufs[s][i:j] for s, i, j in ins]
        _, off = at[node.name]
        bufs[2][off : off + node.prim.out_dim] = node.prim.forward(*args)
        slices.append((ins, args, off))
    s, off = at[f.output.src]
    y = bufs[s][off + f.output.lo : off + f.output.hi].copy()
    cots = [np.zeros(f.param_dim), np.zeros(f.in_dim), np.zeros(width)]
    cots[s][off + f.output.lo : off + f.output.hi] += dy
    for node, (ins, args, off) in zip(reversed(f.nodes), reversed(slices)):
        for (s, i, j), val in zip(ins, node.prim.vjp(args, cots[2][off : off + node.prim.out_dim])):
            acc = cots[s][i:j]
            acc += val
    return bufs[2], y, [args for _, args, _ in slices], cots[0], cots[1]


@st.composite
def _graphs(draw):
    """A graph over every primitive, wires fanning out as slices of ports and of node outputs."""
    param_dim, in_dim = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    dims = {"param": param_dim, "input": in_dim}
    nodes = []

    def node(prim, *wires):
        nodes.append(Node(f"n{len(nodes)}", prim, wires))
        dims[nodes[-1].name] = prim.out_dim
        return Wire(nodes[-1].name, 0, prim.out_dim)

    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(sorted(PRIMITIVES)))
        n = draw(st.integers(1, 3))
        prim = PRIMITIVES[name](n, draw(st.integers(1, 3))) if name == "linear" else PRIMITIVES[name](n)
        wires, src = [], None
        for want in prim.in_dims:
            fits = sorted(src for src, dim in dims.items() if dim >= want)
            if not fits:
                dims["param"] = param_dim = param_dim + want
                fits = ["param"]
            # a node often reads two slices of one source, where their cotangents meet
            if not (src in fits and draw(st.booleans())):
                src = draw(st.sampled_from(fits))
            lo = draw(st.integers(0, dims[src] - want))
            wires.append(Wire(src, lo, lo + want))
        out = node(prim, *wires)
    # every node feeds the output: the sums of the unread ones are added onto the last one's
    read = {w.src for n in nodes for w in n.inputs}
    sinks = [Wire(n.name, 0, n.prim.out_dim) for n in nodes[:-1] if n.name not in read]
    if sinks:
        out = node(PRIMITIVES["sum"](out.dim), out)
    for w in sinks:
        out = node(PRIMITIVES["add"](1), out, node(PRIMITIVES["sum"](w.dim), w))
    lo = draw(st.integers(0, out.dim - 1))
    hi = draw(st.integers(lo + 1, out.dim))
    return SmoothMap(param_dim, in_dim, hi - lo, tuple(nodes), Wire(out.src, lo, hi))


@settings(max_examples=300, deadline=None)
@given(f=_graphs(), seed=st.integers(0, 2**32 - 1))
def test_generated_legs_match_a_per_node_interpreter(f, seed):
    rng = np.random.default_rng(seed)
    p, x, dy = rng.uniform(-1, 1, f.param_dim), rng.uniform(-1, 1, f.in_dim), rng.uniform(-1, 1, f.out_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        values, want_y, want_inputs, want_dp, want_dx = _interpret(f, p, x, dy)
    assume(all(np.isfinite(v).all() for v in (values, want_dp, want_dx)))
    y, tape = forward_eval(f, p, x)
    dp, dx = backward_eval(f, tape, dy)
    assert np.array_equal(y, want_y)
    assert len(tape.node_inputs) == len(want_inputs)
    for got, want in zip(tape.node_inputs, want_inputs):
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(dp, want_dp) and np.array_equal(dx, want_dx)


def test_legs_are_generated_once_per_plan_shape(monkeypatch):
    generated = []

    def counted(source, namespace, filename):
        generated.append(filename)
        return compile_make(source, namespace, filename)

    monkeypatch.setattr(smooth_autodiff, "compile_make", counted)
    assert smooth_autodiff._make_legs.cache_info().maxsize is not None
    smooth_autodiff._make_legs.cache_clear()
    counts = []
    for _ in range(3):
        run_linreg(steps=3), run_mlp(steps=3), run_gan(steps=3)
        counts.append(len(generated))
    # linreg, the MLP with its loss, the generator and the discriminator
    assert counts == [4, 4, 4]


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
    assert np.array_equal(lensed.carrier.get((p, x)), y)
    back_p, back_x = lensed.carrier.put(((p, x), dy))
    assert np.array_equal(back_p, dp) and np.array_equal(back_x, dx)


def test_optimiser_lens_formulas():
    p = np.array([1.0, 2.0])
    g = np.array([10.0, -4.0])
    down = gd_lens(0.1, 2)
    assert np.allclose(down.get(p), p)
    assert np.allclose(down.put((p, g)), [0.0, 2.4])
    up = ga_lens(0.1, 2)
    assert np.allclose(up.put((p, g)), [2.0, 1.6])
    with pytest.raises(NumericError):
        gd_lens(float("nan"), 2)


def test_copy_lens_duplicates_and_sums():
    tie = copy_lens(2)
    p = np.array([1.0, 2.0])
    assert np.allclose(join_flat(tie.get(p)), [1.0, 2.0, 1.0, 2.0])
    back = tie.put((p, (np.array([10.0, 20.0]), np.array([1.0, 2.0]))))
    assert np.allclose(back, [11.0, 22.0])


def test_optimiser_lenses_reject_a_mis_shaped_input_at_their_edge():
    one, three = np.ones(1), np.ones(3)
    cases = [
        (copy_lens(3).put, Pair((three, Pair((three, one)))), r"R\^3 × \(R\^3 × R\^3\)"),
        (gd_lens(0.1, 3).put, Pair((three, one)), r"R\^3 × R\^3"),
    ]
    for put, bad, carrier in cases:
        with pytest.raises(CompositionError, match=carrier):
            put(bad)


def test_weight_tying_suite():
    # the suite that drives flatten_params and copy_lens over the smooth base
    result = check_weight_tying()
    assert result.ok, result.detail
    assert result.instances == 36


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

    pg2, pd2, (d_fake, d_real) = gan_step(gan_model(gen, disc, alpha), pg, pd, z, real)

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

    _, pd2, _ = gan_step(gan_model(gen, disc, 1.0), pg, pd, z, real)
    fake = forward_eval(gen_graph, pg, z)[0]
    _, tape1 = forward_eval(disc_graph, pd, fake)
    dp1, _ = backward_eval(disc_graph, tape1, np.ones(1))
    _, tape2 = forward_eval(disc_graph, pd, real)
    dp2, _ = backward_eval(disc_graph, tape2, np.ones(1))
    assert rel_close(pd2 - pd, dp1 + dp2, rtol=1e-10)


@pytest.mark.parametrize("what", ["parameter vector", "input vector"])
def test_train_step_rejects_non_finite_values_by_name(what):
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    p, data = np.full(f.param_dim, 0.1), np.array([0.4, 0.9])
    if what == "parameter vector":
        p[3] = np.nan
    else:
        data[1] = np.inf
    with pytest.raises(NumericError, match=f"^{what} contains non-finite entries$"):
        train_step(model, p, data, unit_loss_costate())


def test_train_step_scans_the_parameters_once(monkeypatch):
    scans = []

    def recorded(x, dim, what="vector", finite=True):
        scans.append((what, finite))
        return as_vector(x, dim, what, finite)

    monkeypatch.setattr(smooth_autodiff, "as_vector", recorded)
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    train_step(model, np.full(f.param_dim, 0.1), np.array([0.4, 0.9]), unit_loss_costate())
    assert scans.count(("parameter vector", True)) == 1


@pytest.mark.parametrize(
    "what", ["generator parameters", "discriminator parameters", "latent vector", "real sample"]
)
def test_gan_step_rejects_non_finite_values_by_name(what):
    gen, disc = apply_R(mlp_map((2, 3, 2))), apply_R(mlp_map((2, 3, 1)))
    args = {
        "generator parameters": np.full(gen.params.fwd, 0.1),
        "discriminator parameters": np.full(disc.params.fwd, -0.2),
        "latent vector": np.ones(2),
        "real sample": np.zeros(2),
    }
    args[what][-1] = np.inf
    with pytest.raises(NumericError, match=f"^{what} contains non-finite entries$"):
        gan_step(gan_model(gen, disc, 0.1), *args.values())


def test_gan_step_rejects_mismatched_generator():
    gen, disc = apply_R(mlp_map((2, 3, 2))), apply_R(mlp_map((3, 3, 1)))
    with pytest.raises(CompositionError, match="cannot compose"):
        gan_model(gen, disc, 0.1)


@pytest.fixture
def eval_counts(monkeypatch):
    """Counts of graph evaluations made through ``smooth_autodiff``'s globals."""
    counts = {"forward": 0, "backward": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(smooth_autodiff, "forward_eval", counted("forward", forward_eval))
    monkeypatch.setattr(smooth_autodiff, "backward_eval", counted("backward", backward_eval))
    return counts


def test_gan_step_rejects_a_model_not_built_by_gan_model():
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    with pytest.raises(CompositionError, match="gan_model"):
        gan_step(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))


def test_gan_step_reads_scores_off_one_forward_leg(eval_counts):
    gen, disc = apply_R(mlp_map((2, 3, 2))), apply_R(mlp_map((2, 3, 1)))
    pg, pd = np.full(gen.params.fwd, 0.1), np.full(disc.params.fwd, -0.2)
    gan_step(gan_model(gen, disc, 0.1), pg, pd, np.ones(2), np.zeros(2))
    assert eval_counts == {"forward": 3, "backward": 3}


@pytest.mark.parametrize("depth", [1, 4, 16])
def test_put_of_a_chain_evaluates_each_graph_once(eval_counts, depth):
    chain = reduce(para_compose, [apply_R(mlp_map((2, 2)))] * depth)
    p = split_flat(chain.params.fwd, np.full(flat_dim(chain.params.fwd), 0.1))
    chain.carrier.put(((p, np.ones(2)), np.ones(2)))
    assert eval_counts == {"forward": depth, "backward": depth}


def test_train_step_evaluates_the_graph_once_each_way(eval_counts):
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    train_step(model, np.full(f.param_dim, 0.1), np.array([0.4, 0.9]), unit_loss_costate())
    assert eval_counts == {"forward": 1, "backward": 1}


def test_run_gan_builds_its_lenses_once(monkeypatch):
    built = [0]
    post_init = Lens.__post_init__

    def counted(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Lens, "__post_init__", counted)
    counts = []
    for steps in (2, 6):
        built[0] = 0
        run_gan(steps=steps)
        counts.append(built[0])
    assert counts[0] == counts[1] > 0


def test_a_residual_feeds_one_backward_pass():
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    px = (np.full(f.param_dim, 0.1), np.array([0.4, 0.9]))
    _, residual = model.carrier.forward(px)
    model.carrier.backward(residual, np.ones(1))
    with pytest.raises(CompositionError, match="already consumed"):
        model.carrier.backward(residual, np.ones(1))


def test_composite_put_is_a_pure_function():
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    xz = ((np.full(f.param_dim, 0.1), np.array([0.4, 0.9])), np.ones(1))
    first, again = model.carrier.put(xz), model.carrier.put(xz)
    assert np.array_equal(join_flat(first), join_flat(again))


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
    # the flattened parameters are the pair (g's, f's) of compose_maps' layout
    pair = (p[: g.param_dim], p[g.param_dim :])
    assert rel_close(flat.carrier.get((pair, x)), y, rtol=1e-10)
    assert rel_close(
        join_flat(flat.carrier.put(((pair, x), dy))),
        np.concatenate([dp, dx]),
        rtol=1e-10,
    )


def test_train_step_peak_memory_is_a_few_parameter_vectors():
    # pairing keeps references, so at its peak a step holds the gradient
    # and one more parameter-sized array, never a copy of p
    f = sqerr_head(mlp_map((8, 256, 256, 1)))
    model = reparametrise(apply_R(f), gd_lens(1e-3, f.param_dim))
    costate = unit_loss_costate()
    rng = np.random.default_rng(10)
    p = rng.uniform(-0.05, 0.05, f.param_dim)
    data = rng.uniform(-1.0, 1.0, 9)
    train_step(model, p, data, costate)  # warm up lazily built numpy state
    tracemalloc.start()
    try:
        p_next, _ = train_step(model, p, data, costate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * p.nbytes, f"peak {peak / p.nbytes:.1f} parameter vectors"
    assert not np.shares_memory(p_next, p)


def test_smooth_product_and_split_reject_non_pairs():
    f, g = SMOOTH.identity(2), SMOOTH.identity(3)
    both = SMOOTH.product(f, g)
    flat, triple = np.zeros(5), (np.zeros(2), np.zeros(3), np.zeros(1))
    swapped = (np.zeros(3), np.zeros(2))
    for bad in (flat, triple):
        with pytest.raises(CompositionError, match="not a pair"):
            SMOOTH.split_elem(bad)
    # split_elem knows no dimensions; the morphism's edge does
    for bad in (flat, triple, swapped):
        with pytest.raises(CompositionError, match=r"R\^2 × R\^3"):
            both(bad)
    x, y = both((np.ones(2), np.ones(3)))
    assert np.array_equal(x, np.ones(2)) and np.array_equal(y, np.ones(3))
    wrong_leaf = SMOOTH.morphism(2, (2, 3), lambda v: (v, np.zeros(4)))
    with pytest.raises(NumericError, match=r"shape \(4,\), expected \(3,\)"):
        wrong_leaf(np.ones(2))
    assert SMOOTH.contains((2, 3), (np.ones(2), np.ones(3)))
    assert not SMOOTH.contains((2, 3), np.ones(5))
    assert SMOOTH.describe(((1, 2), 3)) == "(R^1 × R^2) × R^3"
