"""Reverse-mode engine: primitives, graph evaluation, lenses, training steps.

Derivative values are pitted against closed forms where one exists and
against central finite differences otherwise.  The MLP forward pass is
re-implemented with straight numpy as an independent oracle.
"""

import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paralens import checks, smooth_autodiff
from paralens.checks import check_gradient_descent_lens, check_weight_tying, fd_gradient, rel_close
from paralens.errors import CompositionError, NumericError
from paralens.demos import run_gan, run_linreg, run_mlp
from paralens.lens_core import Lens, LensObj, compile_make, lens_id, lens_tensor
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
    const = smooth_autodiff.Primitive("const", (), (), 2, lambda: np.array([1.0, 2.0]), lambda ins, c, dst: ())
    b = GraphBuilder(in_dim=2)
    f = b.build(b.node(PRIMITIVES["mul"](2), b.node(const), b.input()))
    y, tape = forward_eval(f, np.zeros(0), np.array([3.0, 4.0]))
    assert np.array_equal(y, [3.0, 8.0])
    assert np.array_equal(backward_eval(f, tape, np.ones(2))[1], [1.0, 2.0])


@pytest.mark.parametrize("width", [1, 2])
def test_vjp_cotangent_of_the_wrong_width_names_its_node(width):
    # unchecked, a 1-wide cotangent would broadcast over the 3-wide wire and a
    # 2-wide one would fail inside numpy; the wire is sole, so it offers a destination
    offered = []
    short = smooth_autodiff.Primitive("neg", (3,), (3,), 3, lambda a: -a, lambda ins, c, dst: offered.append(dst) or (-c[:width],))
    f = SmoothMap(0, 3, 3, (Node("short", short, (Wire("input", 0, 3),)),), Wire("short", 0, 3))
    _, tape = forward_eval(f, np.zeros(0), np.ones(3))
    with pytest.raises(NumericError, match=rf"node 'short'.*shape \({width},\).*dimension 3"):
        backward_eval(f, tape, np.ones(3))
    assert [d.shape for d in offered[0]] == [(3,)]


# -- primitive derivatives against closed forms -------------------------


def test_linear_vjp_by_hand():
    prim = PRIMITIVES["linear"](2, 2)
    w = np.array([1.0, 2.0, 3.0, 4.0])  # [[1,2],[3,4]] row-major
    x = np.array([5.0, 6.0])
    assert np.allclose(prim.forward(w, x), [17.0, 39.0])
    dw, dx = prim.vjp((w, x), np.array([1.0, 1.0]))
    assert np.allclose(dw, [5.0, 6.0, 5.0, 6.0])
    assert np.allclose(dx, [4.0, 6.0])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_linear_weight_cotangent_is_the_outer_product_bit_for_bit(n, m, seed):
    rng = np.random.default_rng(seed)
    w, x, c = rng.normal(size=m * n), rng.normal(size=n), rng.normal(size=m)
    dw, _ = PRIMITIVES["linear"](n, m).vjp((w, x), c)
    assert np.array_equal(dw, np.outer(c, x).ravel())


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
    """A graph over every primitive, wires fanning out as slices of ports and of node outputs; in
    about half of them, each port wire is a fresh slice, so that sole wires tile the ports."""
    tiled = draw(st.booleans())
    dims = {"param": 0, "input": 0} if tiled else {"param": draw(st.integers(1, 9)), "input": draw(st.integers(1, 4))}
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
            fits = sorted(src for src, dim in dims.items() if dim >= want or tiled and src in ("param", "input"))
            if not fits:
                dims["param"] += want
                fits = ["param"]
            # a node often reads two slices of one source, where their cotangents meet
            if not (src in fits and draw(st.booleans())):
                src = draw(st.sampled_from(fits))
            if tiled and src in ("param", "input"):
                lo = dims[src]
                dims[src] += want
            else:
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
    return SmoothMap(dims["param"], dims["input"], hi - lo, tuple(nodes), Wire(out.src, lo, hi))


def _poison(f: SmoothMap):
    """Free nan-filled arrays of the sizes of ``f``'s cotangent buffers: numpy's cache of small
    blocks hands them to the next arrays of those sizes, where a coordinate nothing writes shows."""
    junk = [np.full(d, np.nan) for d in f.plan[2] * 2]
    del junk


@settings(max_examples=300, deadline=None)
@given(f=_graphs(), seed=st.integers(0, 2**32 - 1))
def test_generated_legs_match_a_per_node_interpreter(f, seed):
    rng = np.random.default_rng(seed)
    p, x, dy = rng.uniform(-1, 1, f.param_dim), rng.uniform(-1, 1, f.in_dim), rng.uniform(-1, 1, f.out_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        values, want_y, want_inputs, want_dp, want_dx = _interpret(f, p, x, dy)
    assume(all(np.isfinite(v).all() for v in (values, want_dp, want_dx)))
    y, tape = forward_eval(f, p, x)
    _poison(f)
    dp, dx = backward_eval(f, tape, dy)
    assert np.array_equal(y, want_y)
    assert len(tape.node_inputs) == len(want_inputs)
    for got, want in zip(tape.node_inputs, want_inputs):
        assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(dp, want_dp) and np.array_equal(dx, want_dx)


def test_unread_coordinates_keep_a_zero_cotangent():
    # parameters 0 and 4, input 3 and the third output of n0 are read by no wire
    n0 = Node("n0", PRIMITIVES["mul"](3), (Wire("param", 1, 4), Wire("input", 0, 3)))
    n1 = Node("n1", PRIMITIVES["neg"](2), (Wire("n0", 0, 2),))
    f = SmoothMap(5, 4, 2, (n0, n1), Wire("n1", 0, 2))
    p, x, dy = np.arange(1.0, 6.0), np.arange(1.0, 5.0), np.array([1.0, 2.0])
    for _ in range(3):
        _, tape = forward_eval(f, p, x)
        _poison(f)
        dp, dx = backward_eval(f, tape, dy)
        assert np.array_equal(dp, [0.0, -1.0, -4.0, 0.0, 0.0]) and np.array_equal(dx, [-2.0, -6.0, 0.0, 0.0])


def test_overlapping_reads_of_one_parameter_slice_sum_their_cotangents():
    # n0 and n1 meet at parameter 1; n1 is the only reader of parameter 2
    n0 = Node("n0", PRIMITIVES["mul"](2), (Wire("param", 0, 2), Wire("input", 0, 2)))
    n1 = Node("n1", PRIMITIVES["mul"](2), (Wire("param", 1, 3), Wire("n0", 0, 2)))
    f = SmoothMap(3, 2, 2, (n0, n1), Wire("n1", 0, 2))
    p, x, dy = np.array([2.0, 3.0, 5.0]), np.array([7.0, 11.0]), np.array([1.0, -1.0])
    want = _interpret(f, p, x, dy)
    for _ in range(3):
        _, tape = forward_eval(f, p, x)
        _poison(f)
        dp, dx = backward_eval(f, tape, dy)
        assert np.array_equal(dp, want[3]) and np.array_equal(dx, want[4])
        assert np.array_equal(dp, [21.0, -55.0 + 14.0, -33.0])


def _with_linear_vjp(f: SmoothMap, wrap) -> SmoothMap:
    """``f`` with each ``linear`` node's ``vjp`` replaced by ``wrap(vjp)``."""
    nodes = tuple(Node(n.name, replace(n.prim, vjp=wrap(n.prim.vjp)), n.inputs) if n.prim.name == "linear" else n for n in f.nodes)
    return SmoothMap(f.param_dim, f.in_dim, f.out_dim, nodes, f.output)


def test_a_vjp_that_ignores_its_destinations_gives_the_same_cotangents():
    f = sqerr_head(mlp_map((3, 4, 2)))
    ignoring = _with_linear_vjp(f, lambda vjp: lambda ins, c, dst: vjp(ins, c))
    rng = np.random.default_rng(4)
    p, x = rng.uniform(-1, 1, f.param_dim), rng.uniform(-1, 1, f.in_dim)
    for _ in range(3):
        got = []
        for g in (f, ignoring):
            _, tape = forward_eval(g, p, x)
            _poison(g)
            got.append(backward_eval(g, tape, np.ones(1)))
        assert all(np.array_equal(a, b) for a, b in zip(*got))


def test_linear_writes_its_weight_cotangent_in_place_on_a_step():
    f = sqerr_head(mlp_map((8, 64, 64, 1)))
    seen = []

    def spied(vjp):
        def spy(ins, c, dst):
            dw, dx = vjp(ins, c, dst)
            seen.append(dw is dst[0] and np.array_equal(dw, np.outer(c, ins[1]).ravel()))
            return dw, dx

        return spy

    rng = np.random.default_rng(5)
    p, x = rng.uniform(-0.2, 0.2, f.param_dim), rng.uniform(-1, 1, f.in_dim)
    steps = []
    for g in (f, _with_linear_vjp(f, spied)):
        model = reparametrise(apply_R(g), gd_lens(0.01, g.param_dim))
        steps.append(train_step(model, p, x, unit_loss_costate()))
    assert seen == [True] * 3
    assert np.array_equal(steps[0][0], steps[1][0]) and steps[0][1] == steps[1][1]
    # and it is a plain numpy step, to rounding: the outer products laid out as the parameters are
    (w0, b0, w1, b1, w2, b2), (xs, t) = np.split(p, np.cumsum([512, 64, 4096, 64, 64])), np.split(x, [8])
    h0 = np.tanh(w0.reshape(64, 8) @ xs + b0)
    h1 = np.tanh(w1.reshape(64, 64) @ h0 + b1)
    e2 = 2.0 * (w2.reshape(1, 64) @ h1 + b2 - t)
    e1 = (w2.reshape(1, 64).T @ e2) * (1.0 - h1 * h1)
    e0 = (w1.reshape(64, 64).T @ e1) * (1.0 - h0 * h0)
    grad = np.concatenate([np.outer(e0, xs).ravel(), e0, np.outer(e1, h0).ravel(), e1, np.outer(e2, h1).ravel(), e2])
    assert rel_close(steps[0][0], p - 0.01 * grad, rtol=1e-12)


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


def _tanh_first_graph():
    # tanh(inf) = 1, so the node scan alone cannot see an infinite input
    b = GraphBuilder(in_dim=1)
    h = b.node(PRIMITIVES["tanh"](1), b.input(), name="squash")
    return b.build(b.node(PRIMITIVES["mul"](1), h, b.param(1), name="scale"))


@pytest.mark.parametrize("graph", [_mul_graph, _tanh_first_graph])
@pytest.mark.parametrize("bad", ["nan parameter", "inf input"])
def test_get_and_put_reject_non_finite_inputs(graph, bad):
    f = graph()
    p, x, dy = np.full(f.param_dim, 0.5), np.full(f.in_dim, 0.5), np.ones(f.out_dim)
    if bad == "nan parameter":
        p[-1] = np.nan
    else:
        x[-1] = np.inf
    lens = apply_R(f).carrier
    chain = para_compose(apply_R(f), apply_R(f))
    assert chain.params.fwd == (f.param_dim, f.param_dim)
    entries = [
        lambda: lens.get(Pair((p, x))),
        lambda: lens.put(Pair((Pair((p, x)), dy))),
        lambda: chain.carrier.put(Pair((Pair((Pair((p, p)), x)), dy))),
    ]
    for entry in entries:
        with pytest.raises(NumericError, match="non-finite"):
            entry()


def test_apply_r_legs_neither_convert_nor_scan_their_inputs(monkeypatch):
    def refused(*args):
        raise AssertionError("as_vector called")

    f = _mul_graph()
    lens = apply_R(f).carrier
    monkeypatch.setattr(smooth_autodiff, "as_vector", refused)
    y, tape = lens.forward(Pair((np.array([2.0, 3.0]), np.array([5.0, 7.0]))))
    dp, dx = lens.backward(tape, np.ones(2))
    assert np.array_equal(y, [10.0, 21.0])
    assert np.array_equal(dp, [5.0, 7.0]) and np.array_equal(dx, [2.0, 3.0])


@pytest.mark.parametrize("bad", [np.ones(3), np.array([1.0, np.nan]), [1.0, 1.0, 1.0]])
def test_the_leaf_backward_checks_its_tape_and_cotangent(bad):
    f = _mul_graph()
    lens = apply_R(f).carrier
    _, tape = lens.forward(Pair((np.array([2.0, 3.0]), np.array([5.0, 7.0]))))
    _, other = apply_R(_mul_graph()).carrier.forward(Pair((np.ones(2), np.ones(2))))
    with pytest.raises(CompositionError, match="different graph"):
        lens.backward(other, np.ones(2))
    with pytest.raises(NumericError, match="output cotangent"):
        lens.backward(tape, bad)
    # the rejected cotangent spent nothing
    dp, dx = lens.backward(tape, np.ones(2))
    assert np.array_equal(dp, [5.0, 7.0]) and np.array_equal(dx, [2.0, 3.0])
    with pytest.raises(CompositionError, match="already consumed"):
        lens.backward(tape, np.ones(2))


@pytest.mark.parametrize("where", ["forward", "backward"])
def test_a_put_that_overflows_raises_numeric_error_and_no_warning(where):
    # pytest turns a RuntimeWarning into an error, which pytest.raises would not catch
    f = _mul_graph()
    if where == "forward":
        put, p, match = apply_R(f).carrier.put, np.array([1e308, 1.0]), "node 'n0'"
    else:
        put, p, match = reparametrise(apply_R(f), gd_lens(1e300, 2)).carrier.put, np.ones(2), "smooth map output"
    with pytest.raises(NumericError, match=match):
        put(Pair((Pair((p, np.array([10.0, 1.0]))), np.array([1e10, 1.0]))))


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


# -- who may write a gradient ---------------------------------------------
#
# an optimiser leaf writes its step into the cotangent it is handed; the
# generated leg hands it a gradient that a fresh leaf made and no one else
# holds, and a copy of anything else, so a caller's arrays keep their bytes


def _untouched(*arrays):
    """A check that each of ``arrays`` still holds the bytes it holds now."""
    before = [a.copy() for a in arrays]
    return lambda: all(np.array_equal(a, b) for a, b in zip(arrays, before))


@pytest.mark.parametrize("optimiser, sign", [(gd_lens, -1.0), (ga_lens, 1.0)])
def test_an_optimiser_leaf_alone_writes_no_argument(optimiser, sign):
    p, g = np.array([1.0, 2.0]), np.array([10.0, -4.0])
    lens, kept = optimiser(0.1, 2), _untouched(p, g)
    want = p + sign * 0.1 * g
    assert np.array_equal(lens.put((p, g)), want) and kept()
    assert np.array_equal(lens.backward(lens.forward(p)[1], g), want) and kept()
    assert not np.shares_memory(lens.put((p, g)), g)


def test_a_composite_copies_its_own_cotangent_for_an_optimiser_leaf():
    lens = lens_tensor(gd_lens(0.5, 2), lens_id(SMOOTH, LensObj(3, 3)))
    p, x, g, dx = np.array([1.0, 2.0]), np.zeros(3), np.array([4.0, -2.0]), np.array([1.0, 2.0, 3.0])
    kept = _untouched(p, x, g, dx)
    p_next, dx_out = lens.put(Pair((Pair((p, x)), Pair((g, dx)))))
    assert np.array_equal(p_next, p - 0.5 * g) and np.array_equal(dx_out, dx) and kept()
    p_next, _ = lens.backward(lens.forward(Pair((p, x)))[1], Pair((g, dx)))
    assert np.array_equal(p_next, p - 0.5 * g) and kept()


def test_the_gradient_descent_suite_writes_no_parameters(monkeypatch):
    calls = []

    def spied(model, p, x, costate):
        kept = _untouched(p, x)
        out = train_step(model, p, x, costate)
        calls.append(kept())
        return out

    monkeypatch.setattr(checks, "train_step", spied)
    result = check_gradient_descent_lens()
    assert result.ok, result.detail
    assert calls == [True] * 20


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

    def recorded(x, dim, what="vector"):
        scans.append(what)
        return as_vector(x, dim, what)

    monkeypatch.setattr(smooth_autodiff, "as_vector", recorded)
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    train_step(model, np.full(f.param_dim, 0.1), np.array([0.4, 0.9]), unit_loss_costate())
    assert scans.count("parameter vector") == 1


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
    """Calls of every graph's generated forward and backward legs, whichever entry runs them."""
    counts = {"forward": 0, "backward": 0}
    generate = SmoothMap.legs.func

    def counted(key, leg):
        def wrapper(*args):
            counts[key] += 1
            return leg(*args)

        return wrapper

    def legs(f):
        forward, backward = generate(f)
        return counted("forward", forward), counted("backward", backward)

    # a property outranks a graph's cached legs, so graphs built earlier are counted too
    monkeypatch.setattr(SmoothMap, "legs", property(legs))
    return counts


def test_gan_step_rejects_a_model_not_built_by_gan_model():
    f = sqerr_head(mlp_map((1, 2, 1)))
    model = reparametrise(apply_R(f), gd_lens(0.05, f.param_dim))
    with pytest.raises(CompositionError, match="gan_model"):
        gan_step(model, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))


def test_gan_step_writes_none_of_its_arguments(monkeypatch):
    copies = []
    monkeypatch.setattr(SMOOTH, "copy_elem", lambda x: copies.append(x) or x.copy())
    gen, disc = apply_R(mlp_map((2, 3, 2))), apply_R(mlp_map((2, 3, 1)))
    rng = np.random.default_rng(13)
    pg, pd = rng.uniform(-0.5, 0.5, gen.params.fwd), rng.uniform(-0.5, 0.5, disc.params.fwd)
    z, real = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    kept, model = _untouched(pg, pd, z, real), gan_model(gen, disc, 0.1)
    pg_next, pd_next, _ = gan_step(model, pg, pd, z, real)
    # both optimisers write into gradients the tie and the generator made: nothing is copied
    assert kept() and copies == []
    assert not any(np.shares_memory(a, b) for a in (pg_next, pd_next) for b in (pg, pd, z, real))


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
    # pairing keeps references and the descent writes its step into the
    # gradient the backward leg made, so at its peak a step holds that one
    # parameter-sized array and a few layer-sized ones, never a copy of p
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
    assert peak <= 1.5 * p.nbytes, f"peak {peak / p.nbytes:.2f} parameter vectors"
    assert not np.shares_memory(p_next, p)


@pytest.mark.parametrize("dims, steps", [((8, 64, 64, 1), 300), ((8, 1024, 1024, 1), 3)])
def test_descent_steps_have_the_bytes_of_p_minus_alpha_g(dims, steps):
    f, alpha = sqerr_head(mlp_map(dims)), 1e-3
    model, costate = reparametrise(apply_R(f), gd_lens(alpha, f.param_dim)), unit_loss_costate()
    rng = np.random.default_rng(12)
    p = rng.uniform(-0.05, 0.05, f.param_dim)
    for _ in range(steps):
        data = rng.uniform(-1.0, 1.0, f.in_dim)
        _, tape = forward_eval(f, p, data)
        want = p - alpha * backward_eval(f, tape, np.ones(1))[0]
        kept = _untouched(p, data)
        p_next, _ = train_step(model, p, data, costate)
        assert np.array_equal(p_next, want) and kept()
        p = p_next


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
