"""Reverse-mode differentiation on small vector DAGs, packaged as lenses.

A :class:`SmoothMap` is a graph of primitive vector operations with two
designated source ports (a parameter vector and an input vector) and one
output wire.  Its constructor checks it and lays it out as a plan, every
wire a literal slice of a port or of one buffer of node outputs.  A graph's
two legs are straight-line code generated once per plan and bound to it
when first evaluated: the forward leg calls each primitive in topological
order, scans the value buffer for non-finite entries once (naming the
first node that produced one) and saves per-node inputs on a tape; the
backward leg runs the vector-Jacobian products in reverse.  Each cotangent
is written once, where it lives: a wire that no other write meets is
assigned, and each ``vjp`` is offered its sole wires' slices as
destinations, uninitialised and write-only, which it may fill and return
(``linear`` writes its weight cotangent so).  Where wires fan out, their
cotangents are summed in place into a zeroed buffer.

:func:`apply_R` turns a graph into a parametrised lens over the smooth base
whose legs are the graph's: its forward leg is evaluation and leaves the
tape as its residual, its backward leg is the gradient computation that
consumes that tape.  Gradient descent, ascent and weight tying are then
ordinary lenses attached to the parameter port by reparametrisation, and a
GAN update step is nothing but a composite lens run forward and backward
once.

A carrier is a dimension or a pair of carriers.  An element of a pair is a
:class:`Pair` of its factors' elements, so pairing and splitting copy no array.
Inputs are converted and scanned for non-finite entries once, at the edge:
by ``train_step``, ``gan_step``, ``forward_eval`` and ``backward_eval``, and
by a :class:`SmoothFn` (a lens's ``get`` or ``put``, say), which also checks
its output.  Interior edges are not rescanned, and each entry, not each leg,
turns numpy's overflow and invalid-value warnings off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import CompositionError, NumericError
from .lens_core import (
    FRESH,
    OWNS,
    Base,
    Carrier,
    Lens,
    LensObj,
    compile_make,
    lens_compose,
    lens_id,
    lens_tensor,
    rewire,
    unit_obj,
)
from .para_optic import (
    ParaLens,
    para_compose,
    para_tensor,
    reparametrise,
)

Vector = np.ndarray
_F64 = np.dtype(np.float64)


class Pair(tuple):
    """An element of a product carrier; ``nbytes`` counts the bytes pairing copies."""

    __slots__ = ()
    nbytes = 0


def as_vector(x, dim: Carrier, what: str = "vector"):
    """Validate and convert to an element of ``dim``: pairs of finite 1-D float64 arrays."""
    if type(dim) is tuple:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise NumericError(f"{what} is not a pair of {SMOOTH.describe(dim)}")
        return Pair((as_vector(x[0], dim[0], what), as_vector(x[1], dim[1], what)))
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise NumericError(f"{what} is not a vector of R^{dim}") from None
    if arr.shape != (dim,):
        raise NumericError(f"{what} has shape {arr.shape}, expected ({dim},)")
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite entries")
    return arr


def _shaped(x, c: Carrier) -> bool:
    """Whether ``x`` needs no conversion to be an element of ``c``, values aside."""
    if type(c) is tuple:
        return isinstance(x, tuple) and len(x) == 2 and _shaped(x[0], c[0]) and _shaped(x[1], c[1])
    return type(x) is np.ndarray and x.shape == (c,) and x.dtype is _F64


@dataclass(frozen=True)
class SmoothFn:
    """A smooth map between carriers, stored as a procedure; inputs and outputs are checked, shapes and values."""

    dom: Carrier
    cod: Carrier
    fn: Callable

    def __call__(self, x):
        if not _shaped(x, self.dom):
            raise CompositionError(f"input is not an element of {SMOOTH.describe(self.dom)} of float64 arrays")
        as_vector(x, self.dom, "input")  # rejects non-finite entries, as the output's conversion does
        with np.errstate(over="ignore", invalid="ignore"):
            return as_vector(self.fn(x), self.cod, "smooth map output")


class SmoothBase(Base):
    """Carriers are dimensions and pairs of carriers, morphisms are :class:`SmoothFn` procedures.

    Pairing keeps both factors, so the unit carrier is dimension zero and no
    element is copied.  Table equality and element enumeration are undefined.
    """

    name = "smooth"

    def unit(self) -> int:
        return 0

    def pair(self, a: Carrier, b: Carrier) -> tuple:
        return (a, b)

    def contains(self, c: Carrier, x) -> bool:
        try:
            as_vector(x, c)
        except NumericError:
            return False
        return True

    def describe(self, c: Carrier, nested: bool = False) -> str:
        if type(c) is not tuple:
            return f"R^{c}"
        text = f"{self.describe(c[0], True)} × {self.describe(c[1], True)}"
        return f"({text})" if nested else text

    def identity(self, c: Carrier) -> SmoothFn:
        return SmoothFn(c, c, lambda x: x)

    def morphism(self, dom: Carrier, cod: Carrier, fn) -> SmoothFn:
        return SmoothFn(dom, cod, fn)

    def compose(self, f: SmoothFn, g: SmoothFn) -> SmoothFn:
        if f.cod != g.dom:
            raise CompositionError(
                f"cannot compose: {self.describe(f.cod)} does not match {self.describe(g.dom)}"
            )
        return SmoothFn(f.dom, g.cod, lambda x: g(f(x)))

    def product(self, f: SmoothFn, g: SmoothFn) -> SmoothFn:
        # the product's edge checks that its input is a pair of the right shapes
        return SmoothFn(self.pair(f.dom, g.dom), self.pair(f.cod, g.cod), lambda xy: Pair((f(xy[0]), g(xy[1]))))

    def unit_elem(self) -> Vector:
        return np.zeros(0)

    def pair_elem(self, x, y) -> Pair:
        return Pair((x, y))

    def split_elem(self, xy) -> tuple:
        if not (isinstance(xy, tuple) and len(xy) == 2):
            raise CompositionError("element is not a pair")
        return xy

    def copy_elem(self, x):
        return Pair(map(self.copy_elem, x)) if isinstance(x, tuple) else np.array(x, dtype=np.float64)


SMOOTH = SmoothBase()


def flat_dim(c: Carrier) -> int:
    """The number of coordinates of an element of ``c``."""
    return flat_dim(c[0]) + flat_dim(c[1]) if type(c) is tuple else c


def split_flat(c: Carrier, v):
    """The element of ``c`` whose leaves, left to right, concatenate to ``v``."""
    if type(c) is not tuple:
        return as_vector(v, c, "flat vector")
    k = flat_dim(c[0])
    return Pair((split_flat(c[0], v[:k]), split_flat(c[1], v[k:])))


def join_flat(x) -> Vector:
    """The concatenation of an element's leaves, left to right."""
    if isinstance(x, tuple):
        return np.concatenate([join_flat(x[0]), join_flat(x[1])])
    return np.asarray(x, dtype=np.float64)


# -- primitives ---------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """One differentiable vector operation.

    ``forward`` maps input arrays to the output array; ``vjp`` maps the
    saved inputs, an output cotangent and one destination per input to one
    cotangent per input, and is linear in the cotangent.  A destination is
    ``None`` or an uninitialised, write-only view of the input's width that
    the cotangent may be written into; returning the view itself says it
    was written.  A ``vjp`` may ignore its destinations, which default to
    ``None``.
    """

    name: str
    args: tuple[int, ...]
    in_dims: tuple[int, ...]
    out_dim: int
    forward: Callable[..., Vector]
    vjp: Callable[[tuple[Vector, ...], Vector, tuple[Vector | None, ...]], tuple[Vector, ...]]


def linear(n: int, m: int) -> Primitive:
    """Dense matrix-vector product; the matrix rides in row-major as input 0."""

    def fwd(w, x):
        return w.reshape(m, n) @ x

    def vjp(ins, c, dst=(None, None)):
        w, x = ins
        # d(Wx)/dW is the outer product c xᵀ, written into its destination where one is offered;
        # d(Wx)/dx is Wᵀc
        dw = np.empty(m * n) if dst[0] is None else dst[0]
        np.multiply(c[:, None], x, out=dw.reshape(m, n))
        return dw, w.reshape(m, n).T @ c

    return Primitive("linear", (n, m), (m * n, n), m, fwd, vjp)


def add(n: int) -> Primitive:
    return Primitive(
        "add", (n,), (n, n), n, lambda a, b: a + b, lambda ins, c, dst=None: (c, c)
    )


def mul(n: int) -> Primitive:
    def vjp(ins, c, dst=None):
        a, b = ins
        return c * b, c * a

    return Primitive("mul", (n,), (n, n), n, lambda a, b: a * b, vjp)


def neg(n: int) -> Primitive:
    return Primitive("neg", (n,), (n,), n, lambda a: -a, lambda ins, c, dst=None: (-c,))


def tanh(n: int) -> Primitive:
    def vjp(ins, c, dst=None):
        t = np.tanh(ins[0])
        return (c * (1.0 - t * t),)

    return Primitive("tanh", (n,), (n,), n, lambda a: np.tanh(a), vjp)


def relu(n: int) -> Primitive:
    # subgradient 0 at the kink: x > 0 strictly passes the cotangent
    def vjp(ins, c, dst=None):
        return (np.where(ins[0] > 0.0, c, 0.0),)

    return Primitive("relu", (n,), (n,), n, lambda a: np.maximum(a, 0.0), vjp)


def sigmoid(n: int) -> Primitive:
    def fwd(a):
        return 1.0 / (1.0 + np.exp(-a))

    def vjp(ins, c, dst=None):
        s = fwd(ins[0])
        return (c * s * (1.0 - s),)

    return Primitive("sigmoid", (n,), (n,), n, fwd, vjp)


def sum_reduce(n: int) -> Primitive:
    return Primitive(
        "sum",
        (n,),
        (n,),
        1,
        lambda a: np.array([a.sum()]),
        lambda ins, c, dst=None: (np.full(n, c[0]),),
    )


def sqerr(n: int) -> Primitive:
    """Summed squared error between its two inputs."""

    def vjp(ins, c, dst=None):
        d = 2.0 * (ins[0] - ins[1]) * c[0]
        return d, -d

    return Primitive(
        "sqerr", (n,), (n, n), 1, lambda a, b: np.array([((a - b) ** 2).sum()]), vjp
    )


PRIMITIVES: dict[str, Callable[..., Primitive]] = {
    "linear": linear,
    "add": add,
    "bias": add,
    "mul": mul,
    "neg": neg,
    "tanh": tanh,
    "relu": relu,
    "sigmoid": sigmoid,
    "sum": sum_reduce,
    "sqerr": sqerr,
}


# -- graphs -------------------------------------------------------------

@dataclass(frozen=True)
class Wire:
    """A slice of a port or of an earlier node's output."""

    src: str
    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise CompositionError(f"bad wire slice [{self.lo}:{self.hi}]")

    @property
    def dim(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class Node:
    name: str
    prim: Primitive
    inputs: tuple[Wire, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))


@dataclass(frozen=True)
class SmoothMap:
    """A DAG of primitives with parameter/input ports and one output wire.

    Nodes must be listed in topological order (each wire refers to a port or
    an earlier node), every node must feed into the output, and all wire
    dimensions must line up; the constructor checks all of it and compiles
    the graph into its ``plan``.
    """

    param_dim: int
    in_dim: int
    out_dim: int
    nodes: tuple[Node, ...]
    output: Wire
    # (steps, output, dims), the generated legs' cache key: a step is (inputs, lo, hi),
    # each input and the output a (slot, lo, hi) slice of buffer 0 (parameters), 1
    # (input) or 2 (node outputs, node k's at its [lo:hi]), whose sizes are ``dims``
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for d, what in ((self.param_dim, "param_dim"), (self.in_dim, "in_dim"), (self.out_dim, "out_dim")):
            if not isinstance(d, int) or d < 0:
                raise CompositionError(f"{what} must be a non-negative integer")
        # source -> (slot, offset, dimension)
        at = {"param": (0, 0, self.param_dim), "input": (1, 0, self.in_dim)}
        steps, width = [], 0
        for node in self.nodes:
            if node.name in at:
                kind = "reserved" if node.name in ("param", "input") else "duplicate"
                raise CompositionError(f"{kind} node name {node.name!r}")
            if len(node.inputs) != len(node.prim.in_dims):
                raise CompositionError(
                    f"node {node.name!r}: {node.prim.name} takes "
                    f"{len(node.prim.in_dims)} inputs, got {len(node.inputs)}"
                )
            ins = []
            for wire, want in zip(node.inputs, node.prim.in_dims):
                if wire.src not in at:
                    raise CompositionError(
                        f"node {node.name!r}: wire refers to unknown source "
                        f"{wire.src!r} (cycles and forward references are not allowed)"
                    )
                slot, off, dim = at[wire.src]
                if wire.hi > dim:
                    raise CompositionError(
                        f"node {node.name!r}: slice [{wire.lo}:{wire.hi}] exceeds "
                        f"{wire.src!r} of dimension {dim}"
                    )
                if wire.dim != want:
                    raise CompositionError(
                        f"node {node.name!r}: wire {wire.src}[{wire.lo}:{wire.hi}] "
                        f"has dimension {wire.dim}, {node.prim.name} expects {want}"
                    )
                ins.append((slot, off + wire.lo, off + wire.hi))
            steps.append((tuple(ins), width, width + node.prim.out_dim))
            at[node.name] = (2, width, node.prim.out_dim)
            width += node.prim.out_dim
        out = self.output
        if out.src not in at or out.hi > at[out.src][2]:
            raise CompositionError(f"output wire {out} is not resolvable")
        if out.dim != self.out_dim:
            raise CompositionError(
                f"output wire has dimension {out.dim}, expected {self.out_dim}"
            )
        # every node must be an ancestor of the output; a node's users come after it
        used = {out.src}
        for node in reversed(self.nodes):
            if node.name in used:
                used.update(w.src for w in node.inputs)
        unused = [n.name for n in self.nodes if n.name not in used]
        if unused:
            raise CompositionError(f"nodes not feeding the output: {unused}")
        slot, off, _ = at[out.src]
        dims = (self.param_dim, self.in_dim, width)
        object.__setattr__(self, "plan", (tuple(steps), (slot, off + out.lo, off + out.hi), dims))

    @cached_property
    def legs(self) -> tuple[Callable, Callable]:
        """The generated ``forward(p, x)`` and ``backward(saved, dy)``; they hold the nodes, not the graph."""
        return _make_legs(self.plan)(self.nodes, *(fn for n in self.nodes for fn in (n.prim.forward, n.prim.vjp)))


@dataclass
class Tape:
    """Saved per-node inputs from one forward pass, in node order; feeds one backward pass."""

    graph: SmoothMap
    node_inputs: tuple[tuple[Vector, ...], ...]
    spent: bool = False


def _first_non_finite(nodes: Sequence[Node], values: Vector, k: int) -> NumericError | None:
    """The error naming the first of the first ``k`` nodes whose output is non-finite, if any."""
    for node, hi in zip(nodes, np.cumsum([node.prim.out_dim for node in nodes[:k]])):
        if not np.isfinite(values[hi - node.prim.out_dim : hi]).all():
            return NumericError(f"non-finite value at node {node.name!r}")


def _node_output(nodes: Sequence[Node], values: Vector, k: int, out) -> Vector:
    out, dim = np.asarray(out, dtype=np.float64), nodes[k].prim.out_dim
    if out.shape != (dim,):
        msg = f"node {nodes[k].name!r} produced shape {out.shape}, expected ({dim},)"
        raise _first_non_finite(nodes, values, k) or NumericError(msg)
    return out


def _arity(node: Node, out_cots):
    raise NumericError(f"vjp of {node.prim.name} returned {len(out_cots)} cotangents for {len(node.inputs)} inputs")


def _cotangent(node: Node, val, dim: int) -> Vector:
    val = np.asarray(val, dtype=np.float64)
    if val.shape != (dim,):
        raise NumericError(f"vjp at node {node.name!r} returned a cotangent of shape {val.shape} for an input of dimension {dim}")
    return val


_LEG_GLOBALS = dict(Pair=Pair, ndarray=np.ndarray, empty=np.empty, zeros=np.zeros, isfinite=np.isfinite)
_LEG_GLOBALS.update(_first_non_finite=_first_non_finite, _node_output=_node_output, _arity=_arity, _cotangent=_cotangent)


@lru_cache(maxsize=256)
def _make_legs(plan) -> Callable[..., tuple[Callable, Callable]]:
    """``make(nodes, F0, V0, F1, V1, …)``: given the nodes and each one's ``forward`` and ``vjp``, the
    ``forward(p, x)`` and ``backward(saved, dy)`` of every graph whose ``plan`` this is.

    Slices are literals; the legs check neither their arguments nor numpy's error state.  ``forward``
    saves node ``k``'s inputs as ``a{k}`` and scans the value buffer ``v`` once.  ``backward`` runs the
    nodes in reverse and writes each cotangent into its slice of ``dp``, ``dx`` or ``dv``.  A write is
    sole when no other write (a wire's, or the seed ``dy``'s) meets its slice: it assigns, and its
    wire's slice is offered to the ``vjp`` as destination ``d{m}``, which the leg neither checks nor
    copies when the ``vjp`` returns it.  Other writes add in place, nodes in reverse and wires in
    order, into a zeroed buffer; a buffer that sole writes tile exactly starts uninitialised.
    """
    steps, out, dims = plan
    n, ports, cots = len(steps), ("p", "x", "v"), ("dp", "dx", "dv")
    writes = [out, *(w for ins, _, _ in steps for w in ins)]
    sole = {w for q, w in enumerate(writes) if not any(u[0] == w[0] and max(u[1], w[1]) < min(u[2], w[2]) for u in writes[:q] + writes[q + 1 :])}
    alloc = (("zeros", "empty")[sum(w[2] - w[1] for w in sole if w[0] == s) == d] + f"({d})" for s, d in enumerate(dims))

    def view(bufs, s, i, j):
        return bufs[s] if (i, j) == (0, dims[s]) else f"{bufs[s]}[{i}:{j}]"

    def checked(y, dim, fix):
        return [f"if type({y}) is not ndarray or {y}.shape != ({dim},):", f"    {y} = {fix}"]

    saved, fwd = "".join(f"a{k}, " for k in range(n)), [f"v = empty({dims[2]})"]
    for k, (ins, a, b) in enumerate(steps):
        fwd += [f"a{k} = ({''.join(view(ports, *w) + ', ' for w in ins)})", f"y = F{k}(*a{k})"]
        fwd += [*checked("y", b - a, f"_node_output(nodes, v, {k}, y)"), f"v[{a}:{b}] = y"]
    fwd += ["if not isfinite(v).all():", f"    raise _first_non_finite(nodes, v, {n})"]
    seed = [f"{cots[out[0]]}[{out[1]}:{out[2]}] = dy"] if out in sole else [f"t = {view(cots, *out)}", "t += dy"]
    bwd = [f"dp, dx, dv = {', '.join(alloc)}", *seed, f"({saved}) = saved"]
    for k, (ins, a, b) in reversed(list(enumerate(steps))):
        gs, ds = "".join(f"g{m}, " for m in range(len(ins))), "".join(f"d{m}, " if w in sole else "None, " for m, w in enumerate(ins))
        bwd += [f"d{m} = {view(cots, *w)}" for m, w in enumerate(ins) if w in sole]
        bwd += [f"g = V{k}(a{k}, dv[{a}:{b}], ({ds}))", f"({gs}) = g if len(g) == {len(ins)} else _arity(nodes[{k}], g)"]
        for m, w in enumerate(ins):
            check = checked(f"g{m}", w[2] - w[1], f"_cotangent(nodes[{k}], g{m}, {w[2] - w[1]})")
            if w in sole:
                bwd += [f"if g{m} is not d{m}:", *(f"    {line}" for line in (*check, f"d{m}[...] = g{m}"))]
            else:
                bwd += [*check, f"t = {view(cots, *w)}", f"t += g{m}"]
    legs = (("forward(p, x)", fwd, f"{view(ports, *out)}.copy(), ({saved})"), ("backward(saved, dy)", bwd, "Pair((dp, dx))"))
    source = [f"def make(nodes, {''.join(f'F{k}, V{k}, ' for k in range(n))}):"]
    for head, body, tail in legs:
        source += [f"    def {head}:", *(f"        {line}" for line in body), f"        return {tail}"]
    source.append("    return forward, backward")
    return compile_make(source, dict(_LEG_GLOBALS), "<smooth graph>")


def _run_forward(f: SmoothMap, p: Vector, x: Vector) -> tuple[Vector, Tape]:
    """``f``'s forward leg at ``p`` and ``x``, taken as checked: the output and the tape for one backward."""
    y, saved = f.legs[0](p, x)
    return y, Tape(f, saved)


def _run_backward(f: SmoothMap, tape: Tape, dy) -> Pair:
    """``f``'s backward leg, once ``tape`` is found ``f``'s and unspent and ``dy`` a finite cotangent
    of its output; a rejected ``dy`` spends nothing."""
    if tape.graph is not f:
        raise CompositionError("tape was recorded on a different graph")
    if tape.spent:
        raise CompositionError("tape already consumed by a backward pass")
    if not (type(dy) is np.ndarray and dy.dtype is _F64 and dy.shape == (f.out_dim,) and np.isfinite(dy).all()):
        dy = as_vector(dy, f.out_dim, "output cotangent")  # raises, or converts a list handed to backward_eval
    tape.spent = True
    return f.legs[1](tape.node_inputs, dy)


def forward_eval(f: SmoothMap, p, x) -> tuple[Vector, Tape]:
    """Evaluate the graph; returns the output and the tape for one backward.

    ``p`` and ``x`` are converted and scanned here, the node values by the
    leg.  A non-finite value is reported at the first node, in topological
    order, that produced it, even if a later ``tanh`` hides it from the output.
    """
    p = as_vector(p, f.param_dim, "parameter vector")
    x = as_vector(x, f.in_dim, "input vector")
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_forward(f, p, x)


def backward_eval(f: SmoothMap, tape: Tape, dy) -> Pair:
    """Reverse sweep: cotangent of the output to cotangents of both ports.

    Each cotangent a ``vjp`` returns must have the width of its wire.  A
    rejected ``dy`` leaves the tape unspent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _run_backward(f, tape, dy)


def compose_maps(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """Feed ``f``'s output into ``g``.  Parameters concatenate as [g, f].

    The layout is the joined parameter pair ``(g, f)`` of the corresponding
    parametrised composite, so the two routes agree coordinate by coordinate.
    """
    if f.out_dim != g.in_dim:
        raise CompositionError(
            f"cannot compose graphs: output R^{f.out_dim} feeds input R^{g.in_dim}"
        )

    def remap(w: Wire, param_off: int, input_to: Wire | None, prefix: str) -> Wire:
        if w.src == "param":
            return Wire("param", w.lo + param_off, w.hi + param_off)
        if w.src == "input":
            if input_to is None:
                return w
            return Wire(input_to.src, input_to.lo + w.lo, input_to.lo + w.hi)
        return Wire(prefix + w.src, w.lo, w.hi)

    nodes = []
    for node in f.nodes:
        nodes.append(
            Node(
                "a:" + node.name,
                node.prim,
                tuple(remap(w, g.param_dim, None, "a:") for w in node.inputs),
            )
        )
    f_out = remap(f.output, g.param_dim, None, "a:")
    for node in g.nodes:
        nodes.append(
            Node(
                "b:" + node.name,
                node.prim,
                tuple(remap(w, 0, f_out, "b:") for w in node.inputs),
            )
        )
    out = remap(g.output, 0, f_out, "b:")
    return SmoothMap(
        g.param_dim + f.param_dim, f.in_dim, g.out_dim, tuple(nodes), out
    )


class GraphBuilder:
    """Incremental construction with automatic parameter-slice allocation."""

    def __init__(self, in_dim: int):
        self.in_dim = in_dim
        self._param_dim = 0
        self._nodes: list[Node] = []
        self._counter = 0

    def param(self, dim: int) -> Wire:
        w = Wire("param", self._param_dim, self._param_dim + dim)
        self._param_dim += dim
        return w

    def input(self, lo: int = 0, hi: int | None = None) -> Wire:
        return Wire("input", lo, self.in_dim if hi is None else hi)

    def node(self, prim: Primitive, *inputs: Wire, name: str | None = None) -> Wire:
        if name is None:
            name = f"n{self._counter}"
            self._counter += 1
        self._nodes.append(Node(name, prim, tuple(inputs)))
        return Wire(name, 0, prim.out_dim)

    def build(self, output: Wire) -> SmoothMap:
        return SmoothMap(
            self._param_dim, self.in_dim, output.dim, tuple(self._nodes), output
        )


def mlp_map(dims: Sequence[int], activation: str = "tanh") -> SmoothMap:
    """Fully-connected layers with biases; no activation after the last layer."""
    if len(dims) < 2:
        raise CompositionError("an MLP needs at least an input and an output layer")
    if activation not in PRIMITIVES:
        raise CompositionError(f"unknown activation {activation!r}")
    act = PRIMITIVES[activation]
    b = GraphBuilder(dims[0])
    h = b.input()
    for i, (n, m) in enumerate(zip(dims[:-1], dims[1:])):
        h = b.node(linear(n, m), b.param(m * n), h, name=f"lin{i}")
        h = b.node(add(m), h, b.param(m), name=f"bias{i}")
        if i < len(dims) - 2:
            h = b.node(act(m), h, name=f"act{i}")
    return b.build(h)


def sqerr_head(f: SmoothMap) -> SmoothMap:
    """Append a squared-error loss against a target fed after the input.

    The result maps ``(p, x ++ target) ↦ Σ (f(p, x) − target)²``.
    """
    name = "loss"
    taken = {n.name for n in f.nodes}
    while name in taken:
        name += "_"
    target = Wire("input", f.in_dim, f.in_dim + f.out_dim)
    loss = Node(name, sqerr(f.out_dim), (f.output, target))
    return SmoothMap(
        f.param_dim,
        f.in_dim + f.out_dim,
        1,
        f.nodes + (loss,),
        Wire(name, 0, 1),
    )


# -- lenses from graphs -------------------------------------------------


def apply_R(f: SmoothMap) -> ParaLens:
    """The parametrised lens of a graph: evaluate forward, differentiate backward.

    Its carrier runs from ``⟨(pd, n), (pd, n)⟩``: ``get`` maps ``(p, x)`` to
    ``y`` and ``put`` maps ``((p, x), dy)`` to ``(dp, dx)``.  Its legs are the
    graph's, and neither converts nor scans ``(p, x)``: the edge that hands it
    in does.  The forward leg leaves its :class:`Tape` as the residual, which
    one backward leg consumes once it has checked the tape and ``dy``.
    """
    pd, n, m = f.param_dim, f.in_dim, f.out_dim
    px = SMOOTH.pair(pd, n)
    carrier = Lens(SMOOTH, LensObj(px, px), LensObj(m, m), lambda v: _run_forward(f, *v), partial(_run_backward, f), term=FRESH)
    return ParaLens(SMOOTH, (LensObj(pd, pd),), LensObj(n, n), LensObj(m, m), carrier, 0)


def gd_lens(alpha: float, dim: int) -> Lens:
    """Gradient descent as a lens: identity forward, ``(p, g) ↦ p − α·g`` backward, written into ``g``
    (``α·g``, then ``p`` minus it): an ``OWNS`` leaf, handed its own gradient or a copy (see ``lens_core``)."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NumericError("learning rate must be finite")
    obj = LensObj(dim, dim)
    return Lens(SMOOTH, obj, obj, lambda p: (p, p), lambda p, g: np.subtract(p, np.multiply(g, alpha, out=g), out=g), term=OWNS)


def ga_lens(alpha: float, dim: int) -> Lens:
    """Gradient ascent: descent with the sign of the step flipped."""
    return gd_lens(-float(alpha), dim)


def copy_lens(dim: int) -> Lens:
    """Weight tying: ``p ↦ (p, p)`` forward, ``(p, (ga, gb)) ↦ ga + gb`` backward."""
    dbl = LensObj((dim, dim), (dim, dim))
    return Lens(SMOOTH, LensObj(dim, dim), dbl, lambda p: (Pair((p, p)), None), lambda _, g: g[0] + g[1], term=FRESH)


def unit_loss_costate() -> Lens:
    """The costate that closes a scalar loss: backward constantly one, with no :class:`SmoothFn` to check."""
    unit = SMOOTH.unit_elem()
    return Lens(SMOOTH, LensObj(1, 1), unit_obj(SMOOTH), lambda _: (unit, None), lambda *_: np.ones(1))


def train_step(model: ParaLens, p, x, loss_costate: Lens) -> tuple[Vector, float]:
    """One optimisation step of a lens already reparametrised by an optimiser.

    Runs the forward leg once, reads the loss off it, seeds the backward
    leg through ``loss_costate``'s legs (constantly one for the usual loss)
    and reads the updated parameters off the parameter port.  Returns
    ``(p_next, loss)``.  ``p`` and ``x`` are converted and scanned here,
    once; the graphs inside scan only their node values.
    """
    if model.base is not SMOOTH:
        raise CompositionError("train_step expects a smooth-base lens")
    if model.dst != LensObj(1, 1):
        raise CompositionError(
            f"train_step expects a scalar loss output, got {SMOOTH.describe(model.dst.fwd)}"
        )
    if loss_costate.src != model.dst:
        raise CompositionError("loss costate does not match the model output")
    p = as_vector(p, model.params.fwd, "parameter vector")
    x = as_vector(x, model.src.fwd, "input vector")
    with np.errstate(over="ignore", invalid="ignore"):  # the next step rejects non-finite parameters
        loss_vec, residual = model.carrier.forward(Pair((p, x)))
        loss = float(loss_vec[0])
        if not np.isfinite(loss):
            raise NumericError("loss is non-finite")
        dy = loss_costate.backward(loss_costate.forward(loss_vec)[1], SMOOTH.unit_elem())
        return model.carrier.backward(residual, dy)[0], loss


def gan_model(gen: ParaLens, disc: ParaLens, alpha: float) -> ParaLens:
    """The adversarial update lens of a generator and a weight-tied discriminator.

    The fake branch scores ``disc(gen(z))``, the real branch scores
    ``disc(real)``; one discriminator parameter vector is copied into both
    branches on the way forward and the two gradients are summed on the way
    back.  The generator port descends while the tied discriminator port
    ascends.  Parameters are ``(p_disc, p_gen)``, inputs ``(z, real)``.
    """
    if gen.base is not SMOOTH or disc.base is not SMOOTH:
        raise CompositionError("gan_model expects smooth-base lenses")
    if disc.dst != LensObj(1, 1):
        raise CompositionError("discriminator must produce a scalar score")
    pg, pd = gen.params.fwd, disc.params.fwd
    # params ((disc, gen), disc), the layout the tie below produces
    both = para_tensor(para_compose(gen, disc), disc)
    d, g = LensObj(pd, pd), LensObj(pg, pg)
    tie = lens_compose(
        lens_tensor(copy_lens(pd), lens_id(SMOOTH, g)),
        rewire(SMOOTH, [d, d, g], ((0, 1), 2), ((0, 2), 1)),
    )
    optimisers = lens_tensor(ga_lens(alpha, pd), gd_lens(alpha, pg))
    return reparametrise(both, lens_compose(optimisers, tie))


def gan_step(
    model: ParaLens, p_gen, p_disc, z, real
) -> tuple[Vector, Vector, tuple[float, float]]:
    """One adversarial update through a :func:`gan_model`.

    Both scores are read off one forward leg and fed backward with
    cotangent one, so the discriminator pushes both scores up and the
    generator pulls the fake score down.  A step makes 3 forward and 3
    backward graph evaluations.  Returns
    ``(p_gen_next, p_disc_next, (d_fake, d_real))``.
    """
    if model.base is not SMOOTH or model.dst != LensObj((1, 1), (1, 1)) or type(model.params.fwd) is not tuple:
        raise CompositionError("gan_step expects a lens built by gan_model")
    (pd, pg), (zd, xd) = model.params.fwd, model.src.fwd
    p_gen = as_vector(p_gen, pg, "generator parameters")
    p_disc = as_vector(p_disc, pd, "discriminator parameters")
    z = as_vector(z, zd, "latent vector")
    real = as_vector(real, xd, "real sample")
    with np.errstate(over="ignore", invalid="ignore"):  # as in train_step
        (d_fake, d_real), residual = model.carrier.forward(Pair((Pair((p_disc, p_gen)), Pair((z, real)))))
        (p_disc_next, p_gen_next), _ = model.carrier.backward(residual, Pair((np.ones(1), np.ones(1))))
    return p_gen_next, p_disc_next, (float(d_fake[0]), float(d_real[0]))
