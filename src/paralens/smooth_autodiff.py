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
(``linear`` and ``affine`` write their weight cotangents so).  Where wires
fan out, their cotangents are summed in place into a zeroed buffer.

:func:`apply_R` turns a graph into a parametrised lens over the smooth base
whose legs are the graph's: its forward leg is evaluation and leaves the
tape as its residual, its backward leg is the gradient computation that
consumes that tape.  Gradient descent, ascent and weight tying are then
ordinary lenses attached to the parameter port by reparametrisation, and
every update, a least-squares step or a GAN's, is one :func:`train_step`:
the lens closed by a costate into the unit and run forward and backward once.

A carrier is a dimension or a pair of carriers.  An element of a pair is a
:class:`Pair` of its factors' elements, so pairing and splitting copy no array.
Inputs are converted and scanned for non-finite entries once, and only at an
edge: ``train_step``, ``forward_eval``, ``backward_eval`` or a :class:`SmoothFn`
(a lens's ``get`` or ``put``, say), which also checks its output; an error
names a pair's factors by position.  Interior edges are neither converted nor
rescanned, and each entry, not each leg, turns numpy's overflow and
invalid-value warnings off.
"""

from __future__ import annotations

import math
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
_every = np.logical_and.reduce  # ``ndarray.all``'s kernel, without its Python-level wrapper


class Pair(tuple):
    """An element of a product carrier; ``nbytes`` counts the bytes pairing copies."""

    __slots__ = ()
    nbytes = 0


def as_vector(x, dim: Carrier, what: str = "vector"):
    """Validate and convert to an element of ``dim``: pairs of finite 1-D float64 arrays.

    An error names a pair's factors by position: ``{what}[0]``, ``{what}[1]``.
    """
    if type(dim) is tuple:
        if not (isinstance(x, tuple) and len(x) == 2):
            raise NumericError(f"{what} is not a pair of {SMOOTH.describe(dim)}")
        return Pair((as_vector(x[0], dim[0], f"{what}[0]"), as_vector(x[1], dim[1], f"{what}[1]")))
    if not (type(x) is np.ndarray and x.dtype is _F64):
        try:
            x = np.asarray(x)
            if x.dtype.kind in "cSUmMV":  # complex, strings, bytes, datetimes and records are no reals
                raise TypeError
            x = x.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise NumericError(f"{what} is not a vector of R^{dim}") from None
    if x.shape != (dim,):
        raise NumericError(f"{what} has shape {x.shape}, expected ({dim},)")
    if not _every(np.isfinite(x)):
        raise NumericError(f"{what} contains non-finite entries")
    return x


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
_UNIT_OBJ, _UNIT = unit_obj(SMOOTH), SMOOTH.unit_elem()  # every step shares them
_UNIT.flags.writeable = False


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

    ``forward`` maps input arrays to an ndarray of width ``out_dim``; ``vjp`` maps the saved inputs, an
    output cotangent and one destination per input to one ndarray per input, of that input's width, and
    is linear in the cotangent.  Anything else raises, naming the node; nothing is converted.  A
    destination is ``None`` or an uninitialised, write-only view of the input's width that the cotangent
    may be written into; returning the view itself says it was written.  A ``vjp`` may ignore its
    destinations, which default to ``None``.
    """

    name: str
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

    return Primitive("linear", (m * n, n), m, fwd, vjp)


def affine(n: int, m: int) -> Primitive:
    """A dense layer ``Wx + b``: input 0 is ``[W row-major, b]``, the matrix then the bias."""
    k = m * n

    def fwd(wb, x):
        return wb[:k].reshape(m, n) @ x + wb[k:]

    def vjp(ins, c, dst=(None, None)):
        wb, x = ins
        # d/d[W, b] is [c xᵀ, c], written into its destination where one is offered; d/dx is Wᵀc
        dwb = np.empty(k + m) if dst[0] is None else dst[0]
        np.multiply(c[:, None], x, out=dwb[:k].reshape(m, n))
        dwb[k:] = c
        return dwb, wb[:k].reshape(m, n).T @ c

    return Primitive("affine", (k + m, n), m, fwd, vjp)


def add(n: int) -> Primitive:
    return Primitive(
        "add", (n, n), n, lambda a, b: a + b, lambda ins, c, dst=None: (c, c)
    )


def mul(n: int) -> Primitive:
    def vjp(ins, c, dst=None):
        a, b = ins
        return c * b, c * a

    return Primitive("mul", (n, n), n, lambda a, b: a * b, vjp)


def neg(n: int) -> Primitive:
    return Primitive("neg", (n,), n, lambda a: -a, lambda ins, c, dst=None: (-c,))


def tanh(n: int) -> Primitive:
    def vjp(ins, c, dst=None):
        t = np.tanh(ins[0])
        return (c * (1.0 - t * t),)

    return Primitive("tanh", (n,), n, lambda a: np.tanh(a), vjp)


def relu(n: int) -> Primitive:
    # subgradient 0 at the kink: x > 0 strictly passes the cotangent
    def vjp(ins, c, dst=None):
        return (np.where(ins[0] > 0.0, c, 0.0),)

    return Primitive("relu", (n,), n, lambda a: np.maximum(a, 0.0), vjp)


def sigmoid(n: int) -> Primitive:
    def fwd(a):
        return 1.0 / (1.0 + np.exp(-a))

    def vjp(ins, c, dst=None):
        s = fwd(ins[0])
        return (c * s * (1.0 - s),)

    return Primitive("sigmoid", (n,), n, fwd, vjp)


def sum_reduce(n: int) -> Primitive:
    return Primitive(
        "sum",
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
        "sqerr", (n, n), 1, lambda a, b: np.add.reduce((a - b) ** 2, keepdims=True), vjp
    )


# -- graphs -------------------------------------------------------------

@dataclass(frozen=True)
class Wire:
    """A slice of a port or of an earlier node's output."""

    src: str
    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int) and 0 <= self.lo <= self.hi):
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


def _node_output(nodes: Sequence[Node], values: Vector, k: int, out) -> NumericError:
    """The error for node ``k``'s output, not an ndarray of its width, or for an earlier non-finite node."""
    got, dim = f"{type(out).__name__} of shape {getattr(out, 'shape', None)}", nodes[k].prim.out_dim
    msg = f"node {nodes[k].name!r} produced {got}, expected ndarray of shape ({dim},)"
    return _first_non_finite(nodes, values, k) or NumericError(msg)


def _arity(node: Node, out_cots):
    raise NumericError(f"vjp of {node.prim.name} returned {len(out_cots)} cotangents for {len(node.inputs)} inputs")


def _cotangent(node: Node, val, dim: int) -> NumericError:
    got = f"{type(val).__name__} of shape {getattr(val, 'shape', None)}"
    return NumericError(f"vjp at node {node.name!r} returned {got} as the cotangent of an input of dimension {dim}")


_LEG_GLOBALS = dict(Pair=Pair, ndarray=np.ndarray, empty=np.empty, zeros=np.zeros, isfinite=np.isfinite, every=_every)
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

    def checked(y, dim, error):
        return [f"if type({y}) is not ndarray or {y}.shape != ({dim},):", f"    raise {error}"]

    saved, fwd = "".join(f"a{k}, " for k in range(n)), [f"v = empty({dims[2]})"]
    for k, (ins, a, b) in enumerate(steps):
        fwd += [f"a{k} = ({''.join(view(ports, *w) + ', ' for w in ins)})", f"y = F{k}(*a{k})"]
        fwd += [*checked("y", b - a, f"_node_output(nodes, v, {k}, y)"), f"v[{a}:{b}] = y"]
    fwd += ["if not every(isfinite(v)):", f"    raise _first_non_finite(nodes, v, {n})"]
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
    if not (type(dy) is np.ndarray and dy.dtype is _F64 and dy.shape == (f.out_dim,) and _every(np.isfinite(dy))):
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
    b = GraphBuilder(f.in_dim)
    pg, pf = b.param(g.param_dim), b.param(f.param_dim)
    return b.build(b.inline(g, pg, b.inline(f, pf, b.input(), "a:"), "b:"))


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

    def inline(self, f: SmoothMap, params: Wire, x: Wire, prefix: str = "") -> Wire:
        """Append ``f``'s nodes, named ``prefix + name``, reading ``params`` for
        its parameter port and ``x`` for its input; returns its output's wire."""
        ports = {"param": params, "input": x}

        def wire(w: Wire) -> Wire:
            if w.src in ports:
                port = ports[w.src]
                return Wire(port.src, port.lo + w.lo, port.lo + w.hi)
            return Wire(prefix + w.src, w.lo, w.hi)

        self._nodes += (Node(prefix + n.name, n.prim, tuple(map(wire, n.inputs))) for n in f.nodes)
        return wire(f.output)

    def build(self, output: Wire) -> SmoothMap:
        return SmoothMap(
            self._param_dim, self.in_dim, output.dim, tuple(self._nodes), output
        )


def mlp_map(dims: Sequence[int]) -> SmoothMap:
    """Fully-connected layers with biases, ``tanh`` between layers and no activation after the last.

    Layer ``i`` is one :func:`affine` node ``lin{i}`` reading its parameters, the row-major weight matrix
    and then the bias, layer after layer; but for the last layer, a ``tanh`` node ``act{i}`` follows.
    """
    if len(dims) < 2:
        raise CompositionError("an MLP needs at least an input and an output layer")
    b = GraphBuilder(dims[0])
    h = b.input()
    for i, (n, m) in enumerate(zip(dims[:-1], dims[1:])):
        h = b.node(affine(n, m), b.param(m * n + m), h, name=f"lin{i}")
        if i < len(dims) - 2:
            h = b.node(tanh(m), h, name=f"act{i}")
    return b.build(h)


def sqerr_head(f: SmoothMap) -> SmoothMap:
    """Append a squared-error loss against a target fed after the input.

    The result maps ``(p, x ++ target) ↦ Σ (f(p, x) − target)²``.
    """
    name = "loss"
    taken = {n.name for n in f.nodes}
    while name in taken:
        name += "_"
    b = GraphBuilder(f.in_dim + f.out_dim)
    y = b.inline(f, b.param(f.param_dim), b.input(0, f.in_dim))
    return b.build(b.node(sqerr(f.out_dim), y, b.input(f.in_dim), name=name))


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
    return ParaLens(SMOOTH, (LensObj(pd, pd),), LensObj(n, n), LensObj(m, m), carrier)


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


def unit_loss_costate(boundary: Carrier = 1) -> Lens:
    """The costate that closes ``boundary`` as a loss is closed, by cotangent one in every coordinate:
    its backward leg returns one read-only element, built here, with no :class:`SmoothFn` to check."""
    ones = np.ones(flat_dim(boundary))
    ones.flags.writeable = False  # every step shares it
    ones = split_flat(boundary, ones)
    return Lens(SMOOTH, LensObj(boundary, boundary), _UNIT_OBJ, lambda _: (_UNIT, None), lambda *_: ones)


def train_step(model: ParaLens, p, x, costate: Lens) -> tuple[object, tuple[float, ...]]:
    """One step of a lens already reparametrised by an optimiser, its boundary closed by ``costate``:
    the forward leg once, its output's coordinates, left to right, read off as the scores, then the
    backward leg seeded through ``costate``'s legs.  Returns ``(p_next, scores)``.  ``p`` and ``x``,
    pairs or not, are converted and scanned here, once."""
    if model.base is not SMOOTH:
        raise CompositionError("train_step expects a smooth-base lens")
    if costate.src != model.dst:
        raise CompositionError(f"costate starts at {SMOOTH.describe(costate.src.fwd)}, not the model output {SMOOTH.describe(model.dst.fwd)}")
    if costate.dst != _UNIT_OBJ:
        raise CompositionError(f"costate ends at {SMOOTH.describe(costate.dst.fwd)}, not the unit boundary")
    p = as_vector(p, model.params.fwd, "parameter vector")
    x = as_vector(x, model.src.fwd, "input vector")
    with np.errstate(over="ignore", invalid="ignore"):  # the next step rejects non-finite parameters
        y, residual = model.carrier.forward(Pair((p, x)))
        scores = tuple(join_flat(y).tolist())
        if not all(map(math.isfinite, scores)):
            raise NumericError("a score is non-finite")
        dy = costate.backward(costate.forward(y)[1], _UNIT)
        return model.carrier.backward(residual, dy)[0], scores


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


_GAN_COSTATE = unit_loss_costate((1, 1))


def gan_step(model: ParaLens, p_gen, p_disc, z, real) -> tuple[Vector, Vector, tuple[float, float]]:
    """:func:`train_step` on a :func:`gan_model`'s boundary ``R^1 × R^1``, closed by ones, in 3 forward
    and 3 backward graph evaluations: the discriminator pushes both scores up, the generator pulls the
    fake score down.  Errors name ``p_disc``, ``p_gen``, ``z`` and ``real`` as ``parameter vector[0]``,
    ``[1]``, ``input vector[0]`` and ``[1]``.  Returns ``(p_gen_next, p_disc_next, (d_fake, d_real))``."""
    (p_disc_next, p_gen_next), scores = train_step(model, (p_disc, p_gen), (z, real), _GAN_COSTATE)
    return p_gen_next, p_disc_next, scores
