"""Reverse-mode differentiation on small vector DAGs, packaged as lenses.

A :class:`SmoothMap` is a graph of primitive vector operations with two
designated source ports (a parameter vector and an input vector) and one
output wire.  ``forward_eval`` runs the graph and records a tape of per-node
inputs; ``backward_eval`` replays the tape in reverse, pushing a cotangent
through each primitive's vector-Jacobian product and summing contributions
where wires fan out.

:func:`apply_R` turns a graph into a parametrised lens over the smooth base:
forward is evaluation, backward is gradient computation (forward-then-
backward on demand, so no tape outlives a call).  Gradient descent, ascent
and weight tying are then ordinary lenses attached to the parameter port by
reparametrisation, and a GAN update step is nothing but a composite lens
evaluated once.

All vectors are 1-D float64 arrays; dimensions play the role of carriers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CompositionError,
    NumericError,
    SpecFormatError,
)
from .lens_core import (
    Base,
    Lens,
    LensObj,
    lens_compose,
    lens_id,
    lens_tensor,
    make_costate,
    relabel_lens,
)
from .para_optic import (
    ParaLens,
    ParamObj,
    ShapeLeaf,
    embed_trivial,
    flatten_params,
    para_compose,
    para_tensor,
    reparametrise,
)

Vector = np.ndarray


def as_vector(x, dim: int, what: str = "vector") -> Vector:
    """Validate and convert to a finite 1-D float64 array of length ``dim``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (dim,):
        raise NumericError(f"{what} has shape {arr.shape}, expected ({dim},)")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SmoothFn:
    """A smooth map between vector spaces, stored as a procedure."""

    dom: int
    cod: int
    fn: Callable[[Vector], Vector]

    def __call__(self, x: Vector) -> Vector:
        out = np.asarray(self.fn(x), dtype=np.float64)
        if out.shape != (self.cod,):
            raise NumericError(
                f"smooth map produced shape {out.shape}, expected ({self.cod},)"
            )
        return out


class SmoothBase(Base):
    """Carriers are dimensions, morphisms are :class:`SmoothFn` procedures.

    Pairing is concatenation, so the unit carrier is dimension zero.  Table
    equality and element enumeration are undefined here.
    """

    name = "smooth"

    def unit(self) -> int:
        return 0

    def pair(self, a: int, b: int) -> int:
        return a + b

    def contains(self, c: int, x) -> bool:
        try:
            as_vector(x, c)
        except NumericError:
            return False
        return True

    def describe(self, c: int) -> str:
        return f"R^{c}"

    def identity(self, c: int) -> SmoothFn:
        return SmoothFn(c, c, lambda x: x)

    def morphism(self, dom: int, cod: int, fn) -> SmoothFn:
        return SmoothFn(dom, cod, fn)

    def compose(self, f: SmoothFn, g: SmoothFn) -> SmoothFn:
        if f.cod != g.dom:
            raise CompositionError(
                f"cannot compose: R^{f.cod} does not match R^{g.dom}"
            )
        return SmoothFn(f.dom, g.cod, lambda x: g(f(x)))

    def product(self, f: SmoothFn, g: SmoothFn) -> SmoothFn:
        def both(x):
            return np.concatenate([f(x[: f.dom]), g(x[f.dom :])])

        return SmoothFn(f.dom + g.dom, f.cod + g.cod, both)

    def dom_of(self, f: SmoothFn) -> int:
        return f.dom

    def cod_of(self, f: SmoothFn) -> int:
        return f.cod

    def unit_elem(self) -> Vector:
        return np.zeros(0)

    def pair_elem(self, a: int, b: int, x: Vector, y: Vector) -> Vector:
        return np.concatenate([np.asarray(x, np.float64), np.asarray(y, np.float64)])

    def split_elem(self, a: int, b: int, xy: Vector) -> tuple[Vector, Vector]:
        return xy[:a], xy[a:]


SMOOTH = SmoothBase()


# -- primitives ---------------------------------------------------------


@dataclass(frozen=True)
class Primitive:
    """One differentiable vector operation.

    ``forward`` maps input arrays to the output array; ``vjp`` maps the
    saved inputs and an output cotangent to one cotangent per input, and is
    linear in the cotangent.
    """

    name: str
    args: tuple[int, ...]
    in_dims: tuple[int, ...]
    out_dim: int
    forward: Callable[..., Vector]
    vjp: Callable[[tuple[Vector, ...], Vector], tuple[Vector, ...]]


def linear(n: int, m: int) -> Primitive:
    """Dense matrix-vector product; the matrix rides in row-major as input 0."""

    def fwd(w, x):
        return w.reshape(m, n) @ x

    def vjp(ins, c):
        w, x = ins
        # d(Wx)/dW is the outer product c xᵀ, d(Wx)/dx is Wᵀc
        return np.outer(c, x).ravel(), w.reshape(m, n).T @ c

    return Primitive("linear", (n, m), (m * n, n), m, fwd, vjp)


def add(n: int) -> Primitive:
    return Primitive(
        "add", (n,), (n, n), n, lambda a, b: a + b, lambda ins, c: (c, c)
    )


def mul(n: int) -> Primitive:
    def vjp(ins, c):
        a, b = ins
        return c * b, c * a

    return Primitive("mul", (n,), (n, n), n, lambda a, b: a * b, vjp)


def neg(n: int) -> Primitive:
    return Primitive("neg", (n,), (n,), n, lambda a: -a, lambda ins, c: (-c,))


def tanh(n: int) -> Primitive:
    def vjp(ins, c):
        t = np.tanh(ins[0])
        return (c * (1.0 - t * t),)

    return Primitive("tanh", (n,), (n,), n, lambda a: np.tanh(a), vjp)


def relu(n: int) -> Primitive:
    # subgradient 0 at the kink: x > 0 strictly passes the cotangent
    def vjp(ins, c):
        return (np.where(ins[0] > 0.0, c, 0.0),)

    return Primitive("relu", (n,), (n,), n, lambda a: np.maximum(a, 0.0), vjp)


def sigmoid(n: int) -> Primitive:
    def fwd(a):
        return 1.0 / (1.0 + np.exp(-a))

    def vjp(ins, c):
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
        lambda ins, c: (np.full(n, c[0]),),
    )


def sqerr(n: int) -> Primitive:
    """Summed squared error between its two inputs."""

    def vjp(ins, c):
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

_PORTS = ("param", "input")


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
    dimensions must line up; the constructor checks all of it.
    """

    param_dim: int
    in_dim: int
    out_dim: int
    nodes: tuple[Node, ...]
    output: Wire

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for d, what in ((self.param_dim, "param_dim"), (self.in_dim, "in_dim"), (self.out_dim, "out_dim")):
            if not isinstance(d, int) or d < 0:
                raise CompositionError(f"{what} must be a non-negative integer")
        dims: dict[str, int] = {"param": self.param_dim, "input": self.in_dim}
        for node in self.nodes:
            if node.name in dims:
                kind = "reserved" if node.name in _PORTS else "duplicate"
                raise CompositionError(f"{kind} node name {node.name!r}")
            if len(node.inputs) != len(node.prim.in_dims):
                raise CompositionError(
                    f"node {node.name!r}: {node.prim.name} takes "
                    f"{len(node.prim.in_dims)} inputs, got {len(node.inputs)}"
                )
            for wire, want in zip(node.inputs, node.prim.in_dims):
                if wire.src not in dims:
                    raise CompositionError(
                        f"node {node.name!r}: wire refers to unknown source "
                        f"{wire.src!r} (cycles and forward references are not allowed)"
                    )
                if wire.hi > dims[wire.src]:
                    raise CompositionError(
                        f"node {node.name!r}: slice [{wire.lo}:{wire.hi}] exceeds "
                        f"{wire.src!r} of dimension {dims[wire.src]}"
                    )
                if wire.dim != want:
                    raise CompositionError(
                        f"node {node.name!r}: wire {wire.src}[{wire.lo}:{wire.hi}] "
                        f"has dimension {wire.dim}, {node.prim.name} expects {want}"
                    )
            dims[node.name] = node.prim.out_dim
        out = self.output
        if out.src not in dims or out.hi > dims[out.src]:
            raise CompositionError(f"output wire {out} is not resolvable")
        if out.dim != self.out_dim:
            raise CompositionError(
                f"output wire has dimension {out.dim}, expected {self.out_dim}"
            )
        # every node must be an ancestor of the output
        by_name = {node.name: node for node in self.nodes}
        seen: set[str] = set()
        stack = [out.src]
        while stack:
            name = stack.pop()
            if name in _PORTS or name in seen:
                continue
            seen.add(name)
            stack.extend(w.src for w in by_name[name].inputs)
        unused = [n.name for n in self.nodes if n.name not in seen]
        if unused:
            raise CompositionError(f"nodes not feeding the output: {unused}")


@dataclass
class Tape:
    """Saved per-node inputs from one forward pass; feeds one backward pass."""

    graph: SmoothMap
    node_inputs: dict[str, tuple[Vector, ...]]
    spent: bool = False


def forward_eval(f: SmoothMap, p, x) -> tuple[Vector, Tape]:
    """Evaluate the graph; returns the output and the tape for one backward."""
    p = as_vector(p, f.param_dim, "parameter vector")
    x = as_vector(x, f.in_dim, "input vector")
    values: dict[str, Vector] = {}

    def resolve(w: Wire) -> Vector:
        if w.src == "param":
            return p[w.lo : w.hi]
        if w.src == "input":
            return x[w.lo : w.hi]
        return values[w.src][w.lo : w.hi]

    saved: dict[str, tuple[Vector, ...]] = {}
    for node in f.nodes:
        ins = tuple(resolve(w) for w in node.inputs)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(node.prim.forward(*ins), dtype=np.float64)
        if out.shape != (node.prim.out_dim,):
            raise NumericError(
                f"node {node.name!r} produced shape {out.shape}, "
                f"expected ({node.prim.out_dim},)"
            )
        if not np.all(np.isfinite(out)):
            raise NumericError(f"non-finite value at node {node.name!r}")
        saved[node.name] = ins
        values[node.name] = out
    return resolve(f.output).copy(), Tape(f, saved)


def backward_eval(f: SmoothMap, tape: Tape, dy) -> tuple[Vector, Vector]:
    """Reverse sweep: cotangent of the output to cotangents of both ports."""
    if tape.graph is not f:
        raise CompositionError("tape was recorded on a different graph")
    if tape.spent:
        raise CompositionError("tape already consumed by a backward pass")
    tape.spent = True
    dy = as_vector(dy, f.out_dim, "output cotangent")

    cot = {node.name: np.zeros(node.prim.out_dim) for node in f.nodes}
    dp = np.zeros(f.param_dim)
    dx = np.zeros(f.in_dim)

    def accumulate(w: Wire, val: Vector):
        if w.src == "param":
            dp[w.lo : w.hi] += val
        elif w.src == "input":
            dx[w.lo : w.hi] += val
        else:
            cot[w.src][w.lo : w.hi] += val

    accumulate(f.output, dy)
    for node in reversed(f.nodes):
        ins = tape.node_inputs[node.name]
        out_cots = node.prim.vjp(ins, cot[node.name])
        if len(out_cots) != len(node.inputs):
            raise NumericError(
                f"vjp of {node.prim.name} returned {len(out_cots)} cotangents "
                f"for {len(node.inputs)} inputs"
            )
        for wire, val in zip(node.inputs, out_cots):
            accumulate(wire, np.asarray(val, dtype=np.float64))
    return dp, dx


def identity_map(n: int) -> SmoothMap:
    return SmoothMap(0, n, n, (), Wire("input", 0, n))


def compose_maps(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """Feed ``f``'s output into ``g``.  Parameters concatenate as [g, f].

    The layout matches sequential composition of the corresponding
    parametrised lenses, so the two routes agree coordinate by coordinate.
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


# -- JSON graph description ---------------------------------------------


def graph_to_json(f: SmoothMap) -> dict:
    return {
        "param_dim": f.param_dim,
        "in_dim": f.in_dim,
        "out_dim": f.out_dim,
        "nodes": [
            {
                "name": n.name,
                "prim": n.prim.name,
                "args": list(n.prim.args),
                "inputs": [[w.src, w.lo, w.hi] for w in n.inputs],
            }
            for n in f.nodes
        ],
        "output": [f.output.src, f.output.lo, f.output.hi],
    }


def _wire_from_json(data, path: str) -> Wire:
    if (
        not isinstance(data, (list, tuple))
        or len(data) != 3
        or not isinstance(data[0], str)
        or not all(isinstance(v, int) for v in data[1:])
    ):
        raise SpecFormatError("wire must be [source, lo, hi]", path)
    return Wire(data[0], data[1], data[2])


def graph_from_json(data) -> SmoothMap:
    if not isinstance(data, dict):
        raise SpecFormatError("graph description must be an object", "$")
    for key in ("param_dim", "in_dim", "out_dim", "nodes", "output"):
        if key not in data:
            raise SpecFormatError(f"missing key {key!r}", "$")
    if not isinstance(data["nodes"], list):
        raise SpecFormatError("expected a list of nodes", "$.nodes")
    nodes = []
    for i, nd in enumerate(data["nodes"]):
        path = f"$.nodes[{i}]"
        if not isinstance(nd, dict) or "prim" not in nd or "name" not in nd:
            raise SpecFormatError("node needs 'name' and 'prim'", path)
        factory = PRIMITIVES.get(nd["prim"])
        if factory is None:
            raise SpecFormatError(f"unknown primitive {nd['prim']!r}", path)
        args = nd.get("args", [])
        arity = factory.__code__.co_argcount
        if not isinstance(args, list) or len(args) != arity or not all(
            isinstance(a, int) and a >= 0 for a in args
        ):
            message = f"{nd['prim']} takes {arity} non-negative integer dimensions"
            raise SpecFormatError(message, f"{path}.args")
        inputs = nd.get("inputs", [])
        if not isinstance(inputs, list):
            raise SpecFormatError("expected a list of wires", f"{path}.inputs")
        wires = [_wire_from_json(w, f"{path}.inputs[{j}]") for j, w in enumerate(inputs)]
        nodes.append(Node(nd["name"], factory(*args), tuple(wires)))
    return SmoothMap(
        data["param_dim"],
        data["in_dim"],
        data["out_dim"],
        tuple(nodes),
        _wire_from_json(data["output"], "$.output"),
    )


# -- lenses from graphs -------------------------------------------------


def apply_R(f: SmoothMap) -> ParaLens:
    """The parametrised lens of a graph: evaluate forward, differentiate backward.

    The backward leg recomputes the forward pass for the tape on every call,
    so the lens is a pure function of its arguments.
    """
    pd, n, m = f.param_dim, f.in_dim, f.out_dim

    def get_fn(v):
        y, _ = forward_eval(f, v[:pd], v[pd:])
        return y

    def put_fn(v):
        p, x, dy = v[:pd], v[pd : pd + n], v[pd + n :]
        _, tape = forward_eval(f, p, x)
        dp, dx = backward_eval(f, tape, dy)
        return np.concatenate([dp, dx])

    carrier = Lens(
        SMOOTH,
        LensObj(pd + n, pd + n),
        LensObj(m, m),
        SMOOTH.morphism(pd + n, m, get_fn),
        SMOOTH.morphism(pd + n + m, pd + n, put_fn),
    )
    params = ParamObj(pd, pd)
    return ParaLens(
        SMOOTH, params, LensObj(n, n), LensObj(m, m), carrier, ShapeLeaf(params)
    )


def gd_lens(alpha: float, dim: int) -> Lens:
    """Gradient descent as a lens: identity forward, ``p − α·g`` backward."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise NumericError("learning rate must be finite")
    obj = LensObj(dim, dim)
    put = SMOOTH.morphism(2 * dim, dim, lambda v: v[:dim] - alpha * v[dim:])
    return Lens(SMOOTH, obj, obj, SMOOTH.identity(dim), put)


def ga_lens(alpha: float, dim: int) -> Lens:
    """Gradient ascent: descent with the sign of the step flipped."""
    return gd_lens(-float(alpha), dim)


def copy_lens(dim: int) -> Lens:
    """Weight tying: duplicate forward, sum the two gradients backward."""
    obj = LensObj(dim, dim)
    dbl = LensObj(2 * dim, 2 * dim)
    get = SMOOTH.morphism(dim, 2 * dim, lambda p: np.concatenate([p, p]))
    put = SMOOTH.morphism(
        3 * dim, dim, lambda v: v[dim : 2 * dim] + v[2 * dim :]
    )
    return Lens(SMOOTH, obj, dbl, get, put)


def unit_loss_costate() -> Lens:
    """The costate that closes a scalar loss: backward constantly one."""
    return make_costate(
        SMOOTH, LensObj(1, 1), SMOOTH.morphism(1, 1, lambda _: np.ones(1))
    )


def train_step(model: ParaLens, p, x, loss_costate: Lens) -> tuple[Vector, float]:
    """One optimisation step of a lens already reparametrised by an optimiser.

    Runs the forward pass, seeds the backward pass through ``loss_costate``
    (constantly one for the usual loss), and reads the updated parameters
    off the parameter port.  Returns ``(p_next, loss)``.
    """
    if model.base is not SMOOTH:
        raise CompositionError("train_step expects a smooth-base lens")
    if model.dst != LensObj(1, 1):
        raise CompositionError(
            f"train_step expects a scalar loss output, got R^{model.dst.fwd}"
        )
    if loss_costate.src != model.dst:
        raise CompositionError("loss costate does not match the model output")
    pd = model.params.fwd
    p = as_vector(p, pd, "parameter vector")
    x = as_vector(x, model.src.fwd, "input vector")
    px = np.concatenate([p, x])
    loss_vec = model.carrier.get(px)
    loss = float(loss_vec[0])
    if not np.isfinite(loss):
        raise NumericError("loss is non-finite")
    dy = loss_costate.put(np.concatenate([loss_vec, np.zeros(0)]))
    fed_back = model.carrier.put(np.concatenate([px, dy]))
    return fed_back[:pd].copy(), loss


def gan_step(
    gen: ParaLens,
    disc: ParaLens,
    p_gen,
    p_disc,
    z,
    real,
    alpha: float,
) -> tuple[Vector, Vector, tuple[float, float]]:
    """One adversarial update with a weight-tied discriminator.

    The fake branch scores ``disc(gen(z))``, the real branch scores
    ``disc(real)``; one discriminator parameter vector is copied into both
    branches on the way forward and the two gradients are summed on the way
    back.  Both scores are fed backward with cotangent one; the generator
    port descends while the tied discriminator port ascends, so the
    discriminator pushes both scores up and the generator pulls the fake
    score down.  Returns ``(p_gen_next, p_disc_next, (d_fake, d_real))``.
    """
    if gen.base is not SMOOTH or disc.base is not SMOOTH:
        raise CompositionError("gan_step expects smooth-base lenses")
    if gen.dst != disc.src:
        raise CompositionError(
            f"generator output R^{gen.dst.fwd} does not match "
            f"discriminator input R^{disc.src.fwd}"
        )
    if disc.dst != LensObj(1, 1):
        raise CompositionError("discriminator must produce a scalar score")
    pg, pd = gen.params.fwd, disc.params.fwd
    p_gen = as_vector(p_gen, pg, "generator parameters")
    p_disc = as_vector(p_disc, pd, "discriminator parameters")
    z = as_vector(z, gen.src.fwd, "latent vector")
    real = as_vector(real, disc.src.fwd, "real sample")

    fake_branch = para_compose(gen, disc)  # params [disc, gen]
    both = para_tensor(fake_branch, disc)  # params [[disc, gen], disc]
    scores = make_costate(
        SMOOTH, both.dst, SMOOTH.morphism(2, 2, lambda _: np.ones(2))
    )
    closed = flatten_params(para_compose(both, embed_trivial(scores)))
    # closed.params is now the concatenation [disc, gen, disc]

    tie = lens_compose(
        lens_tensor(copy_lens(pd), lens_id(SMOOTH, LensObj(pg, pg))),
        relabel_lens(
            SMOOTH,
            LensObj(2 * pd + pg, 2 * pd + pg),
            LensObj(pd + pg + pd, pd + pg + pd),
            # [d, d, g] -> [d, g, d] forward, inverse backward
            lambda v: np.concatenate([v[:pd], v[2 * pd :], v[pd : 2 * pd]]),
            lambda b: np.concatenate(
                [b[:pd], b[pd + pg :], b[pd : pd + pg]]
            ),
        ),
    )
    optimisers = lens_tensor(ga_lens(alpha, pd), gd_lens(alpha, pg))
    stepped = reparametrise(closed, lens_compose(optimisers, tie))

    d_fake = float(fake_branch.carrier.get(np.concatenate([p_disc, p_gen, z]))[0])
    d_real = float(disc.carrier.get(np.concatenate([p_disc, real]))[0])

    fed = stepped.carrier.put(
        np.concatenate([p_disc, p_gen, z, real, np.zeros(0)])
    )
    p_disc_next = fed[:pd].copy()
    p_gen_next = fed[pd : pd + pg].copy()
    return p_gen_next, p_disc_next, (d_fake, d_real)
