"""Parametrised lenses: lenses with a parameter port spliced onto the boundary.

A parametrised lens from ``src`` to ``dst`` with parameter port ``⟨P, P'⟩``
is carried by an ordinary lens

    ⟨P × src.fwd, P' × src.bwd⟩  →  dst

with the parameter always the left factor.  Sequential composition
accumulates parameter ports with the *second* factor's parameters leftmost,
and the tensor interleaves them, so the parameter carrier of a composite is
a tree.  ``param_shape`` records that tree; :func:`flatten_params` rewrites
a composite to a single left-associated parameter leaf (dropping unit
leaves) without changing behaviour, which is what solvers and optimisers
want to talk to.

All structural rewiring is done with ``rewire`` relabelling lenses from
``lens_core``; nothing here peeks inside a base element except through the
base's own pair/split operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Union

from .errors import CompositionError
from .lens_core import (
    Base,
    Carrier,
    Lens,
    LensObj,
    lens_assoc,
    lens_compose,
    lens_id,
    lens_interchange,
    lens_lunit,
    lens_tensor,
    make_costate,
    obj_pair,
    describe_obj,
    rewire,
    unit_obj,
)


@dataclass(frozen=True)
class ParamObj:
    """A parameter port: forward carrier of parameters, backward carrier of feedback."""

    fwd: Carrier
    bwd: Carrier

    def as_obj(self) -> LensObj:
        return LensObj(self.fwd, self.bwd)


def unit_param(base: Base) -> ParamObj:
    return ParamObj(base.unit(), base.unit())


def is_unit_param(base: Base, p: ParamObj) -> bool:
    return p == unit_param(base)


@dataclass(frozen=True)
class ShapeLeaf:
    obj: ParamObj


@dataclass(frozen=True)
class ShapePair:
    left: "ParamShape"
    right: "ParamShape"


ParamShape = Union[ShapeLeaf, ShapePair]


def shape_obj(base: Base, shape: ParamShape) -> ParamObj:
    """Fold a shape tree back into the parameter port it describes."""
    if isinstance(shape, ShapeLeaf):
        return shape.obj
    left = shape_obj(base, shape.left)
    right = shape_obj(base, shape.right)
    return ParamObj(base.pair(left.fwd, right.fwd), base.pair(left.bwd, right.bwd))


def shape_leaves(shape: ParamShape) -> list[ParamObj]:
    if isinstance(shape, ShapeLeaf):
        return [shape.obj]
    return shape_leaves(shape.left) + shape_leaves(shape.right)


@dataclass(frozen=True)
class ParaLens:
    """A lens with a parameter port.

    ``carrier`` is the underlying lens
    ``⟨params.fwd × src.fwd, params.bwd × src.bwd⟩ → dst`` and
    ``param_shape`` records how ``params`` was assembled.
    """

    base: Base
    params: ParamObj
    src: LensObj
    dst: LensObj
    carrier: Lens
    param_shape: ParamShape

    def __post_init__(self):
        base = self.base
        expected_src = LensObj(
            base.pair(self.params.fwd, self.src.fwd),
            base.pair(self.params.bwd, self.src.bwd),
        )
        if self.carrier.src != expected_src or self.carrier.dst != self.dst:
            raise CompositionError(
                f"carrier has boundary {describe_obj(base, self.carrier.src)} → "
                f"{describe_obj(base, self.carrier.dst)}, expected "
                f"{describe_obj(base, expected_src)} → {describe_obj(base, self.dst)}"
            )
        folded = shape_obj(base, self.param_shape)
        if folded != self.params:
            raise CompositionError(
                "param_shape folds to a different parameter port than params"
            )


def embed_trivial(l: Lens) -> ParaLens:
    """View a plain lens as parametrised by the unit port."""
    base = l.base
    carrier = lens_compose(lens_lunit(base, l.src), l)
    params = unit_param(base)
    return ParaLens(base, params, l.src, l.dst, carrier, ShapeLeaf(params))


def para_compose(p1: ParaLens, p2: ParaLens) -> ParaLens:
    """Sequential composition; the second factor's parameters end up leftmost."""
    base = p1.base
    if base is not p2.base:
        raise CompositionError("cannot compose parametrised lenses over different bases")
    if p1.dst != p2.src:
        raise CompositionError(
            f"cannot compose: first ends at {describe_obj(base, p1.dst)}, "
            f"second starts at {describe_obj(base, p2.src)}"
        )
    q2, q1 = p2.params, p1.params
    params = ParamObj(base.pair(q2.fwd, q1.fwd), base.pair(q2.bwd, q1.bwd))
    reassoc = lens_assoc(base, q2.as_obj(), q1.as_obj(), p1.src)
    step = lens_tensor(lens_id(base, q2.as_obj()), p1.carrier)
    carrier = lens_compose(lens_compose(reassoc, step), p2.carrier)
    shape = ShapePair(p2.param_shape, p1.param_shape)
    return ParaLens(base, params, p1.src, p2.dst, carrier, shape)


def para_tensor(p1: ParaLens, p2: ParaLens) -> ParaLens:
    """Parallel composition; parameter ports pair up in order."""
    base = p1.base
    if base is not p2.base:
        raise CompositionError("cannot tensor parametrised lenses over different bases")
    params = ParamObj(
        base.pair(p1.params.fwd, p2.params.fwd),
        base.pair(p1.params.bwd, p2.params.bwd),
    )
    interleave = lens_interchange(
        base, p1.params.as_obj(), p2.params.as_obj(), p1.src, p2.src
    )
    carrier = lens_compose(interleave, lens_tensor(p1.carrier, p2.carrier))
    shape = ShapePair(p1.param_shape, p2.param_shape)
    src = obj_pair(base, p1.src, p2.src)
    dst = obj_pair(base, p1.dst, p2.dst)
    return ParaLens(base, params, src, dst, carrier, shape)


def reparametrise(p: ParaLens, r: Lens) -> ParaLens:
    """Precompose a lens on the parameter port.

    ``r`` must end at ``p``'s parameter port; the result is parametrised by
    ``r``'s source.  This is how optimisers attach: a gradient-update lens on
    the weight port turns backward feedback into updated weights.
    """
    base = p.base
    if r.base is not base:
        raise CompositionError("reparametrising lens lives over a different base")
    expected = p.params.as_obj()
    if r.dst != expected:
        raise CompositionError(
            f"reparametrising lens ends at {describe_obj(base, r.dst)}, "
            f"expected the parameter port {describe_obj(base, expected)}"
        )
    carrier = lens_compose(lens_tensor(r, lens_id(base, p.src)), p.carrier)
    params = ParamObj(r.src.fwd, r.src.bwd)
    return ParaLens(base, params, p.src, p.dst, carrier, ShapeLeaf(params))


# -- flattening -----------------------------------------------------------


def left_bracketing(indices: Sequence[int]):
    """The left-associated bracketing of ``indices``; ``None`` when empty."""
    return reduce(lambda acc, i: (acc, i), indices) if indices else None


def _numbered(shape: ParamShape, start: int = 0):
    """The bracketing of a shape tree with its leaves numbered left to right."""
    if isinstance(shape, ShapeLeaf):
        return start, start + 1
    left, mid = _numbered(shape.left, start)
    right, end = _numbered(shape.right, mid)
    return (left, right), end


def flatten_params(p: ParaLens) -> ParaLens:
    """Collapse the parameter tree to one left-associated leaf.

    Unit leaves (from ``embed_trivial``) are dropped; the remaining leaves
    keep their left-to-right order.  Behaviour is unchanged: the carrier is
    reparametrised by the :func:`rewire` from the flat layout to the tree.
    Lenses whose shape is already a single leaf are returned as-is.
    """
    base = p.base
    if isinstance(p.param_shape, ShapeLeaf):
        return p
    params = shape_leaves(p.param_shape)
    kept = [i for i, q in enumerate(params) if not is_unit_param(base, q)]
    leaves = [q.as_obj() for q in params]
    nested, _ = _numbered(p.param_shape)
    return reparametrise(p, rewire(base, leaves, left_bracketing(kept), nested))


def para_costate_solution_input(p: ParaLens) -> Lens:
    """The costate on the parameter port induced by a scalar.

    A scalar (both boundaries trivial) is nothing but data on its parameter
    port: feeding it the unit state and unit costate leaves the map that
    sends each parameter value to its backward feedback.  On finite carriers
    this is the payoff table a selection relation consumes.
    """
    base = p.base
    unit = unit_obj(base)
    if p.src != unit or p.dst != unit:
        raise CompositionError(
            f"not a scalar: boundary is {describe_obj(base, p.src)} → "
            f"{describe_obj(base, p.dst)}"
        )
    unit_c = base.unit()
    pfwd, pbwd = p.params.fwd, p.params.bwd
    carrier_fwd = base.pair(pfwd, unit_c)

    def fn(w):
        x = base.pair_elem(pfwd, unit_c, w, base.unit_elem())
        xz = base.pair_elem(carrier_fwd, unit_c, x, base.unit_elem())
        out = base.apply(p.carrier.put, xz)
        fb, _ = base.split_elem(pbwd, unit_c, out)
        return fb

    return make_costate(base, p.params.as_obj(), base.morphism(pfwd, pbwd, fn))
