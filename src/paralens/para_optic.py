"""Parametrised lenses: lenses with a parameter port spliced onto the boundary.

A parametrised lens from ``src`` to ``dst`` with parameter port ``⟨P, P'⟩``
is carried by an ordinary lens

    ⟨P × src.fwd, P' × src.bwd⟩  →  dst

with the parameter always the left factor.  A parameter port is a boundary
object like any other, a :class:`LensObj`.  Sequential composition
accumulates parameter ports with the *second* factor's parameters leftmost,
and the tensor interleaves them, so a composite's port is a product of the
ports it was built from.  ``leaves`` lists those ports left to right and
``param_shape`` brackets their indices in :func:`rewire`'s notation;
:func:`flatten_params` rewrites a composite to a single left-associated
parameter leaf (dropping unit leaves) by reparametrising along that
``rewire``, which is what solvers and optimisers want to talk to.
:func:`in_context` closes a para-lens into a scalar by a state on its
source and a costate on its target.

All structural rewiring is done with ``rewire`` relabelling lenses from
``lens_core``; nothing here peeks inside a base element except through the
base's own pair/split operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

from .errors import CompositionError
from .lens_core import (
    Base,
    Lens,
    LensObj,
    Mor,
    costate_fn,
    lens_assoc,
    lens_compose,
    lens_id,
    lens_interchange,
    lens_lunit,
    lens_runit_inv,
    lens_tensor,
    make_costate,
    make_state,
    obj_pair,
    describe_obj,
    fold_bracketing,
    rewire,
    unit_obj,
)


@dataclass(frozen=True)
class ParaLens:
    """A lens with a parameter port.

    ``carrier`` is the underlying lens
    ``⟨params.fwd × src.fwd, params.bwd × src.bwd⟩ → dst``.  ``leaves`` are
    the parameter ports it was assembled from, left to right, and
    ``param_shape`` brackets their indices as :func:`rewire` does; a
    single-leaf lens has ``leaves == (port,)`` and ``param_shape == 0``.
    ``params`` is the port that bracketing folds to.
    """

    base: Base
    leaves: tuple[LensObj, ...]
    src: LensObj
    dst: LensObj
    carrier: Lens
    param_shape: object
    params: LensObj = field(init=False)

    def __post_init__(self):
        base = self.base
        seen: list = []
        object.__setattr__(self, "params", fold_bracketing(base, self.leaves, self.param_shape, seen))
        if seen != list(range(len(self.leaves))):
            raise CompositionError(
                f"param_shape must number the {len(self.leaves)} leaves left to right, got {self.param_shape!r}"
            )
        expected_src = obj_pair(base, self.params, self.src)
        if self.carrier.src != expected_src or self.carrier.dst != self.dst:
            raise CompositionError(
                f"carrier has boundary {describe_obj(base, self.carrier.src)} → "
                f"{describe_obj(base, self.carrier.dst)}, expected "
                f"{describe_obj(base, expected_src)} → {describe_obj(base, self.dst)}"
            )


def _shifted(shape, by: int):
    """``shape`` with every leaf index raised by ``by``."""
    if isinstance(shape, tuple):
        return tuple(_shifted(s, by) for s in shape)
    return shape + by


def embed_trivial(l: Lens) -> ParaLens:
    """View a plain lens as parametrised by the unit port."""
    base = l.base
    carrier = lens_compose(lens_lunit(base, l.src), l)
    return ParaLens(base, (unit_obj(base),), l.src, l.dst, carrier, 0)


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
    reassoc = lens_assoc(base, q2, q1, p1.src)
    step = lens_tensor(lens_id(base, q2), p1.carrier)
    carrier = lens_compose(lens_compose(reassoc, step), p2.carrier)
    shape = (p2.param_shape, _shifted(p1.param_shape, len(p2.leaves)))
    return ParaLens(base, p2.leaves + p1.leaves, p1.src, p2.dst, carrier, shape)


def para_tensor(p1: ParaLens, p2: ParaLens) -> ParaLens:
    """Parallel composition; parameter ports pair up in order."""
    base = p1.base
    if base is not p2.base:
        raise CompositionError("cannot tensor parametrised lenses over different bases")
    interleave = lens_interchange(base, p1.params, p2.params, p1.src, p2.src)
    carrier = lens_compose(interleave, lens_tensor(p1.carrier, p2.carrier))
    shape = (p1.param_shape, _shifted(p2.param_shape, len(p1.leaves)))
    src = obj_pair(base, p1.src, p2.src)
    dst = obj_pair(base, p1.dst, p2.dst)
    return ParaLens(base, p1.leaves + p2.leaves, src, dst, carrier, shape)


def reparametrise(p: ParaLens, r: Lens) -> ParaLens:
    """Precompose a lens on the parameter port.

    ``r`` must end at ``p``'s parameter port; the result is parametrised by
    ``r``'s source.  This is how optimisers attach: a gradient-update lens on
    the weight port turns backward feedback into updated weights.
    """
    base = p.base
    if r.base is not base:
        raise CompositionError("reparametrising lens lives over a different base")
    if r.dst != p.params:
        raise CompositionError(
            f"reparametrising lens ends at {describe_obj(base, r.dst)}, "
            f"expected the parameter port {describe_obj(base, p.params)}"
        )
    carrier = lens_compose(lens_tensor(r, lens_id(base, p.src)), p.carrier)
    return ParaLens(base, (r.src,), p.src, p.dst, carrier, 0)


def in_context(p: ParaLens, h, k: Mor) -> ParaLens:
    """The scalar ``p`` makes in the context ``(h, k)``.

    ``h`` is a point of ``p.src.fwd``, fed in as a state, and ``k :
    p.dst.fwd → p.dst.bwd`` closes the far side as a costate.  The result
    keeps ``p``'s parameter port; its carrier is
    ``(id_params ⊗ state(h)) ; p.carrier ; costate(k)``.
    """
    base = p.base
    feed = lens_tensor(lens_id(base, p.params), make_state(base, p.src, h))
    carrier = lens_compose(lens_compose(feed, p.carrier), make_costate(base, p.dst, k))
    return ParaLens(base, p.leaves, unit_obj(base), unit_obj(base), carrier, p.param_shape)


# -- flattening -----------------------------------------------------------


def left_bracketing(indices: Sequence[int]):
    """The left-associated bracketing of ``indices``; ``None`` when empty."""
    return reduce(lambda acc, i: (acc, i), indices) if indices else None


def flatten_params(p: ParaLens) -> ParaLens:
    """Collapse the parameter bracketing to one left-associated leaf.

    Unit leaves (from ``embed_trivial``) are dropped; the remaining leaves
    keep their left-to-right order.  Behaviour is unchanged: the carrier is
    reparametrised by the :func:`rewire` from the flat layout to the
    bracketing.  Lenses with a single leaf or a flat port are returned as-is.
    """
    flat = left_bracketing([i for i, q in enumerate(p.leaves) if q != unit_obj(p.base)])
    if isinstance(p.param_shape, int) or p.param_shape == flat:
        return p
    return reparametrise(p, rewire(p.base, p.leaves, flat, p.param_shape))


def para_costate_solution_input(p: ParaLens) -> Mor:
    """The map ``params.fwd → params.bwd`` induced by a scalar.

    A scalar (both boundaries trivial) is nothing but data on its parameter
    port: feeding it the unit state and unit costate leaves the map that
    sends each parameter value to its backward feedback, as a checked base
    morphism.  On finite carriers this is the reward function a selection
    relation consumes.
    """
    base = p.base
    unit = unit_obj(base)
    if p.src != unit or p.dst != unit:
        raise CompositionError(
            f"not a scalar: boundary is {describe_obj(base, p.src)} → "
            f"{describe_obj(base, p.dst)}"
        )
    return costate_fn(lens_compose(lens_runit_inv(base, p.params), p.carrier))
