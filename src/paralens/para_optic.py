"""Parametrised lenses: lenses with a parameter port spliced onto the boundary.

A parametrised lens from ``src`` to ``dst`` with parameter port ``⟨P, P'⟩``
is carried by an ordinary lens

    ⟨P × src.fwd, P' × src.bwd⟩  →  dst

with the parameter always the left factor.  A parameter port is a boundary
object like any other, a :class:`LensObj`.  ``leaves`` lists the ports a
composite was built from, left to right, and its port is always their
left-nested product: composition is associative only up to a
reparametrisation, and by coherence one canonical bracketing is enough.
Sequential composition puts the *second* factor's leaves leftmost, the
tensor keeps them in order, and each regroups its operands' ports with one
:func:`rewire`.  :func:`flatten_params` only drops unit leaves, which is
what solvers and optimisers want to talk to.
:func:`in_context` closes a para-lens into a scalar by a state on its
source and a costate on its target.

All structural rewiring is done with ``rewire`` relabelling lenses from
``lens_core``; nothing here peeks inside a base element except through the
base's own pair/split operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Sequence

from .errors import CompositionError
from .lens_core import (
    Base,
    Lens,
    LensObj,
    Mor,
    lens_compose,
    lens_id,
    lens_lunit,
    lens_tensor,
    make_costate,
    make_state,
    obj_pair,
    describe_obj,
    rewire,
    unit_obj,
)


@dataclass(frozen=True)
class ParaLens:
    """A lens with a parameter port.

    ``carrier`` is the underlying lens
    ``⟨params.fwd × src.fwd, params.bwd × src.bwd⟩ → dst``.  ``leaves`` are
    the parameter ports it was assembled from, left to right, and ``params``
    is always their left-nested product; a single-leaf lens has ``leaves ==
    (params,)``.  A unit-parametrised lens has one unit leaf, never none.
    """

    base: Base
    leaves: tuple[LensObj, ...]
    src: LensObj
    dst: LensObj
    carrier: Lens
    params: LensObj = field(init=False)

    def __post_init__(self):
        base = self.base
        object.__setattr__(self, "leaves", tuple(self.leaves))
        if not self.leaves:
            raise CompositionError("a parameter port needs at least one leaf; the unit port is one unit leaf")
        object.__setattr__(self, "params", reduce(partial(obj_pair, base), self.leaves))
        expected_src = obj_pair(base, self.params, self.src)
        if self.carrier.src != expected_src or self.carrier.dst != self.dst:
            raise CompositionError(
                f"carrier has boundary {describe_obj(base, self.carrier.src)} → "
                f"{describe_obj(base, self.carrier.dst)}, expected "
                f"{describe_obj(base, expected_src)} → {describe_obj(base, self.dst)}"
            )


def embed_trivial(l: Lens) -> ParaLens:
    """View a plain lens as parametrised by the unit port."""
    base = l.base
    carrier = lens_compose(lens_lunit(base, l.src), l)
    return ParaLens(base, (unit_obj(base),), l.src, l.dst, carrier)


def para_compose(p1: ParaLens, p2: ParaLens) -> ParaLens:
    """Sequential composition; the second factor's parameters end up leftmost.

    One :func:`rewire` takes ``((p2.params, *p1.leaves), src)`` to ``(p2.params,
    (p1.params, src))``; for a one-leaf ``p1`` it is ``lens_assoc``.
    """
    base = p1.base
    if base is not p2.base:
        raise CompositionError("cannot compose parametrised lenses over different bases")
    if p1.dst != p2.src:
        raise CompositionError(
            f"cannot compose: first ends at {describe_obj(base, p1.dst)}, "
            f"second starts at {describe_obj(base, p2.src)}"
        )
    k = len(p1.leaves)
    flat, ours = left_bracketing(range(k + 1)), left_bracketing(range(1, k + 1))
    reassoc = rewire(base, [p2.params, *p1.leaves, p1.src], (flat, k + 1), (0, (ours, k + 1)))
    step = lens_tensor(lens_id(base, p2.params), p1.carrier)
    carrier = lens_compose(lens_compose(reassoc, step), p2.carrier)
    return ParaLens(base, p2.leaves + p1.leaves, p1.src, p2.dst, carrier)


def para_tensor(p1: ParaLens, p2: ParaLens) -> ParaLens:
    """Parallel composition; parameter ports pair up in order.

    One :func:`rewire` takes ``((p1.params, *p2.leaves), (src1, src2))`` to ``((p1.params,
    src1), (p2.params, src2))``; for a one-leaf ``p2`` it takes ``((a, b), (c, d))``
    to ``((a, c), (b, d))``, swapping the middle factors.
    """
    base = p1.base
    if base is not p2.base:
        raise CompositionError("cannot tensor parametrised lenses over different bases")
    k = len(p2.leaves)
    flat, theirs = left_bracketing(range(k + 1)), left_bracketing(range(1, k + 1))
    leaves = [p1.params, *p2.leaves, p1.src, p2.src]
    interleave = rewire(base, leaves, (flat, (k + 1, k + 2)), ((0, k + 1), (theirs, k + 2)))
    carrier = lens_compose(interleave, lens_tensor(p1.carrier, p2.carrier))
    src = obj_pair(base, p1.src, p2.src)
    dst = obj_pair(base, p1.dst, p2.dst)
    return ParaLens(base, p1.leaves + p2.leaves, src, dst, carrier)


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
    return ParaLens(base, (r.src,), p.src, p.dst, carrier)


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
    return ParaLens(base, p.leaves, unit_obj(base), unit_obj(base), carrier)


# -- flattening -----------------------------------------------------------


def left_bracketing(indices: Sequence[int]):
    """The left-associated bracketing of ``indices``; ``None`` when empty."""
    return reduce(lambda acc, i: (acc, i), indices) if indices else None


def flatten_params(p: ParaLens) -> ParaLens:
    """Drop the unit leaves (from ``embed_trivial``, or a graph with no parameters).

    The rest keep their order, and the carrier is reparametrised by the
    :func:`rewire` that puts the unit leaves back.  A lens with one leaf or
    no unit leaf is returned as-is.
    """
    kept = [i for i, q in enumerate(p.leaves) if q != unit_obj(p.base)]
    if len(kept) == len(p.leaves) or len(p.leaves) == 1:
        return p
    return reparametrise(p, rewire(p.base, p.leaves, left_bracketing(kept), left_bracketing(range(len(p.leaves)))))


def para_costate_solution_input(p: ParaLens) -> Mor:
    """The map ``params.fwd → params.bwd`` induced by a scalar.

    A scalar (both boundaries trivial) is nothing but data on its parameter
    port: feeding it the unit state and unit costate leaves the map that
    sends each parameter value to its backward feedback, as a checked base
    morphism read off the carrier's legs, as the costate of ``runit⁻¹ ;
    carrier`` would compute it.  On finite carriers this is the reward
    function a selection relation consumes.
    """
    base = p.base
    unit = unit_obj(base)
    if p.src != unit or p.dst != unit:
        raise CompositionError(
            f"not a scalar: boundary is {describe_obj(base, p.src)} → "
            f"{describe_obj(base, p.dst)}"
        )
    pair, split, point = base.pair_elem, base.split_elem, base.unit_elem()
    forward, backward = p.carrier.forward, p.carrier.backward
    return base.morphism(p.params.fwd, p.params.bwd, lambda w: split(backward(forward(pair(w, point))[1], point))[0])
