"""Bidirectional lenses over an abstract cartesian base.

A lens between boundary objects ``⟨A, A'⟩ → ⟨B, B'⟩`` is an optic: a
forward leg ``x ↦ (y, r)`` that leaves a residual ``r``, and a backward leg
``(r, z) ↦ x'`` that consumes it.  The base category is abstracted behind
:class:`Base` so the same combinators drive both the finite (exact) and
the smooth (numeric) instantiations.

Composition pairs the residuals, so the backward pass consumes the forward
pass it follows instead of replaying it:

    (l1 ; l2).forward(x) = (y2, (r1, r2))
        where (y1, r1) = l1.forward(x) and (y2, r2) = l2.forward(y1)
    (l1 ; l2).backward((r1, r2), z) = l1.backward(r1, l2.backward(r2, z))

Every lens also has base morphisms ``get : A → B`` and ``put : A × B' → A'``
with ``get(x) = y`` and ``put(x, z) = backward(r, z)`` for
``(y, r) = forward(x)``; a lens given by ``get`` and ``put`` alone keeps its
input as its residual.  The tensor acts componentwise on pairs.  States are
lenses out of the unit boundary (they pick a point), costates are lenses
into it (their put is an ordinary map out of the forward carrier).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import CompositionError, UnsupportedOperationError

Carrier = Any
Mor = Any
Elem = Any


class Base(ABC):
    """A cartesian base: carriers, total morphisms and pairing of both.

    A morphism carries its domain and codomain as ``.dom`` and ``.cod``.
    """

    name: str = "base"

    # -- carriers -------------------------------------------------------

    @abstractmethod
    def unit(self) -> Carrier:
        """The terminal carrier (single inhabitant)."""

    @abstractmethod
    def pair(self, a: Carrier, b: Carrier) -> Carrier:
        """Binary product of carriers."""

    @abstractmethod
    def contains(self, c: Carrier, x: Elem) -> bool:
        """Whether ``x`` is an inhabitant of carrier ``c``."""

    @abstractmethod
    def describe(self, c: Carrier) -> str:
        """Short rendering of a carrier for error messages."""

    # -- morphisms ------------------------------------------------------

    @abstractmethod
    def identity(self, c: Carrier) -> Mor:
        ...

    @abstractmethod
    def morphism(self, dom: Carrier, cod: Carrier, fn: Callable[[Elem], Elem]) -> Mor:
        """Build a base morphism from an element-level function.

        Both bases wrap the callable; finite ones check and memoise it per element.
        """

    def derived(self, dom: Carrier, cod: Carrier, fn: Callable[[Elem], Elem]) -> Mor:
        """Like :meth:`morphism`, for a ``fn`` passing each input part to a checked morphism."""
        return self.morphism(dom, cod, fn)

    @abstractmethod
    def compose(self, f: Mor, g: Mor) -> Mor:
        ...

    @abstractmethod
    def product(self, f: Mor, g: Mor) -> Mor:
        """Componentwise action on paired carriers."""

    def apply(self, f: Mor, x: Elem) -> Elem:
        return f(x)

    # -- elements -------------------------------------------------------

    @abstractmethod
    def unit_elem(self) -> Elem:
        ...

    @abstractmethod
    def pair_elem(self, a: Carrier, b: Carrier, x: Elem, y: Elem) -> Elem:
        ...

    @abstractmethod
    def split_elem(self, a: Carrier, b: Carrier, xy: Elem) -> tuple[Elem, Elem]:
        ...

    # -- only meaningful on enumerable bases ----------------------------

    def mor_equal(self, f: Mor, g: Mor) -> bool:
        raise UnsupportedOperationError(
            f"pointwise morphism equality is not decidable on the {self.name} base"
        )


@dataclass(frozen=True)
class LensObj:
    """A boundary object: forward carrier and backward carrier."""

    fwd: Carrier
    bwd: Carrier


@dataclass(frozen=True)
class Lens:
    """A morphism of boundary objects: forward and backward legs, ``get`` and ``put``.

    ``get : src.fwd → dst.fwd`` and ``put : src.fwd × dst.bwd → src.bwd``.
    Without legs, ``forward`` is ``x ↦ (get(x), x)`` and ``backward`` is
    ``(x, z) ↦ put(x, z)``.
    """

    base: Base
    src: LensObj
    dst: LensObj
    get: Mor
    put: Mor
    forward: Callable[[Elem], tuple[Elem, Any]] = field(default=None, compare=False, repr=False)
    backward: Callable[[Any, Elem], Elem] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        b = self.base
        checks = (
            (self.get.dom, self.src.fwd, "get domain"),
            (self.get.cod, self.dst.fwd, "get codomain"),
            (self.put.dom, b.pair(self.src.fwd, self.dst.bwd), "put domain"),
            (self.put.cod, self.src.bwd, "put codomain"),
        )
        for actual, expected, what in checks:
            if actual != expected:
                raise CompositionError(
                    f"{what} is {b.describe(actual)}, expected {b.describe(expected)}"
                )
        if self.forward is None:
            get, put, x_c, z_c = self.get, self.put, self.src.fwd, self.dst.bwd
            object.__setattr__(self, "forward", lambda x: (get(x), x))
            object.__setattr__(self, "backward", lambda x, z: put(b.pair_elem(x_c, z_c, x, z)))


def optic(base: Base, src: LensObj, dst: LensObj, forward, backward) -> Lens:
    """The lens of a forward leg ``x ↦ (y, r)`` and a backward leg ``(r, z) ↦ x'``."""

    def put_fn(xz):
        x, z = base.split_elem(src.fwd, dst.bwd, xz)
        return backward(forward(x)[1], z)

    get = base.derived(src.fwd, dst.fwd, lambda x: forward(x)[0])
    put = base.derived(base.pair(src.fwd, dst.bwd), src.bwd, put_fn)
    return Lens(base, src, dst, get, put, forward, backward)


def unit_obj(base: Base) -> LensObj:
    """The monoidal unit boundary ⟨1, 1⟩."""
    return LensObj(base.unit(), base.unit())


def obj_pair(base: Base, a: LensObj, b: LensObj) -> LensObj:
    """Componentwise pairing of boundary objects."""
    return LensObj(base.pair(a.fwd, b.fwd), base.pair(a.bwd, b.bwd))


def describe_obj(base: Base, a: LensObj) -> str:
    return f"⟨{base.describe(a.fwd)}, {base.describe(a.bwd)}⟩"


def lens_id(base: Base, a: LensObj) -> Lens:
    """Identity lens: get is the identity, put projects the backward value."""
    put = base.morphism(
        base.pair(a.fwd, a.bwd),
        a.bwd,
        lambda xz: base.split_elem(a.fwd, a.bwd, xz)[1],
    )
    return Lens(base, a, a, base.identity(a.fwd), put)


def lens_compose(l1: Lens, l2: Lens) -> Lens:
    """Sequential composition.  The backward leg consumes both residuals."""
    base = l1.base
    if base is not l2.base:
        raise CompositionError("cannot compose lenses over different bases")
    if l1.dst != l2.src:
        raise CompositionError(
            f"cannot compose: first lens ends at {describe_obj(base, l1.dst)}, "
            f"second starts at {describe_obj(base, l2.src)}"
        )
    f1, b1, f2, b2 = l1.forward, l1.backward, l2.forward, l2.backward

    def forward(x):
        y1, r1 = f1(x)
        y2, r2 = f2(y1)
        return y2, (r1, r2)

    return optic(base, l1.src, l2.dst, forward, lambda r, z: b1(r[0], b2(r[1], z)))


def lens_tensor(l1: Lens, l2: Lens) -> Lens:
    """Parallel composition: componentwise on paired boundaries."""
    base = l1.base
    if base is not l2.base:
        raise CompositionError("cannot tensor lenses over different bases")
    (a1, c1), (a2, c2) = (l1.src, l1.dst), (l2.src, l2.dst)

    def forward(xs):
        x1, x2 = base.split_elem(a1.fwd, a2.fwd, xs)
        (y1, r1), (y2, r2) = l1.forward(x1), l2.forward(x2)
        return base.pair_elem(c1.fwd, c2.fwd, y1, y2), (r1, r2)

    def backward(r, zs):
        z1, z2 = base.split_elem(c1.bwd, c2.bwd, zs)
        return base.pair_elem(a1.bwd, a2.bwd, l1.backward(r[0], z1), l2.backward(r[1], z2))

    return optic(base, obj_pair(base, a1, a2), obj_pair(base, c1, c2), forward, backward)


def make_state(base: Base, a: LensObj, point: Elem) -> Lens:
    """The state of ``a`` that picks ``point``: a lens out of the unit boundary."""
    if not base.contains(a.fwd, point):
        raise CompositionError(
            f"state point {point!r} is not an element of {base.describe(a.fwd)}"
        )
    unit_c = base.unit()
    get = base.morphism(unit_c, a.fwd, lambda _: point)
    put = base.morphism(
        base.pair(unit_c, a.bwd), unit_c, lambda _: base.unit_elem()
    )
    return Lens(base, unit_obj(base), a, get, put)


def make_costate(base: Base, a: LensObj, f: Mor) -> Lens:
    """The costate of ``a`` whose backward leg is the base morphism ``f : a.fwd → a.bwd``."""
    if f.dom != a.fwd or f.cod != a.bwd:
        raise CompositionError(
            f"costate map has type {base.describe(f.dom)} → "
            f"{base.describe(f.cod)}, expected {base.describe(a.fwd)} → "
            f"{base.describe(a.bwd)}"
        )
    unit_c = base.unit()
    get = base.morphism(a.fwd, unit_c, lambda _: base.unit_elem())
    put = base.morphism(
        base.pair(a.fwd, unit_c),
        a.bwd,
        lambda xz: base.apply(f, base.split_elem(a.fwd, unit_c, xz)[0]),
    )
    return Lens(base, a, unit_obj(base), get, put)


def costate_fn(l: Lens) -> Mor:
    """Recover the underlying map ``src.fwd → src.bwd`` of a costate."""
    base = l.base
    if l.dst != unit_obj(base):
        raise CompositionError("costate_fn expects a lens into the unit boundary")
    unit_c = base.unit()

    def fn(x):
        return base.apply(l.put, base.pair_elem(l.src.fwd, unit_c, x, base.unit_elem()))

    return base.morphism(l.src.fwd, l.src.bwd, fn)


def lens_equal(l1: Lens, l2: Lens) -> bool:
    """Pointwise table equality.  Only decidable on enumerable bases."""
    base = l1.base
    if base is not l2.base:
        return False
    if l1.src != l2.src or l1.dst != l2.dst:
        raise CompositionError(
            f"lens_equal needs equal boundaries, got "
            f"{describe_obj(base, l1.src)} → {describe_obj(base, l1.dst)} vs "
            f"{describe_obj(base, l2.src)} → {describe_obj(base, l2.dst)}"
        )
    return base.mor_equal(l1.get, l2.get) and base.mor_equal(l1.put, l2.put)


# -- structural (relabelling) lenses ------------------------------------
#
# A relabelling lens is a bijective rewiring: its get is a bijection of the
# forward carriers and its put ignores the forward input, applying the
# reverse bijection to the backward value.  By coherence, every structural
# isomorphism of the monoidal structure is fixed by two bracketings of the
# same leaves, so one :func:`rewire` builds them all.


def relabel_lens(
    base: Base,
    src: LensObj,
    dst: LensObj,
    fwd_fn: Callable[[Elem], Elem],
    bwd_fn: Callable[[Elem], Elem],
) -> Lens:
    get = base.morphism(src.fwd, dst.fwd, fwd_fn)
    put = base.morphism(
        base.pair(src.fwd, dst.bwd),
        src.bwd,
        lambda xz: bwd_fn(base.split_elem(src.fwd, dst.bwd, xz)[1]),
    )
    return Lens(base, src, dst, get, put)


class _Bracketing:
    """One node of a bracketing, with its boundary object computed once.

    Splitting and joining walk the tree through methods rather than a
    recursive closure, so a lens built on it holds no reference cycle.
    """

    __slots__ = ("base", "leaf", "left", "right", "obj", "carriers")

    def __init__(self, base: Base, leaves: Sequence[LensObj], tree) -> None:
        self.base = base
        self.leaf = tree if isinstance(tree, int) else None
        self.left = self.right = None
        if isinstance(tree, tuple):
            self.left, self.right = (_Bracketing(base, leaves, t) for t in tree)
            self.obj = obj_pair(base, self.left.obj, self.right.obj)
        else:
            self.obj = unit_obj(base) if tree is None else leaves[tree]
        self.carriers = (self.obj.fwd, self.obj.bwd)

    def indices(self) -> list[int]:
        if self.left is not None:
            return self.left.indices() + self.right.indices()
        return [] if self.leaf is None else [self.leaf]

    def split(self, x: Elem, side: int, parts: dict[int, Elem]) -> dict[int, Elem]:
        """Record the leaf components of ``x`` in ``parts``, keyed by leaf index."""
        if self.left is not None:
            u, v = self.base.split_elem(
                self.left.carriers[side], self.right.carriers[side], x
            )
            self.left.split(u, side, parts)
            self.right.split(v, side, parts)
        elif self.leaf is not None:
            parts[self.leaf] = x
        return parts

    def join(self, parts: dict[int, Elem], side: int) -> Elem:
        """Assemble this node's element from leaf components; absent leaves are units."""
        if self.left is not None:
            return self.base.pair_elem(
                self.left.carriers[side],
                self.right.carriers[side],
                self.left.join(parts, side),
                self.right.join(parts, side),
            )
        if self.leaf in parts:
            return parts[self.leaf]
        return self.base.unit_elem()


def rewire(base: Base, leaves: Sequence[LensObj], src, dst) -> Lens:
    """The relabelling lens between two bracketings of the same ``leaves``.

    A bracketing is a leaf index, a pair of bracketings, or ``None`` for the
    unit.  Forward, an element is split along ``src`` and joined along
    ``dst``; backward, the reverse.  A leaf may be missing from one side
    only if it is a unit leaf, which then reads as ``base.unit_elem()``.
    """
    s = _Bracketing(base, leaves, src)
    d = _Bracketing(base, leaves, dst)
    si, di = s.indices(), d.indices()
    unit = unit_obj(base)
    if len(set(si)) != len(si) or len(set(di)) != len(di):
        raise CompositionError("rewire: a bracketing uses a leaf twice")
    if any(leaves[i] != unit for i in set(si) ^ set(di)):
        raise CompositionError("rewire: only unit leaves may be dropped or introduced")
    return relabel_lens(
        base,
        s.obj,
        d.obj,
        lambda x: d.join(s.split(x, 0, {}), 0),
        lambda z: s.join(d.split(z, 1, {}), 1),
    )


def lens_lunit(base: Base, a: LensObj) -> Lens:
    """⟨1,1⟩ ⊗ a → a."""
    return rewire(base, [a], (None, 0), 0)


def lens_lunit_inv(base: Base, a: LensObj) -> Lens:
    """a → ⟨1,1⟩ ⊗ a."""
    return rewire(base, [a], 0, (None, 0))


def lens_runit(base: Base, a: LensObj) -> Lens:
    """a ⊗ ⟨1,1⟩ → a."""
    return rewire(base, [a], (0, None), 0)


def lens_runit_inv(base: Base, a: LensObj) -> Lens:
    """a → a ⊗ ⟨1,1⟩."""
    return rewire(base, [a], 0, (0, None))


def lens_swap(base: Base, a: LensObj, b: LensObj) -> Lens:
    """a ⊗ b → b ⊗ a."""
    return rewire(base, [a, b], (0, 1), (1, 0))


def lens_assoc(base: Base, a: LensObj, b: LensObj, c: LensObj) -> Lens:
    """(a ⊗ b) ⊗ c → a ⊗ (b ⊗ c)."""
    return rewire(base, [a, b, c], ((0, 1), 2), (0, (1, 2)))


def lens_assoc_inv(base: Base, a: LensObj, b: LensObj, c: LensObj) -> Lens:
    """a ⊗ (b ⊗ c) → (a ⊗ b) ⊗ c."""
    return rewire(base, [a, b, c], (0, (1, 2)), ((0, 1), 2))


def lens_interchange(base: Base, a: LensObj, b: LensObj, c: LensObj, d: LensObj) -> Lens:
    """(a ⊗ b) ⊗ (c ⊗ d) → (a ⊗ c) ⊗ (b ⊗ d), swapping the middle factors."""
    return rewire(base, [a, b, c, d], ((0, 1), (2, 3)), ((0, 2), (1, 3)))
