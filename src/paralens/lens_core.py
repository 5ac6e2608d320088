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

A lens is its two legs.  Its base morphisms ``get : A → B`` and
``put : A × B' → A'``, with ``get(x) = y`` and ``put(x, z) = backward(r, z)``
for ``(y, r) = forward(x)``, are built on first access and kept for the life
of the lens; a lens given by ``get`` and ``put`` (:func:`get_put_lens`) keeps
its input as its residual.  ``get`` and ``put`` are checked morphisms, so a
composite checks an element and its image once, at its own edge, and the
lenses inside it run on their legs, which neither check nor memoise.  What a
caller hands in, a state's point or a costate's map, is checked where it
enters.  Elements of products are pairs on every base, so pairing and
splitting take no carriers.  The tensor acts componentwise on pairs.
States are lenses out of the unit boundary (they pick a point), costates
are lenses into it (their put is an ordinary map out of the forward carrier).
Structural isomorphisms are :func:`rewire` lenses; their legs are flat
functions compiled once per pair of bracketings and kept in a bounded cache.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    def morphism(self, dom: Carrier, cod: Carrier, fn: Callable[[Elem], Elem]) -> Mor:
        """Build a base morphism from an element-level function.

        Both bases wrap the callable and check its input and output; finite ones also memoise.
        """

    # -- elements -------------------------------------------------------

    @abstractmethod
    def unit_elem(self) -> Elem:
        ...

    @abstractmethod
    def pair_elem(self, x: Elem, y: Elem) -> Elem:
        ...

    @abstractmethod
    def split_elem(self, xy: Elem) -> tuple[Elem, Elem]:
        """The two components of a pair; raises :class:`CompositionError` on anything else."""

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


@dataclass(frozen=True, eq=False)
class Lens:
    """A morphism of boundary objects: a forward leg ``x ↦ (y, r)`` and a backward leg ``(r, z) ↦ x'``.

    ``get : src.fwd → dst.fwd`` and ``put : src.fwd × dst.bwd → src.bwd``
    are checked base morphisms, built on first access; the legs check nothing.
    """

    base: Base
    src: LensObj
    dst: LensObj
    forward: Callable[[Elem], tuple[Elem, Any]]
    backward: Callable[[Any, Elem], Elem]

    def __post_init__(self):
        """Checks nothing: the hook where ``bench/tracing.py`` (``lens_core.lenses_built``)
        and ``test_run_gan_builds_its_lenses_once`` count lens constructions."""

    # the closures below capture the legs, not the lens, so that a lens
    # keeping its morphisms holds no reference cycle

    @cached_property
    def get(self) -> Mor:
        forward = self.forward
        return self.base.morphism(self.src.fwd, self.dst.fwd, lambda x: forward(x)[0])

    @cached_property
    def put(self) -> Mor:
        base, forward, backward = self.base, self.forward, self.backward

        def put(xz):
            x, z = base.split_elem(xz)
            return backward(forward(x)[1], z)

        return base.morphism(base.pair(self.src.fwd, self.dst.bwd), self.src.bwd, put)


def get_put_lens(base: Base, src: LensObj, dst: LensObj, get: Mor, put: Mor) -> Lens:
    """The lens of ``get : src.fwd → dst.fwd`` and ``put : src.fwd × dst.bwd → src.bwd``.

    Its residual is its input: ``x ↦ (get(x), x)`` forward and
    ``(x, z) ↦ put(x, z)`` backward.
    """
    for actual, expected, what in (
        (get.dom, src.fwd, "get domain"),
        (get.cod, dst.fwd, "get codomain"),
        (put.dom, base.pair(src.fwd, dst.bwd), "put domain"),
        (put.cod, src.bwd, "put codomain"),
    ):
        if actual != expected:
            raise CompositionError(
                f"{what} is {base.describe(actual)}, expected {base.describe(expected)}"
            )
    return Lens(base, src, dst, lambda x: (get(x), x), lambda x, z: put(base.pair_elem(x, z)))


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
    return Lens(base, a, a, lambda x: (x, None), lambda _, z: z)


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

    return Lens(base, l1.src, l2.dst, forward, lambda r, z: b1(r[0], b2(r[1], z)))


def lens_tensor(l1: Lens, l2: Lens) -> Lens:
    """Parallel composition: componentwise on paired boundaries."""
    base = l1.base
    if base is not l2.base:
        raise CompositionError("cannot tensor lenses over different bases")
    f1, b1, f2, b2 = l1.forward, l1.backward, l2.forward, l2.backward

    def forward(xs):
        x1, x2 = base.split_elem(xs)
        (y1, r1), (y2, r2) = f1(x1), f2(x2)
        return base.pair_elem(y1, y2), (r1, r2)

    def backward(r, zs):
        z1, z2 = base.split_elem(zs)
        return base.pair_elem(b1(r[0], z1), b2(r[1], z2))

    src, dst = obj_pair(base, l1.src, l2.src), obj_pair(base, l1.dst, l2.dst)
    return Lens(base, src, dst, forward, backward)


def make_state(base: Base, a: LensObj, point: Elem) -> Lens:
    """The state of ``a`` that picks ``point``: a lens out of the unit boundary."""
    if not base.contains(a.fwd, point):
        raise CompositionError(
            f"state point {point!r} is not an element of {base.describe(a.fwd)}"
        )
    unit = base.unit_elem()
    return Lens(base, unit_obj(base), a, lambda _: (point, None), lambda _, z: unit)


def make_costate(base: Base, a: LensObj, f: Mor) -> Lens:
    """The costate of ``a`` whose backward leg is the base morphism ``f : a.fwd → a.bwd``."""
    if f.dom != a.fwd or f.cod != a.bwd:
        raise CompositionError(
            f"costate map has type {base.describe(f.dom)} → "
            f"{base.describe(f.cod)}, expected {base.describe(a.fwd)} → "
            f"{base.describe(a.bwd)}"
        )
    unit = base.unit_elem()
    return Lens(base, a, unit_obj(base), lambda x: (unit, x), lambda x, _: f(x))


def costate_fn(l: Lens) -> Mor:
    """Recover the underlying map ``src.fwd → src.bwd`` of a costate."""
    base = l.base
    if l.dst != unit_obj(base):
        raise CompositionError("costate_fn expects a lens into the unit boundary")
    unit, forward, backward = base.unit_elem(), l.forward, l.backward
    return base.morphism(l.src.fwd, l.src.bwd, lambda x: backward(forward(x)[1], unit))


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


def fold_bracketing(base: Base, leaves: Sequence[LensObj], tree, seen: list) -> LensObj:
    """The boundary object ``tree`` brackets ``leaves`` into; a malformed ``tree`` raises.

    The leaves met, indices or ``None``, are appended to ``seen`` left to right.
    """
    if type(tree) is tuple and len(tree) == 2:
        left = fold_bracketing(base, leaves, tree[0], seen)
        return obj_pair(base, left, fold_bracketing(base, leaves, tree[1], seen))
    if tree is not None and (type(tree) is not int or not 0 <= tree < len(leaves)):
        raise CompositionError(f"a bracketing of {len(leaves)} leaves is a leaf index, a pair or None, got {tree!r}")
    seen.append(tree)
    return unit_obj(base) if tree is None else leaves[tree]


def _unpack(tree, var: str, lines: list[str], bound: set[int]) -> None:
    """Append the lines that split ``var`` along ``tree`` and add the leaves they bind to ``bound``.

    Leaf ``i`` binds ``x<i>``; a unit binds ``xNone``, which no join reads.
    """
    if type(tree) is tuple:
        names = [f"t{len(lines)}{side}" if type(t) is tuple else f"x{t}" for side, t in zip("lr", tree)]
        lines.append(f"{names[0]}, {names[1]} = base.split_elem({var})")
        for t, name in zip(tree, names):
            _unpack(t, name, lines, bound)
    elif tree is not None:
        bound.add(tree)


def _pack(tree, lines: list[str], bound: set[int]) -> str:
    """Append the lines that join the ``bound`` leaves along ``tree``; return what names the result."""
    if type(tree) is not tuple:
        return f"x{tree}" if tree in bound else "base.unit_elem()"
    left, right = (_pack(t, lines, bound) for t in tree)
    lines.append(f"p{len(lines)} = base.pair_elem({left}, {right})")
    return f"p{len(lines) - 1}"


@lru_cache(maxsize=256)
def _rewire_legs(base: Base, src, dst) -> tuple[Callable, Callable]:
    """The legs of a :func:`rewire` from ``src`` to ``dst``, compiled from generated source.

    ``base``'s element operations are looked up at every call.  The legs are
    taken out of their namespace, so a lens holding them holds no cycle.
    """
    source: list[str] = []
    for head, split_along, join_along, tail in (("forward(", src, dst, ", None"), ("backward(_r, ", dst, src, "")):
        lines: list[str] = []
        bound: set[int] = set()
        arg = "x" if type(split_along) is tuple else f"x{split_along}"
        _unpack(split_along, arg, lines, bound)
        out = _pack(join_along, lines, bound)
        source += [f"def {head}{arg}):", *(f"    {line}" for line in lines), f"    return {out}{tail}"]
    namespace = {"base": base}
    exec(compile("\n".join(source) + "\n", "<rewire>", "exec"), namespace)
    return namespace.pop("forward"), namespace.pop("backward")


def rewire(base: Base, leaves: Sequence[LensObj], src, dst) -> Lens:
    """The relabelling lens between two bracketings of the same ``leaves``.

    A bracketing is a leaf index, a pair of bracketings, or ``None`` for the
    unit; a malformed one raises :class:`CompositionError`.  Forward, an
    element is split along ``src`` and joined along ``dst``; backward, the
    reverse.  A leaf may be missing from one side only if it is a unit
    leaf, which then reads as ``base.unit_elem()``.  The legs are compiled
    once per ``(base, src, dst)`` into flat functions, kept in a cache of
    bounded size and shared by every lens of that shape.
    """
    si, di = [], []
    src_obj, dst_obj = fold_bracketing(base, leaves, src, si), fold_bracketing(base, leaves, dst, di)
    si, di = [i for i in si if i is not None], [i for i in di if i is not None]
    if len(set(si)) != len(si) or len(set(di)) != len(di):
        raise CompositionError("rewire: a bracketing uses a leaf twice")
    if any(leaves[i] != unit_obj(base) for i in set(si) ^ set(di)):
        raise CompositionError("rewire: only unit leaves may be dropped or introduced")
    return Lens(base, src_obj, dst_obj, *_rewire_legs(base, src, dst))


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
