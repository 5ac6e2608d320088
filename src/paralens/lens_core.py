"""Bidirectional lenses over an abstract cartesian base.

A lens between boundary objects ``⟨A, A'⟩ → ⟨B, B'⟩`` is an optic: a
forward leg ``x ↦ (y, r)`` that leaves a residual ``r``, and a backward leg
``(r, z) ↦ x'`` that consumes it.  The base category is abstracted behind
:class:`Base` so the same combinators drive both the finite (exact) and
the smooth (numeric) instantiations.

A lens given by its legs is a leaf; composition, tensor, identities and
:func:`rewire` build a composite, a term over leaves.  A composite's legs
are straight-line code generated once per ``(base, term)`` and built when
first read, so a composite only ever inlined into a larger one is never
compiled.  Its residual is the flat tuple of its leaves' residuals, so no
forward pass is replayed; for leaves ``l1`` and ``l2``,

    (l1 ; l2).forward(x) = (y2, (r1, r2))
        where (y1, r1) = l1.forward(x) and (y2, r2) = l2.forward(y1)
    (l1 ; l2).backward((r1, r2), z) = l1.backward(r1, l2.backward(r2, z))

Tensor pairing, identities and rewires are renaming: an element is paired
only where a leaf or the output reads it, the two parts of one split rejoin
as the element itself, and the leg's own input, checked at the composite's
edge, is split only where a part of it is read, as is a state's point or a
costate's value: a :data:`STATE` leaf is its checked point, a :data:`COSTATE`
leaf its checked morphism, and neither splits anything.  So what a :data:`FRESH`
leaf's backward leg returns, and each part a split makes of it, reaches one
place, which owns it, as a rejoined element is owned as the whole was.  An
:data:`OWNS` leaf writes into its cotangent: it is handed an owned one as
is, and anything else (``z``, a pair the leg joins or of units, what a
caller hands the leaf alone) as a ``base.copy_elem`` copy.

A lens's ``get : A → B`` and ``put : A × B' → A'``, ``get(x) = y`` and
``put(x, z) = backward(r, z)`` for ``(y, r) = forward(x)``, are checked base
morphisms built on first access, so a composite checks an element and its
image once, at its own edge, and its leaves run on their legs, which
neither check nor memoise; :func:`get_put_lens` keeps its input as its
residual.  What a caller hands in, a state's point or a costate's map, is
checked where it enters.  Elements of products are pairs on every base, so
pairing and splitting take no carriers.  States are lenses out of the unit
boundary (they pick a point), costates are lenses into it (their put is an
ordinary map out of the forward carrier).  A scalar's reward ``w ↦
backward(forward(w)[1], unit)`` is one generated leg that packs no residual.
"""

from __future__ import annotations

import re
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

    def tabulate(self, dom: Carrier, cod: Carrier, fn: Callable[[Elem], Elem]) -> Mor:
        """``morphism(dom, cod, fn)`` for a caller that reads all of ``dom``; an enumerable base reads it now."""
        return self.morphism(dom, cod, fn)

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

    def copy_elem(self, x: Elem) -> Elem:
        """A copy of ``x`` that an :data:`OWNS` leaf may overwrite; an immutable element is its own."""
        return x

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


LEAF = "leaf"  # the term of a lens given by its two legs
FRESH = "fresh"  # a leaf's whose backward leg returns new buffers, held nowhere else
OWNS = "owns"  # a FRESH leaf's whose backward leg writes its result into its cotangent
STATE = "state"  # a state's leaf, whose one leg is its point, checked when it was built
COSTATE = "costate"  # a costate's leaf, whose one leg is its checked morphism


@dataclass(frozen=True, eq=False, init=False)
class Lens:
    """A morphism of boundary objects: a forward leg ``x ↦ (y, r)`` and a backward leg ``(r, z) ↦ x'``.

    ``Lens(base, src, dst, forward, backward)`` is a leaf, whose ``term`` is :data:`LEAF`, or :data:`FRESH`
    or :data:`OWNS` as it declares; a state's or a costate's ``legs`` are its one checked point or map
    (:func:`make_state`, :func:`make_costate`), and a combinator passes a composite's ``term`` and its leaves' ``legs``, left to right.
    ``get : src.fwd → dst.fwd`` and ``put : src.fwd × dst.bwd → src.bwd``
    are checked base morphisms, built on first access; the legs check nothing.
    """

    base: Base
    src: LensObj
    dst: LensObj
    term: Any
    legs: tuple

    def __init__(self, base, src, dst, forward=None, backward=None, *, term=LEAF, legs=None):
        legs = (forward, backward) if legs is None else legs
        if term in (LEAF, FRESH):  # an OWNS or a context leaf's own legs are generated, so an OWNS one copies what a caller hands it
            self.__dict__.update(forward=forward, backward=backward)
        self.__dict__.update(base=base, src=src, dst=dst, term=term, legs=legs)
        self.__post_init__()

    def __post_init__(self):
        """Checks nothing: the hook where ``bench/tracing.py`` (``lens_core.lenses_built``)
        and ``test_run_gan_builds_its_lenses_once`` count lens constructions."""

    def __getattr__(self, name: str):
        """A composite's ``forward`` and ``backward``, generated on first access."""
        if name not in ("forward", "backward"):
            raise AttributeError(name)
        self.__dict__.update(zip(("forward", "backward"), _compile(self.base, self.term)(*self.legs)))
        return self.__dict__[name]

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
    return Lens(base, a, a, term=("rewire", 0, 0), legs=())


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
    return Lens(base, l1.src, l2.dst, term=("compose", l1.term, l2.term), legs=l1.legs + l2.legs)


def lens_tensor(l1: Lens, l2: Lens) -> Lens:
    """Parallel composition: componentwise on paired boundaries."""
    base = l1.base
    if base is not l2.base:
        raise CompositionError("cannot tensor lenses over different bases")
    src, dst = obj_pair(base, l1.src, l2.src), obj_pair(base, l1.dst, l2.dst)
    return Lens(base, src, dst, term=("tensor", l1.term, l2.term), legs=l1.legs + l2.legs)


def make_state(base: Base, a: LensObj, point: Elem) -> Lens:
    """The state of ``a`` that picks ``point``, checked here: a lens out of the unit boundary, whose
    :data:`STATE` leaf is ``point``, bound once, so its legs call nothing and its backward one yields the unit."""
    if not base.contains(a.fwd, point):
        raise CompositionError(
            f"state point {point!r} is not an element of {base.describe(a.fwd)}"
        )
    return Lens(base, unit_obj(base), a, term=STATE, legs=(point,))


def make_costate(base: Base, a: LensObj, f: Mor) -> Lens:
    """The costate of ``a`` whose put is the checked base morphism ``f : a.fwd → a.bwd``: its
    :data:`COSTATE` leaf is ``f``, called on the residual its forward leg only renames from its input."""
    if f.dom != a.fwd or f.cod != a.bwd:
        raise CompositionError(
            f"costate map has type {base.describe(f.dom)} → "
            f"{base.describe(f.cod)}, expected {base.describe(a.fwd)} → "
            f"{base.describe(a.bwd)}"
        )
    return Lens(base, a, unit_obj(base), term=COSTATE, legs=(f,))


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


# -- generated legs -------------------------------------------------------
#
# A term is a leaf's kind, ("compose", t1, t2), ("tensor", t1, t2) or ("rewire",
# src, dst).  While generating, a value is a name bound at run time, a pair of
# values, or None for the unit; only a split of a name emits code, and one of a
# ``given`` value (the leg's input, a state's point ``p<i>``, a costate's value
# ``k<i>(…)``, their parts), or that call, only if it is read.  A state emits
# no line, a costate's forward leg none.  Units and pairs of units are names
# ``make`` binds once (``consts``).  The reward leg walks forward from ``x``,
# then backward from the unit, in one body, so no residual tuple is packed.


class _Source(list):
    """The lines of one generated leg; methods, not closures, so generating leaves no reference cycle."""

    def join(self, v) -> str:
        """The expression of ``v``: the two parts of one split rejoin as what was split."""
        if type(v) is not tuple:
            return v or self.consts.setdefault("base.unit_elem()", f"u{len(self.consts)}")
        a, b = self.join(v[0]), self.join(v[1])
        if (a, b) in self.parts:
            return self.parts[a, b]
        if {a, b} <= set(self.consts.values()):
            return self.consts.setdefault(f"base.pair_elem({a}, {b})", f"u{len(self.consts)}")
        return f"base.pair_elem({a}, {b})"

    def split(self, v) -> tuple:
        if type(v) is tuple:
            return v
        k, whole = len(self), self.join(v)
        parts = f"s{k}l", f"s{k}r"
        self.append(f"{parts[0]}, {parts[1]} = base.split_elem({whole})")
        self.parts[parts] = whole
        self.owned.update(parts if whole in self.owned else ())
        if whole in self.given:
            self.given.update(parts)
            self.optional[k] = parts
        return parts

    def kept(self, out: str) -> list:
        """The lines that make ``out``: a split of a ``given`` value only where one of its parts is read."""
        read, kept = set(re.findall(r"\w+", out)), []
        for k in reversed(range(len(self))):
            if k not in self.optional or read.intersection(self.optional[k]):
                read.update(re.findall(r"\w+", self[k].partition(" = ")[2]))
                kept.append(self[k])
        return kept[::-1]

    def bind(self, tree, v, bound: dict) -> dict:
        if type(tree) is tuple:
            for t, part in zip(tree, self.split(v)):
                self.bind(t, part, bound)
        elif tree is not None:
            bound[tree] = v
        return bound

    def build(self, tree, bound: dict):
        """``tree`` over the ``bound`` values; a leaf not bound is the unit."""
        return (self.build(tree[0], bound), self.build(tree[1], bound)) if type(tree) is tuple else bound.get(tree)

    def walk(self, t, v, forward: bool):
        """The value ``t``'s forward (or backward) leg makes of ``v``."""
        if type(t) is int:
            kind, out = self.kinds[t], f"y{t}" if forward else f"x{t}"
            if kind == STATE:  # its point, bound in make; backward, the unit
                out = f"p{t}" if forward else None
            elif kind == COSTATE and forward:  # the unit, keeping its input as its residual
                self.residual[t], out = self.join(v), None
            elif kind == COSTATE:  # its morphism on its residual, a line kept only if the value is read
                self.optional[len(self)] = (out,)
                self.append(f"{out} = k{t}({self.residual.get(t, f'r{t}')})")
            else:
                z = self.join(v)
                z = z if forward or kind != OWNS or z in self.owned else f"base.copy_elem({z})"
                self.append(f"{out}, r{t} = f{t}({z})" if forward else f"{out} = b{t}(r{t}, {z})")
            if kind != LEAF and out:  # a context leaf's output is given, a FRESH or OWNS one's owned
                (self.given if kind in (STATE, COSTATE) else self.owned).add(out)
            return out
        tag, a, b = t
        if tag == "rewire":
            return self.build(b if forward else a, self.bind(a if forward else b, v, {}))
        if tag == "compose":
            return self.walk(b, self.walk(a, v, True), True) if forward else self.walk(a, self.walk(b, v, False), False)
        left, right = self.split(v)
        return self.walk(a, left, forward), self.walk(b, right, forward)


def _numbered(t, kinds: list):
    """``t`` with its leaves numbered left to right; their terms are appended to ``kinds``."""
    if type(t) is str:
        kinds.append(t)
        return len(kinds) - 1
    return t if t[0] == "rewire" else (t[0], _numbered(t[1], kinds), _numbered(t[2], kinds))


def compile_make(source: list[str], namespace: dict, filename: str) -> Callable:
    """The ``make`` that ``source`` defines in ``namespace``, popped so the globals it shares hold no cycle."""
    exec(compile("\n".join(source) + "\n", filename, "exec"), namespace)
    return namespace.pop("make")


@lru_cache(maxsize=256)
def _compile(base: Base, term, reward: bool = False) -> Callable:
    """``make(…)``: given each leaf's legs, a state's point or a costate's morphism, the ``(forward,
    backward)`` of a composite, or if ``reward`` its one leg ``x ↦ backward(forward(x)[1], unit)``.

    Leaves run in the combinators' order; ``base``'s element operations, but for units, are looked up at every call.
    """
    kinds: list = []
    term = _numbered(term, kinds)
    held = [i for i, kind in enumerate(kinds) if kind != STATE]  # the leaves with a residual
    consts, bodies = {}, []
    for head, forward in (("reward(x)", None),) if reward else (("forward(x)", True), ("backward(r, z)", False)):
        leg = _Source([f"{''.join(f'r{i}, ' for i in held)}= r"] if held and forward is False else [])
        leg.kinds, leg.consts, leg.given, leg.owned, leg.parts, leg.optional, leg.residual = kinds, consts, {"x", "z"}, set(), {}, {}, {}
        if forward is None:  # the reward leg: forward from x, then backward from the unit
            leg.walk(term, "x", True)
        out = leg.join(leg.walk(term, {True: "x", False: "z"}.get(forward), bool(forward)))
        tail = f", ({''.join(leg.residual.get(i, f'r{i}') + ', ' for i in held)})" if forward else ""
        bodies += [f"    def {head}:", *(f"        {line}" for line in leg.kept(out + tail)), f"        return {out}{tail}"]
    params = ", ".join({STATE: f"p{i}", COSTATE: f"k{i}"}.get(kind, f"f{i}, b{i}") for i, kind in enumerate(kinds))
    source = [f"def make({params}):"] + [f"    {name} = {expr}" for expr, name in consts.items()] + bodies
    make = compile_make(source + [f"    return {'reward' if reward else 'forward, backward'}"], {"base": base}, "<lens>")
    if kinds:
        return make
    legs = make()  # no leaves: every lens of the term shares its legs
    return lambda: legs


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


def rewire(base: Base, leaves: Sequence[LensObj], src, dst) -> Lens:
    """The relabelling lens between two bracketings of the same ``leaves``.

    A bracketing is a leaf index, a pair of bracketings, or ``None`` for the
    unit; a malformed one raises :class:`CompositionError`.  Forward, an
    element is split along ``src`` and joined along ``dst``; backward, the
    reverse.  A leaf may be missing from one side only if it is a unit
    leaf, which then reads as ``base.unit_elem()``.  Its legs are generated
    like a composite's, and every lens of one ``(base, src, dst)`` shares them.
    """
    si, di = [], []
    src_obj, dst_obj = fold_bracketing(base, leaves, src, si), fold_bracketing(base, leaves, dst, di)
    si, di = [i for i in si if i is not None], [i for i in di if i is not None]
    if len(set(si)) != len(si) or len(set(di)) != len(di):
        raise CompositionError("rewire: a bracketing uses a leaf twice")
    if any(leaves[i] != unit_obj(base) for i in set(si) ^ set(di)):
        raise CompositionError("rewire: only unit leaves may be dropped or introduced")
    return Lens(base, src_obj, dst_obj, term=("rewire", src, dst), legs=())


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
