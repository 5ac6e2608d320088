"""Finite carriers: label sets, checked functions, exact rational payoffs.

Everything here is symbolic and exact.  Base carriers are sets of string
labels; a product carrier is the pair of its factors, its elements are
Python pairs ``(x, y)``, and n-ary products associate to the left, so any
composite carrier has a single deterministic presentation and no two
elements can share an encoding.  A product is enumerated only when iterated.
Morphisms are memoised procedures; only ``FiniteBase.mor_equal`` tabulates,
to decide equality.  Those built from caller data and a lens's ``get`` and
``put``, which a lens builds only when asked for them, check each element
and its image on first evaluation, so a composite lens is checked once, at
its edge; the lenses inside it run on their legs, which neither check nor
memoise.  Only ``compose``, ``product`` and the Nash restrictions are
``derived``: they only memoise, as every part of their input reaches a
checked morphism.  Payoff values are ``fractions.Fraction`` throughout;
floats never enter the game-theoretic side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .errors import CompositionError, SizeCapError
from .lens_core import Base

UNIT_LABEL = "•"

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of distinct string labels.  May be empty."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        pos: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise CompositionError(f"labels must be strings, got {label!r}")
            if label in pos:
                raise CompositionError(f"duplicate label {label!r} in finite set")
            pos[label] = i
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_hash", hash(labels))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self._pos

    def __str__(self) -> str:
        inner = ",".join(self.labels[:6])
        if len(self.labels) > 6:
            inner += f",…[{len(self.labels)} labels]"
        return "{" + inner + "}"


UNIT_SET = FinSet((UNIT_LABEL,))


@dataclass(frozen=True)
class FinProd:
    """The product of two finite carriers, whose elements are pairs ``(x, y)``.

    Length and membership come from the factors.  The elements, first
    factor varying slowest, are enumerated only when something iterates.
    """

    left: FinSet | FinProd
    right: FinSet | FinProd

    def __len__(self) -> int:
        return len(self.left) * len(self.right)

    def __iter__(self):
        return iter_product(self.left, self.right)

    @property
    def labels(self) -> tuple:
        return tuple(self)

    def __contains__(self, xy: object) -> bool:
        if type(xy) is not tuple or len(xy) != 2:
            return False
        return xy[0] in self.left and xy[1] in self.right

    def __str__(self) -> str:
        return f"{self.left}×{self.right}"


Carrier = FinSet | FinProd


def tuple_label(parts: Sequence) -> object:
    """Left-associated nesting of an n-tuple of elements into pairs."""
    if not parts:
        return UNIT_LABEL
    return reduce(lambda x, y: (x, y), parts)


def finset_tuple_product(sets: Sequence[Carrier]) -> Carrier:
    """Left-associated n-ary product; the empty product is the unit set."""
    if not sets:
        return UNIT_SET
    return reduce(FinProd, sets)


def split_tuple(sets: Sequence[Carrier], elem: object) -> tuple:
    """Unnest a left-associated product element into its components."""
    if not sets:
        return ()
    if len(sets) == 1:
        return (elem,)
    head, last = elem
    return split_tuple(sets[:-1], head) + (last,)


@dataclass(frozen=True, eq=False)
class FinFn:
    """A total function between finite sets, as a checked, memoised procedure.

    ``fn`` is a callable or a table given as data.  The first evaluation at
    an element checks that the element is in ``dom`` and its image in
    ``cod``, then keeps the image in ``table``, which never outgrows the
    domain.  A table given as data is checked the same way, eagerly.  A
    morphism from :meth:`FiniteBase.derived` (``compose``, ``product``, a
    Nash restriction) skips both checks.
    """

    checked: ClassVar[bool] = True

    dom: Carrier
    cod: Carrier
    fn: Callable[[object], object] | Mapping[object, object]
    table: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "table", {})
        if isinstance(self.fn, Mapping):
            data = dict(self.fn)
            missing = [x for x in self.dom if x not in data]
            extra = [x for x in data if x not in self.dom]
            if missing or extra:
                raise CompositionError(
                    f"table does not match domain {self.dom}: "
                    f"missing {missing[:4]}, extra {extra[:4]}"
                )
            object.__setattr__(self, "fn", data.__getitem__)
            for x in self.dom:
                self(x)

    def __call__(self, x: object) -> object:
        table = self.table
        try:
            if x in table:
                return table[x]
        except TypeError:  # unhashable, so in no carrier
            raise CompositionError(f"element {x!r} is not in domain {self.dom}") from None
        if self.checked and x not in self.dom:
            raise CompositionError(f"element {x!r} is not in domain {self.dom}")
        image = self.fn(x)
        if self.checked and image not in self.cod:
            raise CompositionError(
                f"image {image!r} of {x!r} is not in codomain {self.cod}"
            )
        table[x] = image
        return image


class _DerivedFn(FinFn):
    """A morphism that passes each part of its input to a checked one; it only memoises."""

    checked = False


def enumerate_functions(
    dom: Carrier, cod: Carrier, max_size: int = DEFAULT_ENUM_CAP
) -> list[FinFn]:
    """All total functions ``dom → cod`` in lexicographic order.

    Order is by the image tuple with the earliest domain element most
    significant, matching the element order of the left-associated product
    ``cod^|dom|``.
    """
    count = len(cod) ** len(dom)
    if count > max_size:
        raise SizeCapError(
            f"{count} functions {dom} → {cod} exceeds the cap of {max_size}",
            count=count,
        )
    xs = dom.labels
    return [
        FinFn(dom, cod, dict(zip(xs, images)))
        for images in iter_product(cod, repeat=len(dom))
    ]


# -- payoff helpers -----------------------------------------------------


def payoff_label(value: Fraction | int | str) -> str:
    """Canonical label of a rational payoff, e.g. ``3`` or ``-1/2``."""
    return str(parse_payoff(value))


def parse_payoff(label: Fraction | int | str) -> Fraction:
    """The rational value of a payoff label or number; a ``Fraction`` is returned as it is."""
    return label if type(label) is Fraction else Fraction(label)


def payoff_grid(values: Iterable[Fraction | int | str]) -> FinSet:
    """The finite carrier of a set of payoff values, sorted ascending."""
    distinct = sorted({parse_payoff(v) for v in values})
    return FinSet(tuple(payoff_label(v) for v in distinct))


# -- the Base instantiation ---------------------------------------------


class FiniteBase(Base):
    """Carriers are :class:`FinSet` and :class:`FinProd`, morphisms are :class:`FinFn`."""

    name = "finite"

    def unit(self) -> FinSet:
        return UNIT_SET

    def pair(self, a: Carrier, b: Carrier) -> FinProd:
        return FinProd(a, b)

    def contains(self, c: Carrier, x) -> bool:
        return x in c

    def describe(self, c: Carrier) -> str:
        return str(c)

    def identity(self, c: Carrier) -> FinFn:
        return FinFn(c, c, lambda x: x)

    def morphism(self, dom: Carrier, cod: Carrier, fn) -> FinFn:
        return FinFn(dom, cod, fn)

    def derived(self, dom: Carrier, cod: Carrier, fn) -> FinFn:
        return _DerivedFn(dom, cod, fn)

    def compose(self, f: FinFn, g: FinFn) -> FinFn:
        """The procedure ``x ↦ g(f(x))``."""
        if f.cod != g.dom:
            raise CompositionError(
                f"cannot compose: codomain {f.cod} of the first function "
                f"differs from domain {g.dom} of the second"
            )
        return self.derived(f.dom, g.cod, lambda x: g(f(x)))

    def product(self, f: FinFn, g: FinFn) -> FinFn:
        """Componentwise action on pairs."""
        def fn(xy: tuple) -> tuple:
            x, y = self.split_elem(xy)
            return f(x), g(y)

        return self.derived(FinProd(f.dom, g.dom), FinProd(f.cod, g.cod), fn)

    def apply(self, f: FinFn, x):
        return f(x)

    def unit_elem(self) -> str:
        return UNIT_LABEL

    def pair_elem(self, x, y) -> tuple:
        return (x, y)

    def split_elem(self, xy: tuple) -> tuple:
        if type(xy) is not tuple or len(xy) != 2:
            raise CompositionError(f"element {xy!r} is not a pair")
        return xy

    def mor_equal(self, f: FinFn, g: FinFn) -> bool:
        """Pointwise equality: the one place a whole domain is enumerated."""
        same_type = f.dom == g.dom and f.cod == g.cod
        return same_type and all(f(x) == g(x) for x in f.dom)


FINITE = FiniteBase()
