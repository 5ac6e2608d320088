"""Finite carriers: label sets, checked functions, exact rational payoffs.

Everything here is symbolic and exact.  Product carriers get canonical pair
labels ``(x,y)`` and n-ary products associate to the left, so any composite
carrier has a single deterministic presentation.  Morphisms are checked,
memoised procedures; only ``FiniteBase.mor_equal`` tabulates, to decide
equality.  Payoff values are ``fractions.Fraction`` throughout; floats never
enter the game-theoretic side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from typing import Callable, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

from .errors import CompositionError, SizeCapError
from .lens_core import Base

UNIT_LABEL = "•"

DEFAULT_ENUM_CAP = 10**6

# Exact rational payoffs.  Fraction already normalises to lowest terms with a
# positive denominator, which is all the canonicity we need.
Payoff = Fraction


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
        # products with this set as left factor, dropped with the right one
        object.__setattr__(self, "_products", WeakKeyDictionary())

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self._pos

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise CompositionError(f"label {label!r} is not in {self}") from None

    def __str__(self) -> str:
        inner = ",".join(self.labels[:6])
        if len(self.labels) > 6:
            inner += f",…[{len(self.labels)} labels]"
        return "{" + inner + "}"


UNIT_SET = FinSet((UNIT_LABEL,))


def pair_label(x: str, y: str) -> str:
    return f"({x},{y})"


def finset_product(a: FinSet, b: FinSet) -> FinSet:
    """Product set with pair labels, first factor varying slowest."""
    # memoised on a, keyed weakly by b: a product lives as long as both factors
    prod = a._products.get(b)
    if prod is None:
        prod = FinSet(tuple(pair_label(x, y) for x in a.labels for y in b.labels))
        a._products[b] = prod
    return prod


def split_pair(a: FinSet, b: FinSet, label: str) -> tuple[str, str]:
    """Invert ``pair_label`` by position in the product set (no string parsing)."""
    i, j = divmod(finset_product(a, b).index(label), len(b))
    return a.labels[i], b.labels[j]


def tuple_label(parts: Sequence[str]) -> str:
    """Left-associated rendering of an n-tuple of labels."""
    if not parts:
        return UNIT_LABEL
    return reduce(pair_label, parts)


def finset_tuple_product(sets: Sequence[FinSet]) -> FinSet:
    """Left-associated n-ary product; the empty product is the unit set."""
    if not sets:
        return UNIT_SET
    return reduce(finset_product, sets)


def split_tuple(sets: Sequence[FinSet], label: str) -> tuple[str, ...]:
    """Decompose a left-associated product label into its components."""
    if not sets:
        return ()
    if len(sets) == 1:
        sets[0].index(label)
        return (label,)
    head = finset_tuple_product(sets[:-1])
    x, y = split_pair(head, sets[-1], label)
    return split_tuple(sets[:-1], x) + (y,)


@dataclass(frozen=True, eq=False)
class FinFn:
    """A total function between finite sets, as a checked, memoised procedure.

    ``fn`` is a callable or a table given as data.  The first evaluation at
    a label checks that the label is in ``dom`` and its image in ``cod``,
    then keeps the image in ``table``, which never outgrows the domain.  A
    table given as data is checked the same way, eagerly.
    """

    dom: FinSet
    cod: FinSet
    fn: Callable[[str], str] | Mapping[str, str]
    table: dict[str, str] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "table", {})
        if isinstance(self.fn, Mapping):
            data = dict(self.fn)
            missing = [x for x in self.dom.labels if x not in data]
            extra = [x for x in data if x not in self.dom]
            if missing or extra:
                raise CompositionError(
                    f"table does not match domain {self.dom}: "
                    f"missing {missing[:4]}, extra {extra[:4]}"
                )
            object.__setattr__(self, "fn", data.__getitem__)
            for x in self.dom.labels:
                self(x)

    def __call__(self, label: str) -> str:
        table = self.table
        if label in table:
            return table[label]
        if label not in self.dom:
            raise CompositionError(f"label {label!r} is not in domain {self.dom}")
        image = self.fn(label)
        if image not in self.cod:
            raise CompositionError(
                f"image {image!r} of {label!r} is not in codomain {self.cod}"
            )
        table[label] = image
        return image


def enumerate_functions(
    dom: FinSet, cod: FinSet, max_size: int = DEFAULT_ENUM_CAP
) -> list[FinFn]:
    """All total functions ``dom → cod`` in lexicographic order.

    Order is by the image tuple with the earliest domain label most
    significant, matching the label order of the left-associated product
    ``cod^|dom|``.
    """
    count = len(cod) ** len(dom)
    if count > max_size:
        raise SizeCapError(
            f"{count} functions {dom} → {cod} exceeds the cap of {max_size}",
            count=count,
        )
    return [
        FinFn(dom, cod, dict(zip(dom.labels, images)))
        for images in iter_product(cod.labels, repeat=len(dom))
    ]


# -- payoff helpers -----------------------------------------------------


def payoff_label(value: Fraction | int | str) -> str:
    """Canonical label of a rational payoff, e.g. ``3`` or ``-1/2``."""
    return str(Fraction(value))


def parse_payoff(label: str) -> Fraction:
    return Fraction(label)


def payoff_grid(values: Iterable[Fraction | int | str]) -> FinSet:
    """The finite carrier of a set of payoff values, sorted ascending."""
    distinct = sorted({Fraction(v) for v in values})
    return FinSet(tuple(payoff_label(v) for v in distinct))


# -- the Base instantiation ---------------------------------------------


class FiniteBase(Base):
    """Carriers are :class:`FinSet`, morphisms are :class:`FinFn` procedures."""

    name = "finite"

    def unit(self) -> FinSet:
        return UNIT_SET

    def pair(self, a: FinSet, b: FinSet) -> FinSet:
        return finset_product(a, b)

    def contains(self, c: FinSet, x) -> bool:
        return isinstance(x, str) and x in c

    def describe(self, c: FinSet) -> str:
        return str(c)

    def identity(self, c: FinSet) -> FinFn:
        return FinFn(c, c, lambda x: x)

    def morphism(self, dom: FinSet, cod: FinSet, fn) -> FinFn:
        return FinFn(dom, cod, fn)

    def compose(self, f: FinFn, g: FinFn) -> FinFn:
        """The procedure ``x ↦ g(f(x))``."""
        if f.cod != g.dom:
            raise CompositionError(
                f"cannot compose: codomain {f.cod} of the first function "
                f"differs from domain {g.dom} of the second"
            )
        return FinFn(f.dom, g.cod, lambda x: g(f(x)))

    def product(self, f: FinFn, g: FinFn) -> FinFn:
        """Componentwise action on the product of domains."""
        def fn(xy: str) -> str:
            x, y = split_pair(f.dom, g.dom, xy)
            return pair_label(f(x), g(y))

        return FinFn(finset_product(f.dom, g.dom), finset_product(f.cod, g.cod), fn)

    def dom_of(self, f: FinFn) -> FinSet:
        return f.dom

    def cod_of(self, f: FinFn) -> FinSet:
        return f.cod

    def apply(self, f: FinFn, x: str) -> str:
        return f(x)

    def unit_elem(self) -> str:
        return UNIT_LABEL

    def pair_elem(self, a: FinSet, b: FinSet, x: str, y: str) -> str:
        return pair_label(x, y)

    def split_elem(self, a: FinSet, b: FinSet, xy: str) -> tuple[str, str]:
        return split_pair(a, b, xy)

    def elements(self, c: FinSet):
        return c.labels

    def mor_equal(self, f: FinFn, g: FinFn) -> bool:
        """Pointwise equality: the one place a whole domain is enumerated."""
        same_type = f.dom == g.dom and f.cod == g.cod
        return same_type and all(f(x) == g(x) for x in f.dom.labels)


FINITE = FiniteBase()
