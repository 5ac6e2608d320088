"""Finite carriers: label sets, their products, checked functions.

Everything here is symbolic and exact.  Base carriers are sets of string
labels; a product carrier is the pair of its factors, its elements are
Python pairs ``(x, y)``, and n-ary products associate to the left, so any
composite carrier has a single deterministic presentation and no two
elements can share an encoding.  A product is enumerated only when iterated.
Morphisms are memoised procedures, tabulated only where a domain is read
whole (``FiniteBase.mor_equal``, :meth:`FinFn.tabulated`); each checks an
element and its image on first evaluation, a table each distinct image
when built.  A lens's ``get`` and ``put`` are morphisms built only when
asked for, so a composite lens is checked once, at its edge; the lenses
inside it run on their legs, which neither check nor memoise.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import product as iter_product
from typing import Callable, Iterator, Sequence

from .errors import CompositionError, SizeCapError
from .lens_core import Base

UNIT_LABEL = "•"

ENUM_CAP = 10**6  # the most functions or source states one call may enumerate


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of distinct string labels.  May be empty."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.labels, str):
            raise CompositionError("labels must be a sequence of strings, not a string")
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

    Length and membership come from the factors: a plain ``str`` component
    is looked up in its :class:`FinSet` factor's label index, with no call,
    and any other tested with ``in``.  The elements, first factor varying
    slowest, are enumerated only when something iterates.
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
        prod = self  # walks the left spine in a loop: a left-nested product is as deep as it has factors
        while type(prod) is FinProd:
            if type(xy) is not tuple or len(xy) != 2:
                return False
            xy, y = xy
            right, prod = prod.right, prod.left
            if not (y in right._pos if type(y) is str and type(right) is FinSet else y in right):
                return False
        return xy in prod._pos if type(xy) is str and type(prod) is FinSet else xy in prod

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
    domain.  A table given as data is checked eagerly, each distinct image
    once, and becomes the memo; so does one :meth:`tabulated` reads.
    """

    dom: Carrier
    cod: Carrier
    fn: Callable[[object], object] | Mapping[object, object]
    table: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "table", {})
        if isinstance(self.fn, Mapping):
            data = dict(self.fn)
            if len(data) != len(self.dom) or not all(map(data.__contains__, self.dom)):  # else no key is extra
                missing = [x for x in self.dom if x not in data]
                extra = [x for x in data if x not in self.dom]
                raise CompositionError(
                    f"table does not match domain {self.dom}: "
                    f"missing {missing[:4]}, extra {extra[:4]}"
                )
            object.__setattr__(self, "fn", data.__getitem__)
            self._adopt(data)

    @classmethod
    def tabulated(cls, dom: Carrier, cod: Carrier, fn: Callable[[object], object]) -> FinFn:
        """``fn`` read at every element of ``dom``, in order, in one pass: its keys are ``dom``'s
        own, so none is copied or checked, and its images are checked as a table's."""
        f = cls(dom, cod, (table := {}).__getitem__)
        try:
            for x in dom:
                table[x] = fn(x)
        finally:  # a bad image read before a failure raises first, as a lazy read of dom in order would
            f._adopt(table)
        return f

    def _adopt(self, data: dict) -> None:
        """Make ``data``, a table over a prefix of ``dom``, the memo once its images are checked."""
        try:  # each distinct image once, in table order
            ok = all(map(self.cod.__contains__, dict.fromkeys(data.values())))
        except TypeError:  # an unhashable image, so in no carrier
            ok = False
        if not ok:
            for x in self.dom:  # raises at the first bad image
                self(x)
        object.__setattr__(self, "table", data)

    def __call__(self, x: object) -> object:
        try:
            image = self.table.get(x)  # None only if not memoised: no carrier holds None
        except TypeError:  # unhashable, so in no carrier
            raise CompositionError(f"element {x!r} is not in domain {self.dom}") from None
        if image is not None:
            return image
        if x not in self.dom:
            raise CompositionError(f"element {x!r} is not in domain {self.dom}")
        image = self.fn(x)
        if image not in self.cod:
            raise CompositionError(
                f"image {image!r} of {x!r} is not in codomain {self.cod}"
            )
        self.table[x] = image
        return image


def iter_functions(dom: Carrier, cod: Carrier) -> Iterator[FinFn]:
    """All total functions ``dom → cod``, one at a time, in lexicographic order.

    Order is by the image tuple with the earliest domain element most
    significant, matching the element order of the left-associated product
    ``cod^|dom|``.  ``ENUM_CAP`` is checked at the call, and each function can
    die before the next is built.
    """
    count = len(cod) ** len(dom)
    if count > ENUM_CAP:
        raise SizeCapError(
            f"{count} functions {dom} → {cod} exceeds the cap of {ENUM_CAP}",
            count=count,
        )
    xs = dom.labels
    return (FinFn(dom, cod, dict(zip(xs, images))) for images in iter_product(cod, repeat=len(dom)))


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

    def tabulate(self, dom: Carrier, cod: Carrier, fn) -> FinFn:
        return FinFn.tabulated(dom, cod, fn)

    def compose(self, f: FinFn, g: FinFn) -> FinFn:
        """The procedure ``x ↦ g(f(x))``."""
        if f.cod != g.dom:
            raise CompositionError(
                f"cannot compose: codomain {f.cod} of the first function "
                f"differs from domain {g.dom} of the second"
            )
        return FinFn(f.dom, g.cod, lambda x: g(f(x)))

    def product(self, f: FinFn, g: FinFn) -> FinFn:
        """Componentwise action on pairs."""
        def fn(xy: tuple) -> tuple:
            x, y = self.split_elem(xy)
            return f(x), g(y)

        return FinFn(FinProd(f.dom, g.dom), FinProd(f.cod, g.cod), fn)

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
