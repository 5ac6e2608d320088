"""Selection relations and compositional games on finite carriers.

A selection relation over a parameter port ⟨moves, rewards⟩ says which
(move, reward-function) pairs an agent is willing to settle on: its best
responses to each reward function, argmax being the canonical example.
Relations push forward along lenses, and two relations combine into a
product where each factor optimises against the other's choice held
fixed, which is exactly the Nash condition.

A game is a parametrised scalar (both boundaries trivial) together with a
selection relation on its parameter port.  The scalar induces a reward
function on the port; the solution set is the set of parameter states the
relation accepts against it.  Normal-form games are built
compositionally.  A player observes nothing, so its strategies are its
moves and its decision is the right unitor on its port ⟨moves, rewards⟩.
The decisions tensored make the arena, purely structural and, like the
players' Nash relation, built once per shape; it is closed in the context
(unit state, payoff costate).  A brute-force deviation check provides an
independent oracle.

Payoffs are exact ``Fraction``s, so ties and indifference are decided
without tolerance.  A player's reward carrier holds only the ranks of
their distinct payoffs, since a selection such as argmax needs only their
order; the exact values stay on the game.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence
from weakref import ref

from .errors import CompositionError, SizeCapError
from .finite_base import (
    ENUM_CAP,
    FINITE,
    FinFn,
    FinProd,
    FinSet,
    UNIT_LABEL,
    finset_tuple_product,
    iter_functions,
    split_tuple,
    tuple_label,
)
from .lens_core import Lens, LensObj, lens_runit, unit_obj
from .para_optic import (
    ParaLens,
    in_context,
    para_costate_solution_input,
    para_tensor,
    reparametrise,
)


@dataclass(frozen=True)
class SelectionRelation:
    """A predicate over (state of obj.fwd, reward function obj.fwd → obj.bwd).

    A reward function is a checked FinFn, or a product's restriction of one."""

    obj: LensObj
    accepts: Callable[[object, Callable], bool]


def best_response(obj: LensObj, best: Callable[[Callable], Iterable]) -> SelectionRelation:
    """The relation that accepts a state iff it is among ``best(k)``, the
    best responses to the reward function k.  They are found once per run of
    questions about one k: one memo slot keeps a weak reference to the last k
    asked about with its best responses, as a set of states, and never keeps
    k alive.  The pair is replaced as one, so a relation that
    :func:`nash_relation` shares between games answers from a consistent slot."""
    memo = (lambda: None), frozenset()  # the last k, weakly, and its best responses

    def accepts(x, k: Callable) -> bool:
        nonlocal memo
        seen, found = memo
        if seen() is not k:
            found = frozenset(best(k))
            memo = ref(k), found
        return x in found

    return SelectionRelation(obj, accepts)


def argmax_rel(moves: FinSet | FinProd, rewards: FinSet) -> SelectionRelation:
    """Accepts a move iff no other move earns a strictly larger reward.

    ``rewards`` lists the rewards in ascending order, so a reward's
    position in it is its rank.  Each move is ranked once per reward function;
    a FinFn must land in ``rewards``, and a value outside them raises.
    """
    if len(moves) == 0:
        raise CompositionError("argmax over the empty move set is undefined")
    rank = {r: i for i, r in enumerate(rewards.labels)}

    def best(k) -> list:
        if isinstance(k, FinFn) and k.cod != rewards:
            raise CompositionError(f"reward function lands in {k.cod}, expected the rewards {rewards}")
        ranks = [rank.get(k(y), -1) for y in moves]
        if min(ranks) < 0:
            y = next(y for r, y in zip(ranks, moves) if r < 0)
            raise CompositionError(f"reward function maps {y!r} to {k(y)!r}, outside the rewards {rewards}")
        top = max(ranks)
        return [y for r, y in zip(ranks, moves) if r == top]

    return best_response(LensObj(moves, rewards), best)


def total_rel(obj: LensObj) -> SelectionRelation:
    """The relation that accepts everything (an indifferent agent)."""
    return SelectionRelation(obj, lambda x, k: True)


def nash_product(eps: SelectionRelation, delta: SelectionRelation) -> SelectionRelation:
    """Both factors accept, each against the other's component held fixed.

    The joint reward function is restricted for each factor by freezing the
    other factor's move and projecting onto the factor's own reward carrier.
    A restriction is a plain function, built once per reward function and
    frozen move, while the best responses are found, and only where it can
    matter: delta's, against a move eps accepts.  A FinFn's type is checked
    here, a restriction's is not: its values are projections of a checked one.
    """
    em, er = eps.obj.fwd, eps.obj.bwd
    dm, dr = delta.obj.fwd, delta.obj.bwd
    obj = LensObj(FinProd(em, dm), FinProd(er, dr))

    def eps_best(k, y) -> list:  # eps's best responses with delta's move y held fixed
        k_y = lambda a: k((a, y))[0]
        return [x for x in em if eps.accepts(x, k_y)]

    def delta_best(k, x) -> set:  # delta's best responses with eps's move x held fixed
        k_x = lambda b: k((x, b))[1]
        return {y for y in dm if delta.accepts(y, k_x)}

    def best(k) -> Iterator[tuple]:
        if isinstance(k, FinFn) and (k.dom != obj.fwd or k.cod != obj.bwd):
            raise CompositionError(f"reward function is not {obj.fwd} → {obj.bwd}")
        by_x: dict = {}  # delta's best responses, found only against a move eps accepts
        for y in dm:
            for x in eps_best(k, y):
                if x not in by_x:
                    by_x[x] = delta_best(k, x)
                if y in by_x[x]:
                    yield x, y

    return best_response(obj, best)


def sel_pushforward(f: Lens, eps: SelectionRelation) -> SelectionRelation:
    """Transport a relation along a lens.

    The image relation accepts (y, k) iff some state x with get(x) = y is
    accepted by ``eps`` against the reward function threaded back through
    ``f``.  A FinFn's type is checked, and any other reward function's values
    before the backward leg reads them; either is threaded once on ``f``'s legs
    into a table over all source states, and its best responses are the images
    of the source states ``eps`` accepts against it.
    """
    if f.base is not FINITE:
        raise CompositionError("relations only push forward over the finite base")
    if f.src != eps.obj:
        raise CompositionError(
            "lens source does not match the relation's parameter port"
        )
    count = len(f.src.fwd)
    if count > ENUM_CAP:
        raise SizeCapError(
            f"{count} source states exceed the cap of {ENUM_CAP}", count=count
        )

    get, forward, backward, rewards = f.get, f.forward, f.backward, f.dst.bwd

    def best(k) -> list:
        if (checked := isinstance(k, FinFn)) and (k.dom != f.dst.fwd or k.cod != rewards):
            raise CompositionError(f"costate map has type {k.dom} → {k.cod}, expected {f.dst.fwd} → {rewards}")

        def thread(x):
            y, r = forward(x)
            z = k(y)
            if not checked and z not in rewards:
                raise CompositionError(f"reward function maps {y!r} to {z!r}, outside the rewards {rewards}")
            return backward(r, z)
        threaded = FINITE.tabulate(f.src.fwd, f.src.bwd, thread)
        return [get(x) for x in f.src.fwd if eps.accepts(x, threaded)]

    return best_response(f.dst, best)


def relations_equal(r1: SelectionRelation, r2: SelectionRelation) -> bool:
    """Extensional equality over all states and all reward functions."""
    if r1.obj != r2.obj:
        raise CompositionError("relations live on different parameter ports")
    for k in iter_functions(r1.obj.fwd, r1.obj.bwd):  # one k alive at a time
        for x in r1.obj.fwd:
            if r1.accepts(x, k) != r2.accepts(x, k):
                return False
    return True


# -- decisions and games ------------------------------------------------


def decision(moves: FinSet, rewards: FinSet) -> ParaLens:
    """A single agent observing nothing: its strategies are its moves, so its
    parameter port ⟨moves, rewards⟩ is also its target, and its carrier is
    the right unitor on that port.  Forward the chosen move is played;
    backward the received reward is handed to the port unchanged."""
    port = LensObj(moves, rewards)
    return ParaLens(FINITE, (port,), unit_obj(FINITE), port, lens_runit(FINITE, port))


@dataclass(frozen=True)
class OpenGame:
    """A parametrised scalar (or open lens) paired with a selection relation
    on its parameter port, which is checked when the game is built."""

    lens: ParaLens
    sel: SelectionRelation

    def __post_init__(self):
        if self.lens.params != self.sel.obj:
            raise CompositionError("selection relation does not live on the game's parameter port")


def solution_set(game: OpenGame) -> tuple:
    """Equilibria of a closed game (both boundaries trivial), against its reward read whole."""
    reward = para_costate_solution_input(game.lens)
    return tuple(w for w in game.lens.params.fwd if game.sel.accepts(w, reward))


# -- normal-form games --------------------------------------------------


@dataclass(frozen=True)
class NormalFormGame:
    """Strategy sets plus an exact payoff table over the profile product.

    ``values`` is the exact table, keyed by tuples of moves in product
    order.  ``levels[i]`` lists player i's distinct values in ascending
    order, and ``grids[i]`` is their ranks ``"0" … str(len(levels[i]) - 1)``,
    player i's reward carrier.  ``payoff`` maps each profile, a left-nested
    tuple of moves, to the left-nested tuple of its ranks; ``grids`` records
    the factorisation of its codomain.
    """

    players: tuple[FinSet, ...]
    grids: tuple[FinSet, ...]
    payoff: FinFn
    values: Mapping[tuple[str, ...], tuple[Fraction, ...]]
    levels: tuple[tuple[Fraction, ...], ...]


def game_of_rows(players: tuple[FinSet, ...], values: dict[tuple[str, ...], tuple[Fraction, ...]]) -> NormalFormGame:
    """The game of a checked table, ``values`` mapping every profile in product
    order to its n ``Fraction``s.  Each column's distinct payoff objects are
    sorted once, equal values sharing a rank however they were written; ranks
    are read column by column and tabulated over the profile product in one pass."""
    levels, grids, columns = [], [], []
    for col in zip(*values.values()):
        ids = list(map(id, col))
        ranks, level = {}, []  # payoff object id -> rank label; the distinct values
        for key, v in sorted(dict(zip(ids, col)).items(), key=itemgetter(1)):
            if not level or v != level[-1]:
                level.append(v)
            ranks[key] = str(len(level) - 1)
        levels.append(tuple(level))
        grids.append(FinSet(tuple(map(str, range(len(level))))))
        columns.append(map(ranks.__getitem__, ids))
    dom = finset_tuple_product(players)  # iterates in product order, as nested pairs
    images = reduce(zip, columns)  # in product order, one per profile
    payoff = FinFn.tabulated(dom, finset_tuple_product(grids), lambda _: next(images))
    return NormalFormGame(players, tuple(grids), payoff, values, tuple(levels))


def brute_force_nash(g: NormalFormGame, tags: Sequence[str] | None = None) -> tuple:
    """Independent oracle: profiles with no strictly improving unilateral deviation.

    Given per-player ``tags``, only ``"argmax"`` players are held to deviations.
    """
    tags = _checked_tags(g, tags)
    out = []
    for prof, vals in g.values.items():
        if not any(
            g.values[prof[:i] + (dev,) + prof[i + 1 :]][i] > vals[i]
            for i, player in enumerate(g.players)
            if tags[i] == "argmax"
            for dev in player.labels
            if dev != prof[i]
        ):
            out.append(tuple_label(prof))
    return tuple(out)


def brute_force_hicks(g: NormalFormGame) -> tuple:
    """Profiles maximising the summed payoff, by direct enumeration.  Each
    distinct combination of payoff objects is summed once; a parsed spec
    shares one ``Fraction`` per distinct payoff value."""
    keys = [tuple(map(id, vals)) for vals in g.values.values()]
    totals = {key: sum(vals) for key, vals in dict(zip(keys, g.values.values())).items()}
    best = max(totals.values())
    tops = {key for key, total in totals.items() if total == best}
    return tuple(tuple_label(p) for p, key in zip(g.values, keys) if key in tops)


@lru_cache(maxsize=64)
def arena(players: tuple[FinSet, ...], grids: tuple[FinSet, ...]) -> ParaLens:
    """The decisions tensored, one per player: rewires and tensors only.

    It depends only on the strategy sets and the rank grids, so it is built
    once per shape and kept in a bounded cache.
    """
    parts = [decision(player, grid) for player, grid in zip(players, grids)]
    return reduce(para_tensor, parts)


@lru_cache(maxsize=64)
def nash_relation(players: tuple[FinSet, ...], grids: tuple[FinSet, ...], tags: tuple[str, ...]) -> SelectionRelation:
    """The Nash product of the players' relations, ``argmax`` or ``total`` by
    their checked ``tags``.  Like the :func:`arena` it depends only on the
    ports, so it is built once per shape and tags, and kept in a bounded cache."""
    rels = (argmax_rel(m, r) if tag == "argmax" else total_rel(LensObj(m, r)) for m, r, tag in zip(players, grids, tags))
    return reduce(nash_product, rels)


def game_scalar(g: NormalFormGame) -> ParaLens:
    """The closed compositional form: the game's :func:`arena` played in
    the context (unit state, payoff costate), so the payoff enters only as
    the costate.  The parameter port is the profile product."""
    units = tuple_label([UNIT_LABEL] * len(g.players))
    return in_context(arena(g.players, g.grids), units, g.payoff)


SELECTION_TAGS = ("argmax", "total")  # the per-player tags a spec or the API may name


def _checked_tags(g: NormalFormGame, tags: Sequence[str] | None) -> list[str]:
    """Per-player selection tags, each one of ``SELECTION_TAGS``; ``None`` makes every player ``"argmax"``."""
    if tags is None:
        return ["argmax"] * len(g.players)
    tags = list(tags)
    if len(tags) != len(g.players):
        raise CompositionError("one selection tag per player required")
    for tag in tags:
        if tag not in SELECTION_TAGS:
            raise CompositionError(f"unknown selection tag {tag!r}")
    return tags


def compositional_game(g: NormalFormGame, tags: Sequence[str] | None = None) -> OpenGame:
    """Assemble the open game for a normal-form game and per-player selection tags."""
    return OpenGame(game_scalar(g), nash_relation(g.players, g.grids, tuple(_checked_tags(g, tags))))


def sum_of_payoffs_lens(g: NormalFormGame) -> Lens:
    """Collapse the grid product to the ranks of the totals the game plays.

    Identity forward.  Each distinct rank tuple in the payoff table is summed
    once, exactly, from ``levels``, and ranked by its total in one sorted
    pass; ``sums`` ranks those totals, so it and the table hold at most one
    entry per profile.  Relation equality reaches every tuple, so one that no
    profile plays gets the rank of the greatest played total at or below its
    own, or ``"0"``: ranks stay weakly monotone.
    """
    table, ordered = {}, []  # each played rank tuple's rank; the distinct totals, ascending
    for r, t in sorted({r: _total(g, r) for r in dict.fromkeys(g.payoff.table.values())}.items(), key=itemgetter(1)):
        if not ordered or t != ordered[-1]:
            ordered.append(t)
        table[r] = str(len(ordered) - 1)
    omega, sums = finset_tuple_product(g.players), FinSet(tuple(map(str, range(len(ordered)))))

    def backward(_, r) -> str:
        return table.get(r) or str(max(bisect_right(ordered, _total(g, r)) - 1, 0))
    return Lens(FINITE, LensObj(omega, sums), LensObj(omega, finset_tuple_product(g.grids)), lambda w: (w, None), backward)


def _total(g: NormalFormGame, ranks: tuple) -> Fraction:
    """The exact payoff total of a left-nested tuple of rank labels."""
    return sum(level[int(i)] for level, i in zip(g.levels, split_tuple(g.grids, ranks)))


def hicks_games(g: NormalFormGame) -> tuple[OpenGame, OpenGame]:
    """The two equivalent forms of joint-total maximisation.

    Route one reparametrises the scalar by the sum-of-payoffs lens and runs
    argmax over profiles; route two leaves the scalar alone and pushes that
    argmax forward along the same lens.  Their solution sets coincide.
    """
    scalar = game_scalar(g)
    collapse = sum_of_payoffs_lens(g)
    joint = argmax_rel(finset_tuple_product(g.players), collapse.src.bwd)
    route_reparam = OpenGame(reparametrise(scalar, collapse), joint)
    route_pushed = OpenGame(scalar, sel_pushforward(collapse, joint))
    return route_reparam, route_pushed
