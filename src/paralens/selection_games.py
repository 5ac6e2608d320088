"""Selection relations and compositional games on finite carriers.

A selection relation over a parameter port ⟨moves, rewards⟩ says which
(move, reward-function) pairs an agent is willing to settle on; argmax is
the canonical example.  Relations push forward along lenses, and two
relations combine into a product where each factor optimises against the
other's choice held fixed, which is exactly the Nash condition.

A game is a parametrised scalar (both boundaries trivial) together with a
selection relation on its parameter port.  The scalar induces a reward
function on the port; the solution set is the set of parameter states the
relation accepts against it.  Normal-form games are built compositionally:
one decision per player, tensored, closed with the payoff table as a
costate.  A brute-force deviation check provides an independent oracle.

All payoff arithmetic is exact (rational labels), so ties and indifference
are decided without tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iter_product
from typing import Callable, Mapping, Sequence

from .errors import CompositionError, SizeCapError
from .finite_base import (
    DEFAULT_ENUM_CAP,
    FINITE,
    FinFn,
    FinProd,
    FinSet,
    UNIT_LABEL,
    UNIT_SET,
    enumerate_functions,
    finset_tuple_product,
    parse_payoff,
    payoff_grid,
    payoff_label,
    tuple_label,
)
from .lens_core import (
    Lens,
    LensObj,
    costate_fn,
    lens_compose,
    lens_id,
    lens_runit_inv,
    lens_tensor,
    make_costate,
    make_state,
    rewire,
    unit_obj,
)
from .para_optic import (
    ParaLens,
    embed_trivial,
    flatten_params,
    left_bracketing,
    para_compose,
    para_costate_solution_input,
    para_tensor,
    reparametrise,
)


@dataclass(frozen=True)
class SelectionRelation:
    """A predicate over (state of obj.fwd, reward function obj.fwd → obj.bwd)."""

    obj: LensObj
    accepts: Callable[[object, FinFn], bool]


def argmax_rel(moves: FinSet | FinProd, rewards: FinSet) -> SelectionRelation:
    """Accepts a move iff no other move earns a strictly larger reward."""
    if len(moves) == 0:
        raise CompositionError("argmax over the empty move set is undefined")
    values = {r: parse_payoff(r) for r in rewards.labels}
    best: list = [None, None]  # the last k and its largest reward, found once

    def accepts(x, k: FinFn) -> bool:
        if k.cod != rewards:
            raise CompositionError(
                f"reward function lands in {k.cod}, expected the rewards {rewards}"
            )
        if best[0] is not k:
            best[:] = [k, max(values[k(y)] for y in moves)]
        return values[k(x)] >= best[1]

    return SelectionRelation(LensObj(moves, rewards), accepts)


def total_rel(obj: LensObj) -> SelectionRelation:
    """The relation that accepts everything (an indifferent agent)."""
    return SelectionRelation(obj, lambda x, k: True)


def nash_product(eps: SelectionRelation, delta: SelectionRelation) -> SelectionRelation:
    """Both factors accept, each against the other's component held fixed.

    The joint reward function is restricted for each factor by freezing the
    other factor's move and projecting onto the factor's own reward carrier.
    For the last ``k`` seen, compared by identity, each restriction is built
    once per frozen move, so a factor's best responses are found once.
    """
    em, er = eps.obj.fwd, eps.obj.bwd
    dm, dr = delta.obj.fwd, delta.obj.bwd
    obj = LensObj(FinProd(em, dm), FinProd(er, dr))
    last: list = [None, {}, {}]  # the last k, its restrictions k_y by y and k_x by x

    def accepts(xy: tuple, k: FinFn) -> bool:
        if last[0] is not k:
            if k.dom != obj.fwd or k.cod != obj.bwd:
                raise CompositionError(f"reward function is not {obj.fwd} → {obj.bwd}")
            last[:] = [k, {}, {}]
        x, y = FINITE.split_elem(xy)
        if y not in last[1]:
            last[1][y] = FINITE.derived(em, er, lambda a: k((a, y))[0])
        if x not in last[2]:
            last[2][x] = FINITE.derived(dm, dr, lambda b: k((x, b))[1])
        return eps.accepts(x, last[1][y]) and delta.accepts(y, last[2][x])

    return SelectionRelation(obj, accepts)


def sel_pushforward(
    f: Lens, eps: SelectionRelation, max_size: int = DEFAULT_ENUM_CAP
) -> SelectionRelation:
    """Transport a relation along a lens.

    The image relation accepts (y, k) iff some state x with get(x) = y is
    accepted by ``eps`` against the reward function threaded back through
    ``f``.  Source states are grouped into the fibres of ``get`` once, and
    the threaded reward function is kept for the last ``k`` seen, so an
    acceptance call checks only the fibre of ``y``.
    """
    if f.base is not FINITE:
        raise CompositionError("relations only push forward over the finite base")
    if f.src != eps.obj:
        raise CompositionError(
            "lens source does not match the relation's parameter port"
        )
    states = f.src.fwd.labels
    if len(states) > max_size:
        raise SizeCapError(
            f"{len(states)} source states exceed the cap of {max_size}",
            count=len(states),
        )

    fibres: dict[object, list] = {}
    for x in states:
        fibres.setdefault(f.get(x), []).append(x)
    threaded: list = [None, None]  # the last k and its threaded costate

    def accepts(y, k: FinFn) -> bool:
        if threaded[0] is not k:
            threaded[:] = [k, costate_fn(lens_compose(f, make_costate(FINITE, f.dst, k)))]
        return any(eps.accepts(x, threaded[1]) for x in fibres.get(y, ()))

    return SelectionRelation(f.dst, accepts)


def is_sel_morphism(
    f: Lens,
    eps: SelectionRelation,
    delta: SelectionRelation,
    max_size: int = DEFAULT_ENUM_CAP,
) -> bool:
    """Whether ``f`` carries ``eps`` into ``delta``: whether the pushforward
    of ``eps`` along ``f`` lies inside ``delta``."""
    if f.src != eps.obj or f.dst != delta.obj:
        raise CompositionError("lens boundaries do not match the two relations")
    return relation_subset(sel_pushforward(f, eps, max_size), delta, max_size)


def relations_equal(
    r1: SelectionRelation, r2: SelectionRelation, max_size: int = DEFAULT_ENUM_CAP
) -> bool:
    """Extensional equality over all states and all reward functions."""
    return relation_subset(r1, r2, max_size) and relation_subset(r2, r1, max_size)


def relation_subset(
    r1: SelectionRelation, r2: SelectionRelation, max_size: int = DEFAULT_ENUM_CAP
) -> bool:
    """Whether everything ``r1`` accepts is accepted by ``r2``."""
    if r1.obj != r2.obj:
        raise CompositionError("relations live on different parameter ports")
    for k in enumerate_functions(r1.obj.fwd, r1.obj.bwd, max_size):
        for x in r1.obj.fwd.labels:
            if r1.accepts(x, k) and not r2.accepts(x, k):
                return False
    return True


# -- decisions and games ------------------------------------------------


def decision(
    observations: FinSet,
    moves: FinSet,
    rewards: FinSet,
    max_size: int = DEFAULT_ENUM_CAP,
) -> ParaLens:
    """A single agent: strategies are functions from observations to moves.

    Forward play applies the strategy to the observation; backward, the
    received reward is forwarded to the parameter port unchanged and
    nothing flows further upstream.
    """
    omega = finset_tuple_product([moves] * len(observations))
    strategies = dict(zip(omega, enumerate_functions(observations, moves, max_size)))

    def play(wx: tuple):
        w, x = wx
        return strategies[w](x), None

    carrier = Lens(
        FINITE,
        LensObj(FinProd(omega, observations), FinProd(rewards, UNIT_SET)),
        LensObj(moves, rewards),
        play,
        lambda _, r: (r, UNIT_LABEL),
    )
    return ParaLens(
        FINITE,
        (LensObj(omega, rewards),),
        LensObj(observations, UNIT_SET),
        LensObj(moves, rewards),
        carrier,
        0,
    )


@dataclass(frozen=True)
class OpenGame:
    """A parametrised scalar (or open lens) paired with a selection relation."""

    lens: ParaLens
    sel: SelectionRelation


def open_game(lens: ParaLens, sel: SelectionRelation) -> OpenGame:
    """Normalise the parameter port and check it matches the relation."""
    flat = flatten_params(lens)
    if flat.params != sel.obj:
        raise CompositionError(
            "selection relation does not live on the game's parameter port"
        )
    return OpenGame(flat, sel)


def context(game: OpenGame, h, k: FinFn) -> FinFn:
    """The reward function the players face in the context (h, k).

    Built by lens composition: introduce the unit on the right of the
    parameter port, tensor with the state h, feed the carrier, close with
    the costate k.  Equals ω ↦ coplay(ω, h, k(play(ω, h))).
    """
    lens = game.lens
    pobj = lens.params
    composite = lens_compose(
        lens_compose(
            lens_compose(
                lens_runit_inv(FINITE, pobj),
                lens_tensor(lens_id(FINITE, pobj), make_state(FINITE, lens.src, h)),
            ),
            lens.carrier,
        ),
        make_costate(FINITE, lens.dst, k),
    )
    return costate_fn(composite)


def equilibria(game: OpenGame, h, k: FinFn) -> tuple:
    """Parameter states the selection relation accepts in the context (h, k)."""
    reward = context(game, h, k)
    return tuple(
        w for w in game.lens.params.fwd.labels if game.sel.accepts(w, reward)
    )


def solution_set(game: OpenGame) -> tuple:
    """Equilibria of a closed game (both boundaries trivial)."""
    lens = game.lens
    if lens.src != unit_obj(FINITE) or lens.dst != unit_obj(FINITE):
        raise CompositionError(
            "solution_set needs a closed game with trivial boundaries"
        )
    reward = costate_fn(para_costate_solution_input(lens))
    return tuple(
        w for w in lens.params.fwd.labels if game.sel.accepts(w, reward)
    )


# -- normal-form games --------------------------------------------------


@dataclass(frozen=True)
class NormalFormGame:
    """Strategy sets plus an exact payoff table over the profile product.

    ``payoff`` maps each profile, a left-nested tuple of moves, to the
    left-nested tuple of its payoff labels over the per-player reward
    grids; ``grids`` records the factorisation of its codomain.  ``values``
    is the exact table they were rendered from, keyed by tuples of moves.
    """

    players: tuple[FinSet, ...]
    grids: tuple[FinSet, ...]
    payoff: FinFn
    values: Mapping[tuple[str, ...], tuple[Fraction, ...]]


def normal_form_game(
    players: Sequence[FinSet],
    table: Mapping[tuple[str, ...], Sequence[Fraction | int | str]],
) -> NormalFormGame:
    players = tuple(players)
    if not players:
        raise CompositionError("a game needs at least one player")
    n = len(players)
    values: dict[tuple[str, ...], tuple[Fraction, ...]] = {}
    for prof, vals in table.items():
        prof = tuple(prof)
        vals = tuple(parse_payoff(v) for v in vals)
        if len(vals) != n:
            raise CompositionError(
                f"profile {prof} has {len(vals)} payoffs for {n} players"
            )
        values[prof] = vals
    profiles = list(iter_product(*[p.labels for p in players]))
    missing = [p for p in profiles if p not in values]
    if missing or len(values) != len(profiles):
        extra = sorted(set(values) - set(profiles))
        raise CompositionError(
            f"payoff table does not match the profile product: "
            f"missing {missing[:4]}, unknown {extra[:4]}"
        )
    # one label per payoff object (a parsed spec shares them); grids dedupe by label, not by Fraction hash
    objs = {id(v): v for vals in values.values() for v in vals}
    label = {k: payoff_label(v) for k, v in objs.items()}
    columns = [{label[id(vals[i])]: vals[i] for vals in values.values()} for i in range(n)]
    grids = tuple(FinSet(tuple(sorted(c, key=c.__getitem__))) for c in columns)
    payoff = FinFn(
        finset_tuple_product(players),
        finset_tuple_product(grids),
        {tuple_label(p): tuple_label([label[id(v)] for v in values[p]]) for p in profiles},
    )
    return NormalFormGame(players, grids, payoff, {p: values[p] for p in profiles})


def profile_values(g: NormalFormGame, prof: Sequence[str]) -> tuple[Fraction, ...]:
    """The exact payoff tuple of one profile."""
    return g.values[tuple(prof)]


def brute_force_nash(
    g: NormalFormGame, max_size: int = DEFAULT_ENUM_CAP, tags: Sequence[str] | None = None
) -> tuple:
    """Independent oracle: profiles with no strictly improving unilateral deviation.

    Given per-player ``tags``, only ``"argmax"`` players are held to deviations.
    """
    tags = _checked_tags(g, ["argmax"] * len(g.players) if tags is None else tags)
    count = len(g.values)
    if count > max_size:
        raise SizeCapError(
            f"{count} profiles exceed the cap of {max_size}", count=count
        )
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
    """Profiles maximising the summed payoff, by direct enumeration."""
    totals = {p: sum(vals) for p, vals in g.values.items()}
    best = max(totals.values())
    return tuple(tuple_label(p) for p in totals if totals[p] == best)


def game_scalar(g: NormalFormGame, max_size: int = DEFAULT_ENUM_CAP) -> ParaLens:
    """The closed compositional form: decisions, tensored, payoff as costate.

    The parameter port of the result is the profile product with the grid
    product as feedback, one leaf per player in player order.
    """
    parts = [
        decision(UNIT_SET, player, grid, max_size)
        for player, grid in zip(g.players, g.grids)
    ]
    tensored = reduce(para_tensor, parts)
    n = len(g.players)
    closer = rewire(FINITE, [unit_obj(FINITE)] * n, None, left_bracketing(range(n)))
    payoffs = make_costate(FINITE, tensored.dst, g.payoff)
    closed = para_compose(
        para_compose(embed_trivial(closer), tensored), embed_trivial(payoffs)
    )
    return flatten_params(closed)


def _checked_tags(g: NormalFormGame, tags: Sequence[str]) -> list[str]:
    """Per-player selection tags, each ``"argmax"`` or ``"total"``."""
    tags = list(tags)
    if len(tags) != len(g.players):
        raise CompositionError("one selection tag per player required")
    for tag in tags:
        if tag not in ("argmax", "total"):
            raise CompositionError(f"unknown selection tag {tag!r}")
    return tags


def compositional_game(
    g: NormalFormGame,
    selection: str | Sequence[str] = "argmax_each",
    max_size: int = DEFAULT_ENUM_CAP,
) -> OpenGame:
    """Assemble the open game for a normal-form game and a selection policy."""
    if selection == "argmax_each":
        selection = ["argmax"] * len(g.players)
    elif isinstance(selection, str):
        raise CompositionError(f"unknown selection {selection!r}")
    rels = [
        argmax_rel(player, grid) if tag == "argmax" else total_rel(LensObj(player, grid))
        for player, grid, tag in zip(g.players, g.grids, _checked_tags(g, selection))
    ]
    return open_game(game_scalar(g, max_size), reduce(nash_product, rels))


def sum_of_payoffs_lens(g: NormalFormGame) -> Lens:
    """Collapse the grid product to the grid of possible payoff sums.

    Identity forward; backward maps each payoff tuple to its total.  The
    sum grid is closed under every combination of per-player values, so
    every total is one of its labels.  Totals are read from a table built
    in the one pass over the grid product that builds the sum grid.
    """
    omega = finset_tuple_product(g.players)
    prod = finset_tuple_product(g.grids)
    values = [{l: parse_payoff(l) for l in grid.labels} for grid in g.grids]  # parsed once per grid
    totals = {
        tuple_label([l for l, _ in c]): sum(v for _, v in c) for c in iter_product(*[v.items() for v in values])
    }
    sums = payoff_grid(totals.values())
    table = {r: payoff_label(t) for r, t in totals.items()}
    return Lens(FINITE, LensObj(omega, sums), LensObj(omega, prod), lambda w: (w, None), lambda _, r: table[r])


def hicks_games(
    g: NormalFormGame,
    max_size: int = DEFAULT_ENUM_CAP,
    max_states: int = DEFAULT_ENUM_CAP,
) -> tuple[OpenGame, OpenGame]:
    """The two equivalent forms of joint-total maximisation.

    Route one reparametrises the scalar by the sum-of-payoffs lens and runs
    argmax over profiles; route two leaves the scalar alone and pushes that
    argmax forward along the same lens.  Their solution sets coincide.
    """
    scalar = game_scalar(g, max_size)
    collapse = sum_of_payoffs_lens(g)
    joint = argmax_rel(finset_tuple_product(g.players), collapse.src.bwd)
    route_reparam = open_game(reparametrise(scalar, collapse), joint)
    route_pushed = open_game(scalar, sel_pushforward(collapse, joint, max_states))
    return route_reparam, route_pushed
