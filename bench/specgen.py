"""Seeded generator of normal-form game specs for the solve workloads.

A rung is ``(n, k, v)``: ``n`` players, ``k`` strategies each, and exactly
``v`` distinct payoff values per player.  The engine sizes each player's
reward carrier by the values that actually occur, so "exactly" matters:
a generator that merely draws from ``v`` values would often produce fewer
and measure a smaller game than the rung names.

Strategy labels are ``s0, s1, ...`` and player names ``p0, p1, ...``; no
label contains a comma or a parenthesis, so no product label can collide.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product


def _value_pool(rng: random.Random, v: int) -> list[Fraction]:
    """``v`` distinct rationals, some with denominators, in random order."""
    pool: set[Fraction] = set()
    while len(pool) < v:
        pool.add(Fraction(rng.randint(-12, 12), rng.choice((1, 1, 1, 2, 3))))
    values = sorted(pool)
    rng.shuffle(values)
    return values


def _label(q: Fraction) -> object:
    """A payoff as the spec writes it: an int when whole, else ``"p/q"``."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def make_game(rng: random.Random, n: int, k: int, v: int) -> dict:
    """One spec dict for rung ``(n, k, v)``; requires ``k**n >= v``."""
    profiles = list(product(range(k), repeat=n))
    if len(profiles) < v:
        raise ValueError(f"rung ({n},{k},{v}) has fewer profiles than values")
    columns = []
    for _ in range(n):
        pool = _value_pool(rng, v)
        # every value once, the rest drawn freely, then shuffled over profiles
        col = pool + [rng.choice(pool) for _ in range(len(profiles) - v)]
        rng.shuffle(col)
        columns.append(col)
    payoffs = {
        ",".join(f"s{j}" for j in prof): [_label(columns[i][row]) for i in range(n)]
        for row, prof in enumerate(profiles)
    }
    return {
        "players": [
            {"name": f"p{i}", "strategies": [f"s{j}" for j in range(k)]}
            for i in range(n)
        ],
        "payoffs": payoffs,
    }


def mixed_tags(rng: random.Random, n: int) -> list[str]:
    """Per-player tags with at least one ``total`` and at least one ``argmax``."""
    tags = ["argmax"] * n
    tags[rng.randrange(n)] = "total"
    for i in range(n):
        if tags[i] == "argmax" and rng.random() < 0.3 and tags.count("argmax") > 1:
            tags[i] = "total"
    return tags
