"""Named invariant suites with their random-instance generators.

Every suite is a generator of ``(holds, detail)`` instances, which
``_suite`` turns into a function returning a CheckResult.  The registry at
the bottom drives the command-line `check` subcommand, and the tests reuse
both the suites and the random-instance generators.  Finite-side
properties are decided exactly; numeric properties compare against central
finite differences or use a tight relative tolerance.

The descent/ascent suite resolves the optimiser constructors through the
smooth_autodiff module object on purpose, so a deliberately broken
constructor is picked up rather than a captured original.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import smooth_autodiff as sa
from .errors import ParalensError
from .finite_base import (
    FINITE,
    FinFn,
    FinProd,
    FinSet,
    enumerate_functions,
)
from .lens_core import (
    Lens,
    LensObj,
    get_put_lens,
    lens_assoc,
    lens_assoc_inv,
    lens_compose,
    lens_equal,
    lens_id,
    lens_lunit,
    lens_lunit_inv,
    lens_runit,
    lens_runit_inv,
    lens_swap,
    lens_tensor,
    obj_pair,
    rewire,
    unit_obj,
)
from .para_optic import (
    ParaLens,
    embed_trivial,
    flatten_params,
    left_bracketing,
    para_compose,
    para_tensor,
    reparametrise,
)
from .selection_games import (
    SelectionRelation,
    brute_force_nash,
    compositional_game,
    hicks_games,
    nash_product,
    normal_form_game,
    relations_equal,
    sel_pushforward,
    solution_set,
)
from .smooth_autodiff import (
    GraphBuilder,
    PRIMITIVES,
    SmoothMap,
    apply_R,
    backward_eval,
    compose_maps,
    copy_lens,
    forward_eval,
    join_flat,
    split_flat,
    train_step,
    unit_loss_costate,
)

FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    instances: int
    detail: str = ""


Instances = Iterator[tuple[bool, str]]


def _suite(name: str):
    """Turn a generator of ``(holds, detail)`` instances into a named check.

    Instances are counted in order; the first that does not hold ends the
    check with its detail.
    """

    def wrap(gen: Callable[..., Instances]) -> Callable[..., CheckResult]:
        @functools.wraps(gen)
        def run(*args, **kwargs) -> CheckResult:
            instances = 0
            for holds, detail in gen(*args, **kwargs):
                instances += 1
                if not holds:
                    return CheckResult(name, False, instances, detail)
            return CheckResult(name, True, instances)

        return run

    return wrap


def rel_close(a, b, rtol: float, atol: float = 1e-12) -> bool:
    return bool(np.allclose(np.asarray(a), np.asarray(b), rtol=rtol, atol=atol))


def fd_gradient(fn: Callable[[np.ndarray], float], v: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    out = np.zeros_like(v)
    for i in range(len(v)):
        e = np.zeros_like(v)
        e[i] = step
        out[i] = (fn(v + e) - fn(v - e)) / (2.0 * step)
    return out


# -- random finite instances --------------------------------------------

_counter = 0


def _fresh_labels(rng: random.Random, max_size: int) -> tuple[str, ...]:
    global _counter
    _counter += 1
    n = rng.randint(1, max_size)
    return tuple(f"e{_counter}_{i}" for i in range(n))


def random_finset(rng: random.Random, max_size: int = 3) -> FinSet:
    return FinSet(_fresh_labels(rng, max_size))


def random_finfn(rng: random.Random, dom: FinSet, cod: FinSet) -> FinFn:
    return FinFn(dom, cod, {x: rng.choice(cod.labels) for x in dom.labels})


def random_obj(rng: random.Random, max_size: int = 3) -> LensObj:
    return LensObj(random_finset(rng, max_size), random_finset(rng, max_size))


def random_lens(rng: random.Random, src: LensObj, dst: LensObj) -> Lens:
    get = random_finfn(rng, src.fwd, dst.fwd)
    put = random_finfn(rng, FinProd(src.fwd, dst.bwd), src.bwd)
    return get_put_lens(FINITE, src, dst, get, put)


def random_para(rng: random.Random, src: LensObj, dst: LensObj, max_size: int = 2) -> ParaLens:
    params = random_obj(rng, max_size)
    carrier = random_lens(rng, obj_pair(FINITE, params, src), dst)
    return ParaLens(FINITE, (params,), src, dst, carrier, 0)


# -- lens laws ----------------------------------------------------------


@_suite("lens-category-laws")
def check_lens_category_laws(seed: int = 0, rounds: int = 60) -> Instances:
    rng = random.Random(seed)
    for r in range(rounds):
        a, b, c, d = (random_obj(rng) for _ in range(4))
        l1 = random_lens(rng, a, b)
        l2 = random_lens(rng, b, c)
        l3 = random_lens(rng, c, d)
        laws = [
            ("left identity", lens_compose(lens_id(FINITE, a), l1), l1),
            ("right identity", lens_compose(l1, lens_id(FINITE, b)), l1),
            (
                "associativity",
                lens_compose(lens_compose(l1, l2), l3),
                lens_compose(l1, lens_compose(l2, l3)),
            ),
        ]
        for name, lhs, rhs in laws:
            yield lens_equal(lhs, rhs), f"{name} failed at round {r}"


@_suite("lens-monoidal-laws")
def check_lens_monoidal_laws(seed: int = 1, rounds: int = 60) -> Instances:
    rng = random.Random(seed)
    for r in range(rounds):
        a, b, c, d, e, f = (random_obj(rng, 2) for _ in range(6))
        l1, l2 = random_lens(rng, a, b), random_lens(rng, b, c)
        m1, m2 = random_lens(rng, d, e), random_lens(rng, e, f)
        n1 = random_lens(rng, c, d)
        ab = obj_pair(FINITE, a, b)
        laws = [
            (
                "tensor of identities",
                lens_tensor(lens_id(FINITE, a), lens_id(FINITE, b)),
                lens_id(FINITE, ab),
            ),
            (
                "interchange",
                lens_compose(lens_tensor(l1, m1), lens_tensor(l2, m2)),
                lens_tensor(lens_compose(l1, l2), lens_compose(m1, m2)),
            ),
            (
                "left unitor",
                lens_compose(lens_lunit_inv(FINITE, a), lens_lunit(FINITE, a)),
                lens_id(FINITE, a),
            ),
            (
                "left unitor inverse",
                lens_compose(lens_lunit(FINITE, a), lens_lunit_inv(FINITE, a)),
                lens_id(FINITE, lens_lunit(FINITE, a).src),
            ),
            (
                "right unitor",
                lens_compose(lens_runit_inv(FINITE, a), lens_runit(FINITE, a)),
                lens_id(FINITE, a),
            ),
            (
                "associator",
                lens_compose(lens_assoc(FINITE, a, b, c), lens_assoc_inv(FINITE, a, b, c)),
                lens_id(FINITE, lens_assoc(FINITE, a, b, c).src),
            ),
            (
                "symmetry involution",
                lens_compose(lens_swap(FINITE, a, b), lens_swap(FINITE, b, a)),
                lens_id(FINITE, ab),
            ),
            ("triangle", _triangle_lhs(a, b), _triangle_rhs(a, b)),
            (
                "pentagon",
                _pentagon_lhs(a, b, c, d),
                _pentagon_rhs(a, b, c, d),
            ),
            (
                "associator naturality",
                lens_compose(
                    lens_tensor(lens_tensor(l1, n1), m1),
                    lens_assoc(FINITE, b, d, e),
                ),
                lens_compose(
                    lens_assoc(FINITE, a, c, d),
                    lens_tensor(l1, lens_tensor(n1, m1)),
                ),
            ),
            (
                "symmetry naturality",
                lens_compose(lens_tensor(l1, m1), lens_swap(FINITE, b, e)),
                lens_compose(lens_swap(FINITE, a, d), lens_tensor(m1, l1)),
            ),
        ]
        for name, lhs, rhs in laws:
            yield lens_equal(lhs, rhs), f"{name} failed at round {r}"


def _triangle_lhs(a: LensObj, b: LensObj) -> Lens:
    u = unit_obj(FINITE)
    return lens_compose(
        lens_assoc(FINITE, a, u, b),
        lens_tensor(lens_id(FINITE, a), lens_lunit(FINITE, b)),
    )


def _triangle_rhs(a: LensObj, b: LensObj) -> Lens:
    return lens_tensor(lens_runit(FINITE, a), lens_id(FINITE, b))


def _pentagon_lhs(a: LensObj, b: LensObj, c: LensObj, d: LensObj) -> Lens:
    ab = obj_pair(FINITE, a, b)
    cd = obj_pair(FINITE, c, d)
    return lens_compose(lens_assoc(FINITE, ab, c, d), lens_assoc(FINITE, a, b, cd))


def _pentagon_rhs(a: LensObj, b: LensObj, c: LensObj, d: LensObj) -> Lens:
    bc = obj_pair(FINITE, b, c)
    return lens_compose(
        lens_compose(
            lens_tensor(lens_assoc(FINITE, a, b, c), lens_id(FINITE, d)),
            lens_assoc(FINITE, a, bc, d),
        ),
        lens_tensor(lens_id(FINITE, a), lens_assoc(FINITE, b, c, d)),
    )


# -- parametrised laws --------------------------------------------------


def _flat_perm(raw: ParaLens, order: Sequence[int]) -> Lens:
    """Relabelling of the flattening of ``raw`` that permutes its leaves.

    Leaf structure comes from the composite before flattening; flattening
    itself collapses the shape.  ``order[i]`` says which source leaf
    supplies destination slot i.
    """
    leaves = [o for o in raw.leaves if o != unit_obj(FINITE)]
    return rewire(FINITE, leaves, left_bracketing(range(len(leaves))), left_bracketing(order))


def _para_equal(lhs: ParaLens, rhs: ParaLens) -> bool:
    return lhs.params == rhs.params and lens_equal(lhs.carrier, rhs.carrier)


@_suite("para-laws")
def check_para_laws(seed: int = 2, rounds: int = 40) -> Instances:
    rng = random.Random(seed)
    for r in range(rounds):
        a, b, c, d = (random_obj(rng, 2) for _ in range(4))
        p1 = random_para(rng, a, b)
        p2 = random_para(rng, b, c)
        p3 = random_para(rng, c, d)

        lhs = flatten_params(para_compose(para_compose(p1, p2), p3))
        rhs = flatten_params(para_compose(p1, para_compose(p2, p3)))
        yield _para_equal(lhs, rhs), f"composition associativity failed at round {r}"

        ident = embed_trivial(lens_id(FINITE, a))
        lhs = flatten_params(para_compose(ident, p1))
        rhs = flatten_params(p1)
        yield _para_equal(lhs, rhs), f"left unit failed at round {r}"

        ident = embed_trivial(lens_id(FINITE, b))
        lhs = flatten_params(para_compose(p1, ident))
        yield _para_equal(lhs, rhs), f"right unit failed at round {r}"

        r2 = random_lens(rng, random_obj(rng, 2), p1.params)
        r3 = random_lens(rng, random_obj(rng, 2), r2.src)
        lhs = reparametrise(reparametrise(p1, r2), r3)
        rhs = reparametrise(p1, lens_compose(r3, r2))
        yield _para_equal(lhs, rhs), f"reparametrisation functoriality failed at round {r}"

        p4 = random_para(rng, d, a)
        q1, q2 = random_para(rng, a, b), random_para(rng, b, c)
        both_raw = para_compose(para_tensor(p3, q1), para_tensor(p4, q2))
        split_raw = para_tensor(para_compose(p3, p4), para_compose(q1, q2))
        both = flatten_params(both_raw)
        split = flatten_params(split_raw)
        # leaves: composite-of-tensors [p4,q2,p3,q1]; tensor-of-composites [p4,p3,q2,q1]
        perm = _flat_perm(both_raw, [0, 2, 1, 3])
        holds = lens_equal(both.carrier, reparametrise(split, perm).carrier)
        yield holds, f"interchange failed at round {r}"


# -- numeric suites -----------------------------------------------------


def _single_node_map(prim) -> SmoothMap:
    total = sum(prim.in_dims)
    b = GraphBuilder(in_dim=total)
    wires = []
    lo = 0
    for d in prim.in_dims:
        wires.append(b.input(lo, lo + d))
        lo += d
    return b.build(b.node(prim, *wires, name="only"))


@_suite("gradient-primitives")
def check_gradient_primitives(seed: int = 11) -> Instances:
    rng = np.random.default_rng(seed)
    cases = [
        PRIMITIVES["linear"](2, 3),
        PRIMITIVES["add"](3),
        PRIMITIVES["mul"](3),
        PRIMITIVES["neg"](3),
        PRIMITIVES["tanh"](3),
        PRIMITIVES["relu"](3),
        PRIMITIVES["sigmoid"](3),
        PRIMITIVES["sum"](3),
        PRIMITIVES["sqerr"](3),
    ]
    for prim in cases:
        f = _single_node_map(prim)
        x = rng.uniform(-1.0, 1.0, f.in_dim)
        if prim.name == "relu":
            # keep well clear of the kink so differences are one-sided
            x = np.where(np.abs(x) < 0.1, 0.5, x)
        c = rng.uniform(-1.0, 1.0, f.out_dim)
        y, tape = forward_eval(f, np.zeros(0), x)
        _, dx = backward_eval(f, tape, c)
        g_fd = fd_gradient(lambda v: float(c @ forward_eval(f, np.zeros(0), v)[0]), x)
        yield rel_close(dx, g_fd, rtol=1e-4, atol=1e-8), f"{prim.name} disagrees with differences"
        # linearity of the pullback in the cotangent
        c2 = rng.uniform(-1.0, 1.0, f.out_dim)
        ins = tuple(x[sum(prim.in_dims[:i]) : sum(prim.in_dims[: i + 1])] for i in range(len(prim.in_dims)))
        lhs = prim.vjp(ins, 2.0 * c + 3.0 * c2)
        rhs = tuple(
            2.0 * u + 3.0 * v for u, v in zip(prim.vjp(ins, c), prim.vjp(ins, c2))
        )
        linear = all(rel_close(u, v, rtol=1e-10) for u, v in zip(lhs, rhs))
        yield linear, f"{prim.name} pullback is not linear"


def random_chain_graph(
    rng: random.Random, in_dim: int | None = None, min_ops: int = 1, max_ops: int = 4
) -> SmoothMap:
    """A random pipeline of primitives with parameters for every weight."""
    d = in_dim if in_dim is not None else rng.randint(1, 3)
    b = GraphBuilder(in_dim=d)
    cur = b.input()
    for _ in range(rng.randint(min_ops, max_ops)):
        op = rng.choice(["linear", "bias", "mul", "tanh", "relu", "sigmoid", "neg"])
        if op == "linear":
            m = rng.randint(1, 3)
            cur = b.node(PRIMITIVES["linear"](d, m), b.param(m * d), cur)
            d = m
        elif op in ("bias", "mul"):
            cur = b.node(PRIMITIVES[op](d), cur, b.param(d))
        else:
            cur = b.node(PRIMITIVES[op](d), cur)
    return b.build(cur)


def _clean_sample(f: SmoothMap, nrng: np.random.Generator, tries: int = 200):
    """Draw (p, x) with every relu input away from its kink."""
    relu_nodes = [k for k, n in enumerate(f.nodes) if n.prim.name == "relu"]
    for _ in range(tries):
        p = nrng.uniform(-0.5, 0.5, f.param_dim)
        x = nrng.uniform(-0.5, 0.5, f.in_dim)
        _, tape = forward_eval(f, p, x)
        if all(
            np.all(np.abs(tape.node_inputs[k][0]) >= 1e-3) for k in relu_nodes
        ):
            return p, x
    return None


@_suite("gradient-graphs")
def check_gradient_graphs(seed: int = 3, graphs: int = 50) -> Instances:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    built = 0
    while built < graphs:
        f = random_chain_graph(rng)
        sample = _clean_sample(f, nrng)
        if sample is None:
            continue
        built += 1
        p, x = sample
        c = nrng.uniform(-1.0, 1.0, f.out_dim)
        _, tape = forward_eval(f, p, x)
        dp, dx = backward_eval(f, tape, c)
        v = np.concatenate([p, x])
        g_fd = fd_gradient(
            lambda w: float(c @ forward_eval(f, w[: f.param_dim], w[f.param_dim :])[0]),
            v,
        )
        holds = rel_close(np.concatenate([dp, dx]), g_fd, rtol=1e-4, atol=1e-8)
        yield holds, f"graph {built} disagrees with differences"


@_suite("r-functoriality")
def check_r_functoriality(seed: int = 6, evals: int = 100) -> Instances:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    done = 0
    while done < evals:
        f = random_chain_graph(rng)
        g = random_chain_graph(rng, in_dim=f.out_dim)
        comp = compose_maps(f, g)
        flat = flatten_params(para_compose(apply_R(f), apply_R(g)))
        for _ in range(10):
            if done >= evals:
                break
            pc = nrng.uniform(-0.5, 0.5, comp.param_dim)
            x = nrng.uniform(-0.5, 0.5, comp.in_dim)
            dy = nrng.uniform(-1.0, 1.0, comp.out_dim)
            y_direct, tape = forward_eval(comp, pc, x)
            dp, dx = backward_eval(comp, tape, dy)
            params = split_flat(flat.params.fwd, pc)  # unit leaves were dropped by flattening
            y_lens = flat.carrier.get((params, x))
            back_lens = flat.carrier.put(((params, x), dy))
            done += 1
            holds = rel_close(y_lens, y_direct, rtol=1e-10) and rel_close(
                join_flat(back_lens), np.concatenate([dp, dx]), rtol=1e-10
            )
            yield holds, "composite and composed lenses differ"


@_suite("gradient-descent-lens")
def check_gradient_descent_lens(seed: int = 4, trials: int = 10) -> Instances:
    nrng = np.random.default_rng(seed)
    b = GraphBuilder(in_dim=0)
    w = b.param(3)
    sq = b.node(PRIMITIVES["mul"](3), w, w)
    loss = b.node(PRIMITIVES["sum"](3), sq)
    f = b.build(loss)
    model = apply_R(f)
    costate = unit_loss_costate()
    alpha = 0.05
    for _ in range(trials):
        p = nrng.uniform(-1.0, 1.0, 3)
        g_fd = fd_gradient(lambda v: float(forward_eval(f, v, np.zeros(0))[0][0]), p)
        down = reparametrise(model, sa.gd_lens(alpha, 3))
        p_down, _ = train_step(down, p, np.zeros(0), costate)
        holds = rel_close(p_down, p - alpha * g_fd, rtol=1e-4, atol=1e-8)
        yield holds, "descent step is not p - alpha*grad"
        up = reparametrise(model, sa.ga_lens(alpha, 3))
        p_up, _ = train_step(up, p, np.zeros(0), costate)
        holds = rel_close(p_up, p + alpha * g_fd, rtol=1e-4, atol=1e-8)
        yield holds, "ascent step is not p + alpha*grad"


@_suite("weight-tying")
def check_weight_tying(seed: int = 5, trials: int = 20) -> Instances:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    for _ in range(trials):
        d = rng.randint(1, 4)
        tie = copy_lens(d)
        p = nrng.uniform(-1.0, 1.0, d)
        ga, gb = nrng.uniform(-1.0, 1.0, d), nrng.uniform(-1.0, 1.0, d)
        fwd = tie.get(p)
        back = tie.put((p, (ga, gb)))
        holds = rel_close(join_flat(fwd), np.concatenate([p, p]), rtol=1e-12) and rel_close(
            back, ga + gb, rtol=1e-10
        )
        yield holds, "copy lens does not sum its feedback"

        f = random_chain_graph(rng)
        if f.param_dim == 0:
            continue
        pair = flatten_params(para_tensor(apply_R(f), apply_R(f)))
        tied = reparametrise(pair, copy_lens(f.param_dim))
        sample = _clean_sample(f, nrng)
        if sample is None:
            continue
        p, x = sample
        x2 = nrng.uniform(-0.5, 0.5, f.in_dim)
        dy1 = nrng.uniform(-1.0, 1.0, f.out_dim)
        dy2 = nrng.uniform(-1.0, 1.0, f.out_dim)
        _, t1 = forward_eval(f, p, x)
        dp1, _ = backward_eval(f, t1, dy1)
        _, t2 = forward_eval(f, p, x2)
        dp2, _ = backward_eval(f, t2, dy2)
        fed = tied.carrier.put(((p, (x, x2)), (dy1, dy2)))
        holds = rel_close(fed[0], dp1 + dp2, rtol=1e-10)
        yield holds, "tied gradient is not the sum of both uses"


# -- game suites --------------------------------------------------------


def random_relation(rng: random.Random, obj: LensObj) -> SelectionRelation:
    """An arbitrary relation, tabulated over every (state, reward fn) pair."""
    table = {}
    for k in enumerate_functions(obj.fwd, obj.bwd):
        key = tuple(k(x) for x in obj.fwd.labels)
        for x in obj.fwd.labels:
            table[(x, key)] = rng.random() < 0.5

    def accepts(x: str, k: FinFn) -> bool:
        return table[(x, tuple(k(l) for l in obj.fwd.labels))]

    return SelectionRelation(obj, accepts)


@_suite("nash-naturality")
def check_nash_naturality(seed: int = 7, instances_target: int = 100) -> Instances:
    rng = random.Random(seed)
    for _ in range(instances_target):
        a = LensObj(random_finset(rng, 3), random_finset(rng, 2))
        a2 = LensObj(random_finset(rng, 3), random_finset(rng, 2))
        b = LensObj(random_finset(rng, 2), random_finset(rng, 2))
        b2 = LensObj(random_finset(rng, 2), random_finset(rng, 2))
        f = random_lens(rng, a, b)
        f2 = random_lens(rng, a2, b2)
        eps = random_relation(rng, a)
        delta = random_relation(rng, a2)
        joint = sel_pushforward(lens_tensor(f, f2), nash_product(eps, delta))
        split = nash_product(sel_pushforward(f, eps), sel_pushforward(f2, delta))
        yield relations_equal(joint, split), "pushforward does not commute with the product"


_PAYOFF_POOL = (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2))


def random_game(rng: random.Random):
    n = rng.randint(1, 3)
    players = []
    for i in range(n):
        size = rng.randint(1, 4)
        players.append(FinSet(tuple(f"m{i}{j}" for j in range(size))))
    from itertools import product as iter_product

    table = {
        prof: tuple(rng.choice(_PAYOFF_POOL) for _ in range(n))
        for prof in iter_product(*[p.labels for p in players])
    }
    return normal_form_game(players, table)


@_suite("oracle-equivalence")
def check_oracle_equivalence(seed: int = 8, games: int = 200) -> Instances:
    rng = random.Random(seed)
    for i in range(games):
        g = random_game(rng)
        found = solution_set(compositional_game(g))
        expected = brute_force_nash(g)
        yield found == expected, f"game {i}: engine {found} vs oracle {expected}"


_PD_TABLE = {
    ("C", "C"): (2, 2),
    ("C", "D"): (0, 3),
    ("D", "C"): (3, 0),
    ("D", "D"): (1, 1),
}


def pd_game():
    cd = FinSet(("C", "D"))
    return normal_form_game([cd, cd], _PD_TABLE)


@_suite("pd-solutions")
def check_pd_solutions() -> Instances:
    g = pd_game()
    nash = solution_set(compositional_game(g))
    yield nash == (("D", "D"),), f"individual play gave {nash}"
    yield nash == brute_force_nash(g), "oracle disagrees on individual play"
    ra, rb = hicks_games(g)
    sa_, sb_ = solution_set(ra), solution_set(rb)
    yield sa_ == sb_ == (("C", "C"),), f"joint play gave {sa_} and {sb_}"
    yield not set(sa_) & set(nash), "joint and individual play overlap"


ALL_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "lens-category-laws": check_lens_category_laws,
    "lens-monoidal-laws": check_lens_monoidal_laws,
    "para-laws": check_para_laws,
    "gradient-primitives": check_gradient_primitives,
    "gradient-graphs": check_gradient_graphs,
    "gradient-descent-lens": check_gradient_descent_lens,
    "weight-tying": check_weight_tying,
    "r-functoriality": check_r_functoriality,
    "nash-naturality": check_nash_naturality,
    "oracle-equivalence": check_oracle_equivalence,
    "pd-solutions": check_pd_solutions,
}


def run_checks(names: Sequence[str] | None = None) -> list[CheckResult]:
    chosen = list(ALL_CHECKS) if names is None else list(names)
    results = []
    for name in chosen:
        if name not in ALL_CHECKS:
            raise KeyError(name)
        try:
            results.append(ALL_CHECKS[name]())
        except ParalensError as exc:
            results.append(CheckResult(name, False, 0, f"raised {exc}"))
    return results
