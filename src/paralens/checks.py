"""Named invariant suites with their random-instance generators.

Every suite is a function returning a CheckResult; the registry at the
bottom drives the command-line `check` subcommand, and the tests reuse
both the suites and the generators.  Finite-side properties are decided
exactly; numeric properties compare against central finite differences or
use a tight relative tolerance.

The descent/ascent suite resolves the optimiser constructors through the
smooth_autodiff module object on purpose, so a deliberately broken
constructor is picked up rather than a captured original.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import smooth_autodiff as sa
from .errors import ParalensError
from .finite_base import (
    FINITE,
    FinFn,
    FinSet,
    enumerate_functions,
    finset_product,
)
from .lens_core import (
    Lens,
    LensObj,
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
    ParamObj,
    ShapeLeaf,
    embed_trivial,
    flatten_params,
    is_unit_param,
    left_bracketing,
    para_compose,
    para_tensor,
    reparametrise,
    shape_leaves,
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
    put = random_finfn(rng, finset_product(src.fwd, dst.bwd), src.bwd)
    return Lens(FINITE, src, dst, get, put)


def random_para(rng: random.Random, src: LensObj, dst: LensObj, max_size: int = 2) -> ParaLens:
    params = ParamObj(random_finset(rng, max_size), random_finset(rng, max_size))
    carrier = random_lens(rng, obj_pair(FINITE, params.as_obj(), src), dst)
    return ParaLens(FINITE, params, src, dst, carrier, ShapeLeaf(params))


# -- lens laws ----------------------------------------------------------


def check_lens_category_laws(seed: int = 0, rounds: int = 60) -> CheckResult:
    rng = random.Random(seed)
    instances = 0
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
            instances += 1
            if not lens_equal(lhs, rhs):
                return CheckResult(
                    "lens-category-laws", False, instances, f"{name} failed at round {r}"
                )
    return CheckResult("lens-category-laws", True, instances)


def check_lens_monoidal_laws(seed: int = 1, rounds: int = 60) -> CheckResult:
    rng = random.Random(seed)
    instances = 0
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
            instances += 1
            if not lens_equal(lhs, rhs):
                return CheckResult(
                    "lens-monoidal-laws", False, instances, f"{name} failed at round {r}"
                )
    return CheckResult("lens-monoidal-laws", True, instances)


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
    leaves = [o.as_obj() for o in shape_leaves(raw.param_shape) if not is_unit_param(FINITE, o)]
    return rewire(FINITE, leaves, left_bracketing(range(len(leaves))), left_bracketing(order))


def check_para_laws(seed: int = 2, rounds: int = 40) -> CheckResult:
    rng = random.Random(seed)
    instances = 0
    for r in range(rounds):
        a, b, c, d = (random_obj(rng, 2) for _ in range(4))
        p1 = random_para(rng, a, b)
        p2 = random_para(rng, b, c)
        p3 = random_para(rng, c, d)

        lhs = flatten_params(para_compose(para_compose(p1, p2), p3))
        rhs = flatten_params(para_compose(p1, para_compose(p2, p3)))
        instances += 1
        if lhs.params != rhs.params or not lens_equal(lhs.carrier, rhs.carrier):
            return CheckResult(
                "para-laws", False, instances, f"composition associativity failed at round {r}"
            )

        ident = embed_trivial(lens_id(FINITE, a))
        lhs = flatten_params(para_compose(ident, p1))
        rhs = flatten_params(p1)
        instances += 1
        if lhs.params != rhs.params or not lens_equal(lhs.carrier, rhs.carrier):
            return CheckResult(
                "para-laws", False, instances, f"left unit failed at round {r}"
            )

        ident = embed_trivial(lens_id(FINITE, b))
        lhs = flatten_params(para_compose(p1, ident))
        instances += 1
        if lhs.params != rhs.params or not lens_equal(lhs.carrier, rhs.carrier):
            return CheckResult(
                "para-laws", False, instances, f"right unit failed at round {r}"
            )

        r2 = random_lens(rng, random_obj(rng, 2), p1.params.as_obj())
        r3 = random_lens(rng, random_obj(rng, 2), r2.src)
        lhs = reparametrise(reparametrise(p1, r2), r3)
        rhs = reparametrise(p1, lens_compose(r3, r2))
        instances += 1
        if lhs.params != rhs.params or not lens_equal(lhs.carrier, rhs.carrier):
            return CheckResult(
                "para-laws", False, instances, f"reparametrisation functoriality failed at round {r}"
            )

        p4 = random_para(rng, d, a)
        q1, q2 = random_para(rng, a, b), random_para(rng, b, c)
        both_raw = para_compose(para_tensor(p3, q1), para_tensor(p4, q2))
        split_raw = para_tensor(para_compose(p3, p4), para_compose(q1, q2))
        both = flatten_params(both_raw)
        split = flatten_params(split_raw)
        # leaves: composite-of-tensors [p4,q2,p3,q1]; tensor-of-composites [p4,p3,q2,q1]
        perm = _flat_perm(both_raw, [0, 2, 1, 3])
        instances += 1
        if not lens_equal(both.carrier, reparametrise(split, perm).carrier):
            return CheckResult(
                "para-laws", False, instances, f"interchange failed at round {r}"
            )
    return CheckResult("para-laws", True, instances)


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


def check_gradient_primitives(seed: int = 11) -> CheckResult:
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
    instances = 0
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
        instances += 1
        if not rel_close(dx, g_fd, rtol=1e-4, atol=1e-8):
            return CheckResult(
                "gradient-primitives", False, instances, f"{prim.name} disagrees with differences"
            )
        # linearity of the pullback in the cotangent
        c2 = rng.uniform(-1.0, 1.0, f.out_dim)
        ins = tuple(x[sum(prim.in_dims[:i]) : sum(prim.in_dims[: i + 1])] for i in range(len(prim.in_dims)))
        lhs = prim.vjp(ins, 2.0 * c + 3.0 * c2)
        rhs = tuple(
            2.0 * u + 3.0 * v for u, v in zip(prim.vjp(ins, c), prim.vjp(ins, c2))
        )
        instances += 1
        if not all(rel_close(u, v, rtol=1e-10) for u, v in zip(lhs, rhs)):
            return CheckResult(
                "gradient-primitives", False, instances, f"{prim.name} pullback is not linear"
            )
    return CheckResult("gradient-primitives", True, instances)


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
    relu_nodes = [n.name for n in f.nodes if n.prim.name == "relu"]
    for _ in range(tries):
        p = nrng.uniform(-0.5, 0.5, f.param_dim)
        x = nrng.uniform(-0.5, 0.5, f.in_dim)
        _, tape = forward_eval(f, p, x)
        if all(
            np.all(np.abs(tape.node_inputs[name][0]) >= 1e-3) for name in relu_nodes
        ):
            return p, x
    return None


def check_gradient_graphs(seed: int = 3, graphs: int = 50) -> CheckResult:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    instances = 0
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
        instances += 1
        if not rel_close(np.concatenate([dp, dx]), g_fd, rtol=1e-4, atol=1e-8):
            return CheckResult(
                "gradient-graphs", False, instances, f"graph {built} disagrees with differences"
            )
    return CheckResult("gradient-graphs", True, instances)


def check_r_functoriality(seed: int = 6, evals: int = 100) -> CheckResult:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    instances = 0
    while instances < evals:
        f = random_chain_graph(rng)
        g = random_chain_graph(rng, in_dim=f.out_dim)
        comp = compose_maps(f, g)
        flat = flatten_params(para_compose(apply_R(f), apply_R(g)))
        for _ in range(10):
            if instances >= evals:
                break
            pc = nrng.uniform(-0.5, 0.5, comp.param_dim)
            x = nrng.uniform(-0.5, 0.5, comp.in_dim)
            dy = nrng.uniform(-1.0, 1.0, comp.out_dim)
            y_direct, tape = forward_eval(comp, pc, x)
            dp, dx = backward_eval(comp, tape, dy)
            y_lens = flat.carrier.get(np.concatenate([pc, x]))
            back_lens = flat.carrier.put(np.concatenate([pc, x, dy]))
            instances += 1
            if not rel_close(y_lens, y_direct, rtol=1e-10) or not rel_close(
                back_lens, np.concatenate([dp, dx]), rtol=1e-10
            ):
                return CheckResult(
                    "r-functoriality", False, instances, "composite and composed lenses differ"
                )
    return CheckResult("r-functoriality", True, instances)


def check_gradient_descent_lens(seed: int = 4, trials: int = 10) -> CheckResult:
    nrng = np.random.default_rng(seed)
    b = GraphBuilder(in_dim=0)
    w = b.param(3)
    sq = b.node(PRIMITIVES["mul"](3), w, w)
    loss = b.node(PRIMITIVES["sum"](3), sq)
    f = b.build(loss)
    model = apply_R(f)
    costate = unit_loss_costate()
    alpha = 0.05
    instances = 0
    for _ in range(trials):
        p = nrng.uniform(-1.0, 1.0, 3)
        g_fd = fd_gradient(lambda v: float(forward_eval(f, v, np.zeros(0))[0][0]), p)
        down = reparametrise(model, sa.gd_lens(alpha, 3))
        p_down, _ = train_step(down, p, np.zeros(0), costate)
        instances += 1
        if not rel_close(p_down, p - alpha * g_fd, rtol=1e-4, atol=1e-8):
            return CheckResult(
                "gradient-descent-lens", False, instances, "descent step is not p - alpha*grad"
            )
        up = reparametrise(model, sa.ga_lens(alpha, 3))
        p_up, _ = train_step(up, p, np.zeros(0), costate)
        instances += 1
        if not rel_close(p_up, p + alpha * g_fd, rtol=1e-4, atol=1e-8):
            return CheckResult(
                "gradient-descent-lens", False, instances, "ascent step is not p + alpha*grad"
            )
    return CheckResult("gradient-descent-lens", True, instances)


def check_weight_tying(seed: int = 5, trials: int = 20) -> CheckResult:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    instances = 0
    for _ in range(trials):
        d = rng.randint(1, 4)
        tie = copy_lens(d)
        p = nrng.uniform(-1.0, 1.0, d)
        ga, gb = nrng.uniform(-1.0, 1.0, d), nrng.uniform(-1.0, 1.0, d)
        fwd = tie.get(p)
        back = tie.put(np.concatenate([p, ga, gb]))
        instances += 1
        if not rel_close(fwd, np.concatenate([p, p]), rtol=1e-12) or not rel_close(
            back, ga + gb, rtol=1e-10
        ):
            return CheckResult(
                "weight-tying", False, instances, "copy lens does not sum its feedback"
            )

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
        fed = tied.carrier.put(np.concatenate([p, x, x2, dy1, dy2]))
        instances += 1
        if not rel_close(fed[: f.param_dim], dp1 + dp2, rtol=1e-10):
            return CheckResult(
                "weight-tying", False, instances, "tied gradient is not the sum of both uses"
            )
    return CheckResult("weight-tying", True, instances)


# -- game suites --------------------------------------------------------


def random_relation(rng: random.Random, obj: ParamObj) -> SelectionRelation:
    """An arbitrary relation, tabulated over every (state, reward fn) pair."""
    table = {}
    for k in enumerate_functions(obj.fwd, obj.bwd):
        key = tuple(k(x) for x in obj.fwd.labels)
        for x in obj.fwd.labels:
            table[(x, key)] = rng.random() < 0.5

    def accepts(x: str, k: FinFn) -> bool:
        return table[(x, tuple(k(l) for l in obj.fwd.labels))]

    return SelectionRelation(obj, accepts)


def check_nash_naturality(seed: int = 7, instances_target: int = 100) -> CheckResult:
    rng = random.Random(seed)
    instances = 0
    while instances < instances_target:
        a = LensObj(random_finset(rng, 3), random_finset(rng, 2))
        a2 = LensObj(random_finset(rng, 3), random_finset(rng, 2))
        b = LensObj(random_finset(rng, 2), random_finset(rng, 2))
        b2 = LensObj(random_finset(rng, 2), random_finset(rng, 2))
        f = random_lens(rng, a, b)
        f2 = random_lens(rng, a2, b2)
        eps = random_relation(rng, ParamObj(a.fwd, a.bwd))
        delta = random_relation(rng, ParamObj(a2.fwd, a2.bwd))
        joint = sel_pushforward(lens_tensor(f, f2), nash_product(eps, delta))
        split = nash_product(sel_pushforward(f, eps), sel_pushforward(f2, delta))
        instances += 1
        if not relations_equal(joint, split):
            return CheckResult(
                "nash-naturality", False, instances, "pushforward does not commute with the product"
            )
    return CheckResult("nash-naturality", True, instances)


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


def check_oracle_equivalence(seed: int = 8, games: int = 200) -> CheckResult:
    rng = random.Random(seed)
    instances = 0
    for i in range(games):
        g = random_game(rng)
        found = solution_set(compositional_game(g))
        expected = brute_force_nash(g)
        instances += 1
        if found != expected:
            return CheckResult(
                "oracle-equivalence",
                False,
                instances,
                f"game {i}: engine {found} vs oracle {expected}",
            )
    return CheckResult("oracle-equivalence", True, instances)


_PD_TABLE = {
    ("C", "C"): (2, 2),
    ("C", "D"): (0, 3),
    ("D", "C"): (3, 0),
    ("D", "D"): (1, 1),
}


def pd_game():
    cd = FinSet(("C", "D"))
    return normal_form_game([cd, cd], _PD_TABLE)


def check_pd_solutions() -> CheckResult:
    g = pd_game()
    nash = solution_set(compositional_game(g))
    if nash != (("D", "D"),):
        return CheckResult("pd-solutions", False, 1, f"individual play gave {nash}")
    if nash != brute_force_nash(g):
        return CheckResult("pd-solutions", False, 2, "oracle disagrees on individual play")
    ra, rb = hicks_games(g)
    sa_, sb_ = solution_set(ra), solution_set(rb)
    if sa_ != (("C", "C"),) or sb_ != (("C", "C"),):
        return CheckResult("pd-solutions", False, 3, f"joint play gave {sa_} and {sb_}")
    if set(sa_) & set(nash):
        return CheckResult("pd-solutions", False, 4, "joint and individual play overlap")
    return CheckResult("pd-solutions", True, 4)


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
