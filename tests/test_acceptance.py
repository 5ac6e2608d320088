"""Acceptance gate.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Tolerances are pinned here and nowhere looser:

    FD_STEP    1e-5   central finite-difference step
    FD_RTOL    1e-4   relative error allowed against finite differences
    EXACT_RTOL 1e-10  identities that hold to float round-off
    TIE_TOL    1e-10  weight-tying gradient-sum identity

Everything on the finite side is exact label/rational equality with no
tolerance at all.
"""

import json
import time
from fractions import Fraction

import numpy as np

from paralens.checks import (
    check_gradient_descent_lens,
    check_gradient_graphs,
    check_gradient_primitives,
    check_lens_category_laws,
    check_lens_monoidal_laws,
    check_nash_naturality,
    check_oracle_equivalence,
    check_para_laws,
    check_r_functoriality,
    pd_game,
    rel_close,
)
from paralens.cli import main
from paralens.demos import run_linreg
from paralens.selection_games import (
    brute_force_hicks,
    brute_force_nash,
    compositional_game,
    hicks_games,
    solution_set,
)
from paralens.smooth_autodiff import (
    apply_R,
    backward_eval,
    forward_eval,
    gan_model,
    gan_step,
    mlp_map,
)

FD_STEP = 1e-5
FD_RTOL = 1e-4
EXACT_RTOL = 1e-10
TIE_TOL = 1e-10


def _fd_gradient(fn, v):
    out = np.zeros_like(v)
    for i in range(len(v)):
        up, down = v.copy(), v.copy()
        up[i] += FD_STEP
        down[i] -= FD_STEP
        out[i] = (fn(up) - fn(down)) / (2.0 * FD_STEP)
    return out


def test_criterion_01_dilemma_nash(capsys):
    start = time.perf_counter()
    code = main(["solve", "pd.json"])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["solutions"] == [["D", "D"]]
    assert report["agrees"] is True
    assert elapsed < 1.0
    print("criterion 01 PASS: defect/defect is the unique stable profile")


def test_criterion_02_dilemma_joint_total():
    start = time.perf_counter()
    g = pd_game()
    route_reparam, route_pushed = hicks_games(g)
    a, b = solution_set(route_reparam), solution_set(route_pushed)
    nash = solution_set(compositional_game(g))
    elapsed = time.perf_counter() - start
    assert a == b == (("C", "C"),) == brute_force_hicks(g)
    assert nash == (("D", "D"),) and set(a).isdisjoint(nash)
    assert elapsed < 1.0
    print("criterion 02 PASS: both joint-total routes give cooperate/cooperate")


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    result = check_oracle_equivalence(games=200)
    elapsed = time.perf_counter() - start
    assert result.ok, result.detail
    assert result.instances == 200
    assert elapsed < 60.0
    print(f"criterion 03 PASS: {result.instances} games match the deviation oracle")


def test_criterion_04_nash_naturality():
    result = check_nash_naturality(instances_target=100)
    assert result.ok, result.detail
    assert result.instances == 100
    print(f"criterion 04 PASS: product-then-push = push-then-product on {result.instances} instances")


def test_criterion_05_lens_and_para_laws():
    results = [
        check_lens_category_laws(),
        check_lens_monoidal_laws(),
        check_para_laws(),
    ]
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"
    assert [r.instances for r in results] == [180, 660, 200]
    total = sum(r.instances for r in results)
    assert total >= 500
    print(f"criterion 05 PASS: {total} law instances, all exact")


def test_criterion_06_gradients_match_finite_differences():
    start = time.perf_counter()
    prim = check_gradient_primitives()
    graphs = check_gradient_graphs(graphs=50)
    elapsed = time.perf_counter() - start
    assert prim.ok, prim.detail
    assert graphs.ok, graphs.detail
    assert (prim.instances, graphs.instances) == (18, 50)
    assert elapsed < 30.0
    print(f"criterion 06 PASS: {prim.instances} primitive and {graphs.instances} graph checks")


def test_criterion_07_derivative_lens_functoriality():
    result = check_r_functoriality(evals=100)
    assert result.ok, result.detail
    assert result.instances == 100
    print(f"criterion 07 PASS: composite lenses agree to {EXACT_RTOL} on {result.instances} evaluations")


def test_criterion_08_descent_and_ascent_lenses():
    result = check_gradient_descent_lens()
    assert result.ok, result.detail
    assert result.instances == 20
    print("criterion 08 PASS: one-step updates equal p -/+ alpha * gradient")


def test_criterion_09_gan_step():
    gen_graph = mlp_map((2, 4, 2))
    disc_graph = mlp_map((2, 4, 1))
    gen, disc = apply_R(gen_graph), apply_R(disc_graph)
    rng = np.random.default_rng(42)
    pg = rng.uniform(-0.5, 0.5, gen_graph.param_dim)
    pd = rng.uniform(-0.5, 0.5, disc_graph.param_dim)
    z = rng.uniform(-1, 1, 2)
    real = rng.uniform(-1, 1, 2)
    alpha = 0.01

    pg2, pd2, _ = gan_step(gan_model(gen, disc, alpha), pg, pd, z, real)

    def value(pdv, pgv):
        fake = forward_eval(gen_graph, pgv, z)[0]
        return float(
            forward_eval(disc_graph, pdv, fake)[0][0]
            + forward_eval(disc_graph, pdv, real)[0][0]
        )

    assert rel_close(pd2, pd + alpha * _fd_gradient(lambda v: value(v, pg), pd),
                     rtol=FD_RTOL, atol=1e-8)
    assert rel_close(pg2, pg - alpha * _fd_gradient(lambda v: value(pd, v), pg),
                     rtol=FD_RTOL, atol=1e-8)

    # tying identity at unit rate: the discriminator delta is exactly the
    # sum of the gradients from its fake-side and real-side uses
    _, pd_unit, _ = gan_step(gan_model(gen, disc, 1.0), pg, pd, z, real)
    fake = forward_eval(gen_graph, pg, z)[0]
    _, tape1 = forward_eval(disc_graph, pd, fake)
    dp1, _ = backward_eval(disc_graph, tape1, np.ones(1))
    _, tape2 = forward_eval(disc_graph, pd, real)
    dp2, _ = backward_eval(disc_graph, tape2, np.ones(1))
    assert rel_close(pd_unit - pd, dp1 + dp2, rtol=TIE_TOL)
    print("criterion 09 PASS: adversarial one-step updates match the oracle")


def test_criterion_10_regression_demo_converges():
    first = run_linreg(seed=7, steps=500, alpha=Fraction(1, 20))
    assert first.final_metrics["loss"] < 1e-6
    second = run_linreg(seed=7, steps=500, alpha=Fraction(1, 20))
    assert first.rows == second.rows
    assert np.array_equal(first.final_params["theta"], second.final_params["theta"])
    print(f"criterion 10 PASS: final squared error {first.final_metrics['loss']:.3e}")
