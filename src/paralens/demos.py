"""Deterministic training demos: least squares, a small MLP, and a toy GAN.

Each run is a pure function of (seed, steps, alpha).  Parameters are
initialised from a seeded generator, the data is fixed at module level,
and every step appends one CSV row, so reruns are bit-identical.  One
loop steps all three demos.  Their fixed graphs are built once per
process, on first use; the lenses around them, once per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError
from .smooth_autodiff import (
    GraphBuilder,
    SmoothMap,
    apply_R,
    forward_eval,
    gan_model,
    gan_step,
    gd_lens,
    linear,
    mlp_map,
    sqerr,
    sqerr_head,
    train_step,
    unit_loss_costate,
)
from .para_optic import reparametrise

Alpha = Fraction | float | int


@dataclass
class TrainResult:
    """One demo run: its CSV header, per-step rows, final parameters and final metrics."""

    header: tuple[str, ...]
    rows: list[tuple]
    final_params: dict[str, np.ndarray]
    final_metrics: dict[str, float]


def write_csv(result: TrainResult, path: str) -> None:
    lines = [",".join(result.header)]
    for row in result.rows:
        lines.append(",".join(str(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# a score past this magnitude means the run has diverged, whether or not a value overflows
_SCORE_BOUND = 1e100


def _train(steps: int, params, step: Callable) -> tuple[list[tuple], object]:
    """Run ``step(t, params) -> (params, scores)`` for ``t`` below ``steps``.

    Returns the rows ``(t, *scores)`` and the last parameters.  A step that
    meets a non-finite value, or returns a score past ``_SCORE_BOUND`` in
    magnitude, ends the run with a ``NumericError`` naming the step.
    """
    rows = []
    for t in range(steps):
        try:
            params, scores = step(t, params)
            for s in scores:
                if not abs(s) <= _SCORE_BOUND:
                    raise NumericError(f"score {s!r} is past the bound {_SCORE_BOUND:g}")
        except NumericError as exc:
            raise NumericError(f"training diverged at step {t}: {exc}") from exc
        rows.append((t, *scores))
    return rows, params


def _descend(graph: SmoothMap, alpha: Alpha, samples: Sequence[np.ndarray]) -> Callable:
    """The gradient-descent step of a scalar-loss graph, fed the samples in turn, one per step."""
    stepped = reparametrise(apply_R(graph), gd_lens(float(alpha), graph.param_dim))
    costate = unit_loss_costate()
    return lambda t, theta: train_step(stepped, theta, samples[t % len(samples)], costate)


# least squares: eight points on an exact line, so the optimum is loss zero
_XS = np.linspace(-1.0, 1.0, 8)  # the MLP's sample points too
_LINREG_YS = 0.7 * _XS - 0.3


@cache
def _linreg_graph() -> tuple[SmoothMap, np.ndarray]:
    """Model y ≈ X·θ with X the fixed 8×2 design matrix riding as input."""
    n = len(_XS)
    design = np.stack([_XS, np.ones(n)], axis=1).ravel()
    b = GraphBuilder(in_dim=3 * n)
    theta = b.param(2)
    pred = b.node(linear(2, n), b.input(0, 2 * n), theta, name="pred")
    loss = b.node(sqerr(n), pred, b.input(2 * n, 3 * n), name="loss")
    data = np.concatenate([design, _LINREG_YS])
    data.flags.writeable = False  # every run in the process shares it
    return b.build(loss), data


def run_linreg(
    seed: int = 7, steps: int = 500, alpha: Alpha = Fraction(1, 20)
) -> TrainResult:
    graph, data = _linreg_graph()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, graph.param_dim)
    rows, theta = _train(steps, theta, _descend(graph, alpha, (data,)))
    final_loss = float(forward_eval(graph, theta, data)[0][0])
    return TrainResult(("step", "loss"), rows, {"theta": theta}, {"loss": final_loss})


# curve fitting: a tanh network learns a parabola, one (x, x²) sample per step
_MLP_SAMPLES = np.stack([_XS, _XS**2], axis=1)


@cache
def _mlp_graph() -> SmoothMap:
    return sqerr_head(mlp_map((1, 4, 1)))


def run_mlp(seed: int = 0, steps: int = 500, alpha: Alpha = Fraction(1, 20)) -> TrainResult:
    graph = _mlp_graph()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, graph.param_dim)
    rows, theta = _train(steps, theta, _descend(graph, alpha, _MLP_SAMPLES))
    total = 0.0
    for sample in _MLP_SAMPLES:
        total += float(forward_eval(graph, theta, sample)[0][0])
    return TrainResult(("step", "loss"), rows, {"theta": theta}, {"mean_loss": total / len(_MLP_SAMPLES)})


# adversarial pair: generator maps 2-d noise to the plane, discriminator
# scores fake and real points; only the one-step update rule is of interest
_GAN_ANGLES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
_GAN_REALS = 0.7 * np.stack([np.cos(_GAN_ANGLES), np.sin(_GAN_ANGLES)], axis=1)


@cache
def _gan_graphs() -> tuple[SmoothMap, SmoothMap]:
    """The generator's and the discriminator's graphs."""
    return mlp_map((2, 4, 2)), mlp_map((2, 4, 1))


def run_gan(seed: int = 0, steps: int = 200, alpha: Alpha = Fraction(1, 100)) -> TrainResult:
    gen_graph, disc_graph = _gan_graphs()
    rng = np.random.default_rng(seed)
    p_gen = rng.uniform(-0.5, 0.5, gen_graph.param_dim)
    p_disc = rng.uniform(-0.5, 0.5, disc_graph.param_dim)
    latents = rng.uniform(-1.0, 1.0, (8, 2))
    model = gan_model(apply_R(gen_graph), apply_R(disc_graph), float(alpha))

    def step(t, params):
        i = t % len(_GAN_REALS)
        p_gen, p_disc, scores = gan_step(model, *params, latents[i], _GAN_REALS[i])
        return (p_gen, p_disc), scores

    rows, (p_gen, p_disc) = _train(steps, (p_gen, p_disc), step)
    fake = forward_eval(gen_graph, p_gen, latents[0])[0]
    final_metrics = {
        "d_fake": float(forward_eval(disc_graph, p_disc, fake)[0][0]),
        "d_real": float(forward_eval(disc_graph, p_disc, _GAN_REALS[0])[0][0]),
    }
    return TrainResult(("step", "d_fake", "d_real"), rows, {"gen": p_gen, "disc": p_disc}, final_metrics)


DEMOS = {"linreg": run_linreg, "mlp": run_mlp, "gan": run_gan}
