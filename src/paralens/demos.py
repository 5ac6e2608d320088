"""Deterministic training demos: least squares, a small MLP, and a toy GAN.

Each run is a pure function of (seed, steps, alpha).  Parameters are
initialised from a seeded generator, the data is fixed at module level,
and every step appends one CSV row, so reruns are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import NumericError
from .smooth_autodiff import (
    GraphBuilder,
    PRIMITIVES,
    SmoothMap,
    apply_R,
    forward_eval,
    gan_model,
    gan_step,
    gd_lens,
    mlp_map,
    sqerr_head,
    train_step,
    unit_loss_costate,
)
from .para_optic import reparametrise

Alpha = Fraction | float | int


@dataclass
class TrainResult:
    """One demo run: per-step rows plus parameter history."""

    demo: str
    header: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    initial_params: dict[str, np.ndarray] = field(default_factory=dict)
    final_params: dict[str, np.ndarray] = field(default_factory=dict)
    snapshots: list[dict[str, np.ndarray]] = field(default_factory=list)
    final_metrics: dict[str, float] = field(default_factory=dict)


def write_csv(result: TrainResult, path: str) -> None:
    lines = [",".join(result.header)]
    for row in result.rows:
        lines.append(",".join(str(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


# least squares: eight points on an exact line, so the optimum is loss zero
_LINREG_XS = np.linspace(-1.0, 1.0, 8)
_LINREG_YS = 0.7 * _LINREG_XS - 0.3


def _linreg_graph() -> tuple[SmoothMap, np.ndarray]:
    """Model y ≈ X·θ with X the fixed 8×2 design matrix riding as input."""
    n = len(_LINREG_XS)
    design = np.stack([_LINREG_XS, np.ones(n)], axis=1).ravel()
    b = GraphBuilder(in_dim=3 * n)
    theta = b.param(2)
    pred = b.node(PRIMITIVES["linear"](2, n), b.input(0, 2 * n), theta, name="pred")
    loss = b.node(PRIMITIVES["sqerr"](n), pred, b.input(2 * n, 3 * n), name="loss")
    return b.build(loss), np.concatenate([design, _LINREG_YS])


def run_linreg(
    seed: int = 7, steps: int = 500, alpha: Alpha = Fraction(1, 20)
) -> TrainResult:
    graph, data = _linreg_graph()
    stepped = reparametrise(apply_R(graph), gd_lens(float(alpha), graph.param_dim))
    costate = unit_loss_costate()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, graph.param_dim)

    result = TrainResult("linreg", ("step", "loss"))
    result.initial_params = {"theta": theta.copy()}
    result.snapshots.append(_snapshot(result.initial_params))
    for t in range(steps):
        try:
            theta, loss = train_step(stepped, theta, data, costate)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {t}: {exc}") from exc
        result.rows.append((t, float(loss)))
        result.snapshots.append(_snapshot({"theta": theta}))
    result.final_params = {"theta": theta.copy()}
    final_loss = float(forward_eval(graph, theta, data)[0][0])
    result.final_metrics = {"loss": final_loss}
    return result


# curve fitting: a tanh network learns a parabola, one sample per step
_MLP_XS = np.linspace(-1.0, 1.0, 8)
_MLP_YS = _MLP_XS**2


def run_mlp(seed: int = 0, steps: int = 500, alpha: Alpha = Fraction(1, 20)) -> TrainResult:
    graph = sqerr_head(mlp_map((1, 4, 1)))
    stepped = reparametrise(apply_R(graph), gd_lens(float(alpha), graph.param_dim))
    costate = unit_loss_costate()
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-0.5, 0.5, graph.param_dim)

    result = TrainResult("mlp", ("step", "loss"))
    result.initial_params = {"theta": theta.copy()}
    result.snapshots.append(_snapshot(result.initial_params))
    for t in range(steps):
        i = t % len(_MLP_XS)
        data = np.array([_MLP_XS[i], _MLP_YS[i]])
        try:
            theta, loss = train_step(stepped, theta, data, costate)
        except NumericError as exc:
            raise NumericError(f"training diverged at step {t}: {exc}") from exc
        result.rows.append((t, float(loss)))
        result.snapshots.append(_snapshot({"theta": theta}))
    result.final_params = {"theta": theta.copy()}
    total = 0.0
    for x, y in zip(_MLP_XS, _MLP_YS):
        total += float(forward_eval(graph, theta, np.array([x, y]))[0][0])
    result.final_metrics = {"mean_loss": total / len(_MLP_XS)}
    return result


# adversarial pair: generator maps 2-d noise to the plane, discriminator
# scores fake and real points; only the one-step update rule is of interest
_GAN_ANGLES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
_GAN_REALS = 0.7 * np.stack([np.cos(_GAN_ANGLES), np.sin(_GAN_ANGLES)], axis=1)


def run_gan(seed: int = 0, steps: int = 200, alpha: Alpha = Fraction(1, 100)) -> TrainResult:
    gen_graph = mlp_map((2, 4, 2))
    disc_graph = mlp_map((2, 4, 1))
    gen = apply_R(gen_graph)
    disc = apply_R(disc_graph)
    rng = np.random.default_rng(seed)
    p_gen = rng.uniform(-0.5, 0.5, gen_graph.param_dim)
    p_disc = rng.uniform(-0.5, 0.5, disc_graph.param_dim)
    latents = rng.uniform(-1.0, 1.0, (8, 2))

    result = TrainResult("gan", ("step", "d_fake", "d_real"))
    result.initial_params = {"gen": p_gen.copy(), "disc": p_disc.copy()}
    result.snapshots.append(_snapshot(result.initial_params))
    model = gan_model(gen, disc, float(alpha))
    for t in range(steps):
        i = t % len(_GAN_REALS)
        try:
            p_gen, p_disc, (d_fake, d_real) = gan_step(
                model, p_gen, p_disc, latents[i], _GAN_REALS[i]
            )
        except NumericError as exc:
            raise NumericError(f"training diverged at step {t}: {exc}") from exc
        result.rows.append((t, d_fake, d_real))
        result.snapshots.append(_snapshot({"gen": p_gen, "disc": p_disc}))
    result.final_params = {"gen": p_gen.copy(), "disc": p_disc.copy()}
    fake = forward_eval(gen_graph, p_gen, latents[0])[0]
    result.final_metrics = {
        "d_fake": float(forward_eval(disc_graph, p_disc, fake)[0][0]),
        "d_real": float(forward_eval(disc_graph, p_disc, _GAN_REALS[0])[0][0]),
    }
    return result


DEMOS = {"linreg": run_linreg, "mlp": run_mlp, "gan": run_gan}
