"""Independent references for the benchmark's correctness checks.

Nothing here imports ``paralens``.  The finite side re-derives solution sets
from a generated spec by brute force over plain ``Fraction`` payoffs; the
smooth side re-implements the demos' training steps and the wide MLP step
in hand-written numpy, following the documented parameter layout
(per layer: row-major weight matrix, then bias) and update rules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

# Parameters must agree to round-off, relative to the largest entry.
REL_TOL = 1e-10


# -- finite side --------------------------------------------------------


def _profiles(spec: dict) -> tuple[list[list[str]], dict[tuple[str, ...], tuple[Fraction, ...]]]:
    strategies = [p["strategies"] for p in spec["players"]]
    table = {
        tuple(key.split(",")): tuple(Fraction(str(v)) for v in vals)
        for key, vals in spec["payoffs"].items()
    }
    return strategies, table


def nash(spec: dict, tags: list[str] | None = None) -> list[list[str]]:
    """Profiles where no ``argmax`` player gains by deviating alone.

    ``tags`` defaults to ``argmax`` for every player; a ``total`` player is
    indifferent and never blocks a profile.
    """
    strategies, table = _profiles(spec)
    tags = tags or ["argmax"] * len(strategies)
    out = []
    for prof in product(*strategies):
        stable = all(
            table[prof[:i] + (dev,) + prof[i + 1 :]][i] <= table[prof][i]
            for i, tag in enumerate(tags)
            if tag == "argmax"
            for dev in strategies[i]
        )
        if stable:
            out.append(list(prof))
    return out


def hicks(spec: dict) -> list[list[str]]:
    """Profiles maximising the summed payoff."""
    strategies, table = _profiles(spec)
    profiles = list(product(*strategies))
    best = max(sum(table[p]) for p in profiles)
    return [list(p) for p in profiles if sum(table[p]) == best]


# -- smooth side --------------------------------------------------------


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def params_match(got: np.ndarray, want: np.ndarray) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return got.shape == want.shape and rel_err(got, want) <= REL_TOL


def mlp_param_dim(dims) -> int:
    return sum(m * n + m for n, m in zip(dims[:-1], dims[1:]))


def mlp_vjp(dims, p: np.ndarray, x: np.ndarray, dout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward a tanh MLP and pull ``dout`` back; returns ``(y, dp, dx)``.

    ``dout`` may be a callable of the output, for losses whose cotangent
    depends on it.
    """
    layers = []
    off = 0
    h = x
    last = len(dims) - 2
    for i, (n, m) in enumerate(zip(dims[:-1], dims[1:])):
        w = p[off : off + m * n].reshape(m, n)
        off += m * n
        z = w @ h + p[off : off + m]
        off += m
        layers.append((w, h, z))
        h = np.tanh(z) if i < last else z
    y = h
    c = dout(y) if callable(dout) else dout
    grads = []
    for i in range(last, -1, -1):
        w, h_in, z = layers[i]
        if i < last:
            t = np.tanh(z)
            c = c * (1.0 - t * t)
        grads.append((np.outer(c, h_in).ravel(), c))
        c = w.T @ c
    dp = np.concatenate([g for pair in reversed(grads) for g in pair])
    return y, dp, c


# the demos' fixed data, restated
_LINREG_XS = np.linspace(-1.0, 1.0, 8)
_LINREG_YS = 0.7 * _LINREG_XS - 0.3
_MLP_XS = np.linspace(-1.0, 1.0, 8)
_MLP_YS = _MLP_XS**2
_GAN_ANGLES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
_GAN_REALS = 0.7 * np.stack([np.cos(_GAN_ANGLES), np.sin(_GAN_ANGLES)], axis=1)


def _sqerr_cot(target):
    return lambda y: 2.0 * (y - target) * 1.0


def linreg(seed: int, steps: int, alpha: float = 1 / 20) -> np.ndarray:
    """Final parameters of ``run_linreg``: least squares on a fixed line."""
    design = np.stack([_LINREG_XS, np.ones(len(_LINREG_XS))], axis=1)
    theta = np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
    for _ in range(steps):
        pred = design @ theta
        theta = theta - alpha * (design.T @ (2.0 * (pred - _LINREG_YS) * 1.0))
    return theta


def mlp(seed: int, steps: int, alpha: float = 1 / 20) -> np.ndarray:
    """Final parameters of ``run_mlp``: a (1,4,1) tanh net, one sample per step."""
    dims = (1, 4, 1)
    theta = np.random.default_rng(seed).uniform(-0.5, 0.5, mlp_param_dim(dims))
    for t in range(steps):
        i = t % len(_MLP_XS)
        _, dp, _ = mlp_vjp(dims, theta, np.array([_MLP_XS[i]]), _sqerr_cot(np.array([_MLP_YS[i]])))
        theta = theta - alpha * dp
    return theta


def gan(seed: int, steps: int, alpha: float = 1 / 100) -> tuple[np.ndarray, np.ndarray]:
    """Final ``(gen, disc)`` parameters of ``run_gan``.

    Both scores get cotangent one; the discriminator ascends on the sum of
    its two gradients, the generator descends on the fake score.
    """
    gdims, ddims = (2, 4, 2), (2, 4, 1)
    rng = np.random.default_rng(seed)
    p_gen = rng.uniform(-0.5, 0.5, mlp_param_dim(gdims))
    p_disc = rng.uniform(-0.5, 0.5, mlp_param_dim(ddims))
    latents = rng.uniform(-1.0, 1.0, (8, 2))
    one = np.ones(1)
    for t in range(steps):
        i = t % len(_GAN_REALS)
        fake, _, _ = mlp_vjp(gdims, p_gen, latents[i], np.zeros(2))
        _, gd_fake, dfake = mlp_vjp(ddims, p_disc, fake, one)
        _, gg, _ = mlp_vjp(gdims, p_gen, latents[i], dfake)
        _, gd_real, _ = mlp_vjp(ddims, p_disc, _GAN_REALS[i], one)
        p_disc = p_disc - (-alpha) * (gd_fake + gd_real)
        p_gen = p_gen - alpha * gg
    return p_gen, p_disc


def sqerr_mlp_step(dims, p: np.ndarray, x: np.ndarray, target: np.ndarray, alpha: float) -> np.ndarray:
    """One gradient-descent step on ``Σ (mlp(p, x) − target)²``."""
    _, dp, _ = mlp_vjp(dims, p, x, _sqerr_cot(target))
    return p - alpha * dp
