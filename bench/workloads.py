"""The benchmark's four workloads.

Each is a closed loop with one client: the next op is sent when the
previous one returns.  Inputs come from the workload seed alone, through
string-seeded generators, so a seed names the same inputs in every process.
Ops are grouped in blocks; the solve workloads use a fixed mix of rungs
per block ("round"), so every run times the same mix whatever its length.

Per workload:

* ``construct(mods)`` is the program's one-time construction, timed as
  set-up (``mods`` is the freshly imported paralens package).
* ``start(phase)`` resets per-run state; inputs depend on the phase, so the
  traced run and its untraced comparison block can use different inputs.
* ``block(i)`` returns the inputs of block ``i`` (untimed generation).
* ``run(inp)`` is the timed op; it calls paralens only through public
  module attributes looked up at call time, so tracing wrappers see it.
* ``check(inp, out)`` compares against the benchmark's own reference.
* ``items(inp)`` is the number of games or training steps in the op.
* ``bracket_probe`` and ``inner_probe`` are the machine-speed probes run
  around and inside ops (see ``speed.py``): fixed computations of the same
  character as the workload that do not touch paralens and do not depend
  on the seed.  Each nominal time is about the probe's median on the
  machine the benchmark was written on, the nominal speed that reported
  times are scaled to.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
import zlib
from pathlib import Path

import numpy as np

import reference
import specgen
from speed import Probe


_PROBE_SPEC = specgen.make_game(random.Random("probe"), 3, 4, 4)


def _python_probe() -> None:
    """Brute-force Nash and Hicks on one fixed (3,4,4) game: cache-resident
    Python with ``Fraction`` arithmetic, dicts and tuples."""
    reference.nash(_PROBE_SPEC)
    reference.hicks(_PROBE_SPEC)


def _heap_probe() -> None:
    """Build and read back a dict of 25,000 pair-label strings, a few MB:
    the string building and hashing of a finite carrier, out of cache."""
    table = {f"({i},{i * 7 % 1000})": (i, str(i)) for i in range(25000)}
    sum(table[f"({i},{i * 7 % 1000})"][0] for i in range(0, 25000, 3))


PYTHON_PROBE = Probe(_python_probe, 2.5e-3)
HEAP_PROBE = Probe(_heap_probe, 23e-3, repeats=1)


class SolveWorkload:
    """In-process ``paralens solve`` on generated spec files."""

    item = "game"
    bracket_probe = PYTHON_PROBE
    inner_probe = HEAP_PROBE
    min_blocks = 1
    round_spec: tuple[tuple[tuple[int, int, int], int], ...] = ()
    small_round: tuple[tuple[tuple[int, int, int], int], ...] = ()

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.phase = "run"
        self.rungs = self.small_round if small else self.round_spec
        if small:
            self.min_blocks = 1

    def construct(self, mods) -> None:
        self.mods = mods

    def start(self, phase: str) -> None:
        self.phase = phase

    def selection(self, rng: random.Random, index: int, n: int) -> tuple[str | None, list[str] | None]:
        raise NotImplementedError

    def expected(self, spec: dict, tags: list[str] | None) -> list:
        raise NotImplementedError

    def block(self, index: int) -> list[dict]:
        rng = random.Random(f"{self.seed}/{self.name}/{self.phase}/{index}")
        games = [rung for rung, count in self.rungs for _ in range(count)]
        rng.shuffle(games)
        out = []
        for j, (n, k, v) in enumerate(games):
            spec = specgen.make_game(rng, n, k, v)
            selection, tags = self.selection(rng, j, n)
            path = self.workdir / f"{self.phase}-{index}-{j}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            argv = ["solve", str(path)]
            if selection is not None:
                argv += ["--selection", selection]
            out.append(
                {
                    "rung": (n, k, v),
                    "argv": argv,
                    "expected": self.expected(spec, tags),
                }
            )
        return out

    def run(self, inp: dict) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods.cli.main(inp["argv"])
        return code, buf.getvalue()

    def check(self, inp: dict, out: tuple[int, str]) -> bool:
        code, text = out
        if code != 0:
            return False
        report = json.loads(text)
        return report.get("agrees") is True and report.get("solutions") == inp["expected"]

    def items(self, inp: dict) -> int:
        return 1


class NashLadder(SolveWorkload):
    """``argmax_each`` on the ROADMAP ladder; one game in four uses mixed tags.

    Per 50-game round: 40 (2,2,4), 3 (2,8,8), 4 (3,4,4), 2 (4,2,4), 1 (3,4,8).
    At nominal speed the rungs cost about 8, 380, 450, 600 and 5500 ms, so
    sorted by latency they fill 0-80 %, 80-86 %, 86-94 %, 94-98 % and
    98-100 %: p50 sits inside the (2,2,4) block and p90 inside the (3,4,4)
    block, away from every boundary.  Two rounds give the 100 ops a p90 needs.
    """

    name = "nash_ladder"
    min_blocks = 2
    round_spec = (((2, 2, 4), 40), ((2, 8, 8), 3), ((3, 4, 4), 4), ((4, 2, 4), 2), ((3, 4, 8), 1))
    small_round = (((2, 2, 4), 6), ((3, 4, 4), 1), ((4, 2, 4), 1))

    def selection(self, rng, index, n):
        if index % 4 != 3:
            return None, None
        tags = specgen.mixed_tags(rng, n)
        return ",".join(tags), tags

    def expected(self, spec, tags):
        return reference.nash(spec, tags)


class HicksWide(SolveWorkload):
    """``--selection hicks_sum`` on wide games with two payoff values.

    Per 50-game round: 42 (2,8,2), 5 (2,12,2), 1 (2,16,2), 1 (3,6,2),
    1 (2,24,2).  At nominal speed the rungs cost about 50, 155, 350, 420
    and 1450 ms, so sorted by latency they fill 0-84 %, 84-94 % and
    94-100 %: p50 sits inside the (2,8,2) block and p90 inside the (2,12,2)
    block.  The cheap (2,8,2) rung exists to give p50 a block of its own.
    Two rounds give the 100 ops a p90 needs.
    """

    name = "hicks_wide"
    min_blocks = 2
    round_spec = (((2, 8, 2), 42), ((2, 12, 2), 5), ((2, 16, 2), 1), ((3, 6, 2), 1), ((2, 24, 2), 1))
    small_round = (((2, 8, 2), 4), ((2, 12, 2), 1), ((3, 6, 2), 1))

    def selection(self, rng, index, n):
        return "hicks_sum", None

    def expected(self, spec, tags):
        return reference.hicks(spec)


class TrainSmall:
    """One op is a session: ``run_linreg``, ``run_mlp`` and ``run_gan``.

    Each demo runs ``STEPS`` steps from seeds drawn from the workload seed.
    An op's per-step latency is its wall time over its ``3 * STEPS`` steps.
    """

    name = "train_small"
    item = "step"
    STEPS = 20
    min_blocks = 100
    # eight hand-numpy GAN steps: small numpy calls from Python
    bracket_probe = inner_probe = Probe(lambda: reference.gan(0, 8), 0.8e-3)

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.steps = 4 if small else self.STEPS
        if small:
            self.min_blocks = 3
        self.phase = "run"
        self.ref_seconds = 0.0

    def construct(self, mods) -> None:
        self.mods = mods

    def start(self, phase: str) -> None:
        self.phase = phase
        self.ref_seconds = 0.0

    def block(self, index: int) -> list[tuple[int, int, int]]:
        rng = random.Random(f"{self.seed}/{self.name}/{self.phase}/{index}")
        return [tuple(rng.randrange(2**31) for _ in range(3))]

    def run(self, seeds):
        demos = self.mods.demos
        a, b, c = seeds
        return (
            demos.run_linreg(seed=a, steps=self.steps),
            demos.run_mlp(seed=b, steps=self.steps),
            demos.run_gan(seed=c, steps=self.steps),
        )

    def check(self, seeds, out) -> bool:
        a, b, c = seeds
        t0 = time.perf_counter()
        want_lin = reference.linreg(a, self.steps)
        want_mlp = reference.mlp(b, self.steps)
        want_gen, want_disc = reference.gan(c, self.steps)
        self.ref_seconds += time.perf_counter() - t0
        lin, mlp, gan = out
        return (
            reference.params_match(lin.final_params["theta"], want_lin)
            and reference.params_match(mlp.final_params["theta"], want_mlp)
            and reference.params_match(gan.final_params["gen"], want_gen)
            and reference.params_match(gan.final_params["disc"], want_disc)
        )

    def items(self, seeds) -> int:
        return 3 * self.steps


class TrainWide:
    """One op is one ``train_step`` of ``sqerr_head(mlp_map((8,1024,1024,1)))``.

    The lens ``reparametrise(apply_R(graph), gd_lens(alpha, dim))`` and the
    loss costate are built once, in set-up.  Parameters carry over from op
    to op; each step is checked against a hand-numpy step from the same
    parameters.
    """

    name = "train_wide"
    item = "step"
    DIMS = (8, 1024, 1024, 1)
    ALPHA = 1e-3
    min_blocks = 100

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.dims = (8, 64, 64, 1) if small else self.DIMS
        if small:
            self.min_blocks = 3
        self.phase = "run"
        self.ref_seconds = 0.0
        vec = np.random.default_rng(0).uniform(-1.0, 1.0, reference.mlp_param_dim(self.dims))

        def copies() -> None:
            """Six fresh copies of a parameter-sized vector: a lens step's
            time is mostly the copies its pairings make, and on a shared
            host it tracks a copy loop more closely than a numpy
            forward/backward pass."""
            q = vec
            for _ in range(6):
                q = np.concatenate([q, q[:1]])[:-1]

        self.bracket_probe = self.inner_probe = Probe(copies, 8e-3, repeats=1)

    def construct(self, mods) -> None:
        sa = mods.smooth_autodiff
        graph = sa.sqerr_head(sa.mlp_map(self.dims))
        self.lens = mods.para_optic.reparametrise(sa.apply_R(graph), sa.gd_lens(self.ALPHA, graph.param_dim))
        self.costate = sa.unit_loss_costate()
        self.mods = mods

    def start(self, phase: str) -> None:
        self.phase = phase
        self.ref_seconds = 0.0
        rng = np.random.default_rng([self.seed, zlib.crc32(phase.encode())])
        self.params = rng.uniform(-0.05, 0.05, reference.mlp_param_dim(self.dims))

    def block(self, index: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, zlib.crc32(self.phase.encode()), index + 1])
        x = rng.uniform(-1.0, 1.0, self.dims[0])
        target = rng.uniform(-1.0, 1.0, self.dims[-1])
        return [{"p": self.params, "x": x, "target": target, "data": np.concatenate([x, target])}]

    def run(self, inp):
        p_next, _ = self.mods.smooth_autodiff.train_step(self.lens, inp["p"], inp["data"], self.costate)
        self.params = p_next
        return p_next

    def check(self, inp, p_next) -> bool:
        t0 = time.perf_counter()
        want = reference.sqerr_mlp_step(self.dims, inp["p"], inp["x"], inp["target"], self.ALPHA)
        self.ref_seconds += time.perf_counter() - t0
        return reference.params_match(p_next, want)

    def items(self, inp) -> int:
        return 1



WORKLOADS = {w.name: w for w in (NashLadder, HicksWide, TrainSmall, TrainWide)}
