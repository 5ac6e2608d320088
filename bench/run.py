#!/usr/bin/env python3
"""The paralens benchmark: both halves of the library, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see ``workloads.py`` and ``NOTES.md``): ``nash_ladder``,
``hicks_wide``, ``train_small``, ``train_wide``.  ``all`` runs each in its
own child process, one after the other.

``--trace 0`` measures the end-to-end metrics for about ``--seconds``
seconds (never fewer ops than the workload's minimum block).  ``--trace 1``
runs the minimum block once with paralens wrapped from outside (see
``tracing.py``), restores every wrapper, runs a block of the same size
untraced for the tracing overhead, and reports the per-layer metrics.
Spans go to ``bench/out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat the metrics under
the names of the benchmark's notes, with units, and an environment record.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 11
WORKLOAD_NAMES = ("nash_ladder", "hicks_wide", "train_small", "train_wide")

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            ctype = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            continue
        if ctype != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "caches": caches,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_paralens() -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "paralens" or n.startswith("paralens.")]:
        del sys.modules[name]
    pkg = importlib.import_module("paralens")
    names = ("cli", "demos", "smooth_autodiff", "para_optic", "lens_core", "finite_base", "selection_games")
    return SimpleNamespace(pkg=pkg, **{n: importlib.import_module(f"paralens.{n}") for n in names})


def timed_setup(workload) -> tuple[float, float, SimpleNamespace]:
    """Median over ``SETUP_REPS`` of a fresh import plus one-time construction.

    A Python speed probe runs before each repetition and after the last;
    returns the raw median, the median scaled to nominal speed (each
    repetition by the mean of its two neighbouring probes) and the modules.
    """
    probe = workloads.PYTHON_PROBE.slowness
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        mods = import_paralens()
        workload.construct(mods)
        dt = time.perf_counter() - t0
        after = probe()
        raw.append(dt)
        scaled.append(dt * 2 / (before + after))
        before = after
    where = Path(mods.pkg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: paralens was imported from {where}, not from {SRC}")
    return statistics.median(raw), statistics.median(scaled), mods


def measure(workload, seconds: float, max_blocks: int | None = None, tracer=None) -> dict:
    """Closed loop over blocks until ``seconds`` would be overrun.

    Never fewer than ``workload.min_blocks`` blocks; ``max_blocks`` fixes
    the count exactly (traced runs).  Input generation and reference checks
    are outside the per-op timer but inside the run's wall clock.

    Each op's time is also reported at nominal machine speed, scaled by
    the workload's speed probes (see ``speed.py``).  No probe runs inside
    a traced op, whose spans it would pollute.
    """
    run = workload.run if tracer is None else tracer.wrap("bench.op", workload.run, store=True)
    meter = speed.Speedometer(workload.bracket_probe, workload.inner_probe, inside=tracer is None)
    latencies: list[float] = []  # seconds per game or per step, one per op
    scaled: list[float] = []  # the same at nominal speed
    by_rung: dict[str, list[float]] = {}
    op_seconds = scaled_seconds = 0.0
    items = attempted = failed = blocks = 0
    last_block = 0.0
    rss_mb = None
    start = time.perf_counter()
    while True:
        if max_blocks is not None and blocks >= max_blocks:
            break
        if blocks >= workload.min_blocks and time.perf_counter() - start + last_block > seconds:
            break
        b0 = time.perf_counter()
        for j, inp in enumerate(workload.block(blocks)):
            attempted += 1
            if tracer is not None:
                tracer.op = f"{blocks}.{j}"
            out, error, dt, slowness = meter.timed(run, inp)
            if error is not None:
                ok = False
                print(f"op {blocks}.{j} raised {type(error).__name__}: {error}", file=sys.stderr)
            else:
                try:
                    ok = workload.check(inp, out)
                except (ValueError, KeyError, TypeError) as exc:
                    ok = False
                    print(f"op {blocks}.{j} unreadable output: {exc}", file=sys.stderr)
            if not ok:
                failed += 1
                print(f"op {blocks}.{j} failed its reference check", file=sys.stderr)
            dt_scaled = dt / slowness
            n = workload.items(inp)
            items += n
            op_seconds += dt
            scaled_seconds += dt_scaled
            latencies.append(dt / n)
            scaled.append(dt_scaled / n)
            if isinstance(inp, dict) and "rung" in inp:
                by_rung.setdefault("({},{},{})".format(*inp["rung"]), []).append(dt_scaled)
        blocks += 1
        last_block = time.perf_counter() - b0
        if blocks == workload.min_blocks:
            rss_mb = peak_rss_mb()
    return {
        "latencies": latencies,
        "scaled": scaled,
        "scaled_seconds": scaled_seconds,
        "by_rung": by_rung,
        "op_seconds": op_seconds,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "blocks": blocks,
        "wall_seconds": time.perf_counter() - start,
        "rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
        "speed": 1 / statistics.median(meter.samples),
        "probes": len(meter.samples),
    }


def deciles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def end_to_end(workload, res: dict, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics at nominal machine speed (see ``measure``).

    The same figures as measured on the wall clock are printed alongside.
    """
    setup_s, setup_scaled = setup
    p50, p90 = deciles(res["latencies"])
    s50, s90 = deciles(res["scaled"])
    throughput = res["items"] / res["op_seconds"]
    metrics = {
        "throughput_per_s": res["items"] / res["scaled_seconds"],
        "latency_ms.p50": s50 * 1e3,
        "latency_ms.p90": s90 * 1e3,
        "peak_rss_mb": res["rss_mb"],
        "setup_s": setup_scaled,
    }
    if workload.item == "game":
        scale, unit, names = 1e3, "ms", ("games_per_s", "solve_ms.p50", "solve_ms.p90")
    else:
        scale, unit, names = 1e6, "us", ("steps_per_s", "step_us.p50", "step_us.p90")
    named = [
        (names[0], throughput, "1/s"),
        (names[1], p50 * scale, unit),
        (names[2], p90 * scale, unit),
        ("failed_ratio", res["failed"] / res["attempted"], "ratio"),
        ("peak_rss_mb", res["rss_mb"], "MB"),
        ("setup_s", setup_s, "s"),
    ]
    lines = [f"{workload.name} {name} = {value:.6g} {unit} (as measured)" for name, value, unit in named]
    lines.append(
        f"{workload.name} machine speed = {res['speed']:.4f} of nominal "
        f"(median of {res['probes']} bracketing probes)"
    )
    for rung, times in sorted(res["by_rung"].items(), key=lambda kv: statistics.median(kv[1])):
        lines.append(f"{workload.name} rung {rung}: {len(times)} games, median {statistics.median(times) * 1e3:.1f} ms at nominal speed")
    p90_note = "" if len(res["latencies"]) >= 100 else " (p90 not meaningful below 100 ops)"
    lines.append(
        f"{workload.name} ops = {res['attempted']} in {res['blocks']} blocks, "
        f"{res['wall_seconds']:.2f} s wall{p90_note}"
    )
    lines += [f"{workload.name} {name} = {m:.6g} {END_TO_END_UNITS[name]} (scaled to nominal speed)" for name, m in metrics.items()]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def traced_run(workload, mods, args) -> tuple[dict, dict, bool, dict]:
    """Per-layer metrics of the minimum block, traced, then an untraced block."""
    blocks = workload.min_blocks
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        tracer.op = "setup"
        workload.construct(mods)
        workload.start("run")
        traced = measure(workload, 0.0, max_blocks=blocks, tracer=tracer)
    finally:
        inst.restore()
    restored = inst.all_restored()
    # same block size, other inputs, unpatched library
    workload.construct(mods)
    workload.start("overhead")
    plain = measure(workload, 0.0, max_blocks=blocks)
    overhead = traced["scaled_seconds"] / plain["scaled_seconds"]
    ref_seconds = getattr(workload, "ref_seconds", 0.0)
    over_numpy = plain["op_seconds"] / ref_seconds if ref_seconds else 0.0
    metrics = tracing.layer_metrics(tracer, over_numpy, overhead)
    by_kind = tracing.evals_per_step_kind(tracer)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "blocks": blocks,
                "aggregates": {k: {"calls": a[0], "inclusive_s": a[1], "self_s": a[2]} for k, a in sorted(tracer.agg.items())},
                "counts": tracer.counts,
                "evals_per_step_kind": by_kind,
                "span_fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": tracer.spans,
            },
            fh,
        )
    return metrics, traced, restored and plain["failed"] == 0, {
        "trace_file": str(path.relative_to(ROOT)),
        "restored": restored,
        "evals_per_step_kind": by_kind,
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, small=args.small)
        setup_s, setup_scaled, mods = timed_setup(workload)
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            metrics, res, ok, extra = traced_run(workload, mods, args)
            for name, m in metrics.items():
                print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
            print(f"{workload.name} trace " + json.dumps(extra, sort_keys=True))
        else:
            workload.start("run")
            res = measure(workload, float(args.seconds))
            metrics, lines = end_to_end(workload, res, (setup_s, setup_scaled))
            print("\n".join(lines))
            ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ok and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            cmd.append("--small")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paralens end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs, as the self-test uses")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "paralens" / "__init__.py").is_file():
        print(f"error: no paralens sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        sys.path.insert(0, str(SRC))
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
