"""Self-tests of the benchmark itself: ``python3 bench/run.py --selftest``.

* A deliberately wrong reference must be counted as a failed op, on every
  workload, while the same ops with the right reference all pass.
* Tracing must leave paralens exactly as it found it: after ``restore``
  every attribute of every paralens module and class is the original
  object again.
* Two traced runs on one seed, each in a fresh process, must report
  identical counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads

SEED = 3


def _corrupt(inp):
    """The same op input with a reference that must disagree with paralens."""
    if isinstance(inp, tuple):  # train_small: seeds the reference replays
        return (inp[0] + 1,) + inp[1:]
    if "expected" in inp:  # solve: the reference's solution list
        return dict(inp, expected=inp["expected"][1:] if inp["expected"] else [["s0"]])
    return dict(inp, target=inp["target"] + 1e-6)  # train_wide: the reference's target


def wrong_reference_counts(mods, workdir: Path) -> list[str]:
    errors = []
    for name, cls in workloads.WORKLOADS.items():
        for corrupt in (False, True):
            w = cls(SEED, workdir, small=True)
            w.construct(mods)
            w.start("run")
            if corrupt:
                check, seen = w.check, []

                def wrong_first(inp, out, check=check, seen=seen):
                    seen.append(inp)
                    return check(_corrupt(inp) if len(seen) == 1 else inp, out)

                w.check = wrong_first
            res = run.measure(w, 0.0, max_blocks=w.min_blocks)
            want = 1 if corrupt else 0
            if res["failed"] != want or res["attempted"] < 2:
                errors.append(
                    f"{name}: {res['failed']} of {res['attempted']} ops failed with "
                    f"{'one wrong' if corrupt else 'the right'} reference, expected {want}"
                )
    return errors


def _snapshot() -> dict[tuple[str, str], int]:
    out = {}
    for modname, mod in sorted(tracing._paralens_modules().items()):
        for attr, value in vars(mod).items():
            out[(modname, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{modname}.{attr}", cattr)] = id(cvalue)
    return out


def restore_is_exact() -> list[str]:
    before = _snapshot()
    inst = tracing.install(tracing.Tracer())
    patched = len(inst.patched)
    inst.restore()
    after = _snapshot()
    changed = sorted(k for k in before if before[k] != after.get(k))
    errors = [f"attribute {a}.{b} is not the original after restore" for a, b in changed]
    if patched < 50:
        errors.append(f"only {patched} attributes were wrapped")
    if not inst.all_restored():
        errors.append("Installation.all_restored() is false after restore")
    return errors


def traced_counters_repeat() -> list[str]:
    errors = []
    for name in workloads.WORKLOADS:
        results = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--trace", "1", "--small"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                errors.append(f"{name}: traced run exited {proc.returncode}: {proc.stderr[-400:]}")
                break
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        if len(results) != 2:
            continue
        for res in results:
            if not res["correct"]:
                errors.append(f"{name}: traced run not correct (a failed op or an unrestored wrapper)")
        a, b = ({k: res["metrics"][k]["value"] for k in tracing.COUNTERS} for res in results)
        diff = sorted(k for k in a if a[k] != b[k])
        if diff:
            errors.append(f"{name}: counters differ between two traced runs: " + ", ".join(f"{k} {a[k]} vs {b[k]}" for k in diff))
    return errors


def main() -> int:
    mods = run.import_paralens()
    (run.BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
        checks = {
            "wrong reference counted as failed": lambda: wrong_reference_counts(mods, Path(tmp)),
            "tracing restores every attribute": restore_is_exact,
            "traced counters repeat across processes": traced_counters_repeat,
        }
        failed = 0
        for label, check in checks.items():
            errors = check()
            print(f"{'ok' if not errors else 'FAIL'} {label}")
            for e in errors:
                print(f"  {e}")
            failed += bool(errors)
    return 1 if failed else 0
