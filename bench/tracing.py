"""Outside-in tracing of paralens for the benchmark's traced run.

Nothing in ``src/`` is edited.  :func:`install` replaces public functions
and methods with timing wrappers at the attributes their callers look up
(a module global such as ``paralens.cli.compositional_game``, or a class
attribute such as ``FiniteBase.apply``) and returns a handle whose
``restore`` puts every original object back.

Every wrapped call is timed on one stack, so each key gets calls, inclusive
time and self time (inclusive minus the time of wrapped calls nested in
it).  Boundary calls are also kept as span records ``(id, name, start,
end, parent id, op id)`` for the trace file; hot calls (table lookups,
element pairing, the closures a base tabulates) are only aggregated,
because a single large game makes millions of them.

A key is ``<layer>.<qualified name>`` where the layer is the paralens
module that defines the function.  Closures handed to a base's
``morphism`` are wrapped too, keyed by the module that defined them, so
the lens plumbing a finite table evaluates is charged to ``lens_core`` or
``para_optic`` rather than to the base doing the tabulating.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from typing import Callable

# lens_core helpers too small to be worth a wrapper; their time stays with
# the caller
_UNWRAPPED_LENS_CORE = {"unit_obj", "obj_pair", "describe_obj"}

PARA_OPTIC_SPANS = (
    "para_compose",
    "para_tensor",
    "reparametrise",
    "flatten_params",
    "embed_trivial",
    "para_costate_solution_input",
)

# module -> globals looked up by callers in that module
BOUNDARIES = {
    "cli": (
        "main",
        "load_spec_file",
        "parse_game_spec",
        "compositional_game",
        "hicks_games",
        "solution_set",
        "brute_force_nash",
        "brute_force_hicks",
        "_deviation_oracle",
    ),
    "smooth_autodiff": (
        "forward_eval",
        "backward_eval",
        "train_step",
        "apply_R",
        "gd_lens",
        "mlp_map",
        "sqerr_head",
        "unit_loss_costate",
    ),
    "demos": (
        "train_step",
        "gan_step",
        "run_linreg",
        "run_mlp",
        "run_gan",
        "_linreg_graph",
        "apply_R",
        "gd_lens",
        "mlp_map",
        "sqerr_head",
        "unit_loss_costate",
    ),
}

# (module, class) -> methods timed as hot calls
HOT_METHODS = {
    ("finite_base", "FinSet"): ("__post_init__",),
    ("finite_base", "FinFn"): ("__post_init__", "__call__"),
    ("finite_base", "FiniteBase"): (
        "identity",
        "morphism",
        "compose",
        "product",
        "pair",
        "apply",
        "pair_elem",
        "split_elem",
        "mor_equal",
    ),
    ("lens_core", "Lens"): ("__post_init__",),
    ("smooth_autodiff", "SmoothFn"): ("__call__",),
    ("smooth_autodiff", "SmoothBase"): (
        "identity",
        "morphism",
        "compose",
        "product",
        "pair_elem",
        "split_elem",
    ),
}


def key_of(fn: Callable) -> str:
    layer = getattr(fn, "__module__", "") or ""
    return f"{layer.rsplit('.', 1)[-1]}.{getattr(fn, '__qualname__', repr(fn))}"


class Tracer:
    """One stack of timed frames plus aggregates, spans and counters."""

    def __init__(self) -> None:
        self.stack: list[list] = [[0.0, 0]]  # frames: [child seconds, span id]
        self.next_id = 1
        self.op: object = None
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {
            "cells_tabulated": 0,
            "labels_materialised": 0,
            "max_carrier": 0,
            "copy_bytes": 0,
            "accept_calls": 0,
            "accepted": 0,
        }

    def wrap(self, key: str, fn: Callable, store: bool, after: Callable | None = None) -> Callable:
        tracer = self
        agg = self.agg.setdefault(key, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if store:
                sid = tracer.next_id
                tracer.next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if store:
                    tracer.spans.append((sid, key, t0, t1, parent[1], tracer.op))
            if after is not None:
                after(out, args)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregates -----------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.agg.get(k, (0,))[0] for k in keys)

    def inclusive(self, *keys: str) -> float:
        return sum(self.agg.get(k, (0, 0.0))[1] for k in keys)

    def self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(a[2] for k, a in self.agg.items() if k.startswith(prefix))


class Installation:
    """The wrappers in place; ``restore`` undoes them all."""

    def __init__(self) -> None:
        self.patched: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def all_restored(self) -> bool:
        for owner, attr, original in self.patched:
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                return False
        return True


def _paralens_modules() -> dict[str, object]:
    return {
        name.rsplit(".", 1)[-1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if name == "paralens" or name.startswith("paralens.")
    }


def install(tracer: Tracer) -> Installation:
    """Wrap paralens in place.  Call after the package is imported."""
    mods = _paralens_modules()
    inst = Installation()
    counts = tracer.counts

    # lens_core and para_optic combinators, wherever they are looked up
    layer_fns: dict[int, Callable] = {}
    for name, fn in vars(mods["lens_core"]).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__ == "paralens.lens_core"
            and name not in _UNWRAPPED_LENS_CORE
        ):
            layer_fns[id(fn)] = tracer.wrap(key_of(fn), fn, store=True)
    for name in PARA_OPTIC_SPANS:
        fn = getattr(mods["para_optic"], name)
        layer_fns[id(fn)] = tracer.wrap(key_of(fn), fn, store=True)
    for mod in mods.values():
        for name, value in list(vars(mod).items()):
            if id(value) in layer_fns and inspect.isfunction(value):
                inst.set(mod, name, layer_fns[id(value)])

    # boundaries, at the module whose code calls them
    shared: dict[int, Callable] = {}
    for modname, names in BOUNDARIES.items():
        mod = mods[modname]
        for name in names:
            fn = getattr(mod, name)
            if id(fn) not in shared:
                shared[id(fn)] = _boundary_wrapper(tracer, fn)
            inst.set(mod, name, shared[id(fn)])

    # hot methods, on the class
    after_hooks = {
        ("FinSet", "__post_init__"): _count_labels(counts),
        ("FinFn", "__post_init__"): _count_cells(counts),
        ("SmoothBase", "pair_elem"): _count_bytes(counts),
    }
    for (modname, clsname), methods in HOT_METHODS.items():
        cls = getattr(mods[modname], clsname)
        for meth in methods:
            fn = cls.__dict__[meth]
            if meth == "morphism":
                wrapped = _morphism_wrapper(tracer, fn)
            else:
                wrapped = fn
            inst.set(
                cls,
                meth,
                tracer.wrap(key_of(fn), wrapped, store=False, after=after_hooks.get((clsname, meth))),
            )
    return inst


def _boundary_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    if fn.__name__ != "solution_set":
        return tracer.wrap(key_of(fn), fn, store=True)
    # count top-level acceptance calls by handing solution_set a game whose
    # relation is wrapped; the library's own objects are left alone
    counts = tracer.counts

    def solution_set(game):
        rel = game.sel

        def accepts(w, k):
            ok = rel.accepts(w, k)
            counts["accept_calls"] += 1
            counts["accepted"] += bool(ok)
            return ok

        timed = tracer.wrap("selection_games.accept", accepts, store=False)
        return fn(dataclasses.replace(game, sel=dataclasses.replace(rel, accepts=timed)))

    return tracer.wrap(key_of(fn), solution_set, store=True)


def _morphism_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def morphism(self, dom, cod, body):
        return fn(self, dom, cod, tracer.wrap(key_of(body), body, store=False))

    return morphism


def _count_labels(counts: dict[str, int]) -> Callable:
    def after(_, args):
        n = len(args[0].labels)
        counts["labels_materialised"] += n
        counts["max_carrier"] = max(counts["max_carrier"], n)

    return after


def _count_cells(counts: dict[str, int]) -> Callable:
    def after(_, args):
        counts["cells_tabulated"] += len(args[0].table)

    return after


def _count_bytes(counts: dict[str, int]) -> Callable:
    def after(out, _):
        counts["copy_bytes"] += out.nbytes

    return after


# -- per-layer metrics ----------------------------------------------------

STEP_KEYS = ("smooth_autodiff.train_step", "smooth_autodiff.gan_step")

# metrics computed from counts alone: two traced runs of one seed must agree
COUNTERS = (
    "selection_games.accept_calls",
    "selection_games.accept_ratio",
    "para_optic.calls",
    "lens_core.lenses_built",
    "finite_base.tables_built",
    "finite_base.cells_tabulated",
    "finite_base.labels_materialised",
    "finite_base.max_carrier",
    "finite_base.apply_calls",
    "smooth_autodiff.forward_evals_per_step",
    "smooth_autodiff.backward_evals_per_step",
    "smooth_autodiff.copy_bytes_per_step",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, over_numpy: float, overhead: float) -> dict:
    """The per-layer metrics of one traced block, each with its unit.

    Times are totals over the block, inflated by tracing like every traced
    time; ``*_per_step`` and ``*_us`` are per training step (``train_step``
    or ``gan_step`` call).  ``over_numpy`` and ``overhead`` come from the
    untraced comparison block.  A metric whose layer the workload never
    reaches reads 0.
    """
    t, c = tracer, tracer.counts
    parse_s = t.inclusive("cli.load_spec_file", "cli.parse_game_spec")
    oracle_s = t.inclusive(
        "selection_games.brute_force_nash", "selection_games.brute_force_hicks", "cli._deviation_oracle"
    )
    assemble_s = t.inclusive("selection_games.compositional_game", "selection_games.hicks_games")
    solve_s = t.inclusive("selection_games.solution_set")
    steps = t.calls(*STEP_KEYS)
    step_s = t.inclusive(*STEP_KEYS)
    eval_s = t.inclusive("smooth_autodiff.forward_eval", "smooth_autodiff.backward_eval")
    para_calls = t.calls(*(f"para_optic.{n}" for n in PARA_OPTIC_SPANS[:5]))
    values = {
        "cli.parse_s": (parse_s, "s"),
        "cli.oracle_s": (oracle_s, "s"),
        "selection_games.assemble_s": (assemble_s, "s"),
        "selection_games.solve_s": (solve_s, "s"),
        "selection_games.accept_calls": (c["accept_calls"], "count"),
        "selection_games.accept_ratio": (_ratio(c["accepted"], c["accept_calls"]), "ratio"),
        "selection_games.engine_over_oracle": (_ratio(assemble_s + solve_s, oracle_s), "ratio"),
        "para_optic.self_s": (t.self_time("para_optic"), "s"),
        "para_optic.calls": (para_calls, "count"),
        "lens_core.self_s": (t.self_time("lens_core"), "s"),
        "lens_core.lenses_built": (t.calls("lens_core.Lens.__post_init__"), "count"),
        "finite_base.self_s": (t.self_time("finite_base"), "s"),
        "finite_base.tables_built": (t.calls("finite_base.FinFn.__post_init__"), "count"),
        "finite_base.cells_tabulated": (c["cells_tabulated"], "count"),
        "finite_base.labels_materialised": (c["labels_materialised"], "count"),
        "finite_base.max_carrier": (c["max_carrier"], "count"),
        "finite_base.apply_calls": (t.calls("finite_base.FiniteBase.apply"), "count"),
        "smooth_autodiff.forward_evals_per_step": (_ratio(t.calls("smooth_autodiff.forward_eval"), steps), "count"),
        "smooth_autodiff.backward_evals_per_step": (_ratio(t.calls("smooth_autodiff.backward_eval"), steps), "count"),
        "smooth_autodiff.eval_s": (eval_s, "s"),
        "smooth_autodiff.lens_overhead": (_ratio(step_s, eval_s), "ratio"),
        "smooth_autodiff.copy_bytes_per_step": (_ratio(c["copy_bytes"], steps), "B"),
        "smooth_autodiff.over_numpy": (over_numpy, "ratio"),
        "demos.gan_step_us": (1e6 * _ratio(t.inclusive(STEP_KEYS[1]), t.calls(STEP_KEYS[1])), "us"),
        "demos.train_step_us": (1e6 * _ratio(t.inclusive(STEP_KEYS[0]), t.calls(STEP_KEYS[0])), "us"),
        "demos.loop_self_s": (
            sum(t.agg.get(f"demos.{n}", (0, 0.0, 0.0))[2] for n in ("run_linreg", "run_mlp", "run_gan")),
            "s",
        ),
        "bench.trace_overhead": (overhead, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def evals_per_step_kind(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Forward and backward evaluations per call of each step function.

    Found from the spans: an evaluation belongs to the nearest enclosing
    ``train_step`` or ``gan_step`` span.
    """
    by_id = {s[0]: s for s in tracer.spans}
    found: dict[str, dict[str, int]] = {}
    for sid, name, _, _, parent, _ in tracer.spans:
        kind = {"smooth_autodiff.forward_eval": "forward", "smooth_autodiff.backward_eval": "backward"}.get(name)
        if kind is None:
            continue
        while parent in by_id and by_id[parent][1] not in STEP_KEYS:
            parent = by_id[parent][4]
        if parent in by_id:
            step = found.setdefault(by_id[parent][1], {"forward": 0, "backward": 0})
            step[kind] += 1
    return {
        step: {kind: n / tracer.calls(step) for kind, n in counts.items()}
        for step, counts in sorted(found.items())
    }
