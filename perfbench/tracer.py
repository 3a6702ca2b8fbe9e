"""Outside-in tracing of spincompile's public functions.

The tracer replaces each listed function at every name that a module of
the package binds it to (``spincompile.optimizer.error_and_gradient`` as
well as ``spincompile.evolution.error_and_gradient``, ``place`` in both
``gates`` and ``instructions``, ...), so calls are seen whichever module
makes them. Function-local imports read the module attribute at call
time and see the wrapper too. No file of the program changes.

Each call becomes a span: name, parent span, pass id, start, end and a
few recorded facts (slice count, register width, returned error). Spans
stay in memory; per-layer metrics are derived from them after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs that are traced; spans are named module.function
# after the module that defines the function.
TRACED = (
    ("evolution", "error_and_gradient"),
    ("evolution", "evolve"),
    ("evolution", "error_trace"),
    ("evolution", "gate_error"),
    ("linalg", "loewner_kernel"),
    ("linalg", "frobenius_distance"),
    ("model", "coupling_hamiltonian"),
    ("schedule", "read_pulse_table"),
    ("schedule", "refine_double"),
    ("optimizer", "adam_step"),
    ("optimizer", "fgto_synthesize"),
    ("optimizer", "multi_seed_synthesize"),
    ("gates", "place"),
    ("instructions", "circuit_error_estimate"),
    ("instructions", "qumis_placement_matrix"),
    ("instructions", "load_bundled_realizations"),
    ("bench", "bench_qft"),
    ("cli", "main"),
    ("cli", "write_results"),
)

# Functions that build one propagator per slice (K slices of a d x d
# Hamiltonian: the O(K d^3) part counted by evolution.slice_d3).
_PROPAGATOR_BUILDERS = ("evolution.evolve", "evolution.error_trace",
                        "evolution.error_and_gradient")

# Bytes of the dense 2^N x 2^N complex128 matrices one place() call builds:
# the permutation, its conjugate transpose, the Kronecker-embedded gate and
# the two matrix products.
_PLACE_DENSE_MATRICES = 5

# Span record fields.
NAME, PARENT, PASS, START, END, FACTS = range(6)


def _argument_with(attr, args, kwargs):
    """The first argument having the attribute (positions differ between
    evolve(model, schedule) and gate_error(target, model, schedule))."""
    for a in (*args, *kwargs.values()):
        if hasattr(a, attr):
            return a
    raise TypeError(f"no argument with {attr!r}")


def _propagator_facts(args, kwargs, result):
    facts = {"k": _argument_with("n_slices", args, kwargs).n_slices,
             "d": _argument_with("couplings", args, kwargs).dim}
    if isinstance(result, tuple):
        facts["eps"] = float(result[0])
    return facts


def _place_facts(args, kwargs, result):
    return {"dim": int(result.shape[0])}


def _fgto_facts(args, kwargs, result):
    return {"iterations": len(result.loss_history),
            "stages": len(result.stage_boundaries) + 1}


def _multi_seed_facts(args, kwargs, result):
    return {"met": bool(result[1])}


_FACTS = {
    "evolution.evolve": _propagator_facts,
    "evolution.error_trace": _propagator_facts,
    "evolution.error_and_gradient": _propagator_facts,
    "gates.place": _place_facts,
    "optimizer.fgto_synthesize": _fgto_facts,
    "optimizer.multi_seed_synthesize": _multi_seed_facts,
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the
    original functions at every binding."""

    def __init__(self):
        self.spans: list = []
        self.pass_id = 0
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, facts_of = self.spans, self._stack, _FACTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, tracer.pass_id,
                   perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if facts_of is not None:
                rec[FACTS] = facts_of(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each binding (a function missing
        from the program is skipped and reports zeros)."""
        for mod_name in {m for m, _fn in TRACED}:
            try:
                importlib.import_module(f"spincompile.{mod_name}")
            except ModuleNotFoundError:
                pass
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "spincompile" or name.startswith("spincompile.")}
        for mod_name, fn_name in TRACED:
            home = modules.get(f"spincompile.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME],
                                     "parent": rec[PARENT], "pass": rec[PASS],
                                     "start": rec[START], "end": rec[END],
                                     "facts": rec[FACTS]}) + "\n")


def pass_metrics(spans, pass_id: int, cache_delta, eps_floor: float) -> dict:
    """Per-layer numbers of one traced pass: counts, busy and self time."""
    mine = [(i, r) for i, r in enumerate(spans) if r[PASS] == pass_id]
    child_time = defaultdict(float)
    for _i, r in mine:
        if r[PARENT] >= 0:
            child_time[r[PARENT]] += r[END] - r[START]
    calls, busy, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, r in mine:
        dur = r[END] - r[START]
        calls[r[NAME]] += 1
        busy[r[NAME]] += dur
        self_s[r[NAME]] += dur - child_time[i]
    gradient_ms = [(r[END] - r[START]) * 1e3 for _i, r in mine
                   if r[NAME] == "evolution.error_and_gradient"]

    counts = {f"{mod}.{fn}.calls": calls[f"{mod}.{fn}"] for mod, fn in TRACED}
    slice_d3 = sum(r[FACTS]["k"] * r[FACTS]["d"] ** 3
                   for _i, r in mine if r[NAME] in _PROPAGATOR_BUILDERS)
    place_bytes = sum(_PLACE_DENSE_MATRICES * 16 * r[FACTS]["dim"] ** 2
                      for _i, r in mine if r[NAME] == "gates.place")
    fgto = [r[FACTS] for _i, r in mine if r[NAME] == "optimizer.fgto_synthesize"]
    multi = {i: r for i, r in mine if r[NAME] == "optimizer.multi_seed_synthesize"}
    counts.update({
        "evolution.slice_d3": slice_d3,
        "gates.place.bytes": place_bytes,
        "optimizer.iterations": sum(f["iterations"] for f in fgto),
        "optimizer.stages": sum(f["stages"] for f in fgto),
        "optimizer.seeds_tried": sum(1 for _i, r in mine
                                     if r[NAME] == "optimizer.fgto_synthesize"
                                     and r[PARENT] in multi),
        "optimizer.seeds_met": sum(1 for r in multi.values() if r[FACTS]["met"]),
        "model.site_operator.hits": cache_delta[0],
        "model.site_operator.misses": cache_delta[1],
    })
    # slices of the gradient calls that ran the backward pass (an error
    # below the floor returns a zero gradient without one)
    grad_k = sum(r[FACTS]["k"] for _i, r in mine
                 if r[NAME] == "evolution.error_and_gradient"
                 and r[FACTS]["eps"] >= eps_floor)
    return {"counts": counts, "busy": dict(busy), "self": dict(self_s),
            "gradient_ms": gradient_ms, "gradient_slices": grad_k}


def coverage_problems(per_pass) -> list:
    """Checks that the spans saw every call they should have."""
    problems = []
    for p in per_pass:
        c = p["counts"]
        if c["linalg.loewner_kernel.calls"] != p["gradient_slices"]:
            problems.append(
                f"linalg.loewner_kernel.calls {c['linalg.loewner_kernel.calls']}"
                f" != sum of K over gradient calls {p['gradient_slices']}")
        if c["evolution.error_and_gradient.calls"] != c["optimizer.iterations"]:
            problems.append(
                f"evolution.error_and_gradient.calls "
                f"{c['evolution.error_and_gradient.calls']} != optimizer.iterations "
                f"{c['optimizer.iterations']}")
    return problems


def layer_metrics(per_pass) -> dict:
    """The reported per-layer metrics: counts from the first traced pass
    (they repeat exactly), times as medians over the traced passes."""
    def med(key, name):
        return statistics.median(p[key].get(name, 0.0) for p in per_pass)

    c = per_pass[0]["counts"]
    eg = [ms for p in per_pass for ms in p["gradient_ms"]]
    out = {
        "evolution.error_and_gradient.calls": c["evolution.error_and_gradient.calls"],
        "evolution.error_and_gradient.busy_s": med("busy", "evolution.error_and_gradient"),
        "evolution.error_and_gradient.ms_p50": float(np.percentile(eg, 50)) if eg else 0.0,
        "evolution.error_and_gradient.ms_p99": float(np.percentile(eg, 99)) if eg else 0.0,
        "evolution.slice_d3": c["evolution.slice_d3"],
    }
    for fn in ("evolve", "error_trace", "gate_error"):
        out[f"evolution.{fn}.calls"] = c[f"evolution.{fn}.calls"]
        out[f"evolution.{fn}.busy_s"] = med("busy", f"evolution.{fn}")
    for name in ("linalg.loewner_kernel", "linalg.frobenius_distance",
                 "model.coupling_hamiltonian", "schedule.read_pulse_table",
                 "optimizer.adam_step", "gates.place"):
        out[f"{name}.calls"] = c[f"{name}.calls"]
        out[f"{name}.busy_s"] = med("busy", name)
    out["gates.place.bytes"] = c["gates.place.bytes"]
    out["model.site_operator.hits"] = c["model.site_operator.hits"]
    out["model.site_operator.misses"] = c["model.site_operator.misses"]
    out["schedule.refine_double.calls"] = c["schedule.refine_double.calls"]
    for key in ("iterations", "stages", "seeds_tried", "seeds_met"):
        out[f"optimizer.{key}"] = c[f"optimizer.{key}"]
    out["optimizer.fgto_synthesize.self_s"] = med("self", "optimizer.fgto_synthesize")
    for name in ("instructions.circuit_error_estimate",
                 "instructions.qumis_placement_matrix"):
        out[f"{name}.calls"] = c[f"{name}.calls"]
        out[f"{name}.self_s"] = med("self", name)
    out["instructions.load_bundled_realizations.busy_s"] = med(
        "busy", "instructions.load_bundled_realizations")
    out["bench.bench_qft.self_s"] = med("self", "bench.bench_qft")
    out["cli.main.self_s"] = med("self", "cli.main")
    out["cli.write_results.busy_s"] = med("busy", "cli.write_results")
    return out


# The exact counts: they must repeat between traced passes and runs.
COUNT_METRICS = tuple(
    [f"{m}.{f}.calls" for m, f in TRACED]
    + ["evolution.slice_d3", "gates.place.bytes", "optimizer.iterations",
       "optimizer.stages", "optimizer.seeds_tried", "optimizer.seeds_met",
       "model.site_operator.hits", "model.site_operator.misses"])
