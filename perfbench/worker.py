"""The workload's own process, started by run.py.

``worker.py setup --workload W --workdir D`` imports spincompile and makes
one untimed warm-up call at the workload's smallest size; run.py times
the whole process as set-up. It prints the host speed seen meanwhile.

``worker.py measure --workload W --seed N --seconds S --trace T --workdir D
--result F`` makes the inputs from the seed, warms up, runs timed passes
for S seconds (half of them traced when T is 1), checks every pass and
writes its measurements as JSON to F. Each pass's time is recorded
without the speed sampler's own time, with the speed factor seen
during the pass (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    import spincompile

    where = Path(spincompile.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"spincompile imported from {where}, not from {ROOT / 'src'}")


def timed_pass(wl):
    """(wall time without the sampler's, speed factor, outputs) of a pass."""
    t0 = perf_counter()
    with SpeedSampler() as speed:
        out = wl.run_pass()
    return perf_counter() - t0 - speed.spent, speed.factor, out


def timed_passes(wl, seconds: float, min_passes: int):
    """Passes until the next one would end after ``seconds``."""
    walls, factors, outputs = [], [], []
    start = perf_counter()
    while len(walls) < min_passes or \
            perf_counter() - start + statistics.fmean(walls) <= seconds:
        wall, factor, out = timed_pass(wl)
        walls.append(wall)
        factors.append(factor)
        outputs.append(out)
    return walls, factors, outputs


def check_passes(wl, passes, reference) -> tuple:
    """(attempted, failed, reasons) over every operation of every pass:
    each must pass the oracle and equal the first pass bitwise."""
    from workloads import identical

    attempted, failed, reasons = 0, 0, []
    for p, out in enumerate(passes):
        verdicts = wl.verdicts(out)
        attempted += max(len(out), len(reference))
        failed += abs(len(out) - len(reference))
        for i, (rec, verdict) in enumerate(zip(out, verdicts)):
            if verdict is None and (i >= len(reference)
                                    or not identical(rec, reference[i])):
                verdict = "differs bitwise from the first pass"
            if verdict is not None:
                failed += 1
                reasons.append(f"pass {p} operation {i}: {verdict}")
    return attempted, failed, reasons


def site_operator_cache():
    from spincompile import model

    info = getattr(model.site_operator, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def traced_passes(wl, seconds: float, tracer):
    """Timed passes with the tracer installed; per-pass layer numbers."""
    from spincompile import evolution
    from tracer import pass_metrics

    eps_floor = getattr(evolution, "GRADIENT_EPS_FLOOR", 0.0)
    walls, factors, outputs, per_pass = [], [], [], []
    start = perf_counter()
    tracer.install()
    try:
        while len(walls) < 2 or \
                perf_counter() - start + statistics.fmean(walls) <= seconds:
            tracer.pass_id = len(walls)
            before = site_operator_cache()
            wall, factor, out = timed_pass(wl)
            after = site_operator_cache()
            walls.append(wall)
            factors.append(factor)
            outputs.append(out)
            per_pass.append(pass_metrics(
                tracer.spans, tracer.pass_id,
                (after[0] - before[0], after[1] - before[1]), eps_floor))
    finally:
        tracer.uninstall()
    return walls, factors, outputs, per_pass


def measure(args) -> dict:
    from tracer import COUNT_METRICS, Tracer, coverage_problems, layer_metrics
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.warm_up(workdir)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    walls, factors, outputs = timed_passes(wl, untraced_seconds,
                                           min_passes=2 if args.trace else 3)
    # before any check runs, so the oracle's own memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    iterations = [wl.iterations(out) for out in outputs]
    result = {"walls": walls, "factors": factors, "iterations": iterations,
              "peak_rss_mb": peak_rss_mb, "problems": []}
    passes = list(outputs)
    if args.trace:
        tracer = Tracer()
        t_walls, t_factors, t_outputs, per_pass = traced_passes(
            wl, args.seconds - sum(walls), tracer)
        tracer.write(workdir.parent / f"spans-{args.workload}.jsonl")
        passes += t_outputs
        layers = layer_metrics(per_pass)
        layers["trace.overhead_s"] = (
            statistics.median(w * f for w, f in zip(t_walls, t_factors))
            - statistics.median(w * f for w, f in zip(walls, factors)))
        result.update(traced_walls=t_walls, layers=layers)
        result["problems"] += coverage_problems(per_pass)
        for name in COUNT_METRICS:
            seen = {p["counts"][name] for p in per_pass}
            if len(seen) > 1:
                result["problems"].append(
                    f"count {name} differs between traced passes: {sorted(seen)}")
    attempted, failed, reasons = check_passes(wl, passes, outputs[0])
    result.update(attempted=attempted, failed=failed, reasons=reasons[:20])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        with SpeedSampler() as speed:
            _import_program()
            from workloads import WORKLOADS

            WORKLOADS[args.workload].warm_up(Path(args.workdir))
        print(json.dumps({"spent": speed.spent, "factor": speed.factor}))
        return 0
    _import_program()
    result = measure(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
