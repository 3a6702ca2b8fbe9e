"""spincompile benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth2q --seed 0 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn, each printing its own
lines and result. Run from the root of a checkout. The workload runs in a
process of its own (worker.py) as a closed loop: one caller, sequential
passes, BLAS held at BLAS_THREADS threads, every process on one core.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of an outside-in traced run. Every line before it prints a metric by name and
unit, and the run's provenance. Times are read at the nominal host speed
of speed.py; the raw clock readings are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("synth2q", "synth_wide", "qft_compile", "replay")
# One BLAS thread: no larger than any machine's core count, and the
# same on the parent and on a change.
BLAS_THREADS = 1
# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def provenance(workload: str, args) -> dict:
    from importlib.metadata import version

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit = None
    return {"workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": BLAS_THREADS},
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def setup_seconds(workload: str, env: dict, workdir: Path) -> tuple:
    """Wall times of whole worker processes that import spincompile and
    make one warm-up call at the workload's smallest size: (raw, scaled
    to nominal host speed) per process."""
    raw, scaled = [], []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), "setup",
                                 "--workload", workload,
                                 "--workdir", str(workdir / f"setup{i}")],
                                env=env, cwd=ROOT, stdout=subprocess.PIPE)
        # waiting with a timeout polls in steps of up to 50 ms, which would
        # quantize the measurement; a timer enforces the limit instead
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, _ = proc.communicate()
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        speed = json.loads(out.decode().splitlines()[-1])
        raw.append(wall - speed["spent"])
        scaled.append(raw[-1] * speed["factor"])
    return raw, scaled


def run_workload(workload: str, args) -> None:
    """One run of one workload: set-up processes, the measuring worker,
    and the printed metrics, ending with the JSON result line."""
    env = child_env()
    workdir = BENCH / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_raw, setup = ([], []) if args.trace else \
            setup_seconds(workload, env, workdir)
        result_path = workdir / "result.json"
        subprocess.run([sys.executable, str(WORKER), "measure",
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--workdir", str(workdir),
                        "--result", str(result_path)],
                       env=env, cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S)
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [w * f for w, f in zip(res["walls"], res["factors"])]
    rates = [it / w for it, w in zip(res["iterations"], walls)]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in res["layers"].items()}
        print(f"{workload}: {len(res['traced_walls'])} traced passes, "
              f"{len(walls)} untraced")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "iters_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{workload}: wall_s and iters_per_s are medians of "
              f"{len(walls)} passes, setup_s of {len(setup)} processes; "
              f"raw clock medians: wall {statistics.median(res['walls']):.6g} s, "
              f"setup {statistics.median(setup_raw):.6g} s")
    print(f"{workload} passes: raw seconds "
          f"{[round(w, 4) for w in res['walls']]}, speed factors "
          f"{[round(f, 4) for f in res['factors']]}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    fail_share = res["failed"] / res["attempted"]
    print(f"{workload} fail_share = {fail_share:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for line in res["reasons"] + res["problems"]:
        print(f"{workload} check failed: {line}")
    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0 and not res["problems"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "spincompile" / "__init__.py").is_file():
        print(f"no spincompile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one core for the run and its children, so the speed sampled in a
    # process is the speed of the core its work ran on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".ms_p50", ".ms_p99")):
        return "ms"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
