"""Command-line front end.

Subcommands: synthesize | compile | evolve | verify-golden | bench | fit.
Runs are described by a flat key = value config file; every subcommand
writes a deterministic JSON summary plus plot-ready CSV columns into the
output directory, with timestamps and wall times kept in a separate
.meta.json side file so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bench import bench_phase_trace, bench_qft, bench_swap, fit_exponential, fit_linear
from .errors import ConfigError, SpinCompileError
from .evolution import error_trace, evolve, gate_error
from .gates import (cnot, controlled_phase, hadamard, pauli_x, qft_matrix,
                    rotation, swap2, swap_to_end_circuit)
from .instructions import (QUMIS, QUVIS2, QUVIS3, compile_qft_qumis,
                           compile_qft_quvis, compile_qft_quvis2,
                           load_bundled_realizations, load_bundled_schedule,
                           quvis3_set, quvis_gate, quvis_gate_physical)
from .model import HEISENBERG, ISING, FIELDS_SUBTRACT, FIELDS_ADD, nearest_neighbor_chain
from .optimizer import OptimizerConfig, synthesize_auto
from .schedule import read_pulse_table, write_pulse_table


def parse_config(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        cfg[key] = val.strip()
    return cfg


def parse_angle(text: str) -> float:
    """Angles as plain floats or simple pi expressions (pi/8, 0.5*pi)."""
    t = text.strip().lower().replace(" ", "")
    try:
        if "pi" not in t:
            return float(t)
        sign = 1.0
        if t.startswith("-"):
            sign, t = -1.0, t[1:]
        num, den = 1.0, 1.0
        if t.startswith("pi"):
            rest = t[2:]
            if rest.startswith("/"):
                den = float(rest[1:])
            elif rest.startswith("*"):
                num = float(rest[1:])
            elif rest:
                raise ValueError(rest)
        elif t.endswith("pi") and t[:-2].endswith("*"):
            num = float(t[:-3])
        else:
            raise ValueError(t)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r}") from None
    return sign * num * np.pi / den


def parse_target(spec: str):
    """Target gates as kind[:args] strings.

    Supported: identity:N, cphase:THETA, qft:N, swap_to_end:N, quvis:M,
    hadamard, cnot, swap, x, rx:THETA, ry:THETA, rz:THETA.
    """
    kind, _, arg = spec.strip().partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "identity":
            return np.eye(2 ** int(arg), dtype=complex), int(arg)
        if kind == "cphase":
            return controlled_phase(parse_angle(arg)).matrix, 2
        if kind == "qft":
            return qft_matrix(int(arg)).matrix, int(arg)
        if kind == "swap_to_end":
            return swap_to_end_circuit(int(arg)).matrix, int(arg)
        if kind == "quvis":
            g = quvis_gate(int(arg))
            return g.matrix, g.n_qubits
        if kind == "quvis_physical":
            m = quvis_gate_physical(int(arg))
            return m, int(np.log2(m.shape[0]))
        if kind == "hadamard":
            return hadamard().matrix, 1
        if kind == "cnot":
            return cnot().matrix, 2
        if kind == "swap":
            return swap2().matrix, 2
        if kind == "x":
            return pauli_x().matrix, 1
        if kind in ("rx", "ry", "rz"):
            return rotation(kind[1], parse_angle(arg)).matrix, 1
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad target spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown target kind {kind!r}")


def build_model(cfg: dict, n_qubits: int):
    interaction = cfg.get("model.interaction", "ising")
    interaction = {"ising": ISING, "heisenberg": HEISENBERG}.get(
        interaction, interaction)
    field_sign = cfg.get("model.field_sign", "fields_add")
    field_sign = {"fields_add": FIELDS_ADD, "fields_subtract": FIELDS_SUBTRACT}.get(
        field_sign, field_sign)
    j = parse_angle(cfg.get("model.coupling", "2*pi"))
    return nearest_neighbor_chain(n_qubits, j=j, interaction=interaction,
                                  field_sign=field_sign)


def build_optimizer_config(cfg: dict, seed_override=None) -> OptimizerConfig:
    def get(key, default, cast):
        return cast(cfg[key]) if key in cfg else default
    seed = seed_override if seed_override is not None else get("optimizer.seed", 0, int)
    clamp = cfg.get("optimizer.field_clamp")
    return OptimizerConfig(
        learning_rate=get("optimizer.learning_rate", 0.01, float),
        max_iters_per_stage=get("optimizer.max_iters_per_stage", 2000, int),
        convergence_window=get("optimizer.convergence_window", 50, int),
        convergence_rel_tol=get("optimizer.convergence_rel_tol", 1e-4, float),
        n_refinements=get("optimizer.n_refinements", 3, int),
        init_amplitude=get("optimizer.init_amplitude", 1.0, float),
        seed=int(seed),
        field_clamp=float(clamp) if clamp is not None else None,
        phase_mode=cfg.get("optimizer.phase_mode", "det1"),
    )


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if hasattr(o, "__dict__"):
            return o.__dict__
        return super().default(o)


def write_results(out_dir: Path, name: str, summary: dict,
                  csv_columns=None, csv_rows=None, meta=None) -> None:
    """Write <name>.json, the optional <name>.csv and the <name>.meta.json
    side file, which holds the timestamp, the version and the meta fields."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, cls=_Encoder) + "\n")
    if csv_columns is not None:
        lines = [",".join(csv_columns)]
        for row in csv_rows:
            lines.append(",".join("" if v is None else repr(v) if
                                  isinstance(v, float) else str(v)
                                  for v in row))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    meta = {**(meta or {}), "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": __version__}
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_config(path) -> dict:
    if path is None:
        return {}
    return parse_config(Path(path).read_text())


# ---------------------------------------------------------------------------
# subcommands

def cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    if "target" not in cfg:
        raise ConfigError("config needs target = <spec>")
    target, n_qubits = parse_target(cfg["target"])
    model = build_model(cfg, n_qubits)
    ocfg = build_optimizer_config(cfg, seed_override=args.seed)
    total_time = float(cfg.get("time", "1.0"))
    report = synthesize_auto(target, model, total_time, ocfg)
    name = cfg.get("name", "synthesize")
    summary = {
        "experiment": name,
        "target": cfg["target"],
        "total_time": total_time,
        "final_error": report.final_error,
        "iterations": len(report.loss_history),
        "stage_boundaries": list(report.stage_boundaries),
        "target_phase": [report.target_phase.real, report.target_phase.imag],
        "seed": ocfg.seed,
        "loss_first": float(report.loss_history[0]),
        "loss_min": float(np.min(report.loss_history)),
    }
    out = Path(args.out)
    write_results(out, name, summary,
                  csv_columns=("iteration", "loss"),
                  csv_rows=[(i, float(v)) for i, v in
                            enumerate(report.loss_history)],
                  meta={"wall_time_s": report.wall_time})
    (out / f"{name}.pulses.csv").write_text(
        write_pulse_table(report.final_schedule))
    print(f"{name}: final error {report.final_error:.3e} "
          f"({len(report.loss_history)} iterations)")
    return 0


def cmd_compile(args) -> int:
    rows = []
    for n in range(3, args.max_n + 1):
        if args.set == QUVIS3:
            circ = compile_qft_quvis(n)
        elif args.set == QUVIS2:
            circ = compile_qft_quvis2(n)
        elif args.set == QUMIS:
            placements, total = compile_qft_qumis(n)
            rows.append({"n": n, "total_time": total,
                         "n_gates": len(placements),
                         "placements": [[k, list(p)] for k, _v, p in placements]})
            continue
        else:
            raise ConfigError(f"cannot compile for set {args.set!r}")
        rows.append({"n": n, "total_time": circ.total_time,
                     "n_gates": len(circ.placements),
                     "placements": [[g, list(p)] for g, p in circ.placements]})
    summary = {"experiment": "compile", "set": args.set, "rows": rows}
    write_results(Path(args.out), f"compile_{args.set}", summary,
                  csv_columns=("n", "total_time", "n_gates"),
                  csv_rows=[(r["n"], float(r["total_time"]), r["n_gates"])
                            for r in rows])
    for r in rows:
        print(f"qft{r['n']} via {args.set}: {r['n_gates']} gates, "
              f"time {r['total_time']:.2f}")
    return 0


def cmd_evolve(args) -> int:
    cfg = _load_config(args.config)
    if "pulse_table" in cfg:
        schedule = read_pulse_table(Path(cfg["pulse_table"]).read_text())
    elif "bundled" in cfg:
        schedule = load_bundled_schedule(cfg["bundled"])
    else:
        raise ConfigError("config needs pulse_table = <path> or bundled = <id>")
    model = build_model(cfg, schedule.n_qubits)
    summary = {"experiment": "evolve", "n_qubits": schedule.n_qubits,
               "total_time": schedule.total_time,
               "n_slices": schedule.n_slices}
    csv_cols, csv_rows = None, None
    if "target" in cfg:
        target, _n = parse_target(cfg["target"])
        err = gate_error(target, model, schedule)
        summary["target"] = cfg["target"]
        summary["error"] = err
        tr = error_trace(target, model, schedule)
        csv_cols = ("time", "error")
        csv_rows = list(zip(tr.times.tolist(), tr.errors.tolist()))
        print(f"error vs {cfg['target']}: {err:.6f}")
    name = cfg.get("name", "evolve")
    write_results(Path(args.out), name, summary, csv_cols, csv_rows)
    return 0


def cmd_verify_golden(args) -> int:
    evo_ids = [f"u{m}" for m in range(9)]
    iset = load_bundled_realizations(quvis3_set())
    rows = []
    worst = 0.0
    for gid in evo_ids:
        eg = iset[gid]
        sched = eg.realized_schedule
        err = eg.realized_error
        worst = max(worst, err)
        reason = None
        if sched.total_time != eg.time_cost:
            reason = (f"table duration {sched.total_time!r} differs from "
                      f"time_cost {eg.time_cost!r}")
        elif not err <= args.threshold:
            reason = f"error above threshold {args.threshold!r}"
        rows.append({"gate": gid, "time": sched.total_time,
                     "slices": sched.n_slices, "error": err,
                     "pass": reason is None, "reason": reason})
        print(f"{gid}: T={sched.total_time:<4} K={sched.n_slices:<4}"
              f" error={err:.4f} {'PASS' if reason is None else 'FAIL'}"
              f" (threshold {args.threshold})"
              + ("" if reason is None else f": {reason}"))
    all_ok = all(r["pass"] for r in rows)
    summary = {"experiment": "verify_golden", "threshold": args.threshold,
               "rows": rows, "all_pass": all_ok, "worst_error": worst}
    write_results(Path(args.out), "verify_golden", summary,
                  csv_columns=("gate", "time", "slices", "error", "pass"),
                  csv_rows=[(r["gate"], float(r["time"]), r["slices"],
                             float(r["error"]), int(r["pass"])) for r in rows])
    return 0 if all_ok else 1


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    kind = cfg.get("kind", "qft")
    ocfg = build_optimizer_config(cfg, seed_override=args.seed)
    if kind == "qft":
        sets = ([args.set] if args.set else
                cfg.get("sets", "quvis3,quvis2,qumis").split(","))
        if args.set == "direct":
            sets = [QUVIS3]
        max_n = args.max_n or int(cfg.get("max_n", "6"))
        direct = int(cfg.get("direct_max_n", "0"))
        if args.set == "direct":
            direct = max_n
        result = bench_qft(max_n, sets=tuple(s.strip() for s in sets),
                           direct_max_n=direct, opt_cfg=ocfg, jobs=args.jobs)
        cols = ("n", "set", "time", "error")
    elif kind == "phase-trace":
        thetas = [parse_angle(t) for t in
                  cfg.get("thetas", "pi/8,pi/4,pi/2").split(",")]
        result = bench_phase_trace(
            thetas, total_time=float(cfg.get("time", "0.45")), opt_cfg=ocfg,
            seeds=int(cfg.get("seeds", "5")))
        cols = result.columns
    elif kind == "swap":
        max_n = args.max_n or int(cfg.get("max_n", "3"))
        interactions = [
            {"ising": ISING, "heisenberg": HEISENBERG}.get(s.strip(), s.strip())
            for s in cfg.get("interactions", "ising,heisenberg").split(",")]
        result = bench_swap(max_n, interactions=tuple(interactions),
                            opt_cfg=ocfg,
                            error_budget=float(cfg.get("error_budget", "0.1")),
                            seeds=int(cfg.get("seeds", "2")), jobs=args.jobs)
        cols = result.columns
    else:
        raise ConfigError(f"unknown bench kind {kind!r}")
    summary = {"experiment": result.experiment_id, "rows": result.rows,
               "fits": {k: {"gamma": f.gamma, "beta": f.beta,
                            "residual": f.residual}
                        for k, f in result.fits.items()},
               "provenance": result.provenance}
    csv_rows = [tuple(r.get(c) for c in cols) for r in result.rows]
    write_results(Path(args.out), result.experiment_id, summary, cols, csv_rows)
    for key, f in result.fits.items():
        print(f"fit {key}: gamma={f.gamma:.4f} beta={f.beta:.4f} "
              f"rms={f.residual:.2e}")
    print(f"{result.experiment_id}: {len(result.rows)} rows written")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    if "input" not in cfg:
        raise ConfigError("config needs input = <csv path>")
    lines = Path(cfg["input"]).read_text().strip().splitlines()
    xcol, ycol = cfg.get("x", "x"), cfg.get("y", "y")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        xi, yi = header.index(xcol), header.index(ycol)
    except ValueError:
        raise ConfigError(f"columns {xcol!r}/{ycol!r} not in {header}") from None
    pts = []
    for ln in lines[1:]:
        toks = ln.split(",")
        if toks[xi].strip() and toks[yi].strip():
            pts.append((float(toks[xi]), float(toks[yi])))
    n_min = float(cfg["n_min"]) if "n_min" in cfg else None
    kind = cfg.get("kind", "linear")
    fit = (fit_linear if kind == "linear" else fit_exponential)(pts, n_min=n_min)
    summary = {"experiment": "fit", "kind": kind, "input": cfg["input"],
               "gamma": fit.gamma, "beta": fit.beta, "residual": fit.residual,
               "n_points": len(pts)}
    write_results(Path(args.out), cfg.get("name", "fit"), summary)
    print(f"{kind} fit: gamma={fit.gamma:.6g} beta={fit.beta:.6g} "
          f"rms={fit.residual:.3g}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincompile",
        description="Pulse-level gate synthesis and instruction-set benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="key = value run configuration")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--jobs", type=int, default=1)

    common(sub.add_parser("synthesize", help="optimize pulses for a target"))
    p = sub.add_parser("compile", help="lower Fourier circuits onto a set")
    common(p, config=False)
    p.add_argument("--set", default=QUVIS3, choices=[QUVIS3, QUVIS2, QUMIS])
    p.add_argument("--max-n", type=int, default=6)
    common(sub.add_parser("evolve", help="evolve a pulse table"))
    p = sub.add_parser("verify-golden",
                       help="replay bundled reference pulses against their gates")
    common(p, config=False)
    p.add_argument("--threshold", type=float, default=5e-2)
    p = sub.add_parser("bench", help="run an experiment sweep")
    common(p)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--set", default=None,
                   choices=[QUVIS3, QUVIS2, QUMIS, "direct"])
    common(sub.add_parser("fit", help="least-squares fit of a results column"))
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "synthesize": cmd_synthesize,
        "compile": cmd_compile,
        "evolve": cmd_evolve,
        "verify-golden": cmd_verify_golden,
        "bench": cmd_bench,
        "fit": cmd_fit,
    }
    try:
        return handlers[args.command](args)
    except SpinCompileError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
