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
import re
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (bench_phase_trace, bench_qft, bench_swap, distinct,
                    fit_exponential, fit_linear, usable_points)
from .errors import (ConfigError, OutOfRange, ParseError, ShapeError,
                     SpinCompileError, UnknownGate)
from .evolution import error_trace
from .gates import (cnot, controlled_phase, hadamard, pauli_x, qft_matrix,
                    rotation, swap2, swap_to_end_circuit)
from .instructions import (QUVIS3, SET_TIMES, compile_qft, instruction_set,
                           load_bundled_schedule, quvis3_set, quvis_gate,
                           quvis_gate_physical)
from .model import INTERACTIONS, check_width, nearest_neighbor_chain
from .optimizer import OptimizerConfig, synthesize_auto
from .schedule import (check_total_time, parse_float, read_pulse_table,
                       write_pulse_table)

# [-][N*]pi[/D | *N], the pi multiples parse_angle accepts.
_PI_ANGLE = re.compile(r"(-?)(?:([^*/]+)\*)?pi(?:/(.+)|\*(.+))?")
# Target kinds that take a register width, and those that take nothing.
_SIZED_TARGETS = {"identity": lambda n: np.eye(2 ** n, dtype=complex),
                  "qft": lambda n: qft_matrix(n).matrix,
                  "swap_to_end": lambda n: swap_to_end_circuit(n).matrix}
_FIXED_TARGETS = {"hadamard": hadamard, "cnot": cnot, "swap": swap2, "x": pauli_x}


class Config(dict):
    """Config values (strings) with their lines. ``get`` is the one place a
    value is cast, and a bad one becomes a ConfigError naming its line;
    ``check`` rejects every key no ``get`` asked for."""

    def __init__(self):
        super().__init__()
        self.lines, self.read = {}, set()

    def _error(self, key, reason) -> ConfigError:
        return ConfigError(f"line {self.lines[key]}: {key} = {self[key]}: {reason}")

    def get(self, key, default=None, cast=str):
        self.read.add(key)
        if key not in self:
            return default
        try:
            return cast(self[key])
        except (ConfigError, UnknownGate, OutOfRange, ValueError, TypeError,
                KeyError, OSError, ArithmeticError,
                argparse.ArgumentTypeError) as exc:
            raise self._error(key, exc) from None

    def given(self, **keys) -> dict:
        """{name: cast value} for each name=(key, cast) whose key is set."""
        return {name: self.get(key, cast=cast)
                for name, (key, cast) in keys.items() if key in self}

    def check(self) -> None:
        unread = [key for key in self if key not in self.read]   # in line order
        if unread:
            raise self._error(unread[0], "unknown key")


def parse_config(text: str) -> Config:
    """Flat key = value lines; '#' starts a comment."""
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"line {lineno}: {key} repeats line {cfg.lines[key]}")
        cfg[key], cfg.lines[key] = val, lineno
    return cfg


def _one_of(choices):
    """A cast that accepts the names in choices, mapped to their values if
    choices is a dict."""
    def parse(name: str):
        if name not in choices:
            raise ValueError(f"{name!r} is not one of {', '.join(choices)}")
        return choices[name] if isinstance(choices, dict) else name
    return parse


def _listed(cast):
    """Comma-separated values, each cast and none repeated."""
    return lambda text: distinct(cast(t.strip()) for t in text.split(","))


def _duration(text: str) -> float:
    """A control time: a finite, positive float."""
    try:
        return check_total_time(float(text))
    except ShapeError as exc:
        raise ValueError(exc) from None


def _at_least(smallest, what: str, cast=int):
    """A type, for argparse and the config: cast(text) if it is >= smallest
    (nan is not), else ArgumentTypeError naming what."""
    def parse(text: str):
        value = cast(text)
        if not value >= smallest:
            raise argparse.ArgumentTypeError(
                f"{what} {value} must be >= {smallest}")
        return value
    return parse


_seed = _at_least(0, "seed")


def _finite(text: str) -> float:
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def parse_angle(text: str) -> float:
    """Angles as plain floats or simple pi expressions (pi/8, 0.5*pi);
    the value must be finite."""
    t = text.strip().lower().replace(" ", "")
    try:
        m = _PI_ANGLE.fullmatch(t)
        if m is None:
            angle = float(t)
        else:
            sign, left, den, right = m.groups()
            if left and (den or right):
                raise ValueError(t)
            num = float(left or right or 1.0)
            angle = (-1.0 if sign else 1.0) * num * np.pi / float(den or 1.0)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {text!r}") from None
    if not np.isfinite(angle):
        raise ConfigError(f"angle {text!r} is not finite")
    return angle


def parse_target(spec: str):
    """Target gates as kind[:args] strings.

    Supported: identity:N, cphase:THETA, qft:N, swap_to_end:N, quvis:M,
    hadamard, cnot, swap, x, rx:THETA, ry:THETA, rz:THETA. A width N
    above model.MAX_QUBITS is rejected before any matrix is built, and so
    is any ":" after a kind that takes no argument.
    """
    kind, colon, arg = spec.strip().partition(":")
    kind = kind.strip().lower()
    m = None
    try:
        if kind in _SIZED_TARGETS:
            m = _SIZED_TARGETS[kind](check_width(int(arg)))
        elif kind in _FIXED_TARGETS:
            if colon:
                raise ValueError(f"{kind} takes no argument")
            m = _FIXED_TARGETS[kind]().matrix
        elif kind == "cphase":
            m = controlled_phase(parse_angle(arg)).matrix
        elif kind == "quvis":
            m = quvis_gate(int(arg)).matrix
        elif kind == "quvis_physical":
            m = quvis_gate_physical(int(arg))
        elif kind in ("rx", "ry", "rz"):
            m = rotation(kind[1], parse_angle(arg)).matrix
    except (ValueError, SpinCompileError) as exc:
        raise ConfigError(f"bad target spec {spec!r}: {exc}") from exc
    if m is None:
        raise ConfigError(f"unknown target kind {kind!r}")
    return m, len(m).bit_length() - 1


def build_model(cfg: Config, n_qubits: int):
    """nearest_neighbor_chain with the model.* keys the config sets."""
    return nearest_neighbor_chain(n_qubits, **cfg.given(
        j=("model.coupling", parse_angle),
        interaction=("model.interaction", _one_of(INTERACTIONS))))


def build_optimizer_config(cfg: Config, seed_override=None) -> OptimizerConfig:
    """OptimizerConfig with each optimizer.<field> key set applied in turn."""
    ocfg = OptimizerConfig()
    for f in fields(OptimizerConfig):
        cast = int if isinstance(f.default, int) else float
        ocfg = cfg.get(f"optimizer.{f.name}", ocfg,
                       lambda text: replace(ocfg, **{f.name: cast(text)}))
    return ocfg if seed_override is None else replace(ocfg, seed=seed_override)


def write_results(out_dir: Path, name: str, summary: dict,
                  csv_columns=None, csv_rows=None, meta=None) -> None:
    """Write <name>.json, the optional <name>.csv and the <name>.meta.json
    side file, which holds the timestamp, the version and the meta fields."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if csv_columns is not None:
        lines = [",".join(csv_columns)]
        for row in csv_rows:
            lines.append(",".join(repr(v) if isinstance(v, float)
                                  else str(v) for v in row))
        (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
    meta = {**(meta or {}), "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "version": __version__}
    (out_dir / f"{name}.meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_config(path) -> Config:
    try:
        return parse_config(Path(path).read_text()) if path else Config()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_synthesize(args) -> int:
    cfg = _load_config(args.config)
    if "target" not in cfg:
        raise ConfigError("config needs target = <spec>")
    target, n_qubits = cfg.get("target", cast=parse_target)
    model = build_model(cfg, n_qubits)
    ocfg = build_optimizer_config(cfg, seed_override=args.seed)
    total_time = cfg.get("time", 1.0, _duration)
    name = cfg.get("name", "synthesize")
    cfg.check()
    report = synthesize_auto(target, model, total_time, ocfg)
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
    check_width(args.max_n, 3, "--max-n {n}")
    iset = instruction_set(args.set)
    rows = []
    for n in range(3, args.max_n + 1):
        total, steps = compile_qft(iset, n)
        rows.append({"n": n, "total_time": total, "n_gates": len(steps),
                     "placements": [[g, list(p)] for g, _gate, p in steps]})
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
    tables = cfg.given(
        table=("pulse_table", lambda path: read_pulse_table(Path(path).read_text())),
        bundled=("bundled", load_bundled_schedule))
    if len(tables) != 1:
        raise ConfigError("config needs one of pulse_table = <path> or bundled = <id>")
    (schedule,) = tables.values()
    model = build_model(cfg, schedule.n_qubits)
    target = cfg.get("target", None, lambda spec: parse_target(spec)[0])
    name = cfg.get("name", "evolve")
    cfg.check()
    summary = {"experiment": "evolve", "n_qubits": schedule.n_qubits,
               "total_time": schedule.total_time,
               "n_slices": schedule.n_slices}
    csv_cols, csv_rows = None, None
    if target is not None:
        tr = error_trace(target, model, schedule)
        err = float(tr.errors[-1])
        summary["target"] = cfg["target"]
        summary["error"] = err
        csv_cols = ("time", "error")
        csv_rows = list(zip(tr.times.tolist(), tr.errors.tolist()))
        print(f"error vs {cfg['target']}: {err:.6f}")
    write_results(Path(args.out), name, summary, csv_cols, csv_rows)
    return 0


def cmd_verify_golden(args) -> int:
    if not 0 <= args.threshold < np.inf:
        raise OutOfRange(f"--threshold {args.threshold} must be finite and "
                         ">= 0")
    evo_ids = [f"u{m}" for m in range(9)]
    iset = quvis3_set()
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
    kind = cfg.get("kind", "qft", _one_of(("qft", "phase-trace", "swap")))
    kw = {"opt_cfg": build_optimizer_config(cfg, seed_override=args.seed)}
    if kind == "qft":
        kw.update(max_n=cfg.get("max_n", 6, int), jobs=args.jobs, **cfg.given(
            sets=("sets", _listed(_one_of(tuple(SET_TIMES)))),
            direct_max_n=("direct_max_n", int)))
    elif kind == "phase-trace":
        kw.update(thetas=cfg.get("thetas", (np.pi / 8, np.pi / 4, np.pi / 2),
                                 _listed(parse_angle)), **cfg.given(
            total_time=("time", _duration),
            seeds=("seeds", _at_least(1, "seeds"))))
    else:
        kw.update(max_n=cfg.get("max_n", 3, int), jobs=args.jobs, **cfg.given(
            interactions=("interactions", _listed(_one_of(INTERACTIONS))),
            error_budget=("error_budget", _at_least(0, "error_budget", float)),
            seeds=("seeds", _at_least(1, "seeds"))))
    cfg.check()
    bench = {"qft": bench_qft, "phase-trace": bench_phase_trace, "swap": bench_swap}
    result = bench[kind](**kw)
    summary = {"experiment": result.experiment_id, "rows": result.rows,
               "fits": {k: asdict(f) for k, f in result.fits.items()},
               "provenance": result.provenance}
    write_results(Path(args.out), result.experiment_id, summary, result.columns,
                  [tuple(r.get(c) for c in result.columns) for r in result.rows])
    for key, f in result.fits.items():
        print(f"fit {key}: gamma={f.gamma:.4f} beta={f.beta:.4f} "
              f"rms={f.residual:.2e}")
    print(f"{result.experiment_id}: {len(result.rows)} rows written")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    if "input" not in cfg:
        raise ConfigError("config needs input = <csv path>")
    text = cfg.get("input", cast=lambda path: Path(path).read_text())
    xcol, ycol = cfg.get("x", "x"), cfg.get("y", "y")
    n_min = cfg.get("n_min", None, _finite)
    kind = cfg.get("kind", "linear", _one_of(("linear", "exponential")))
    name = cfg.get("name", "fit")
    cfg.check()
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise ParseError("input has no header line")
    header = [h.strip() for h in lines[0][1].split(",")]
    try:
        xi, yi = header.index(xcol), header.index(ycol)
    except ValueError:
        raise ConfigError(f"columns {xcol!r}/{ycol!r} not in {header}") from None
    pts = []
    for no, ln in lines[1:]:
        toks = [t.strip() for t in ln.split(",")]
        if len(toks) <= max(xi, yi):
            raise ParseError(f"line {no}, column {max(xi, yi) + 1}: missing "
                             f"value, row has {len(toks)} columns")
        if toks[xi] and toks[yi]:
            pts.append((parse_float(toks[xi], no, xi + 1),
                        parse_float(toks[yi], no, yi + 1)))
    pts = usable_points(pts, n_min)
    fit = (fit_linear if kind == "linear" else fit_exponential)(pts)
    summary = {"experiment": "fit", "kind": kind, "input": cfg["input"],
               **asdict(fit), "n_points": len(pts)}
    write_results(Path(args.out), name, summary)
    print(f"{kind} fit: gamma={fit.gamma:.6g} beta={fit.beta:.6g} "
          f"rms={fit.residual:.3g}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincompile",
        description="Pulse-level gate synthesis and instruction-set benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, config=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if config:
            p.add_argument("--config", help="key = value run configuration")
        p.add_argument("--out", default="results", help="output directory")
        return p

    p = command("synthesize", cmd_synthesize, "optimize pulses for a target")
    p.add_argument("--seed", type=_seed, help="overrides optimizer.seed")
    p = command("compile", cmd_compile, "lower Fourier circuits onto a set",
                config=False)
    p.add_argument("--set", default=QUVIS3, choices=list(SET_TIMES))
    p.add_argument("--max-n", type=int, default=6)
    command("evolve", cmd_evolve, "evolve a pulse table")
    p = command("verify-golden", cmd_verify_golden,
                "replay bundled reference pulses against their gates",
                config=False)
    p.add_argument("--threshold", type=float, default=5e-2)
    p = command("bench", cmd_bench, "run an experiment sweep")
    p.add_argument("--seed", type=_seed, help="overrides optimizer.seed")
    p.add_argument("--jobs", type=_at_least(1, "jobs"), default=1,
                   help="sweep threads")
    command("fit", cmd_fit, "least-squares fit of a results column")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.run(args)
    except SpinCompileError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
