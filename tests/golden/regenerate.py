"""Regenerate the committed reference outputs in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py

runs every command of COMMANDS and keeps the deterministic ``.json`` and
``.csv`` files each writes, never the ``.meta.json`` side files (they hold
timestamps). ``tests/test_golden.py`` runs the same commands and compares
their outputs with these files. Regenerate only when an output is meant
to change, and record which files moved, by how much and why.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The short seeded synthesis: capped iterations keep a last-bit change in
# the forward pass from growing along the Adam trajectory.
SYNTHESIZE_CONFIG = """\
name = synthesize
target = cphase:pi/2
time = 0.45
optimizer.learning_rate = 0.08
optimizer.max_iters_per_stage = 10
optimizer.n_refinements = 1
optimizer.seed = 0
"""

# (argv, config text or None); the config is passed as --config.
COMMANDS = (
    (["verify-golden"], None),
    *((["compile", "--set", name, "--max-n", "9"], None)
      for name in ("quvis3", "quvis2", "qumis")),
    (["bench"], "kind = qft\nmax_n = 8\n"),
    (["synthesize"], SYNTHESIZE_CONFIG),
)


def run_all(out_dir: Path) -> list:
    """Run COMMANDS with their outputs in out_dir; returns the names of the
    .json/.csv files written, sorted. A command that fails raises."""
    from spincompile.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as cfg_dir:
        for i, (argv, config) in enumerate(COMMANDS):
            argv = [*argv, "--out", str(out_dir)]
            if config is not None:
                path = Path(cfg_dir) / f"{i}.cfg"
                path.write_text(config)
                argv += ["--config", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            if rc != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    for meta in out_dir.glob("*.meta.json"):
        meta.unlink()
    return sorted(p.name for p in out_dir.iterdir()
                  if p.suffix in (".json", ".csv"))


def main() -> int:
    for old in list(HERE.glob("*.json")) + list(HERE.glob("*.csv")):
        old.unlink()
    for name in run_all(HERE):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
