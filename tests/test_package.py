import os
import subprocess
import sys
from pathlib import Path

import spincompile


def test_every_exported_name_resolves():
    missing = [name for name in spincompile.__all__
               if not hasattr(spincompile, name)]
    assert missing == []
    assert len(set(spincompile.__all__)) == len(spincompile.__all__)


# numpy is the package's one declared dependency. scipy may be installed
# beside it, so only a fresh interpreter can show that no path imports it.
NUMPY_ONLY = """
import importlib, pkgutil, sys
import spincompile
from spincompile.cli import main
for module in pkgutil.iter_modules(spincompile.__path__):
    importlib.import_module(f"spincompile.{module.name}")
out = sys.argv[1]
assert main(["verify-golden", "--out", out]) == 0
assert main(["compile", "--set", "qumis", "--max-n", "4", "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_package_runs_on_numpy_alone(tmp_path):
    src = Path(spincompile.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.glob("*.json")} >= {
        "verify_golden.json", "compile_qumis.json"}
