"""The deterministic outputs of verify-golden, compile, bench qft and a
short seeded synthesize against the committed files in tests/golden/.

Keys, strings, booleans and integers must match exactly and floats within
1e-12 relative, so a last-bit change in a BLAS product passes and a real
change in a number does not. ``tests/golden/regenerate.py`` rewrites the
reference files.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12


def _regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same(want, got, where="") -> list:
    """Where got differs from want, as readable lines."""
    if type(want) is float and type(got) is float:
        if math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{where}: {type(got).__name__} {got!r} != "
                f"{type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _same(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in _same(w, g, f"{where}[{i}]")]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


def _csv_cells(text: str) -> list:
    """Rows of cells: integers and floats parsed, other cells as text."""
    def cell(tok):
        for cast in (int, float):
            try:
                return cast(tok)
            except ValueError:
                pass
        return tok
    return [[cell(t) for t in line.split(",")] for line in text.splitlines()]


def _load(path: Path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else _csv_cells(text)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, _regenerate_module().run_all(out)


def test_same_files(outputs):
    _out, names = outputs
    committed = sorted(p.name for p in GOLDEN.iterdir()
                       if p.suffix in (".json", ".csv"))
    assert names == committed


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv")))
def test_output_matches_golden(outputs, name):
    out, _names = outputs
    diffs = _same(_load(GOLDEN / name), _load(out / name), name)
    assert not diffs, "\n".join(diffs[:10])


def test_comparison_catches_a_small_change():
    want = {"rows": [{"n": 3, "error": 0.25, "set": "quvis3", "pass": True}]}
    assert not _same(want, json.loads(json.dumps(want)))
    assert _same(want, {"rows": [{"n": 3, "error": 0.25 * (1 + 1e-9),
                                  "set": "quvis3", "pass": True}]})
    assert _same(want, {"rows": [{"n": 3.0, "error": 0.25, "set": "quvis3",
                                  "pass": True}]})
    assert _same(want, {"rows": [{"n": 3, "error": 0.25, "set": "quvis3",
                                  "pass": 1}]})
    assert _csv_cells("n,error\n3,0.25\n") == [["n", "error"], [3, 0.25]]
