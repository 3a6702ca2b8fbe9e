"""Run the demo scripts, so that an API change which breaks one fails
here. demos/04 runs a synthesis sweep of several minutes and is left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["01_synthesize_a_gate.py",
                                    "02_replay_reference_pulses.py",
                                    "03_compile_fourier_circuits.py"])
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 01 writes its pulse table here
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
