"""The demos run to completion as scripts.

Each demo runs in its own process from an empty directory, so what a demo
writes (demo 04 writes results/) stays out of the checkout.  Demo 03 is
left out: its eight gridworld cells of 200 x 200 steps, each solved by
five methods with up to 200000 solver iterations, take about 50 s on a
two-core machine, where the other three take about 5 s together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_environments_and_oracles.py",
                                  "02_single_behavior_corrections.py",
                                  "04_benchmark_harness.py"])
def test_demo_exits_zero(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
