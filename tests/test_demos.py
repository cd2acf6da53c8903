"""The fast demos run to completion, each as its own process from the
repository root with the package on PYTHONPATH. Demos 04-06 train networks
and take seconds; tests/test_surface.py checks only their imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FAST_DEMOS = ("01_data_and_whitening.py", "02_partitioning.py",
              "03_episodes_and_streams.py")


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_fast_demo_exits_0(demo):
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, encoding="utf-8", timeout=120)
    assert run.returncode == 0, run.stderr
