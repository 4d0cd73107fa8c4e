"""Smoke test of the demos: each script runs to exit status 0.

Each demo runs in its own process with the temporary directory as its
working directory, so the SVG files that demos 02 and 04 write land there
and not in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import effbc

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(effbc.__file__)))
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
