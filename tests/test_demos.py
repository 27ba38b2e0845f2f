"""Every narrative script under demos/ runs cleanly against the package,
and the deterministic ones print what they printed when pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The expected stdout of each deterministic demo (05 prints timings).
PINNED = Path(__file__).resolve().parent / "demo_output"


def run_demo(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("pinned", sorted(PINNED.glob("*.txt")), ids=lambda p: p.stem)
def test_demo_output_is_pinned(pinned):
    proc = run_demo(ROOT / "demos" / f"{pinned.stem}.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == pinned.read_text()

