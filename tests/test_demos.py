"""The demo scripts print exactly their recorded transcripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skolog

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


DEMOS = ["append_trace", "twins_case_study"]


SRC = os.path.dirname(os.path.dirname(os.path.abspath(skolog.__file__)))


def run_demo(script, **env):
    """Run ``scripts/<script>.py`` on this checkout's package, with ``env``
    added to the environment."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True, text=True, encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=SRC, **env), timeout=60,
    )


@pytest.mark.parametrize("script", DEMOS)
def test_demo_output_matches_its_transcript(script):
    r = run_demo(script)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (DATA / f"{script}.out").read_text(encoding="utf-8")
