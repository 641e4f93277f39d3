"""Smoke test: every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockindex

SRC = str(Path(fockindex.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env,
        timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
