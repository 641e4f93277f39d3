"""Smoke test: every script under ``demos/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest
from children import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=child_env(),
        timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
