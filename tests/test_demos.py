"""Smoke test: every script under ``demos/`` runs to completion, and the
ladder demo prints the report pinned below."""

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


# the ladder demo's report, line for line
LADDER_LINES = """\
basis size: 66
[C_1, C_1^*] vs -2: guarded error 3.55e-15
[C_1, C_2^*] vs 0: guarded error 0.00e+00
[C_2, C_1^*] vs 0: guarded error 0.00e+00
[C_2, C_2^*] vs -2: guarded error 3.55e-15
oscillator diagonal starts: [2. 4. 4. 6. 6.]
sum C*C - nv = H residual: 3.55e-15
sum CC* + nv = H residual: 3.55e-15
square-identity residual: 3.55e-15
vacuum image norm: 0.0
"""


def test_the_ladder_demo_prints_its_report():
    demo = next(demo for demo in DEMOS if demo.stem == "ladder_identities")
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=child_env(),
        timeout=120, check=True,
    )
    assert result.stdout == LADDER_LINES
