"""The environment of a child interpreter that a test starts.

The child imports the ``fockindex`` sources under test: their directory goes
first on its ``PYTHONPATH``, so a test needs neither an install nor a
``PYTHONPATH`` of its own.
"""

import os
from pathlib import Path

import fockindex

SRC = str(Path(fockindex.__file__).resolve().parents[1])


def child_env(**overrides) -> dict:
    """This process's environment, with ``SRC`` first on ``PYTHONPATH`` and
    ``overrides`` set."""
    path = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, **overrides, PYTHONPATH=os.pathsep.join(path))
