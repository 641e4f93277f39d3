"""Truncated oscillator/spinor models, boundary symbol calculus, and
relative index arithmetic on finite graded bases."""

# ``cli`` is left to load on first use: importing it here would make
# ``python -m fockindex.cli`` find it already loaded and warn.
from . import errors, fock, matrixio, models, pairs, spinors, symbols, topo

__version__ = "0.1.0"

__all__ = [
    "cli",
    "errors",
    "fock",
    "matrixio",
    "models",
    "pairs",
    "spinors",
    "symbols",
    "topo",
    "__version__",
]
