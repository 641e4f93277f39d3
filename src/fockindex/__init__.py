"""Truncated oscillator/spinor models, boundary symbol calculus, and
relative index arithmetic on finite graded bases.

Submodules load on first attribute access (PEP 562), so a command that needs
only the integer formulas never imports numpy.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "cli",
    "errors",
    "fock",
    "models",
    "pairs",
    "sparse",
    "spinors",
    "symbols",
    "topo",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
