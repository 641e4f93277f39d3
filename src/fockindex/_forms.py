"""Exterior algebra on the subsets of ``{1, ..., num_vars}``, shared by the
spinor model and the boundary symbols without loading Fock-space code."""

from functools import lru_cache
from itertools import chain, combinations

import numpy as np

EVEN = "even"
ODD = "odd"


def _check_parity(value: str, name: str = "parity"):
    if value not in (EVEN, ODD):
        raise ValueError(f"{name} must be '{EVEN}' or '{ODD}', got {value!r}")


@lru_cache(maxsize=None)
def form_subsets(num_vars: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of {1..num_vars} as sorted tuples, in lexicographic order."""
    labels = range(1, num_vars + 1)
    subsets = chain.from_iterable(
        combinations(labels, r) for r in range(num_vars + 1)
    )
    return tuple(sorted(subsets))


@lru_cache(maxsize=None)
def wedge_matrix(num_vars: int, j: int) -> np.ndarray:
    """Exterior multiplication by label ``j`` on the subset basis.

    Inserting ``j`` into a subset picks up the sign of the permutation that
    moves ``j`` past the smaller labels already present.
    """
    if not 1 <= j <= num_vars:
        raise ValueError(f"form label {j} out of range 1..{num_vars}")
    subsets = form_subsets(num_vars)
    index = {s: i for i, s in enumerate(subsets)}
    n = len(subsets)
    out = np.zeros((n, n))
    for col, s in enumerate(subsets):
        if j in s:
            continue
        sign = (-1) ** sum(1 for i in s if i < j)
        target = tuple(sorted(s + (j,)))
        out[index[target], col] = sign
    return out


@lru_cache(maxsize=None)
def contract_matrix(num_vars: int, j: int) -> np.ndarray:
    """Interior contraction with label ``j``: the exact adjoint of the wedge."""
    return wedge_matrix(num_vars, j).T.copy()
