"""JSON debug format for matrices.

A matrix is stored as an array of rows, each entry a two-element
``[real, imag]`` pair.  The module is a standalone aid for dumping an
operator (dense or sparse) to disk and reading it back; no other module of
the package, and no CLI subcommand, reads or writes this format.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

__all__ = ["matrix_to_json", "matrix_from_json", "dump_matrix", "load_matrix"]


def matrix_to_json(matrix) -> list:
    """Nested-list form of a (dense or sparse) matrix: rows of [re, im] pairs."""
    if sp.issparse(matrix):
        matrix = matrix.toarray()
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(rows) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("expected rows of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def dump_matrix(path, matrix):
    with open(path, "w") as fh:
        json.dump(matrix_to_json(matrix), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
