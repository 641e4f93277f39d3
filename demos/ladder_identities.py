"""
Ladder operators on a truncated oscillator space
================================================

Builds the finite-dimensional ladder maps (each basis state goes to at most
one state, so products are plain ``@``), then checks the algebra
they are supposed to satisfy: commutation relations, the two
factorizations of the oscillator Hamiltonian, and the exact action on
the vacuum.
"""

import numpy as np

from fockindex.fock import (
    FockSpaceConfig,
    annihilation,
    creation,
    harmonic_oscillator,
    identity,
    max_abs_on_guard,
    oscillator_identity_residuals,
)
from fockindex.spinors import (
    dirac_plus,
    graded_index,
    square_identity_residual,
    vacuum_index,
)

## A space on two variables, total degree up to 10, with a two-degree
## guard band protecting the truncation edge
config = FockSpaceConfig(num_vars=2, cutoff=10)
print(f"basis size: {config.dimension}")

## Commutation relations.  Raising against lowering gives -2 on the
## diagonal pairs and zero otherwise; both checks are entrywise on the
## guarded columns.
eye = identity(config)
for j in (1, 2):
    for k in (1, 2):
        c, a = creation(config, j), annihilation(config, k)
        comm = c @ a - a @ c
        expected = -2.0 if j == k else 0.0
        # comm and the identity send a state to different states unless j == k
        err = max_abs_on_guard(comm + 2.0 * eye if j == k else comm, config)
        print(f"[C_{j}, C_{k}^*] vs {expected:g}: guarded error {err:.2e}")

## The oscillator Hamiltonian is diagonal with entries 2|k| + num_vars,
## and factors through the ladders in two ways.
h = harmonic_oscillator(config)
print("oscillator diagonal starts:", h.weight[:5])
res_lower, res_upper = oscillator_identity_residuals(config)
print(f"sum C*C - nv = H residual: {res_lower:.2e}")
print(f"sum CC* + nv = H residual: {res_upper:.2e}")

## The coupled first-order operator squares to the graded degree
## diagonal on guarded columns
d = dirac_plus(config)
print(f"square-identity residual: {square_identity_residual(d, config):.2e}")

## ... and kills the vacuum exactly, truncation or not: its vacuum column
## is zero
vac = graded_index(config, vacuum_index(config))
rows, cols, values = d
print("vacuum image norm:", np.max(np.abs(values[cols == vac]), initial=0.0))
