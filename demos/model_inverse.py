"""
Inverting the comparison model on the truncated space
=====================================================

The comparison operator built from the boundary projector and the
vacuum-line projector has an explicit blockwise inverse.  This script
certifies it: residuals on random guarded right-hand sides, the
smallest singular value on the guarded block, and the rank structure of
the deformed-minus-undeformed difference.
"""

from fockindex.models import ModelConfig, certify_invertibility, deformation_block_ranks
from fockindex.spinors import EVEN, ODD

## Undeformed vacuum line first
cfg = ModelConfig(n=2, alpha=1.0, beta=1.0, cutoff=12, theta=0.0)
for chirality in (EVEN, ODD):
    report = certify_invertibility(chirality, cfg, num_rhs=32, seed=11)
    print(f"{chirality:>5}: passed={report['passed']} "
          f"residual={report['residual_max']:.2e} "
          f"sigma_min={report['smallest_singular_value']:.3f}")

## Rotating the vacuum line by theta changes the inverse by a bounded-
## rank correction; the (2,2) block never moves
deformed = ModelConfig(n=2, alpha=0.7, beta=1.3, cutoff=12, theta=0.3)
report = certify_invertibility(EVEN, deformed, num_rhs=32, seed=11)
print("deformed residual:", f"{report['residual_max']:.2e}")
print("difference block ranks:", deformation_block_ranks(EVEN, deformed))

## The full report is a plain dict of what the certificate measured,
## ready to serialize
for key, value in report.items():
    print(f"  {key} = {value}")
