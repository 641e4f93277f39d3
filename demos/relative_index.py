"""
Relative index of a projector pair, three ways
==============================================

For finite-dimensional projectors the relative index is just
rank P - rank R, which makes the pair a clean test bed: the kernel
route and the remainder-trace route must reproduce that number, the
trace route must not care which parametrix it is handed, and indices
compose along chains of projectors.
"""

import numpy as np

from fockindex.pairs import (
    ProjectorPair,
    agranovich_dynin_shadow,
    kernel_index,
    logarithmic_property,
    random_projector,
    relative_index_rank,
    relative_index_trace,
)

rng = np.random.default_rng(42)

p = random_projector(rng, 24, 9)
r = random_projector(rng, 24, 5)
pair = ProjectorPair.from_projectors(p, r)

print("rank route:  ", relative_index_rank(p, r))
print("kernel route:", kernel_index(p, r))
trace = relative_index_trace(pair)
print(f"trace route:  {trace.index}  (raw {trace.raw:+.12f})")

# a different parametrix, same integer
noisy = pair.with_smoothing(rng.normal(size=(24, 24)))
print("with another parametrix:", relative_index_trace(noisy).index)

# swapping the pair flips the sign
print("swapped:", kernel_index(r, p))

# indices add along p -> q -> r
q = random_projector(rng, 24, 7)
log = logarithmic_property(p, q, r)
print("composite =", log["composite_index"],
      "  steps =", log["first_step"], "+", log["second_step"])

# two corner projectors compared through one fixed block embedding: the
# difference of the embedded indices is the corner rank drop
s1 = random_projector(rng, 6, 4)
s2 = random_projector(rng, 6, 1)
shadow = agranovich_dynin_shadow(s1, s2)
print("embedded difference:", shadow["difference"],
      " corner index:", shadow["corner_index"],
      " consistent:", shadow["consistent"])
