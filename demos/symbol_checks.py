"""
Symbol-level identities
=======================

Everything here is finite linear algebra on one cotangent fiber: the
chiral gradient symbols, the order-zero boundary projectors, the
comparison symbol with its distinguished degenerating ray, and the
contour quadrature matched against a closed form.
"""

import numpy as np

from fockindex.symbols import (
    EVEN,
    ODD,
    HessianData,
    calderon_symbol0,
    closed_form_trace_contour,
    comparison_symbol0,
    contour_integral,
    covector,
    d1,
    random_covector,
    random_hessian,
    symbol_dimension,
    trace_term_integrand,
)

n = 2
dim = symbol_dimension(n)
eye = np.eye(dim)
rng = np.random.default_rng(7)

# chiral gradient symbols compose to half the squared covector norm
xi = random_covector(rng, n)
composed = d1(ODD, xi) @ d1(EVEN, xi)
print("d1(odd) d1(even) vs (|xi|^2/2) Id:",
      np.abs(composed - 0.5 * np.linalg.norm(xi)**2 * eye).max())

# the two order-zero boundary projectors are complementary idempotents
xp = random_covector(rng, n, boundary=True)
plus = calderon_symbol0(EVEN, +1, xp)
minus = calderon_symbol0(EVEN, -1, xp)
print("idempotency:", np.abs(plus @ plus - plus).max())
print("complementarity:", np.abs(plus + minus - eye).max())

# the comparison symbol is invertible except on one ray of the contact
# axis, where it vanishes identically
sv = np.linalg.svd(comparison_symbol0(EVEN, xp), compute_uv=False)
print("singular values off the ray:", np.round(sv, 6))
ray = covector(0.0, -1.0, (0.0,) * (2 * (n - 1)))
print("max entry on the degenerating ray:",
      np.abs(comparison_symbol0(EVEN, ray)).max())

# contour quadrature against the closed form of the curvature trace term
hess = random_hessian(rng, n, contact_adapted=False)
closed = closed_form_trace_contour(EVEN, hess, xp)
quad = contour_integral(trace_term_integrand(EVEN, xp, hess), +1, xp)
rel = np.abs(quad - closed).max() / np.abs(closed).max()
print(f"trace-term contour vs closed form (relative): {rel:.2e}")

# the constant-curvature model is a one-liner
kahler = HessianData.kahler(n)
print("model curvature data: alpha =", kahler.alpha)
