"""
Walking an adjoint orbit and watching its Cartan shadow
=======================================================

A point (beta, alpha) in the Cartan plane is pushed along the flow of
the direction d_n - d_{-n} and projected back.  The projected curve
leaves the base point along a straight ray whose slope is pinned by the
mode number, and random pushes never drop below the base point in
either coordinate.
"""

import math

import numpy as np

from virfock.circle import random_diffeo
from virfock.virasoro import (
    VirasoroElement,
    adjoint_action,
    cartan_projection,
    projection_curve,
)

# Flow the base point (beta, alpha) = (0, 1) for a few short times and
# project each transformed element back to the Cartan plane.
degree = 48
base = VirasoroElement.cartan(0.0, 1.0, degree)

for n in (2, 3):
    s_values = [0.02 * (k + 1) for k in range(8)]
    pts = projection_curve(base, n, s_values)
    print(f"mode n = {n}: flow along d_{n} - d_{-n}")
    print("   s      beta        alpha       slope")
    for s, p in zip(s_values, pts):
        slope = p.beta / (p.alpha - 1.0)
        print(f"  {s:.2f}  {p.beta:10.6f}  {p.alpha:10.6f}  {slope:10.6f}")
    # The limiting slope of the emitted ray is pi (n^2 - 1).
    print(f"  ray slope pi(n^2-1) = {math.pi * (n * n - 1):.6f}\n")

# Mode 1 is special: the flow stays inside the rotation subgroup's
# complexification and the projection never leaves the alpha axis.
pts = projection_curve(base, 1, [0.05, 0.1, 0.2])
print("mode n = 1 stays on the axis: max |beta| =",
      f"{max(abs(p.beta) for p in pts):.2e}\n")

# Random diffeomorphisms tell the same story statistically: both
# projected coordinates dominate the base point.
rng = np.random.default_rng(7)
beta_margins, alpha_margins = [], []
for _ in range(100):
    phi = random_diffeo(rng, degree=degree)
    p = cartan_projection(adjoint_action(phi, base))
    beta_margins.append(p.beta)
    alpha_margins.append(p.alpha - 1.0)
print("100 random adjoint pushes of (0, 1):")
print(f"  min beta margin  {min(beta_margins):+.3e}")
print(f"  min alpha margin {min(alpha_margins):+.3e}")
print("both stay nonnegative: the projected orbit sits above the base")
