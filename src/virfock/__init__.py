"""Numerical semibounded-representation toolkit.

Finite truncations of the structures behind invariant cones in
infinite-dimensional Lie algebras: convex-geometric primitives, Fourier
calculus on the circle, the Virasoro algebra with its adjoint and
coadjoint orbit data and Verma Gram matrices, truncated bosonic and
fermionic Fock spaces with Bogoliubov vacua, and the symplectic cone
machinery with momentum maps.  Everything is deterministic and cheap
enough for property-style verification; the `suites` module packages
the named check batteries behind the `virfock` command.
"""

# Eager on purpose: callers use virfock.<module>, and a benchmark that
# times `import virfock` must see all eight modules load as setup.
from . import (circle, convexcore, fock, realmaps, reports, suites,  # noqa: F401
               symplectic, virasoro)

__version__ = "0.1.0"
