"""
Convex cones in small dimensions, flat and symplectic
=====================================================

First the flat toolkit: support functions, dual cones and recession
cones on hand-sized examples.  Then the symplectic cone of generators
with positive Hamiltonian, where every element is straightened onto the
unitary subalgebra by an explicit group element.
"""

import numpy as np

from virfock.convexcore import (
    PolyCone,
    Polyhedron,
    SampledSet,
    cone_generators,
    dual_cone,
    recession_cone,
    support_function,
)
from virfock.realmaps import bogoliubov_defect
from virfock.symplectic import (
    conjugate_to_unitary,
    positive_complex_structure,
    random_cone_element,
)

# Support function of a finite sample: s(v) = -min <x, v> over the set.
square = SampledSet(np.array([[1.0, 0.0], [0.0, 1.0],
                              [-1.0, 0.0], [0.0, -1.0]]))
for v in ([1.0, 1.0], [2.0, 0.0], [-1.0, 3.0]):
    print(f"support of the cross-polytope at {v}: "
          f"{support_function(square, np.array(v)):.1f}")
print()

# The nonnegative orthant is self-dual; a ray and its dual half-plane
# show the dimension jump.
orthant = PolyCone(generators=np.eye(3))
dual_gens = cone_generators(dual_cone(orthant))
print("orthant generators:\n", np.asarray(orthant.generators))
print("dual cone generators give back the orthant:",
      np.allclose(np.sort(dual_gens, axis=0), np.sort(np.eye(3), axis=0)))
print()

# Recession directions of a shifted set: the half-plane x >= 1 recedes
# into the half-plane x >= 0.
half = Polyhedron(normals=np.array([[1.0, 0.0]]), offsets=np.array([1.0]))
rec = recession_cone(half)
print("recession cone of {x >= 1}: generated by")
print(cone_generators(rec))
print()

# Symplectic side: each cone element A owns a complex structure J that
# commutes with it, and a group element g that conjugates A to a
# complex-linear generator with negative imaginary part.
rng = np.random.default_rng(3)
A = random_cone_element(rng, 3)
J = positive_complex_structure(A)
JJ = J.compose(J)
print("positive complex structure for a random cone element (d = 3):")
print(f"  |J^2 + 1|          = {np.linalg.norm(JJ.G1 + np.eye(3)) + np.linalg.norm(JJ.G2):.2e}")
print(f"  |[J, A]|           = {np.linalg.norm(J.commutator(A.X).to_real_matrix()):.2e}")

g, Ap = conjugate_to_unitary(A)
H = 0.5 * (1j * Ap.G1 + (1j * Ap.G1).conj().T)
print(f"  symplectic defect of g        = {bogoliubov_defect(g, 1):.2e}")
print(f"  antilinear part of g^-1 A g   = {Ap.antilinear_norm():.2e}")
print(f"  largest eigenvalue of i A'    = {float(np.linalg.eigvalsh(H)[-1]):.6f} (negative)")
