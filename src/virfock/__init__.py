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

from .circle import (
    CircleDiffeo,
    Density,
    FourierFunction,
    derivative,
    flow,
    gelfand_fuchs,
    grid_points,
    integrate,
    invert,
    lie_bracket,
    modified_schwarzian,
    multiply,
    omega_cocycle,
    random_diffeo,
    schwarzian,
    schwarzian_cocycle_residual,
    witt_generator,
)
from .convexcore import (
    PolyCone,
    Polyhedron,
    SampledSet,
    cone_generators,
    cones_equal,
    dual_cone,
    group_average,
    has_interior_B,
    in_cone,
    lineality_space,
    recession_cone,
    support_function,
)
from .fock import (
    BOSONIC,
    FERMIONIC,
    FockOperator,
    FockVector,
    ModeSpace,
    annihilate,
    central_term,
    central_term_trace,
    create,
    dgamma,
    hat_element,
    hat_pairing,
    number_operator,
    quasifree_twist,
    second_quantize,
    truncated_vacuum_oracle,
    vacuum,
    vacuum_implementer,
    vacuum_residuals,
    weyl,
)
from .realmaps import (
    RealLinearMap,
    in_o,
    in_sp,
    is_orthogonal,
    is_symplectic,
    omega,
    random_sp_element,
    random_symplectic,
)
from .reports import CheckResult, VerificationReport, emit
from .suites import SuiteConfig, run_suite, suite_names
from .symplectic import (
    QuadraticState,
    Sl2Element,
    SymplecticElement,
    compatible_complex_structure,
    cone_margin,
    conjugate_to_unitary,
    hamiltonian,
    in_cone_Wsp,
    jacobi_minimum,
    jacobi_value,
    lorentz_form,
    momentum_map,
    orbit_type,
    positive_complex_structure,
    spectral_support,
)
from .virasoro import (
    CartanCoords,
    VermaBasis,
    VirasoroElement,
    VirasoroFunctional,
    adjoint_action,
    beta_hessian_form,
    chi,
    coadjoint_action,
    convexity_check,
    generator,
    orbit_invariants,
    pairing,
    projection_curve,
    singleton_norm,
    unitarity_scan,
    verma_gram,
    vir_bracket,
)

__version__ = "0.1.0"
