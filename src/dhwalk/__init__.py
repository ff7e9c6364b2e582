"""Exact wall-crossing calculator for semi-free Hamiltonian circle actions.

Given the fixed point data of a semi-free Hamiltonian circle action on a
closed symplectic 6-manifold, this package walks the moment interval: it
evolves the cohomology class of the reduced symplectic form across regular
intervals, performs the blow-up/blow-down and Euler-class surgeries at
critical levels, screens every consistency condition along the way, and emits
classification certificates and exact Duistermaat-Heckman volume profiles.

All arithmetic is exact rational; all searches are bounded and deterministic.
"""

# ``classify`` the function is not re-exported: the name would shadow the
# ``dhwalk.classify`` module.
from .classify import (
    Certificate,
    ComparisonResult,
    Refusal,
    WeakVerdict,
    classify_isolated,
    compare_fixed_point_data,
    small_data_bootstrap,
    weak_classification_check,
)
from .family import (
    AffineClassFamily,
    EulerClass,
    Interval,
    QuadraticPolynomial,
    slope_from_euler,
    symplectic_cone_check,
)
from .lattice import (
    IntersectionLattice,
    LatticeClass,
    LatticeIsometry,
    blow_down_data,
    blow_up_lattice,
    canonical_class,
    cremona_standard,
    default_lattice,
    exceptional_classes,
    hyperbolic_lattice,
    ruling_classes,
)
from .rigidity import RigidityStatus, certify, lookup
from .scenario import (
    ComponentKind,
    CriticalLevel,
    FixedComponent,
    FixedPointData,
    isolated_value_lattice_check,
    three_sphere_product_data,
    time_reversed,
    validate_structure,
)
from .walk import (
    WalkState,
    WalkTrace,
    compose_traces,
    cross_level,
    finalize_at_maximum,
    init_from_minimum,
    run_walk,
    split_trace,
    state_fingerprint,
)

__version__ = "0.1.0"
