"""Exact wall-crossing calculator for semi-free Hamiltonian circle actions.

Given the fixed point data of a semi-free Hamiltonian circle action on a
closed symplectic 6-manifold, this package walks the moment interval: it
evolves the cohomology class of the reduced symplectic form across regular
intervals, performs the blow-up/blow-down and Euler-class surgeries at
critical levels, screens every consistency condition along the way, and emits
classification certificates and exact Duistermaat-Heckman volume profiles.

All arithmetic is exact rational; every class enumeration is complete and
deterministic.
"""

from importlib import import_module

# The names below are exported lazily (PEP 562): ``import dhwalk`` loads no
# submodule, and a name loads its home module on first use, so a command
# pays only for the modules it runs.  Resolved names are not cached here:
# each lookup reads the home module, so a patched function there is what the
# package attribute returns too.  ``classify`` the function is not exported:
# the name is the ``dhwalk.classify`` module.
_EXPORTS = {
    "classify": (
        "Certificate",
        "ComparisonResult",
        "Refusal",
        "WeakVerdict",
        "classify_isolated",
        "compare_fixed_point_data",
        "small_data_bootstrap",
        "weak_classification_check",
    ),
    "family": (
        "AffineClassFamily",
        "Interval",
        "QuadraticPolynomial",
        "symplectic_cone_check",
    ),
    "lattice": (
        "IntersectionLattice",
        "LatticeClass",
        "blow_down_data",
        "blow_up_lattice",
        "canonical_class",
        "default_lattice",
        "exceptional_classes",
        "hyperbolic_lattice",
        "ruling_classes",
    ),
    "rigidity": ("RigidityStatus", "certify", "lookup"),
    "scenario": (
        "ComponentKind",
        "CriticalLevel",
        "FixedComponent",
        "FixedPointData",
        "isolated_value_lattice_check",
        "three_sphere_product_data",
        "time_reversed",
        "validate_structure",
    ),
    "walk": (
        "WalkTrace",
        "compose_traces",
        "cross_level",
        "finalize_at_maximum",
        "init_from_minimum",
        "run_walk",
        "split_trace",
        "state_fingerprint",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "classify", "errors", "family", "formatting", "lattice", "rigidity", "scenario", "walk"
)

__all__ = sorted(_HOME) + list(_SUBMODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
