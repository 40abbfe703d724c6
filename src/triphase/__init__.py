"""Geometry and geometric phases of three-level quantum pure states.

A pure state of a three-level system maps to a unit eight-vector n on a
four-dimensional locus inside the seven-sphere, the three-level
counterpart of the Poincare sphere.  This package builds that map, the
su(3) algebra behind it, ray-space geodesics and the Hamiltonians that
generate them, and several independent routes to the geometric phase of
a closed loop, all of which must agree.
"""

from .errors import (
    ChartSingular,
    CoincidentEndpoints,
    DegenerateTriangle,
    InvalidStep,
    NotClosed,
    NotInSubspace,
    NotNormalized,
    NotOnO,
    NotSpecialUnitary,
    NotTwoLevel,
    OrthogonalConsecutive,
    OrthogonalEndpoints,
    OrthogonalityError,
    OrthogonalPair,
    OrthogonalStates,
    OutOfRange,
    TooFewSamples,
    TriphaseError,
)
from .evolution import (
    Schedule,
    Trajectory,
    evolve_triangle,
    integrate_nvector,
    integrate_state,
    triangle_schedule,
)
from .geodesics import (
    GeodesicCurve,
    HamiltonianCoeffs,
    constant_hamiltonian,
    curve_length,
    geodesic_angle,
    geodesic_between,
    geodesic_hamiltonian_family,
    in_phase_lift,
    planarity_test,
    polygon_lift,
    sample_curve_in_O,
    span_rank,
)
from .phases import (
    PhaseResult,
    TriangleParams,
    TwoLevelReduction,
    bargmann_phase,
    canonicalize_triangle,
    dynamical_phase,
    geometric_phase_of_curve,
    line_integral_phase_from_states,
    pancharatnam_phase,
    pancharatnam_phase_from_n,
    phase_distance,
    principal_branch,
    solid_angle_reduction,
    spherical_excess,
    total_phase,
    triangle_line_integral_phase,
    triangle_states,
    wedge_star_phase_terms,
)
from .states import (
    OctantCoordinates,
    POLES,
    assert_on_O,
    density_from_n,
    density_of,
    embedded_sphere_check,
    from_octant_coords,
    lift_of_density,
    n_from_octant_coords,
    n_vector_of,
    n_vectors_of,
    overlap,
    random_state,
    random_states,
    state_from_json,
    state_from_n,
    state_to_json,
    to_octant_coords,
)
from .su3 import (
    D,
    F,
    LAMBDA,
    adjoint_of,
    assert_special_unitary,
    random_special_unitary,
    star,
    wedge,
)

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
