"""Spectral coupling conditions for the linearized BGK equation on networks.

The package computes the macroscopic coupling coefficients of the acoustic
limit from coupled kinetic half-space problems at network nodes, solves the
full node problem (asymptotic states, layer amplitudes, node distributions),
and validates the results against a discrete-velocity BGK network simulator
and the composite asymptotic solution.
"""

from .acoustic import composite_rho, exact_macro, rho_left, viscous_amplitudes
from .coupling import (
    ACOUSTIC_SPEED,
    INFINITE,
    CouplingCoefficients,
    MacroCouplingSystem,
    NodeOperators,
    NodeProblem,
    NodeSolution,
    NodeTopology,
    build_macro_system,
    compute_coefficients,
    coupling_residual,
    flux_residual,
    macro_coupling_solve,
    macro_determinant,
    maxwell_delta,
    node_distribution,
    odd_moment_residual,
    solve_node,
    solve_node_general,
)
from .errors import DegeneracyError, NumericalError, SingularSystemError
from .hermite import (
    MomentTransform,
    QuadratureRule,
    build_rule,
    hermite_functions,
    recursion_coefficients,
)
from .kinetic import (
    InitialData,
    KineticResult,
    NetworkConfig,
    NetworkState,
    apply_node_coupling,
    conservation_residual,
    graded_spacing,
    initialize,
    run,
    step,
    total_mass,
)
from .layer import (
    LayerMatrix,
    LayerSpectrum,
    build_layer_matrix,
    build_lift,
    stable_manifold,
)

__version__ = "0.1.0"
