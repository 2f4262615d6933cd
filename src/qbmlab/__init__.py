"""Numerical laboratory for quantum Brownian motion.

Builds truncated-oscillator-basis operators, assembles dissipative
generators (quadratic-coupling master equations, their completely
positive minimal extension, and a momentum-exchange collision
generator), integrates them with health monitors, evaluates the
gas-side correlation function and the friction/diffusion coefficients
it implies, and cross-checks momentum statistics against a classical
velocity-space Fokker-Planck solver.
"""

from .operators import (
    HilbertConfig,
    NumericalFailure,
    build_annihilator,
    build_hamiltonian,
    build_ladder,
    build_momentum,
    build_position,
    coherent_state,
    expectation,
    min_eigenvalue,
    number_state,
    parity_operator,
    purity,
    squeezed_state,
    thermal_state,
    thermal_wavelength,
    vacuum_state,
    validate_density_matrix,
    variance,
)
from .structure_factor import (
    BOSE,
    FERMI,
    MAXWELL_BOLTZMANN,
    GasThermodynamics,
    brownian_weight,
    s_mb,
    statistics_prefactor,
    sum_rule_f,
    sum_rule_zero,
)
from .microcoeffs import (
    BilinearCoefficients,
    TMatrixModel,
    chi_of,
    compute_dpp,
    cp_check,
    cp_margin,
    cutoff_momentum,
    dpp_constant_closed_form,
    dpp_prefactor,
    friction_ratio,
)
from .liouvillians import (
    BILINEAR,
    BOLTZMANN_COLLISION,
    CALDEIRA_LEGGETT,
    DOUBLE_COMMUTATOR,
    MINIMAL_QBM,
    SINGLE_GENERATOR,
    CollisionParameters,
    Liouvillian,
    LiouvillianSpec,
    build_liouvillian,
    collision_dpp,
    minimal_coefficients,
    radial_grid,
    superoperator_matrix,
)
from .propagation import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    DegenerateStationaryState,
    IntegratorConfig,
    TrajectoryRecord,
    positivity_breach_time,
    propagate,
    stationary_state,
)
from .fokker_planck import (
    FPGrid,
    FPTrajectory,
    fp_solve,
    fp_step,
    gaussian_grid,
    grid_moments,
    maxwell_grid,
    stability_bound,
)

__version__ = "0.1.0"
