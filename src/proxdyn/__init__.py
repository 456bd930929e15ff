"""Second-order proximal-gradient flow: simulation, certification, iteration.

The package integrates the damped inertial system

    x'' + gamma x' + x = prox_{lambda f}(x - lambda grad g(x))

for composite objectives f + g, derives the Lipschitz and Lyapunov
constants that certify convergence of the flow, monitors the energy decay
along trajectories, estimates empirical decay rates, and runs the matching
discrete inertial proximal-gradient iteration.
"""

from .problems import (
    Objective,
    ProxFn,
    SmoothFn,
    make_problem,
    problem_from_json,
    prox_eval,
    prox_grad_map,
    prox_grad_residual,
    soft_threshold,
    box_project,
    symmetric_top_eigenvalue,
)
from .params import (
    SystemParams,
    lipschitz_l1,
    lipschitz_l2,
    derive_params,
    corollary_check,
    feasible_region,
    envelope_constants,
    rate_envelope_constants,
    params_report,
)
from .dynamics import (
    State,
    Trajectory,
    IntegrationAborted,
    ThirdDerivativeReport,
    vector_field,
    integrate,
    integrate_ensemble,
    third_derivative_check,
    write_trajectory_csv,
    read_trajectory_csv,
)
from .lyapunov import (
    EnergyTrace,
    Violation,
    energy_at,
    energy_at_expanded,
    h_value,
    w_bound,
    subgradient_witness,
    monitor,
    check_monotone,
    write_energy_csv,
)
from .discrete import (
    DivergenceError,
    IterateHistory,
    constant_gamma,
    inverse_k_gamma,
    inertial_step_general,
    inertial_step_unit,
    run_inertial,
    write_history_csv,
)
from .rates import (
    SigmaTrace,
    RateReport,
    NotConvergedError,
    SigmaOdeReport,
    SigmaDominanceReport,
    sigma_estimate,
    fit_exponential,
    fit_polynomial,
    classify_rate,
    sigma_ode_check,
    check_sigma_dominance,
)

__version__ = "0.1.0"

__all__ = [
    "Objective",
    "ProxFn",
    "SmoothFn",
    "make_problem",
    "problem_from_json",
    "prox_eval",
    "prox_grad_map",
    "prox_grad_residual",
    "soft_threshold",
    "box_project",
    "symmetric_top_eigenvalue",
    "SystemParams",
    "lipschitz_l1",
    "lipschitz_l2",
    "derive_params",
    "corollary_check",
    "feasible_region",
    "envelope_constants",
    "rate_envelope_constants",
    "params_report",
    "State",
    "Trajectory",
    "IntegrationAborted",
    "ThirdDerivativeReport",
    "vector_field",
    "integrate",
    "integrate_ensemble",
    "third_derivative_check",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "EnergyTrace",
    "Violation",
    "energy_at",
    "energy_at_expanded",
    "h_value",
    "w_bound",
    "subgradient_witness",
    "monitor",
    "check_monotone",
    "write_energy_csv",
    "DivergenceError",
    "IterateHistory",
    "constant_gamma",
    "inverse_k_gamma",
    "inertial_step_general",
    "inertial_step_unit",
    "run_inertial",
    "write_history_csv",
    "SigmaTrace",
    "RateReport",
    "NotConvergedError",
    "SigmaOdeReport",
    "SigmaDominanceReport",
    "sigma_estimate",
    "fit_exponential",
    "fit_polynomial",
    "classify_rate",
    "sigma_ode_check",
    "check_sigma_dominance",
    "__version__",
]
