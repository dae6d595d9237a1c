"""Time-change toolkit for backward SDEs.

Clocks built from time-varying Lipschitz coefficients turn drivers with
unbounded coefficients into uniformly Lipschitz ones on a stretched time
scale; solutions, noise, Markov-chain rates and balance structure all map
across the change and back.  Solvers (regression, fixed-point quadrature,
backward ODE systems) and the verification scenario suite live in the
submodules; the ``tcbsde`` CLI runs the scenarios.
"""

from .errors import (
    ConfigError,
    DomainError,
    InvariantError,
    PreconditionError,
    SchemeError,
    StructuralError,
    TcbsdeError,
    UnsupportedError,
)
from .timechange import (
    LINEAR,
    CoefficientProcesses,
    IncreasingProcess,
    SampledPath,
    TimeChangeMap,
    TimeGrid,
    build_clock_from_density,
    build_phi,
    integrate_stieltjes,
    normalize_terminal_time,
    substitution_check,
    time_change_path,
)
from .wiener import (
    BrownianEnsemble,
    PolynomialPayoff,
    SolutionEnsemble,
    TerminalRule,
    TransformedProblem,
    WienerBSDEProblem,
    bounded_solution_check,
    check_uniform_lipschitz,
    closed_form_linear,
    comparison_experiment,
    map_solution,
    restrict_brownian,
    simulate_brownian,
    solve_lsmc,
    solve_picard_oracle,
    stability_gap,
    transform_brownian,
    transform_driver,
)
from .chain import (
    ChainBSDEProblem,
    ChainPath,
    ChainPaths,
    ChainSolution,
    GammaBalancedDriver,
    MarkovChainModel,
    build_message_problem,
    chain_clock,
    check_gamma_balanced,
    map_chain_solution,
    message_transmission,
    psi_matrix,
    simulate_chain,
    solve_chain_bsde,
    transform_chain,
    transform_chain_driver,
    transform_chain_problem,
    verify_bound,
)
from .harness import ExperimentConfig, ReportBundle, Verdict, list_scenarios, run_scenario, seed_sweep
from .io import load_chain_model, read_solution_csv, write_solution_csv

__version__ = "0.1.0"
