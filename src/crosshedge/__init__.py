"""Numerical toolkit for hedging a non-tradable risk factor with a correlated
traded asset under temporary, permanent, and cross price impact.

Closed-form strategies for linear exposures, asymptotic approximations for
option-like exposures, Monte Carlo path simulation, and an independent
verification-oracle suite.
"""

from .market import (
    BachelierCallExposure,
    CustomSmoothExposure,
    Exposure,
    LinearExposure,
    ModelParams,
    PathBundle,
    SimulationError,
    State,
    Strategy,
    constant_strategy,
    make_rng,
    payoff_eval,
    simulate_path,
    terminal_wealth,
    utility_of,
)
from .linear import (
    h0,
    h1,
    h2,
    linear_optimal_strategy,
    linear_value_function,
    long_horizon_position,
    optimal_inventory_linear,
    optimal_speed_linear,
)
from .bachelier import (
    AuxiliaryProcessLaw,
    PayoffCurve,
    call_delta,
    call_payoff_curve,
    call_value,
    custom_payoff_curve,
    delta_martingale_check,
    generic_g,
    linear_payoff_curve,
    payoff_curve_for,
)
from .expansion import (
    ExpansionScale,
    Lambda0,
    Lambda1,
    Lambda2,
    delta_substitution_strategy,
    expansion_nu_hat_strategy,
    expansion_value,
    f_coefficients,
    lambda0,
    lambda1,
    nu_hat,
    nu_hat_components,
    nu_prime,
    risk_neutral_cross_impact_speed,
    risk_neutral_cross_impact_strategy,
)
from .oracles import (
    DenseOdeSolution,
    McEstimate,
    OdeSystemSpec,
    ResidualReport,
    StrategyGap,
    default_probe_grid,
    hjb_residual_at,
    mc_performance,
    mc_strategy_gap,
    pde_residual,
    rk4_backward,
    riccati_h_system,
    theta_sweep,
)

__version__ = "0.7.0"
