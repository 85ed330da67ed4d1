"""Numerical laboratory for blow-up of the scale-invariant damped wave
equation with combined nonlinearities u_tt - Lap u + mu/(1+t) u_t =
a|u_t|^p + b|u|^q."""

from .exponents import (
    LifespanBound,
    ModelParams,
    RegionClassification,
    classify,
    glassey_exponent,
    lambda_combined,
    lifespan_exponent,
    mu_star,
    sigma_shift,
    strauss_exponent,
)
from .functionals import (
    CoercivityReport,
    FunctionalSnapshot,
    MonitorSeries,
    c_fg,
    coercivity_report,
    compute_snapshot,
    lemma31_ratio,
    monitor_series,
    residual_F,
)
from .lifespan import (
    FitReport,
    SweepConfig,
    SweepResult,
    SweepRow,
    compare_to_theory,
    fit_exponential_law,
    fit_power_law,
    measure_lifespan,
    sweep,
)
from .solver import (
    InitialProfile,
    RunResult,
    SimConfig,
    State,
    build_initial_state,
    discrete_energy,
    run,
    time_step,
)
from .specfun import (
    TestFunctionContext,
    bessel_k,
    log_bessel_k,
    log_phi,
    log_rho,
    phi,
    rho,
    rho_log_derivative,
    surface_area,
)

__version__ = "0.1.0"
