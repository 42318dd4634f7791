"""Social welfare under transformative-AI scenarios.

A library for valuing growth-versus-extinction-risk tradeoffs:
outcome-tree probabilities, isoelastic welfare integrals with hazard
weighting, indifference-threshold solving, equivalent variation, and a
hardware-software growth simulator, plus a small CLI (`tai-welfare`).

numpy is the one dependency, but importing the package does not load it: it
is imported on first use by the adaptive quadrature, which only mounting-hazard
welfare runs.  The growth simulator and every other evaluator are pure Python.
"""

from .compensation import (
    EvResult,
    equivalent_variation,
    ev_panel,
    wtp_per_period,
)
from .config import RunConfig, parse_config
from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    QuadratureError,
    TaiWelfareError,
)
from .growth import (
    ProductionParams,
    Trajectory,
    asymptotic_growth_rate,
    ces,
    failure_mode_path,
    output,
    simulate,
    trajectory_csv,
)
from .hazards import (
    ConstantHazard,
    CrashPath,
    ExponentialPath,
    MountingLogHazard,
    OneOffHazard,
    ZeroHazard,
    cumulative_hazard,
    expected_lifespan,
    survival,
)
from .preferences import Preferences
from .solvers import (
    SolveOutcome,
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
)
from .special import erf, erfc, erfcx
from .tables import TableSpec, calibrate_c0, emit_table, table_spec
from .taxonomy import LeafDistribution, TaxonomyProbs, leaf_distribution, p_doom
from .welfare import (
    ScenarioSpec,
    WelfareResult,
    integrate_discounted,
    lottery_value,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)

__version__ = "0.1.0"
