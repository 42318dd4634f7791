"""Social welfare under transformative-AI scenarios.

A library for valuing growth-versus-extinction-risk tradeoffs:
outcome-tree probabilities, isoelastic welfare integrals with hazard
weighting, indifference-threshold solving, equivalent variation, and a
hardware-software growth simulator, plus a small CLI (`tai-welfare`).

`import tai_welfare` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a one-off query pays only for the
modules it runs.  numpy is the one dependency, and only the adaptive
quadrature imports it, which only the hazard-slope solve's polish runs.  The
growth simulator and every other evaluator are pure Python.
"""

# each public name, grouped by the module that defines it
_EXPORTS = {
    "compensation": ("EvResult", "ev_panel", "wtp_per_period"),
    "config": ("RunConfig", "calibrate_c0", "parse_config"),
    "errors": ("ConfigError", "ConvergenceError", "DivergenceError", "DomainError",
               "QuadratureError", "TaiWelfareError"),
    "growth": ("ProductionParams", "Trajectory", "asymptotic_growth_rate", "simulate",
               "trajectory_csv"),
    "hazards": ("ConstantHazard", "CrashPath", "ExponentialPath", "MountingLogHazard",
                "OneOffHazard", "ZeroHazard", "expected_lifespan", "failure_mode_path",
                "survival"),
    "preferences": ("Preferences",),
    "solvers": ("SolveOutcome", "solve_T_delayed", "solve_epsilon_mounting",
                "solve_extinction_time", "solve_p3_delayed", "solve_p3_immediate",
                "solve_p4_delayed"),
    "special": ("erf", "erfcx"),
    "tables": ("TableSpec", "emit_table", "table_spec"),
    "taxonomy": ("LeafDistribution", "TaxonomyProbs", "leaf_distribution", "p_doom"),
    "welfare": ("ScenarioSpec", "WelfareResult", "integrate_discounted", "lottery_value",
                "welfare_cornucopia", "welfare_mounting", "welfare_no_takeover",
                "welfare_truncated"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own hook, unlike importlib.import_module, shows the
    # module in python -X importtime
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
