"""The package namespace: every public name resolves on first use, and
importing the package alone loads none of its modules."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tai_welfare

PUBLIC_NAMES = {
    "ConfigError", "ConstantHazard", "ConvergenceError", "CrashPath",
    "DivergenceError", "DomainError", "EvResult", "ExponentialPath", "LeafDistribution",
    "MountingLogHazard", "OneOffHazard", "Preferences", "ProductionParams",
    "QuadratureError", "RunConfig", "ScenarioSpec", "SolveOutcome", "TableSpec",
    "TaiWelfareError", "TaxonomyProbs", "Trajectory", "WelfareResult", "ZeroHazard",
    "asymptotic_growth_rate", "calibrate_c0", "emit_table",
    "erf", "erfc", "erfcx", "ev_panel", "expected_lifespan",
    "failure_mode_path", "integrate_discounted", "leaf_distribution", "lottery_value",
    "p_doom", "parse_config", "simulate", "solve_T_delayed",
    "solve_epsilon_mounting", "solve_extinction_time", "solve_p3_delayed",
    "solve_p3_immediate", "solve_p4_delayed", "survival", "table_spec", "trajectory_csv",
    "welfare_cornucopia", "welfare_mounting", "welfare_no_takeover", "welfare_truncated",
    "wtp_per_period",
}


def test_all_is_the_public_names():
    assert sorted(tai_welfare.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_imports_and_is_listed():
    namespace = {}
    exec("from tai_welfare import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert PUBLIC_NAMES <= set(dir(tai_welfare))
    from tai_welfare import RunConfig, p_doom, welfare_mounting

    assert (RunConfig.__module__, p_doom.__module__, welfare_mounting.__module__) == (
        "tai_welfare.config", "tai_welfare.taxonomy", "tai_welfare.welfare")


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tai_welfare.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from tai_welfare import no_such_name  # noqa: F401


def test_submodules_still_import_by_name():
    from tai_welfare import growth, solvers

    assert growth.__name__ == "tai_welfare.growth"
    assert solvers.__name__ == "tai_welfare.solvers"


def test_import_loads_no_submodule_until_a_name_is_used():
    src = str(Path(tai_welfare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = textwrap.dedent("""
        import sys
        import tai_welfare

        assert [m for m in sys.modules if m.startswith("tai_welfare.")] == []
        tai_welfare.p_doom
        assert sorted(m for m in sys.modules if m.startswith("tai_welfare.")) == [
            "tai_welfare.errors", "tai_welfare.taxonomy"]
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
