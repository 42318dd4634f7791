"""Every value type is an immutable tuple, and those with a domain check it.

Every way to make one (the constructor, _make, _replace, copy, deepcopy and
pickle) goes through the same checks, and ScenarioSpec's derived log_c0
always follows its c0.  RunConfig is the one dataclass.
"""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

import tai_welfare
from tai_welfare import (
    ConstantHazard,
    CrashPath,
    DomainError,
    EvResult,
    ExponentialPath,
    MountingLogHazard,
    OneOffHazard,
    Preferences,
    ProductionParams,
    RunConfig,
    ScenarioSpec,
    SolveOutcome,
    TaxonomyProbs,
    Trajectory,
    WelfareResult,
    ZeroHazard,
    leaf_distribution,
    table_spec,
)
from tai_welfare.quadrature import QuadratureResult
from tai_welfare.rootfind import RootResult
from tai_welfare.tables import TABLES

PREFS = Preferences(rho=0.05, theta_rra=2.0)
PATH = ExponentialPath(c0=4.0, growth=0.2)

# one valid value of each type, with a _replace that its checks reject (None: no checks)
VALUES = {
    "Preferences": (PREFS, {"rho": -0.01}),
    "ScenarioSpec": (ScenarioSpec(c0=4.0, g_ai=0.2, prefs=PREFS), {"c0": 0.5}),
    "WelfareResult": (WelfareResult(12.5, "closed_form"), None),
    "EvResult": (EvResult(ev=0.5, log_ev=math.log(0.5), wtp_fraction=0.5), None),
    "TaxonomyProbs": (TaxonomyProbs(p1=0.5, p2=0.4, p3=0.3, p4=0.2), {"p3": 1.5}),
    "LeafDistribution": (leaf_distribution(TaxonomyProbs(0.5, 0.4, 0.3, 0.2)),
                         {"cornucopia": 0.9}),
    "ExponentialPath": (PATH, {"growth": math.inf}),
    "MountingLogHazard": (MountingLogHazard(1e-3, PATH), {"epsilon": -1e-3}),
    "RootResult": (RootResult(root=0.25, iterations=7, residual=1e-17), None),
    "QuadratureResult": (QuadratureResult(2.5, 1e-12, 4), None),
    "SolveOutcome": (SolveOutcome("value", 62.6, 5, 1e-15), None),
    "Table": (TABLES["t3a"], None),
    "TableSpec": (table_spec("t1", RunConfig()), None),
    "Trajectory": (Trajectory((0.0, 0.5), (1.0, 1.1), (2.0, 2.1), (1.4, 1.5)), None),
    "ProductionParams": (ProductionParams(), {"sigma": 0.0}),
    "CrashPath": (CrashPath(4.0, 0.2, 10.0, 0.5, 0.0175), {"crash_factor": 0.0}),
    "ZeroHazard": (ZeroHazard(), None),
    "ConstantHazard": (ConstantHazard(0.01), {"m": -1.0}),
    "OneOffHazard": (OneOffHazard(50.0), {"t_ext": math.inf}),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_is_immutable_checked_and_survives_copies(name):
    value, bad = VALUES[name]
    assert type(value).__name__ == name and isinstance(value, tuple)
    if value._fields:  # ZeroHazard has none
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):  # __slots__ = (): no instance dict
        value.note = "extra"
    if bad is not None:
        with pytest.raises(DomainError):
            value._replace(**bad)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
    assert value == tuple(value)


@pytest.mark.parametrize("name", [name for name, (_, bad) in VALUES.items() if bad])
def test_copies_rerun_the_checks(name):
    # an instance forged past __new__ cannot be copied or unpickled as it is
    value, bad = VALUES[name]
    forged = tuple.__new__(type(value), {**value._asdict(), **bad}.values())
    for make_twin in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(DomainError):
            make_twin(forged)


def test_log_c0_follows_c0():
    spec = VALUES["ScenarioSpec"][0]
    assert spec.log_c0 == math.log(4.0)
    assert spec._replace(c0=5.0).log_c0 == math.log(5.0)
    stale = tuple.__new__(ScenarioSpec, (5.0, 0.2, PREFS, spec.g_baseline, math.log(4.0)))
    for twin in (copy.copy(stale), copy.deepcopy(stale), pickle.loads(pickle.dumps(stale))):
        assert twin.log_c0 == math.log(5.0)



def test_only_config_and_cli_import_dataclasses():
    """RunConfig stays a dataclass, as the benchmark calls dataclasses.replace on it.

    Every other value type is a named tuple, so no other module imports
    dataclasses.  The last step of keeping it out of every process converts
    RunConfig and cli._load_config, which replaces fields of it.
    """
    importers = set()
    for path in Path(tai_welfare.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.add(path.name)
    assert importers <= {"config.py", "cli.py"}
