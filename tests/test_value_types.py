"""The value types a cell builds are immutable tuples that check their inputs.

Every way to make one (the constructor, _make, _replace, copy, deepcopy and
pickle) goes through the same checks, and ScenarioSpec's derived log_c0
always follows its c0.
"""

import copy
import math
import pickle

import pytest

from tai_welfare import (
    DomainError,
    EvResult,
    ExponentialPath,
    MountingLogHazard,
    Preferences,
    ScenarioSpec,
    TaxonomyProbs,
    WelfareResult,
    leaf_distribution,
)

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
}


@pytest.mark.parametrize("name", list(VALUES))
def test_value_is_immutable_checked_and_survives_copies(name):
    value, bad = VALUES[name]
    assert type(value).__name__ == name
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

