"""Checks that the benchmark's output checks fire and that a failure never aborts a run.

Run from the repository root:  python -m pytest bench/test_bench.py
"""

import json
from pathlib import Path

import pytest

import run
import workloads
from oracle import check_outcome
from workloads import ClosedFormSweep, Measurement, ReferenceTables, check_cli_output

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def prog():
    return workloads.load_program(ROOT)


def test_corrupted_golden_digit_is_a_failure_and_the_pass_completes(prog):
    golden = {t: (workloads.GOLDEN_DIR / f"{t}.csv").read_text() for t in workloads.TABLE_IDS}
    digit = golden["t2"].index("0.454445") + 7
    golden["t2"] = golden["t2"][:digit] + "6" + golden["t2"][digit + 1:]
    m = ReferenceTables(prog, seed=3, golden=golden).run_timed(0.0)
    cells = sum(len(c) for c in ReferenceTables(prog, seed=3).cells.values())
    assert cells == 320
    # one pass of one-cell tables, then one pass of whole tables
    assert m.attempted == cells + len(workloads.TABLE_IDS)
    assert m.failures == ["t2 cell 0: output differs from golden/t2.csv",
                          "t2: output differs from golden/t2.csv"]
    assert m.failed / m.attempted > 0


def test_exception_in_one_cell_is_a_failure_and_the_sweep_completes(prog, monkeypatch):
    real = prog.solvers.solve_p3_immediate
    calls = []

    def fails_once(spec):
        calls.append(spec)
        if len(calls) == 1:
            raise RuntimeError("forced failure")
        return real(spec)

    monkeypatch.setattr(prog.solvers, "solve_p3_immediate", fails_once)
    m = ClosedFormSweep(prog, seed=workloads.DEFAULT_SEED).run_timed(0.0)
    assert m.attempted == workloads.ROUNDS_PER_BATCH * len(workloads.SWEEP_KINDS)
    assert len(calls) == workloads.ROUNDS_PER_BATCH
    assert m.failed == 1 and m.failed / m.attempted > 0
    assert m.extra["spot_checks"] == len(workloads.SOLVER_KINDS) * workloads.SPOT_CHECKS_PER_KIND


def test_sweep_golden_mismatch_is_a_failure(prog):
    golden = workloads.SWEEP_GOLDEN.read_text().splitlines()
    golden[5] = golden[5] + "9"
    m = ClosedFormSweep(prog, seed=workloads.DEFAULT_SEED, golden=golden).run_timed(0.0)
    assert m.failed == 1 and "differs" in m.failures[0]


def test_oracle_rejects_a_wrong_threshold(prog):
    sweep = ClosedFormSweep(prog, seed=1)
    config = sweep.config
    kind, p = next(c for c in sweep.first_batch if c[0] == "extinction_time")
    solved = workloads.sweep_cell(prog, config, kind, p)
    args = (kind, p, config.resolved_c0(), config.g_baseline)
    assert check_outcome(*args, "value", solved.value) is None
    assert "residual" in check_outcome(*args, "value", solved.value * 0.5)
    assert "oracle allows" in check_outcome(*args, "tai_preferred", None)


@pytest.mark.parametrize("code, stdout, stderr, expected, why", [
    (0, "a,b\n1,2\n", "", None, None),
    (2, "a,b\n", "config error: x", None, "exit code"),
    (0, "a,b\n", "Traceback (most recent call last):", None, "traceback"),
    (0, "a,b\n1,2,3\n", "", None, "column count"),
    (0, "a,b\n1,2\n", "", "a,b\n1,3\n", "differs"),
])
def test_cli_checker(code, stdout, stderr, expected, why):
    result = check_cli_output(["x"], code, stdout, stderr, expected)
    assert (result is None) if why is None else (why in result)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(20000)))[0] == 99.9
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_benchmark_json_matches_the_harness():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.benchmark_json()


def test_failed_operations_are_counted_once():
    m = Measurement(attempted=3)
    m.fail(1, "golden mismatch")
    m.fail(1, "out of domain")
    assert m.failed == 1
