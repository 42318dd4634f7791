import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tai_welfare
from tai_welfare import ConvergenceError, growth, quadrature, rootfind, solvers, tables
from tai_welfare.compensation import PANELS, EvResult
from tai_welfare.cli import COMMANDS, build_parser, main
from tai_welfare.config import RunConfig, parse_config
from tai_welfare.hazards import HAZARDS
from conftest import assert_prints_the_root, make_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pdoom_headline_numbers(capsys):
    code, out, _ = run_cli(
        capsys, "pdoom", "--p1", "0.9", "--p2", "0.8", "--p3", "0.3", "--p4", "0.3"
    )
    assert code == 0
    assert "p_doom,0.3672" in out
    assert "doom_immediate,0.216" in out


def test_table_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "table", "t2")
    _, second, _ = run_cli(capsys, "table", "t2")
    assert first == second


def test_table_t1_reference_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "t1")
    assert code == 0
    assert "62.6285" in out


def test_solve_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--target", "extinction-time",
        "--theta", "2", "--g-ai", "0.05", "--rho", "0.05",
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(243.64, rel=2e-3)


def test_solve_sentinel_output(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--target", "p4-delayed",
        "--theta", "1", "--g-ai", "0.3", "--rho", "0.03", "--p3", "3e-5", "--T", "50",
    )
    assert code == 0
    assert out.strip() == "TAI_PREFERRED"


def test_ev_panel_b(capsys):
    code, out, _ = run_cli(
        capsys, "ev", "--panel", "b", "--g-ai", "0.05", "--rho", "0.05",
        "--p3", "0.1",
    )
    assert code == 0
    assert "ev,0.308575" in out


def test_ev_small_loss_keeps_its_digits(capsys):
    # the loss is 9e-14 of W_cornucopia, so W_cornucopia - W_trunc(400) keeps three digits of it
    code, out, _ = run_cli(
        capsys, "ev", "--panel", "a", "--g-ai", "0.2", "--rho", "0.08", "--T", "400",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["log_ev,-1.18103e-12", "wtp_fraction,1.18103e-12"]


def test_ev_panel_d_tiny_loss_stays_below_one(capsys):
    # W_cornucopia - W_mounting rounded to log_ev = +1.54608e-15; the 40-digit
    # value is -9.41362e-18
    code, out, _ = run_cli(
        capsys, "ev", "--panel", "d", "--epsilon", "2.586189670882958e-21",
        "--g-ai", "0.11577034312206609", "--rho", "0.054397808328970725",
    )
    assert code == 0
    assert out.splitlines() == ["ev,1", "log_ev,-9.41362e-18", "wtp_fraction,9.41362e-18"]


def test_et_constant(capsys):
    code, out, _ = run_cli(capsys, "et", "--hazard", "constant", "--m", "0.01")
    assert code == 0
    assert float(out.strip()) == pytest.approx(100.0)


def test_et_mounting(capsys):
    code, out, _ = run_cli(
        capsys, "et", "--hazard", "mounting", "--epsilon", "2e-4", "--g-ai", "0.2"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(198.17, abs=0.01)


def test_simulate_growth_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate-growth", "--horizon", "5", "--dt", "0.5",
        "--saving-rate", "0.3", "--delta", "0.05",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,K,Y,C"
    assert len(lines) == 12


@pytest.mark.parametrize("argv, message", [
    (("--horizon", "5", "--dt", "5", "--print-growth-rate"), "trajectory too short"),
    (("--horizon", "0.1", "--dt", "0.3"), "shorter than one step"),
])
def test_simulate_growth_failure_prints_no_rows(capsys, argv, message):
    # the growth rate is fitted before the CSV is written, and a horizon
    # shorter than one step is rejected rather than printed as the t = 0 row
    code, out, err = run_cli(capsys, "simulate-growth", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (("--anchor-rho", "0"), "anchor rho must be finite and > 0"),
    (("--anchor-rho", "-0.05"), "anchor rho must be finite and > 0"),
    (("--anchor-rho", "5e-324"), "anchor rho must be finite and > 0"),
    (("--anchor-rho", "1e-300"), "c0 overflows"),
    (("--anchor-g-ai", "1e308", "--anchor-rho", "1e-300"), "c0 overflows"),
])
def test_calibrate_c0_rejects_an_impossible_anchor(capsys, argv, message):
    # these printed inf, raised ZeroDivisionError or blamed the target
    code, out, err = run_cli(capsys, "calibrate-c0", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and message in err


# branches of the cell solvers that no table or demo reaches
@pytest.mark.parametrize("argv, expected", [
    (("ev", "--panel", "d", "--g-ai", "0.01", "--rho", "0.05"), "NO_SOLUTION"),
    (("solve", "--target", "p3-delayed", "--g-ai", "0.2", "--rho", "0.05",
      "--p4", "1", "--T", "0"), "NO_TAI_PREFERRED"),  # the lottery is worth 0
    (("solve", "--target", "p4-delayed", "--g-ai", "0.2", "--rho", "0.05",
      "--p3", "1"), "NO_TAI_PREFERRED"),
    (("solve", "--target", "p4-delayed", "--g-ai", "0.2", "--rho", "0.05",
      "--T", "1e300"), "NO_SOLUTION"),  # W_trunc(T) rounds to W_cornucopia
    (("solve", "--target", "extinction-time", "--g-ai", "0.2", "--rho", "0.05",
      "--c0", "1", "--g-baseline", "0"), "0"),  # W0 = 0, so doom at once ties
])
def test_rarely_reached_cell_outcomes(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected + "\n", "")


def test_T_delayed_needs_some_delayed_doom(capsys):
    code, out, err = run_cli(capsys, "solve", "--target", "T-delayed", "--g-ai", "0.2",
                             "--rho", "0.05", "--p4", "0")
    assert (code, out) == (2, "")
    assert err == "config error: solving for T needs p3 < 1 and p4 > 0\n"


def test_simulate_growth_defaults_are_the_production_defaults():
    from tai_welfare.cli import PRODUCTION_KEYS
    from tai_welfare.growth import ProductionParams

    args = build_parser(["simulate-growth"]).parse_args(["simulate-growth"])
    defaults = ProductionParams()
    for name in PRODUCTION_KEYS:
        assert getattr(args, name) == getattr(defaults, name), name


def test_calibrate_c0(capsys):
    code, out, _ = run_cli(capsys, "calibrate-c0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(4.70e4, rel=2e-3)


@pytest.mark.parametrize("g_ai,expected", [("1e20", "2.74969e-09"), ("1e50", "2.74969e-24")])
def test_extinction_time_below_a_year_at_log_utility(capsys, g_ai, expected):
    # a 60-digit bisection puts the roots at 2.749694433e-09 and 2.749694433e-24
    code, out, err = run_cli(capsys, "solve", "--target", "extinction-time",
                             "--g-ai", g_ai, "--rho", "0.03")
    assert (code, out, err) == (0, expected + "\n", "")


def test_config_file_and_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("p3=0.5\np4=0.25\nT=40\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "solve", "--target", "p3-delayed", "--theta", "1",
        "--g-ai", "0.05", "--rho", "0.002", "--config", str(path),
        "--p4", "3e-5", "--T", "50",
    )
    assert code == 0
    # flag values override the file: this is the (p4=3e-5, T=50) cell
    assert float(out.strip()) == pytest.approx(0.454429, rel=1e-4)


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("c0=0.5\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "t1", "--config", str(path))
    assert code == 2
    assert "c0" in err


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"\xffp1=0.5\n")
    code, out, err = run_cli(capsys, "pdoom", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: cannot read config file:")


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense=1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "t1", "--config", str(path))
    assert code == 2
    assert "line 1" in err


def test_quad_tol_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("# tolerance\nquad_tol=1e-10\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "table", "t4", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "config error: line 2: unknown key 'quad_tol'\n"


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--target", "extinction-time",
        "--theta", "1", "--g-ai", "0.05", "--rho", "0.05", "--c0", "0.2",
    )
    assert code == 2


def test_non_convergence_exits_3(capsys, monkeypatch):
    # Brent capped at one iteration cannot close the epsilon bracket
    monkeypatch.setattr(rootfind, "BRENT_MAX_ITERATIONS", 1)
    code, _, err = run_cli(
        capsys, "solve", "--target", "epsilon",
        "--theta", "1.0001", "--g-ai", "0.2", "--rho", "0.05",
    )
    assert code == 3
    assert "non-convergence" in err


@pytest.mark.parametrize("g_ai,code,out", [
    # the quadrature returns W = 0 at 1e10 and 1e300, and its integrand
    # overflows at 1e308, so the polish gives up and the closed form's root
    # stands (test_solvers holds the three roots to mpmath)
    ("1e10", 0, "0.00450126\n"),
    ("1e300", 0, "0.0045013\n"),
    ("1e308", 0, "0.0045013\n"),
])
def test_epsilon_at_a_huge_g_ai(capsys, g_ai, code, out):
    assert run_cli(capsys, "solve", "--target", "epsilon", "--theta", "1",
                   "--rho", "0.05", "--g-ai", g_ai) == (code, out, "")


def test_epsilon_next_to_log_utility(capsys):
    # theta = 1 + 2^-52 takes the closed form's small-|q| branch
    argv = ("--theta", "1.0000000000000002", "--rho", "0.05", "--g-ai", "0.2")
    assert run_cli(capsys, "solve", "--target", "epsilon", *argv) == (0, "8.89052e-04\n", "")
    spec = make_spec(RunConfig().resolved_c0(), theta=1.0000000000000002, g_ai=0.2, rho=0.05)
    assert_prints_the_root(spec, solvers.solve_epsilon_mounting(spec), "8.89052e-04")


def test_panel_d_runs_no_quadrature(capsys, monkeypatch):
    # t5d and `ev --panel d` take the closed form's root of the hazard slope
    # unpolished, so they print the same bytes with no quadrature to call
    def no_quadrature(*args, **kwargs):
        raise AssertionError("panel d ran the quadrature")

    monkeypatch.setattr(quadrature, "integrate_finite", no_quadrature)
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "t5d.csv"
    assert run_cli(capsys, "table", "t5d") == (0, golden.read_text(encoding="utf-8"), "")
    cell = ("ev", "--panel", "d", "--g-ai", "0.3", "--rho", "0.03")
    code, out, err = run_cli(capsys, *cell)
    assert (code, err) == (0, "")
    spec = make_spec(RunConfig().resolved_c0(), theta=1.0001, g_ai=0.3, rho=0.03)
    root = solvers._epsilon_root(spec).value
    assert out == run_cli(capsys, *cell, "--epsilon", repr(root))[1]


@pytest.mark.parametrize("argv", [
    ("pdoom", "--horizon", "5"),
    ("pdoom", "--saving-rate", "0.9"),
    ("table", "t1", "--epsilon", "1e-3"),
    ("simulate-growth", "--rho-grid", "1,2"),
    ("calibrate-c0", "--p1", "0.5"),
    ("et", "--hazard", "zero", "--output-format", "csv"),
    # each table's fixed values are every p3, p4 and T its target reads
    ("table", "t3a", "--p4", "0.5"),
    ("table", "t5a", "--T", "7"),
    ("table", "t1", "--p3", "0.2"),
    # the quadrature runs at one fixed tolerance
    ("table", "t4", "--quad-tol", "1e-8"),
    ("solve", "--target", "epsilon", "--g-ai", "0.2", "--rho", "0.05", "--quad-tol", "1e-8"),
    ("ev", "--panel", "d", "--g-ai", "0.2", "--rho", "0.05", "--quad-tol", "1e-8"),
])
def test_unread_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + argv[-2] in captured.err


def test_ev_epsilon_is_for_panel_d_only(capsys):
    code, out, err = run_cli(
        capsys, "ev", "--panel", "a", "--g-ai", "0.1", "--rho", "0.05", "--epsilon", "1e-3"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "panel d" in err


# every lottery flag given, and panel d's slope; a config file's epsilon is et's
CELL_FLAGS = ("--g-ai", "0.2", "--rho", "0.05", "--p3", "0.1", "--p4", "0.2", "--T", "30")
GIVEN = {"p3": 0.1, "p4": 0.2, "T": 30.0, "epsilon": 1e-3}


@pytest.mark.parametrize("target", list(tables.SOLVE_TARGETS))
def test_solve_hands_a_target_exactly_its_reads(capsys, monkeypatch, target):
    reads, _ = tables.SOLVE_TARGETS[target]
    seen = []
    spy = lambda spec, **values: seen.append(values) or solvers.SolveOutcome("no_solution")
    monkeypatch.setitem(tables.SOLVE_TARGETS, target, (reads, spy))
    code, out, _ = run_cli(capsys, "solve", "--target", target, *CELL_FLAGS)
    assert (code, out) == (0, "NO_SOLUTION\n")
    assert seen == [{name: GIVEN[name] for name in reads}]


@pytest.mark.parametrize("panel, extra", [
    ("a", ()), ("b", ()), ("c", ()), ("d", ("--epsilon", "1e-3")), ("d", ()),
])
def test_ev_hands_a_panel_exactly_its_reads(capsys, monkeypatch, tmp_path, panel, extra):
    seen = []

    def spy(spec, target, **values):
        seen.append(values)
        return EvResult(ev=0.5, log_ev=-0.6931471805599453, wtp_fraction=0.5)

    monkeypatch.setattr(tables, "ev_panel", spy)
    # without --epsilon, panel d re-solves its slope; this one stands in for it
    monkeypatch.setattr(tables, "_epsilon_root",
                        lambda spec: solvers.SolveOutcome("value", 1e-3))
    config = tmp_path / "run.cfg"
    config.write_text("epsilon=0.5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "ev", "--panel", panel, "--config", str(config),
                           *CELL_FLAGS, *extra)
    assert (code, out.splitlines()[0]) == (0, "ev,0.5")
    assert seen == [{name: GIVEN[name] for name in PANELS[panel][0]}]


def _et_needs():
    """{et flag: what it needs}.

    The flags of a hazard's reads need that hazard, where the mounting path's
    flags are --g-ai and --normalized; --c0 and --g-baseline need --normalized.
    """
    needs = {}
    for hazard, (reads, _) in HAZARDS.items():
        for read in reads:
            flags = (("--g-ai", "--normalized") if read == "path"
                     else ("--" + read.replace("_", "-"),))
            needs.update(dict.fromkeys(flags, "--hazard " + hazard))
    return {**needs, "--c0": "--normalized", "--g-baseline": "--normalized"}


ET_NEEDS = _et_needs()


def _et_flag(flag):
    # values the config accepts, so that the flag is what gets rejected
    value = {"--normalized": (), "--c0": ("3",), "--g-baseline": ("0.01",)}
    return (flag, *value.get(flag, ("0.5",)))


def _et_rejections():
    """(argv, flag) for each et flag given to each hazard that does not read it.

    The rest of the argv is a call the hazard accepts: its own flags, less
    --normalized, which would let --c0 and --g-baseline in.
    """
    for hazard in HAZARDS:
        own = [f for f, need in ET_NEEDS.items()
               if need == "--hazard " + hazard and f not in ET_NEEDS.values()]
        call = ("et", "--hazard", hazard, *(x for f in own for x in _et_flag(f)))
        for flag, need in ET_NEEDS.items():
            if need != "--hazard " + hazard:
                yield (*call, *_et_flag(flag)), flag


@pytest.mark.parametrize("argv, flag", [
    (("et", "--hazard", "mounting", "--epsilon", "1e-4", "--c0", "5"), "--c0"),
    (("et", "--hazard", "zero", "--epsilon", "5"), "--epsilon"),
    (("et", "--hazard", "zero", "--c0", "3"), "--c0"),
    (("et", "--hazard", "zero", "--m", "0.1"), "--m"),
    (("et", "--hazard", "one-off", "--t-ext", "50", "--m", "0.1"), "--m"),
    (("et", "--hazard", "constant", "--m", "0.1", "--t-ext", "3"), "--t-ext"),
    (("et", "--hazard", "constant", "--m", "0.1", "--g-ai", "0.3"), "--g-ai"),
    (("et", "--hazard", "one-off", "--t-ext", "50", "--normalized"), "--normalized"),
    (("et", "--hazard", "mounting", "--g-baseline", "0.01"), "--g-baseline"),
    *_et_rejections(),
])
def test_et_rejects_a_flag_its_hazard_does_not_read(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"config error: et reads {flag} only with {ET_NEEDS[flag]}\n"


@pytest.mark.parametrize("hazard, flag", [("constant", "--m"), ("one-off", "--t-ext")])
def test_et_needs_the_value_its_hazard_reads(capsys, hazard, flag):
    assert run_cli(capsys, "et", "--hazard", hazard) == (
        2, "", f"config error: {hazard} hazard needs {flag}\n")


# the argv shapes of cli-cold's et commands, with the stdout they printed
# before et checked its flags
@pytest.mark.parametrize("argv, expected", [
    (("--hazard", "zero"), "inf"),
    (("--hazard", "constant", "--m", "0.0123"), "81.3008"),
    (("--hazard", "one-off", "--t-ext", "123.4"), "123.4"),
    (("--hazard", "mounting", "--epsilon", "0.0003", "--g-ai", "0.3"), "132.111"),
    (("--hazard", "mounting", "--epsilon", "0.0003", "--g-ai", "0.3", "--normalized"),
     "102.706"),
    (("--hazard", "mounting", "--normalized", "--g-baseline", "0.01", "--c0", "3"),
     "274.84"),
])
def test_et_accepts_the_flags_its_hazard_reads(capsys, argv, expected):
    assert run_cli(capsys, "et", *argv) == (0, expected + "\n", "")


def test_et_config_file_keys_stay_accepted(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("epsilon=5\nc0=3\ng_baseline=0.01\n", encoding="utf-8")
    assert run_cli(capsys, "et", "--hazard", "zero", "--config", str(path)) == (0, "inf\n", "")


@pytest.mark.parametrize("argv", [
    ("calibrate-c0", "--anchor-rho", "0"),
    ("calibrate-c0", "--target", "1e-300"),
    ("calibrate-c0", "--anchor-rho", "1e-300"),
    ("solve", "--target", "extinction-time", "--g-ai", "0.05", "--rho", "1e308"),
    ("solve", "--target", "T-delayed", "--theta", "2", "--g-ai", "2.26", "--rho", "5e-324"),
    ("solve", "--target", "p3-delayed", "--g-ai", "0.64", "--rho", "1e-160"),
    ("et", "--hazard", "mounting", "--epsilon", "1e-300", "--g-ai", "1e-300"),
    ("simulate-growth", "--horizon", "1", "--dt", "0.5", "--tech-growth", "1e308"),
])
def test_float_range_failure_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert re.match(r"(config )?error: ", err)


def test_et_with_an_overflowing_erfcx_argument_prints_the_exact_value(capsys):
    # z = sqrt(eps) log(c0) / sqrt(2 g) overflows here; this once printed nan
    from mpmath import mp, mpf

    from tai_welfare.tables import format_number

    code, out, err = run_cli(capsys, "et", "--hazard", "mounting", "--epsilon", "1e300",
                             "--g-ai", "5e-324", "--normalized")
    with mp.workdps(40):
        # ET = int exp(-a t - b t^2 / 2) dt; mpmath's erfc cannot take z ~ 3e312,
        # so integrate in u = a t instead
        a = mpf(1e300) * mp.log(mpf(RunConfig().resolved_c0()))
        x = mpf(1e300) * mpf(5e-324) / (a * a)
        exact = mp.quad(lambda u: mp.exp(-u - x * u * u / 2), [0, mp.inf]) / a
    assert (code, out, err) == (0, format_number(float(exact)) + "\n", "")
    assert out == "9.29550e-302\n"


@pytest.mark.parametrize("argv", [
    ("--epsilon", "1e308", "--g-ai", "0.2"),  # eps log(c0) overflows
    ("--epsilon", "1e300", "--g-ai", "1e10"),  # eps g overflows
])
def test_et_with_an_overflowing_hazard_exits_2(capsys, argv):
    # both once printed 0, a lifespan the hazard does not have
    code, out, err = run_cli(capsys, "et", "--hazard", "mounting", "--normalized", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: OverflowError: ")


def test_float_range_failure_is_an_error_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "t2", "--g-ai-grid", "0.1", "--rho-grid", "1e200")
    assert code == 0
    assert out.splitlines()[1] == "0.1,ERROR:OverflowError,ERROR:DomainError"


@pytest.mark.parametrize("argv", [
    ("solve", "--target", "p3-immediate", "--g-ai", "0.1", "--rho", "nan"),
    ("et", "--hazard", "constant", "--m", "nan"),
])
def test_non_finite_flag_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "finite" in err


def test_non_finite_config_grid_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text("rho_grid=0.01,nan\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "table", "t2", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: line 1:") and "rho_grid" in err


@pytest.mark.parametrize("output_format, sep", [("csv", ","), ("markdown", "|")])
def test_error_cells_keep_the_column_count(capsys, output_format, sep):
    # theta = 0.5 makes every cell's welfare integral diverge
    code, out, _ = run_cli(
        capsys, "table", "t4", "--theta-set", "0.5", "--g-ai-grid", "0.4",
        "--rho-grid", "0.002,0.05", "--output-format", output_format,
    )
    assert code == 0
    lines = out.splitlines()
    assert len({line.count(sep) for line in lines}) == 1
    assert lines[-1].count("ERROR:DivergenceError") == 2


def test_solver_bug_is_a_convergence_error(c0, capsys, monkeypatch):
    # a root the closed form does not confirm: this cell's root comes from the
    # tail identity, and only the residual W_trunc(root) - W0 reads the
    # truncated closed form, here evaluated at the wrong date 2 T + 1
    closed_form = solvers.discounted_crra_closed_form

    def wrong_date(log_c0, g, rate, theta, horizon):
        return closed_form(log_c0, g, rate, theta, 2.0 * horizon + 1.0)

    monkeypatch.setattr(solvers, "discounted_crra_closed_form", wrong_date)
    with pytest.raises(ConvergenceError, match="solver bug"):
        solvers.solve_extinction_time(make_spec(c0, theta=2.0))
    code, _, err = run_cli(
        capsys, "solve", "--target", "extinction-time",
        "--theta", "2", "--g-ai", "0.05", "--rho", "0.05",
    )
    assert code == 3
    assert "non-convergence" in err


def test_huge_simulation_is_refused_before_allocating(capsys, monkeypatch):
    # the paths grow one step at a time, so no step means nothing allocated
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(growth, "_output", no_step)
    code, out, err = run_cli(capsys, "simulate-growth", "--horizon", "1e6", "--dt", "1e-6")
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "steps" in err


def test_overflowing_simulation_names_the_time(capsys):
    # capital and software grow past the float range; this once blamed the
    # CES argument, and must not report a nonpositive capital
    code, out, err = run_cli(capsys, "simulate-growth", "--horizon", "3000", "--dt", "1",
                             "--alpha", "1", "--sigma", "0.5", "--saving-rate", "0.9",
                             "--delta", "0")
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and "t = " in err
    assert "nonpositive" not in err


# the modules that evaluate welfare or solve for a threshold
EVALUATORS = {"tables", "solvers", "welfare", "compensation", "rootfind"}
# argv -> the package modules that its cold start must leave unloaded
COLD_RUNS = (
    (["pdoom"], {"welfare", "special", "solvers", "rootfind", "tables", "compensation",
                 "growth", "hazards", "quadrature"}),
    (["calibrate-c0"], EVALUATORS),
    (["table", "t2"], set()),
    (["solve", "--target", "p3-immediate", "--g-ai", "0.1", "--rho", "0.05"], set()),
    (["et", "--hazard", "zero"], {"solvers", "tables"}),
    (["et", "--hazard", "constant", "--m", "0.01"], set()),
    (["et", "--hazard", "one-off", "--t-ext", "50"], set()),
    (["et", "--hazard", "mounting", "--normalized"], set()),
    (["ev", "--panel", "c", "--g-ai", "0.1", "--rho", "0.05"], set()),
    (["ev", "--panel", "d", "--epsilon", "1e-3", "--g-ai", "0.2", "--rho", "0.03"],
     {"quadrature"}),
    (["ev", "--panel", "d", "--g-ai", "0.2", "--rho", "0.05"], {"quadrature"}),
    (["simulate-growth", "--print-growth-rate", "--horizon", "50"],
     EVALUATORS | {"quadrature", "hazards", "special", "preferences", "taxonomy"}),
)


def _cold_run(argv):
    """cli.main(argv) in a fresh interpreter: exit code, stdout and loaded modules."""
    proc = _run_child(textwrap.dedent(f"""
        import contextlib, io, json, sys
        from tai_welfare import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main({argv!r})
        print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))
    """))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_numpy_loads_only_for_quadrature():
    for argv, unloaded in COLD_RUNS:
        code, _, modules = _cold_run(argv)
        assert code == 0, argv
        assert "numpy" not in modules, f"{argv} loaded numpy without quadrature"
        own = {m.split(".", 1)[1] for m in modules if m.startswith("tai_welfare.")}
        assert not own & unloaded, f"{argv} loaded {sorted(own & unloaded)}"
    proc = _run_child("import json, sys\nfrom tai_welfare.config import RunConfig\n"
                      "RunConfig().resolved_c0()\nprint(json.dumps(sorted(sys.modules)))\n")
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "numpy" not in modules
    own = {m.split(".", 1)[1] for m in modules if m.startswith("tai_welfare.")}
    assert not own & EVALUATORS, f"resolving the default c0 loaded {sorted(own & EVALUATORS)}"
    code, out, modules = _cold_run(["table", "t4", "--g-ai-grid", "0.1", "--rho-grid",
                                    "0.05", "--theta-set", "2"])
    assert code == 0
    assert "numpy" in modules, "quadrature ran without numpy"
    header, row = out.splitlines()
    assert header == "g_ai,theta=2/rho=0.05"
    assert float(row.split(",")[1]) > 0.0


@pytest.mark.parametrize("argv", [["-h"]] + [[c, "-h"] for c in COMMANDS] + [["table", "t9"]],
                         ids=" ".join)
def test_main_parses_as_the_full_parser(argv, capsys):
    # main registers only the parsed subcommand's arguments; help and usage errors
    # must still read as from the parser with every subcommand registered
    with pytest.raises(SystemExit) as lazy:
        main(argv)
    lazy_output = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    assert (lazy.value.code, lazy_output) == (full.value.code, capsys.readouterr())
    assert lazy.value.code == (2 if argv == ["table", "t9"] else 0)


HELP_STDOUT = Path(__file__).resolve().parent / "help_stdout"


@pytest.mark.parametrize("command", ["tai-welfare", *COMMANDS])
def test_help_matches_its_snapshot(capsys, monkeypatch, command):
    # COLUMNS pins the width argparse wraps to, whatever the terminal
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"] if command == "tai-welfare" else [command, "-h"])
    assert exit_info.value.code == 0
    expected = (HELP_STDOUT / f"{command}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr() == (expected, "")


def test_every_config_key_is_a_flag_of_some_subcommand():
    # a RunConfig field that no subcommand registers is a knob nothing sets
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    registered = {key for p in sub.choices.values() for key in p.get_default("config_keys")}
    assert registered == {field.name for field in dataclasses.fields(RunConfig)}


# the commands that run quadrature take up to a second per call; leave them out
QUADRATURE_TABLES = {"t4"}


def _fuzz_value(action):
    """A strategy for one value of an argparse option or positional."""
    if action.choices is not None:
        choices = [c for c in action.choices if c not in QUADRATURE_TABLES]
        return st.sampled_from(choices)
    number = st.one_of(
        st.floats(min_value=-1e308, max_value=1e308, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308]),
    )
    if action.type is float:
        return number.map(repr)
    return st.lists(number, min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))


def _fuzz_argv(command):
    """A strategy for the argv of one subcommand, drawn from its registered flags."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices[command]._actions
               if a.dest not in ("help", "config")]
    positional = [a for a in actions if not a.option_strings]
    required = [a for a in actions if a.option_strings and a.required]
    optional = [a for a in actions if a.option_strings and not a.required]

    @st.composite
    def argv(draw):
        out = [command] + [draw(_fuzz_value(a)) for a in positional]
        chosen = draw(st.lists(st.sampled_from(optional), unique=True, max_size=5))
        for action in required + chosen:
            flag = action.option_strings[0]
            out.append(flag if action.nargs == 0 else f"{flag}={draw(_fuzz_value(action))}")
        return out

    return argv()


def _runs_quadrature(argv):
    return "--target=epsilon" in argv


@pytest.mark.parametrize("command", ["pdoom", "table", "solve", "ev", "et",
                                     "simulate-growth", "calibrate-c0"])
def test_cli_fuzz(command):
    @settings(max_examples=60)
    @given(_fuzz_argv(command))
    def check(argv):
        assume(not _runs_quadrature(argv))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
                assert code == 2, argv
        assert code in (0, 2, 3), argv
        text = out.getvalue()
        sep = "|" if "--output-format=markdown" in argv else ","
        assert len({line.count(sep) for line in text.splitlines()}) <= 1, argv
        assert "nan" not in re.split(r"[\s,|]+", text.lower()), argv

    check()


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(opening, after):
    # the first fenced block that opens with `opening` after the line `after`
    start = README.index(opening, README.index(after)) + len(opening)
    return README[start:README.index("```", start)]


def test_readme_cli_examples_run(capsys):
    commands = _readme_block("```sh\n", "\n## CLI\n").splitlines()
    assert len(commands) == 8
    for line in commands:
        program, *argv = shlex.split(line, comments=True)
        assert program == "tai-welfare", line
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
        assert out, line
        assert "Traceback" not in out + err, line
    config = parse_config(_readme_block("```text\n# example config\n", "\n## CLI\n"))
    assert config == RunConfig(c0=46999.67, g_baseline=0.0175,
                               g_ai_grid=(0.05, 0.1, 0.2, 0.3, 0.4),
                               rho_grid=(0.002, 0.01, 0.03, 0.05), output_format="csv")


def test_readme_library_tour_prints_its_values():
    # each statement whose comment opens with a number, ~ allowed, computes that
    # number to the digits the comment prints
    block = _readme_block("```python\n", "\n## Library tour\n")
    lines, namespace, checked = block.splitlines(), {}, []
    for statement in ast.parse(block).body:
        match = re.search(r"#\s*~?(\d[\d.]*(?:e\d+)?)\b", lines[statement.end_lineno - 1])
        if isinstance(statement, ast.Expr):  # keep its value, as the REPL's _ does
            statement = ast.copy_location(
                ast.Assign([ast.Name("_", ast.Store())], statement.value), statement)
        module = ast.fix_missing_locations(ast.Module([statement], []))
        exec(compile(module, "README.md", "exec"), namespace)
        if match is None:
            continue
        value = namespace[statement.targets[0].id]
        printed = Decimal(match.group(1))
        step = Decimal(1).scaleb(printed.as_tuple().exponent)
        assert Decimal(repr(value)).quantize(step) == printed, (match.group(0), value)
        checked.append(match.group(1))
    assert len(checked) == 5, checked


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_STDOUT = Path(__file__).resolve().parent / "demo_stdout"
NUMPY_FREE_DEMOS = {"01_outcome_tree.py", "05_hazards_and_lifespans.py",
                    "06_growth_regimes.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # a demo that needs no quadrature must run with numpy unimportable, and
    # every demo prints its pinned stdout byte for byte
    block = 'sys.modules["numpy"] = None\n' if demo.name in NUMPY_FREE_DEMOS else ""
    proc = _run_child(f"import runpy, sys\n{block}"
                      f"runpy.run_path({str(demo)!r}, run_name='__main__')\n")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == (DEMO_STDOUT / f"{demo.stem}.txt").read_text(encoding="utf-8")


def _run_child(code):
    src = str(Path(tai_welfare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
