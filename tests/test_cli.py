import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tai_welfare
from tai_welfare import ConvergenceError, solvers
from tai_welfare.cli import main
from tai_welfare.rootfind import RootResult
from conftest import make_spec


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


def test_calibrate_c0(capsys):
    code, out, _ = run_cli(capsys, "calibrate-c0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(4.70e4, rel=2e-3)


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


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense=1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "table", "t1", "--config", str(path))
    assert code == 2
    assert "line 1" in err


def test_domain_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--target", "extinction-time",
        "--theta", "1", "--g-ai", "0.05", "--rho", "0.05", "--c0", "0.2",
    )
    assert code == 2


def test_non_convergence_exits_3(capsys):
    # an unreachable quadrature tolerance exhausts the subdivision budget
    code, _, err = run_cli(
        capsys, "solve", "--target", "epsilon",
        "--theta", "1.0001", "--g-ai", "0.2", "--rho", "0.05",
        "--quad-tol", "1e-30",
    )
    assert code == 3
    assert "non-convergence" in err


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
    def wrong_root(f, a, b, **kwargs):
        return RootResult(root=0.5 * (a + b), iterations=1, residual=0.0)

    monkeypatch.setattr(solvers, "brent", wrong_root)
    with pytest.raises(ConvergenceError, match="solver bug"):
        solvers.solve_extinction_time(make_spec(c0, theta=2.0))
    code, _, err = run_cli(
        capsys, "solve", "--target", "extinction-time",
        "--theta", "2", "--g-ai", "0.05", "--rho", "0.05",
    )
    assert code == 3
    assert "non-convergence" in err


def test_huge_simulation_is_refused_before_allocating(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(np, "arange", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    code, out, err = run_cli(capsys, "simulate-growth", "--horizon", "1e6", "--dt", "1e-6")
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and "steps" in err


def test_numpy_loads_only_for_quadrature():
    child = textwrap.dedent("""
        import contextlib, io, sys
        from tai_welfare import cli

        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["pdoom"],
                ["calibrate-c0"],
                ["table", "t2"],
                ["solve", "--target", "p3-immediate", "--g-ai", "0.1", "--rho", "0.05"],
                ["et", "--hazard", "mounting"],
                ["ev", "--panel", "c", "--g-ai", "0.1", "--rho", "0.05"],
            ):
                assert cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules, "numpy loaded without quadrature"
        code = cli.main(["table", "t4", "--g-ai-grid", "0.1", "--rho-grid", "0.05",
                         "--theta-set", "2"])
        assert code == 0
        assert "numpy" in sys.modules, "quadrature ran without numpy"
    """)
    src = str(Path(tai_welfare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header == "g_ai,theta=2/rho=0.05"
    assert float(row.split(",")[1]) > 0.0
