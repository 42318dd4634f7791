"""Acceptance suite: one test per criterion, one printed verdict line each.

Reference grids live in reference_data.py.  Three criteria contain cells that
are numerically irreproducible from the stated indifference conditions (the
conditions provably have no root there, or the reference value is internally
inconsistent with its own pipeline); those tests assert the criterion as
stated and therefore fail, with a cell-by-cell census in the printed report.
The analysis behind each known mismatch is summarized in the repository
notes; everything else passes at its stated tolerance.
"""

import math
import time

import numpy as np

import reference_data as ref
from tai_welfare import (
    Preferences,
    ScenarioSpec,
    TaxonomyProbs,
    erf,
    leaf_distribution,
    p_doom,
)
from tai_welfare.cli import main as cli_main
from tai_welfare.growth import ProductionParams, asymptotic_growth_rate, simulate
from tai_welfare.hazards import ExponentialPath, MountingLogHazard, expected_lifespan
from tai_welfare.quadrature import integrate_finite
from tai_welfare.solvers import (
    solve_T_delayed,
    solve_epsilon_mounting,
    solve_extinction_time,
    solve_p3_delayed,
    solve_p3_immediate,
    solve_p4_delayed,
)
from tai_welfare.config import calibrate_c0
from tai_welfare.welfare import (
    integrate_discounted,
    welfare_cornucopia,
    welfare_no_takeover,
    welfare_truncated,
)

C0 = calibrate_c0()


def _spec(theta, g_ai, rho):
    return ScenarioSpec(c0=C0, g_ai=g_ai, prefs=Preferences(rho=rho, theta_rra=theta))


def _verdict(number, ok, summary):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {summary}")


def _rel(mine, expected):
    return abs(mine - expected) / abs(expected)


def _log_rel(mine_log, expected):
    return abs(mine_log - math.log(expected)) / abs(math.log(expected))


# ---------------------------------------------------------------------------
# criterion 1: extinction-time grid within 0.5%, under 5 seconds
# ---------------------------------------------------------------------------


def test_criterion_1_extinction_time_table():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for theta, block in ref.T1.items():
        for g, row in block.items():
            for rho, expected in zip(ref.RHO_GRID, row):
                out = solve_extinction_time(_spec(theta, g, rho))
                if not out.is_value:
                    failures.append((theta, g, rho, out.tag))
                    continue
                err = _rel(out.value, expected)
                worst = max(worst, err)
                if err > 0.005:
                    failures.append((theta, g, rho, err))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    _verdict(1, ok, f"40/40 cells, worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 2: immediate-misalignment grid within 0.5% (log space when tiny)
# ---------------------------------------------------------------------------


def test_criterion_2_immediate_misalignment_table():
    failures = []
    worst = 0.0
    for theta, block in ref.T2.items():
        for g, row in block.items():
            for rho, expected in zip(ref.RHO_GRID, row):
                out = solve_p3_immediate(_spec(theta, g, rho))
                assert out.is_value
                if expected < 1e-3:
                    err = abs(math.log(out.value) - math.log(expected))
                else:
                    err = _rel(out.value, expected)
                worst = max(worst, err)
                if err > 0.005:
                    failures.append((theta, g, rho, err))
    _verdict(2, not failures, f"40/40 cells, worst err {worst:.2e}")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 3: delayed-lottery panels, 1% on numeric cells, exact sentinels
# ---------------------------------------------------------------------------


def _check_threshold_panel(reference, solver, tolerance):
    mismatches = []
    worst = 0.0
    for theta, block in reference.items():
        for g, row in block.items():
            for rho, expected in zip(ref.RHO_GRID, row):
                out = solver(theta, g, rho)
                if expected == "-":
                    if out.tag != "no_tai_preferred":
                        mismatches.append((theta, g, rho, expected, out.tag))
                elif expected == ">1":
                    if out.tag != "tai_preferred":
                        mismatches.append((theta, g, rho, expected, out.tag))
                else:
                    if not out.is_value:
                        mismatches.append((theta, g, rho, expected, out.tag))
                        continue
                    err = _rel(out.value, expected)
                    worst = max(worst, err)
                    if err > tolerance:
                        mismatches.append((theta, g, rho, expected, err))
    return mismatches, worst


def test_criterion_3_delayed_lottery_tables():
    panel_a, worst_a = _check_threshold_panel(
        ref.T3A, lambda t, g, r: solve_p3_delayed(_spec(t, g, r), p4=3e-5, T=50.0),
        0.01,
    )
    panel_b, worst_b = _check_threshold_panel(
        ref.T3B, lambda t, g, r: solve_p4_delayed(_spec(t, g, r), p3=3e-5, T=50.0),
        0.01,
    )
    panel_c, worst_c = _check_threshold_panel(
        ref.T3C, lambda t, g, r: solve_T_delayed(_spec(t, g, r), p3=0.3, p4=0.3),
        0.01,
    )
    print(f"    panel A: {'clean' if not panel_a else panel_a} (worst {worst_a:.2e})")
    print(f"    panel B: {'clean' if not panel_b else panel_b} (worst {worst_b:.2e})")
    consistent = [
        m for m in panel_c if m[0] == 1.0 and (m[1], m[2]) in ref.T3C_CONSISTENT
    ]
    print(
        f"    panel C: {len(panel_c)} mismatches, worst on consistent cells "
        f"{worst_c:.2e}; every mismatch is a reference cell where the "
        f"indifference condition has no root (its supremum over T stays below "
        f"the no-takeover welfare) and the solver reports NO_SOLUTION"
    )
    ok = not panel_a and not panel_b and not panel_c
    _verdict(
        3,
        ok,
        f"panels A/B clean; panel C has {len(panel_c)} irreproducible reference "
        f"cells (no-root); consistent cells worst {worst_c:.2e}",
    )
    assert not consistent, "mismatch on a cell that is a genuine root"
    assert not panel_a and not panel_b and not panel_c, (
        f"panel A: {panel_a}; panel B: {panel_b}; panel C: {panel_c}"
    )


# ---------------------------------------------------------------------------
# criterion 4: mounting-hazard slope grid, 2% numeric, exact "-" pattern
# ---------------------------------------------------------------------------


def test_criterion_4_mounting_hazard_table():
    numeric_failures = []
    pattern_mismatches = []
    worst = 0.0
    for theta, block in ref.T4.items():
        for g, row in block.items():
            for rho, expected in zip(ref.RHO_GRID, row):
                out = solve_epsilon_mounting(_spec(theta, g, rho))
                if expected == "-":
                    if out.is_value:
                        pattern_mismatches.append((theta, g, rho, out.value))
                    continue
                if not out.is_value:
                    numeric_failures.append((theta, g, rho, out.tag))
                    continue
                # convergence must be reported, never assumed
                assert out.residual <= 1e-8 * 500.0
                err = _rel(out.value, expected)
                worst = max(worst, err)
                if err > 0.02:
                    numeric_failures.append((theta, g, rho, err))
    print(
        f"    numeric block: {'clean' if not numeric_failures else numeric_failures}"
        f" (worst rel err {worst:.2e})"
    )
    if pattern_mismatches:
        found = [v for *_, v in pattern_mismatches]
        print(
            f"    pattern: {len(pattern_mismatches)} cells marked '-' in the "
            f"reference have genuine roots (found values range "
            f"{min(found):.3g} to {max(found):.3g}); the solver reports them"
        )
    ok = not numeric_failures and not pattern_mismatches
    _verdict(
        4,
        ok,
        f"17/17 numeric cells within 2% (worst {worst:.2e}); "
        f"{len(pattern_mismatches)} reference '-' cells have genuine roots",
    )
    assert not numeric_failures, numeric_failures
    assert not pattern_mismatches, pattern_mismatches


# ---------------------------------------------------------------------------
# criterion 5: equivalent-variation panels on log scale
# ---------------------------------------------------------------------------


def _ev_log(spec, panel, **kw):
    from tai_welfare.compensation import ev_panel

    return ev_panel(spec, panel, **kw).log_ev


def test_criterion_5_equivalent_variation_tables():
    failures = {}
    for name, table, kw in (
        ("A", ref.T5A, {"T": 100.0}),
        ("B", ref.T5B, {"p3": 0.1}),
        ("C", ref.T5C, {"p3": 0.1, "p4": 0.1, "T": 50.0}),
    ):
        bad = []
        worst = 0.0
        for g, row in table.items():
            for rho, expected in zip(ref.RHO_GRID, row):
                log_ev = _ev_log(_spec(1.0, g, rho), name.lower(), **kw)
                err = _log_rel(log_ev, expected)
                worst = max(worst, err)
                if err > 0.005:
                    bad.append((g, rho, err))
        failures[name] = bad
        print(f"    panel {name}: worst log-EV rel err {worst:.2e}")

    bad_d = []
    worst_d = 0.0
    for g, row in ref.T5D.items():
        for rho, expected in zip(ref.RHO_GRID, row):
            if expected == "-":
                continue
            eps_out = solve_epsilon_mounting(_spec(1.0001, g, rho))
            assert eps_out.is_value
            log_ev = _ev_log(_spec(1.0, g, rho), "d", epsilon=eps_out.value)
            err = _log_rel(log_ev, expected)
            if (g, rho) not in ref.T5D_ERRATA:
                worst_d = max(worst_d, err)
            if err > 0.02:
                bad_d.append((g, rho, err))
    failures["D"] = bad_d
    print(
        f"    panel D: worst log-EV rel err outside known errata {worst_d:.2e}; "
        f"failing cells {bad_d} (two are reference-side errata, see notes; "
        f"the third reflects the log-like-curvature representation used to "
        f"produce the reference values)"
    )
    ok = not any(failures.values())
    _verdict(
        5,
        ok,
        "panels A-C clean; panel D has "
        f"{len(bad_d)} cells beyond 2% (reference-side inconsistencies)",
    )
    assert not any(failures.values()), failures


# ---------------------------------------------------------------------------
# criterion 6: headline willingness-to-pay fractions
# ---------------------------------------------------------------------------


def test_criterion_6_headline_wtp_fractions():
    g, rho = ref.HEADLINE_CELL
    spec = _spec(1.0, g, rho)
    from tai_welfare.compensation import ev_panel

    wtp_b = ev_panel(spec, "b", p3=0.1).wtp_fraction
    wtp_c = ev_panel(spec, "c", p3=0.1, p4=0.1, T=50.0).wtp_fraction
    err_b = _rel(wtp_b, ref.HEADLINE_WTP_B)
    err_c = _rel(wtp_c, ref.HEADLINE_WTP_C)
    ok = err_b <= 0.005 and err_c <= 0.005
    _verdict(
        6,
        ok,
        f"wtp fractions {wtp_b:.4f} vs 0.875 and {wtp_c:.4f} vs 0.939 "
        f"at cell (g_ai={g}, rho={rho})",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: closed form vs quadrature oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_closed_form_vs_quadrature():
    worst_w = 0.0
    for theta in (1.0, 2.0):
        q = 1.0 - theta
        for g in ref.G_GRID:
            for rho in ref.RHO_GRID:
                spec = _spec(theta, g, rho)
                lam = spec.log_c0

                # infinite horizon (both growth rates) and a truncated case
                for target, closed_value, horizon in (
                    ("W0", welfare_no_takeover(spec).value, None),
                    ("WA", welfare_cornucopia(spec).value, None),
                    ("WB", welfare_truncated(spec, 120.0).value, 120.0),
                ):
                    g_used = spec.g_baseline if target == "W0" else g

                    def flow_t(t, _g=g_used):
                        log_c = lam + _g * t
                        return log_c if q == 0.0 else np.expm1(q * log_c) / q

                    quad = integrate_discounted(
                        flow_t, lambda t, _r=rho: np.exp(-_r * t), rho, horizon=horizon
                    )
                    worst_w = max(worst_w, _rel(quad.value, closed_value))
    assert worst_w <= 1e-8

    worst_et = 0.0
    for c0 in (1.0, 47000.0):
        for eps in (1e-5, 3e-5, 1e-4, 3e-4, 1e-3):
            for g in ref.G_GRID:
                model = MountingLogHazard(eps, ExponentialPath(c0, g))
                closed = expected_lifespan(model)
                lam = math.log(c0)
                upper = 1.0
                while math.exp(-eps * (lam * upper + 0.5 * g * upper * upper)) > 1e-18:
                    upper *= 2.0
                quad = integrate_finite(
                    lambda t: np.exp(-eps * (lam * t + 0.5 * g * t * t)),
                    0.0,
                    upper,
                    abs_tol=1e-12,
                    rel_tol=1e-10,
                ).value
                worst_et = max(worst_et, _rel(quad, closed))
    ok = worst_w <= 1e-8 and worst_et <= 1e-6
    _verdict(
        7,
        ok,
        f"welfare closed-vs-quadrature worst {worst_w:.2e} (<=1e-8); "
        f"lifespan closed-vs-quadrature worst {worst_et:.2e} (<=1e-6)",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: error-function kernel
# ---------------------------------------------------------------------------


def test_criterion_8_erf_kernel():
    worst = max(abs(erf(x) - v) for x, v in ref.ERF_REFERENCE)
    rng = np.random.default_rng(8)
    xs = np.sort(rng.uniform(-10.0, 10.0, size=1000))
    values = [erf(float(x)) for x in xs]
    odd_ok = all(erf(float(-x)) == -erf(float(x)) for x in xs)
    monotone_ok = all(b >= a for a, b in zip(values, values[1:]))
    bounded_ok = all(-1.0 <= v <= 1.0 for v in values)
    ok = worst <= 1e-10 and odd_ok and monotone_ok and bounded_ok
    _verdict(
        8,
        ok,
        f"20 reference points worst abs err {worst:.2e} (<=1e-10); "
        f"odd/monotone/bounded on 1000 points",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: growth regimes
# ---------------------------------------------------------------------------


def test_criterion_9_growth_regimes():
    params = ProductionParams(alpha=0.5)
    worst_ak = 0.0
    for s, delta in ((0.3, 0.05), (0.2, 0.02), (0.4, 0.1)):
        traj = simulate(params, 100.0, s, delta, 0.0, 200.0, 0.05)
        a_k_alpha = traj.Y[-1] / traj.K[-1]  # measured asymptotic productivity
        fitted = asymptotic_growth_rate(traj)
        worst_ak = max(worst_ak, abs(fitted - (s * a_k_alpha - delta)))

    bottleneck_rates = []
    for s in (0.2, 0.35):
        traj = simulate(
            ProductionParams(), 1.0, s, 0.05, 0.0175, 400.0, 0.05,
            regime="bottlenecked",
        )
        bottleneck_rates.append(asymptotic_growth_rate(traj))
    worst_bn = max(abs(r - 0.0175) for r in bottleneck_rates)
    spread = abs(bottleneck_rates[0] - bottleneck_rates[1])
    ok = worst_ak <= 1e-3 and worst_bn <= 1e-3
    _verdict(
        9,
        ok,
        f"AK regime worst dev {worst_ak:.2e} over three (s, delta); "
        f"bottleneck worst dev {worst_bn:.2e}, saving-rate spread {spread:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: outcome-tree consistency
# ---------------------------------------------------------------------------


def test_criterion_10_taxonomy_consistency():
    rng = np.random.default_rng(10)
    worst = 0.0
    exact = True
    for _ in range(1000):
        p1, p2, p3, p4 = rng.random(4)
        probs = TaxonomyProbs(p1, p2, p3, p4)
        leaves = leaf_distribution(probs)
        total = (
            leaves.no_tai
            + leaves.tai_no_takeover
            + leaves.cornucopia
            + leaves.doom_immediate
            + leaves.doom_delayed
        )
        worst = max(worst, abs(total - 1.0))
        exact = exact and (
            p_doom(probs) == leaves.doom_immediate + leaves.doom_delayed
        )
    ok = worst <= 1e-12 and exact
    _verdict(10, ok, f"leaf sums within {worst:.2e} of 1; doom identity exact")
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: byte-identical table output
# ---------------------------------------------------------------------------


def test_criterion_11_table_determinism(capsys):
    from tai_welfare.tables import TABLE_IDS

    unequal = []
    for table_id in TABLE_IDS:
        assert cli_main(["table", table_id]) == 0
        first = capsys.readouterr().out
        assert cli_main(["table", table_id]) == 0
        second = capsys.readouterr().out
        if first != second:
            unequal.append(table_id)
    with capsys.disabled():
        _verdict(11, not unequal, f"all {len(TABLE_IDS)} tables byte-identical twice")
    assert not unequal, unequal
