"""Value the scenarios: baseline growth vs fast growth vs risky variants.

Welfare is a discounted stream of isoelastic utility over a growing
consumption path, weighted by survival.  Consumption is normalized to the
subsistence level, and the baseline level c0 is calibrated from a single
anchor threshold rather than assumed.
"""

import math

from tai_welfare import (
    Preferences,
    ScenarioSpec,
    calibrate_c0,
    lottery_value,
    welfare_cornucopia,
    welfare_mounting,
    welfare_no_takeover,
    welfare_truncated,
)

c0 = calibrate_c0()
print(f"calibrated baseline consumption: c0 = {c0:.1f} (log c0 = {math.log(c0):.4f})")
print()

prefs = Preferences(rho=0.05, theta_rra=1.0)
spec = ScenarioSpec(c0=c0, g_ai=0.05, prefs=prefs)

w0 = welfare_no_takeover(spec).value
wa = welfare_cornucopia(spec).value
print(f"no takeover   (growth 1.75%): W = {w0:.3f}")
print(f"cornucopia    (growth 5%):    W = {wa:.3f}")
print()

print("certain extinction at horizon T (fast growth until then):")
for T in (25.0, 62.63, 100.0, 400.0):
    wb = welfare_truncated(spec, T).value
    marker = "  <- matches the no-takeover value" if abs(wb - w0) < 0.01 else ""
    print(f"  T = {T:7.2f}: W = {wb:9.3f}{marker}")
print()

print("mounting hazard proportional to log consumption:")
for eps in (0.0, 1e-4, 1e-3, 1e-2):
    wc = welfare_mounting(spec, eps)
    print(f"  eps = {eps:7.0e}: W = {wc.value:9.3f}  ({wc.method}, err<={wc.abs_error_estimate:.1e})")
print()

we = lottery_value(wa, welfare_truncated(spec, 50.0).value, p3=0.1, p4=0.1)
print(f"takeover lottery (p3=0.1, p4=0.1, doom at T=50 if non-corrigible): W = {we:.3f}")
print(f"long-run survival probability of that lottery: {0.9 * 0.9:.2f}")
