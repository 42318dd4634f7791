"""Hazard models and humanity's expected lifespan under each.

Survival is M(t) = exp(-integral of the hazard); expected lifespan is the
area under M.  The mounting model ties the hazard to log consumption, so
faster growth means a shorter expected lifespan, with a closed form built on
the scaled complementary error function.
"""

from tai_welfare import (
    ConstantHazard,
    ExponentialPath,
    MountingLogHazard,
    OneOffHazard,
    ZeroHazard,
    calibrate_c0,
    expected_lifespan,
    survival,
)

print("expected lifespans:")
print(f"  no hazard:                 {expected_lifespan(ZeroHazard())}")
print(f"  constant m = 0.01:         {expected_lifespan(ConstantHazard(0.01)):.1f}")
print(f"  one-off doom at t = 50:    {expected_lifespan(OneOffHazard(50.0)):.1f}")
print()

print("mounting hazard, starting from subsistence (c0 = 1), eps = 2e-4:")
for g in (0.05, 0.1, 0.2, 0.3, 0.4):
    model = MountingLogHazard(2e-4, ExponentialPath(1.0, g))
    print(f"  growth {g:4.2f}: ET = {expected_lifespan(model):8.2f} years")
print()

c0 = calibrate_c0()
print(f"same hazard from the calibrated level c0 = {c0:.0f} (the upper-tail branch):")
for g in (0.05, 0.2, 0.4):
    model = MountingLogHazard(2e-4, ExponentialPath(c0, g))
    print(f"  growth {g:4.2f}: ET = {expected_lifespan(model):8.2f} years")
print()

model = MountingLogHazard(2e-4, ExponentialPath(1.0, 0.2))
print("survival curve for the (c0=1, g=0.2, eps=2e-4) model:")
for t in (0.0, 50.0, 100.0, 198.17, 400.0, 800.0):
    print(f"  M({t:6.1f}) = {survival(model, t):.4f}")
