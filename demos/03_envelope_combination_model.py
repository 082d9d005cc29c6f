#!/usr/bin/env python3
"""The weighted envelope-combination intensity model.

With only masked data, a single tunable model interpolates between the lower
and upper intensity envelopes: weight delta=1 gives the optimistic
(lower-envelope) attribution, delta=0 the pessimistic one. The script
evaluates the model and confirms its exact special cases.
"""

import numpy as np

from sgrpsim import (ARA, ApproxModel, ConstantHazard, MaskedHistory,
                     Normalization, PowerLawHazard, approx_intensity, sgrp_bounds)

hazard = PowerLawHazard(1.3, 40.0)
repair = ARA(1, 0.3)
n = 10
times = np.array([22.0, 31.0, 35.5, 44.0, 52.0, 53.5, 60.0, 61.0, 64.5, 70.0,
                  74.0, 80.0])
masked = MaskedHistory(times, n, float(times[-1]))
t = 85.0

print(f"Masked history with N={len(masked)} events, n={n}, evaluated at t={t}.")
print("Model value across the weight delta (system-split normalization):")
for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
    am = ApproxModel(n, delta, hazard, repair)
    print(f"  delta={delta:4.2f} -> {approx_intensity(am, masked, t):.6f}")
pair = sgrp_bounds(masked, repair, ApproxModel(n, 0.5, hazard, repair).component_hazard(), t)
print(f"  envelopes: lower {pair.lower:.6f}, upper {pair.upper:.6f}")
print("  (delta=1 sits on the lower envelope, delta=0 on the upper)\n")

print("Exact special cases:")
am1 = ApproxModel(1, 0.7, hazard, repair, Normalization.COMPONENT)
single = MaskedHistory(times, 1, float(times[-1]))
print(f"  n=1 ignores delta: model {approx_intensity(am1, single, t):.6f} "
      f"= bare component {repair.conditional_intensity(hazard, times, t):.6f}")
am_const = ApproxModel(n, 0.31, ConstantHazard(0.08), ARA(2, 0.5))
print(f"  constant hazard under system-split: model "
      f"{approx_intensity(am_const, masked, t):.6f} = 0.080000")
