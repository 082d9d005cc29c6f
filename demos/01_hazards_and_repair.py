#!/usr/bin/env python3
"""Initial hazards and repair-effectiveness models, step by step.

A component's wear-out is described by an initial intensity; a repair rule
turns its failure history into a conditional intensity. This walk-through
evaluates both, samples failures by exact inversion, and closes with the
time-rescaling sanity check that the sampler is drawing from the model it
claims to.
"""

import numpy as np

from sgrpsim import (ARA, ConstantHazard, Kijima1, Minimal, Perfect,
                     PowerLawHazard, intensity_integral, ks_exp1, stream_rng)
from sgrpsim.repair import next_failure_time

hazard = PowerLawHazard(beta=1.3, eta=40.0)
print("Power-law hazard: rate(t) = (1.3/40) * (t/40)**0.3")
for t in (0.0, 10.0, 40.0, 160.0):
    print(f"  rate({t:>5.1f}) = {hazard.rate(t):.5f}   "
          f"cumulative = {hazard.cumulative(t):.4f}")
print(f"  inverse_cumulative(1.0) = {hazard.inverse_cumulative(1.0):.1f} "
      "(the scale parameter, as expected)\n")

history = [12.0, 30.0, 41.0]
print(f"One component, failures at {history}. Conditional intensity at t = 50:")
models = [
    ("minimal (as bad as old)", Minimal()),
    ("ARA m=1, rho=0.3", ARA(1, 0.3)),
    ("ARA m=2, rho=0.6", ARA(2, 0.6)),
    ("Kijima-I a=0.4", Kijima1(0.4)),
    ("perfect (replacement)", Perfect()),
]
for name, model in models:
    offset = model.effective_age_offset(history)
    lam = model.conditional_intensity(hazard, history, 50.0)
    print(f"  {name:<26} effective age 50 - {offset:5.2f} -> rate {lam:.5f}")
print("Stronger repair shifts the effective age further back, lowering the rate.\n")

print("Exact next-failure sampling (shift-and-invert, no root finding):")
rng = stream_rng(2024)
model = ARA(1, 0.3)
times = []
for _ in range(6):
    # shift by the offset after the last failure, then invert one Exp(1)
    last = times[-1] if times else 0.0
    times.append(next_failure_time(hazard, model.effective_age_offset(times), last,
                                   float(rng.exponential())))
print("  first six failures:", np.round(times, 2), "\n")

print("Time-rescaling check: integrated intensity between failures is Exp(1).")
trajectory = []
rng = stream_rng(7)
for _ in range(500):
    last = trajectory[-1] if trajectory else 0.0
    trajectory.append(next_failure_time(hazard, model.effective_age_offset(trajectory),
                                        last, float(rng.exponential())))
residuals = np.empty(len(trajectory))
prev = 0.0
for k, t in enumerate(trajectory):
    hist = trajectory[:k]
    integral = intensity_integral(lambda u: model.conditional_intensity(hazard, hist, u))
    residuals[k] = integral(prev, t)
    prev = t
result = ks_exp1(residuals)
print(f"  KS statistic {result.statistic:.4f} on {result.n_samples} residuals; "
      f"reject at 1%? {result.rejects[0.01]}")

print("\nConstant hazards stay constant whatever the history:")
const = ConstantHazard(0.1)
print(f"  minimal: {Minimal().conditional_intensity(const, history, 50.0):.3f}, "
      f"perfect: {Perfect().conditional_intensity(const, history, 50.0):.3f}")
