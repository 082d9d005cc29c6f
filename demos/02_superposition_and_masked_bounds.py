#!/usr/bin/env python3
"""Superposed failures, masking, and the intensity envelopes.

A series system of n identical repairable components fails whenever any
component fails. With the failing component's label removed (masked data),
the system intensity can no longer be computed — but it can be bracketed by
the two extreme attributions of the masked times. This script simulates the
labeled truth, masks it, and shows the envelope holding at every event.
"""

import numpy as np

from sgrpsim import (ARA, Perfect, PowerLawHazard, mask, sgrp_bounds,
                     sgrp_bounds_at_events, simulate_sgrp, true_intensity_at_events)
from sgrpsim.io import write_bounds_csv, write_events_csv

hazard = PowerLawHazard(1.3, 40.0)
model = ARA(1, 0.3)
n = 5

full = simulate_sgrp(n, model, hazard, n_events=4000, seed=99)
print(f"Simulated {len(full)} failures of a {n}-component system "
      f"(horizon {full.horizon:.0f}).")
print("  per-component counts:", full.counts())
masked = mask(full)
print(f"  masked view keeps {len(masked)} unlabeled times and n={masked.n}.\n")

lower, upper = sgrp_bounds_at_events(masked.times, n, model, hazard)
true = true_intensity_at_events(full, model, hazard)
violations = np.sum((true < lower - 1e-9) | (true > upper + 1e-9))
width = np.mean((upper - lower) / true)
print("Envelope check at every event time (left limits):")
print(f"  violations: {violations} of {len(full)}")
print(f"  mean relative envelope width: {width:.1%}\n")

k = len(full) // 2
print(f"Example at event {k + 1} (t = {full.times[k]:.2f}):")
print(f"  lower {lower[k]:.5f} <= true {true[k]:.5f} <= upper {upper[k]:.5f}\n")

print("Replacement (as-good-as-new) repair admits the same construction:")
pair = sgrp_bounds(masked, Perfect(), hazard, float(masked.times[-1]))
print(f"  at the last event: lower {pair.lower:.5f}, upper {pair.upper:.5f}\n")

write_events_csv("demo_events.csv", full.times, full.labels)
write_events_csv("demo_events_masked.csv", masked.times)
write_bounds_csv("demo_bounds.csv", full.times, lower, upper, true)
print("Wrote demo_events.csv, demo_events_masked.csv, demo_bounds.csv "
      "(same formats as the CLI).")
