"""Superposed repairable-component failure processes with masked data.

The package simulates a series system whose components are imperfectly
repaired (generalized renewal dynamics), evaluates the lower/upper intensity
envelopes that masked failure data admit, and samples from the weighted
envelope-combination model through two independent routes, with rate-curve
and time-rescaling diagnostics to verify every claim at desk scale.
"""

__version__ = "0.1.0"

from .approx import ApproxModel, Normalization, approx_intensity
from .bounds import BoundPair, heterogeneous_upper, sgrp_bounds, sgrp_bounds_at_events
from .errors import ConfigError, DomainError
from .hazards import ConstantHazard, Hazard, PowerLawHazard, hazard_from_config
from .repair import ARA, Kijima1, Minimal, Perfect, check_history, repair_from_config
from .rng import derive_seed, stream_rng
from .simulate import nhpp_sample, simulate_algorithm1, simulate_thinning
from .stats import (KsExp1Result, MeanRate, RateCurve, intensity_integral,
                    ks_exp1, mean_rate, rate_curve, rescaled_residuals)
from .superpose import (FullHistory, MaskedHistory, mask, simulate_sgrp,
                        true_intensity_at_events, true_system_intensity)

__all__ = [
    "__version__",
    "ApproxModel", "Normalization", "approx_intensity",
    "BoundPair", "heterogeneous_upper", "sgrp_bounds", "sgrp_bounds_at_events",
    "ConfigError", "DomainError",
    "ConstantHazard", "Hazard", "PowerLawHazard", "hazard_from_config",
    "ARA", "Kijima1", "Minimal", "Perfect", "check_history", "repair_from_config",
    "derive_seed", "stream_rng",
    "nhpp_sample", "simulate_algorithm1", "simulate_thinning",
    "KsExp1Result", "MeanRate", "RateCurve", "intensity_integral", "ks_exp1",
    "mean_rate", "rate_curve", "rescaled_residuals",
    "FullHistory", "MaskedHistory", "mask", "simulate_sgrp",
    "true_intensity_at_events", "true_system_intensity",
]
