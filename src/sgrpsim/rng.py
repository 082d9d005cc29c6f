"""Deterministic stream derivation for reproducible parallel simulation.

Samplers take an integer seed; ``simulate_thinning`` also accepts a ready
``numpy.random.Generator``. When several independent streams are needed (per
lock-step group, per replication, per curve) they are derived here from
``(seed, stream-id...)`` through a counter-based bit generator, so draws are
identical on every platform and independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_rng", "derive_seed"]


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Philox generator keyed by ``(seed, stream...)``.

    Identical arguments yield identical draws; distinct stream ids give
    statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *stream: int) -> int:
    """A stable integer child seed for ``(seed, stream...)``."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, np.uint64)[0])
