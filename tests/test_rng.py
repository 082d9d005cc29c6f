import pickle

import numpy as np
import pytest

from sgrpsim.rng import stream_rng
from sgrpsim.superpose import COMPONENTS, POISSON, SINGLE

#: around the 32-bit word edges, so seeds of 1 to 5 entropy words all occur
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128,
              2**130 + 9, 2**160 - 1]


@pytest.mark.parametrize("seed", WORD_EDGES)
def test_word_edge_keys_and_draws(seed):
    # the role keys differ from each other and from the thinning sampler's
    # unkeyed stream, and a group's (k, width) block is its generator's
    # scalar draws in row-major order
    keys = [stream_rng(seed, *role).bit_generator.state["state"]["key"].tolist()
            for role in ((), (COMPONENTS,), (POISSON,), (SINGLE,))]
    assert len({tuple(k) for k in keys}) == 4
    block = stream_rng(seed, COMPONENTS).standard_exponential(size=(4, 3))
    rng = stream_rng(seed, COMPONENTS)
    assert block.flags.c_contiguous
    assert block.ravel().tolist() == [float(rng.standard_exponential()) for _ in range(12)]


def test_negative_seed_is_refused_as_seed_sequence_refuses():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        stream_rng(-1, COMPONENTS)


def test_pickled_generator_draws_on():
    rng = stream_rng(11, POISSON)
    rng.random(7)
    back = pickle.loads(pickle.dumps(rng))
    assert np.array_equal(back.random(20), rng.random(20))
