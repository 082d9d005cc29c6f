import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgrpsim.rng import _philox_key_class, _philox_keys, stream_rng, stream_rngs

#: around the 32-bit word edges, so seeds of 1 to 5 entropy words all occur
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128,
              2**130 + 9, 2**160 - 1]


def spawned_keys(seed, k):
    children = np.random.SeedSequence(seed).spawn(k)
    return np.array([c.generate_state(2, np.uint64) for c in children],
                    dtype=np.uint64).reshape(k, 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**160 - 1)),
       k=st.sampled_from([0, 1, 5, 102, 300]))
def test_keys_equal_seed_sequence_spawn(seed, k):
    got = _philox_keys(seed, k)
    assert got.dtype == np.uint64 and got.shape == (k, 2)
    assert np.array_equal(got, spawned_keys(seed, k))


@pytest.mark.parametrize("seed", WORD_EDGES)
def test_word_edge_keys_and_draws(seed):
    assert np.array_equal(_philox_keys(seed, 300), spawned_keys(seed, 300))
    for i, rng in enumerate(stream_rngs(seed, 3)):
        assert np.array_equal(rng.random(40), stream_rng(seed, i).random(40))


def test_negative_seed_is_refused_as_seed_sequence_refuses():
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError):
        stream_rngs(-1, 3)


def test_key_holder_answers_philox_only():
    key = _philox_keys(3, 1)[0]
    holder = _philox_key_class()(key)
    assert np.array_equal(holder.generate_state(2, np.uint64), key)
    for n_words, dtype in ((2, np.uint32), (1, np.uint64), (4, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError):
            holder.generate_state(n_words, dtype)
    with pytest.raises(TypeError):
        stream_rngs(3, 1)[0].spawn(1)


def test_pickled_generator_draws_on():
    rng = stream_rngs(11, 2)[1]
    rng.random(7)
    back = pickle.loads(pickle.dumps(rng))
    assert np.array_equal(back.random(20), rng.random(20))


def philox_state(rng):
    """A Philox generator's whole state as comparable lists."""
    state = rng.bit_generator.state
    return (state["bit_generator"], state["state"]["key"].tolist(),
            state["state"]["counter"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


@settings(max_examples=40, deadline=None)
@given(seed=st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**160 - 1)),
       k=st.integers(1, 12), data=st.data())
def test_generators_start_in_the_reference_state(seed, k, data):
    # key, counter and buffer: the shared counter array is the default 0
    rngs = stream_rngs(seed, k)
    i = data.draw(st.integers(0, k - 1), label="i")
    assert philox_state(rngs[i]) == philox_state(stream_rng(seed, i))
    # drawing from one generator leaves the shared counter of the others at 0
    rngs[i].random(9)
    for j in {0, k - 1} - {i}:
        assert philox_state(rngs[j]) == philox_state(stream_rng(seed, j))
