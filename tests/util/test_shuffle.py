"""The batched try-order kernel against numpy's Generator.permutation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.shuffle import permutations


def _generator(seed: int, buffered: int | None) -> np.random.Generator:
    """A PCG64 generator, optionally holding a buffered 32-bit half-word."""
    rng = np.random.default_rng(seed)
    if buffered is not None:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        rng.bit_generator.state = state
    return rng


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 70), max_size=60),
       st.integers(0, 2**63 - 1),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)),
       st.integers(0, 3))
def test_matches_generator_permutation(ks, seed, buffered, warmup):
    """Same orders as one rng.permutation(k) per row, and the generator is
    left where those calls leave it: same state, same later draws."""
    ours, ref = _generator(seed, buffered), _generator(seed, buffered)
    # Arbitrary earlier use of the stream, including 32-bit draws.
    for rng in (ours, ref):
        rng.integers(0, 2**32, size=warmup, dtype=np.uint32)
    want = [ref.permutation(k) for k in ks]
    got = permutations(ours, np.asarray(ks, dtype=np.int64))
    assert got.tolist() == np.concatenate(
        [np.empty(0, dtype=np.int64)] + want).tolist()
    assert ours.bit_generator.state == ref.bit_generator.state
    for rng in (ours, ref):
        rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert ours.permutation(9).tolist() == ref.permutation(9).tolist()
    assert ours.random(4).tolist() == ref.random(4).tolist()


def test_single_candidate_rows_draw_nothing():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert permutations(rng, np.ones(100, dtype=np.int64)).tolist() == \
        [0] * 100
    assert rng.bit_generator.state == before


def test_long_rejection_runs_refill():
    """Many rows force several raw-word chunks."""
    ks = np.full(3000, 33, dtype=np.int64)   # bound 32: mask 63, ~half rejected
    ours, ref = np.random.default_rng(3), np.random.default_rng(3)
    got = permutations(ours, ks)
    assert got.tolist() == np.concatenate(
        [ref.permutation(33) for _ in ks]).tolist()
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox])
def test_other_bit_generators_refused(bitgen):
    with pytest.raises(TypeError, match="PCG64"):
        permutations(np.random.Generator(bitgen(5)),
                     np.array([1, 3], dtype=np.int64))
