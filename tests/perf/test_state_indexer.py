"""Tests for the approximate model's closed-form state indexer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.perf.approximate import _StateIndexer


def enumerate_states(q_max, shares, pool):
    """The reference enumeration used by _build_level."""
    return [
        (q, s, o, a)
        for q in range(q_max + 1)
        for s in range(shares + 1)
        for o in range(pool + 1)
        for a in range(pool - o + 1)
    ]


class TestStateIndexer:
    @pytest.mark.parametrize(
        "q_max,shares,pool", [(3, 2, 2), (5, 0, 4), (2, 3, 0), (7, 1, 5)]
    )
    def test_matches_enumeration_order(self, q_max, shares, pool):
        indexer = _StateIndexer(shares, pool)
        for expected, state in enumerate(enumerate_states(q_max, shares, pool)):
            assert indexer.index_arrays(*state) == expected

    @given(
        q_max=hyp.integers(min_value=0, max_value=10),
        shares=hyp.integers(min_value=0, max_value=6),
        pool=hyp.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_bijective_over_the_whole_space(self, q_max, shares, pool):
        states = enumerate_states(q_max, shares, pool)
        q, s, o, a = (np.array(coord, dtype=np.int64) for coord in zip(*states))
        indices = _StateIndexer(shares, pool).index_arrays(q, s, o, a)
        assert indices.tolist() == list(range(len(states)))
