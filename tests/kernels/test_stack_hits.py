"""``kernels.stack_hits``: Mattson stack distances against an LRU shadow.

The kernel answers, per line, whether an LRU cache of ``capacity`` lines
would hold it (its stack distance is below the capacity).  Mattson's
inclusion property follows: a larger LRU cache holds everything a
smaller one holds, so on one trace the hits at capacity ``k`` are a
subset of the hits at ``k + 1``.  The property is checked on both
providers, from a warm shadow.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import kernels
from repro.kernels import cext, reference

PROVIDERS = [reference] + ([cext.load()] if cext.load() is not None else [])

traces = st.lists(st.integers(0, 30), max_size=200)


def _run(provider, lines, recent, capacity):
    cold = np.empty(len(lines), dtype=np.uint8)
    hits, new_recent = provider.stack_hits(
        np.asarray(lines, dtype=np.int64),
        np.asarray(recent, dtype=np.int64), capacity, cold)
    return hits, new_recent, cold.astype(bool)


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.name)
@settings(max_examples=100, deadline=None)
@given(traces, traces, st.integers(1, 16))
def test_mattson_inclusion(provider, warm, trace, capacity):
    """Hits at capacity k are a subset of the hits at capacity k + 1,
    and the shadows after the trace nest the same way."""
    recent_k = _run(provider, warm, [], capacity)[1]
    recent_k1 = _run(provider, warm, [], capacity + 1)[1]
    hits_k, after_k, cold_k = _run(provider, trace, recent_k, capacity)
    hits_k1, after_k1, cold_k1 = _run(provider, trace, recent_k1,
                                      capacity + 1)
    assert not (hits_k & ~hits_k1).any()
    assert set(after_k.tolist()) <= set(after_k1.tolist())
    # a cold line has no earlier use, so it can hit at no capacity
    assert not (hits_k1 & cold_k1).any()


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.name)
@settings(max_examples=100, deadline=None)
@given(traces, st.integers(1, 8))
def test_matches_a_definition_by_distances(provider, trace, capacity):
    """Hit iff fewer than ``capacity`` distinct other lines were used
    since the line's last use; cold iff it has no earlier use; the shadow
    after the trace is its ``capacity`` most recent distinct lines."""
    hits, after, cold = _run(provider, trace, [], capacity)
    for j, line in enumerate(trace):
        earlier = trace[:j]
        if line not in earlier:
            assert cold[j] and not hits[j]
            continue
        last = len(earlier) - 1 - earlier[::-1].index(line)
        distance = len(set(trace[last + 1:j]))
        assert not cold[j]
        assert hits[j] == (distance < capacity)
    order = list(dict.fromkeys(reversed(trace)))[:capacity]
    assert after.tolist() == order[::-1]


def test_rejects_bad_arguments():
    lines = np.arange(4, dtype=np.int64)
    with pytest.raises(ValueError, match="capacity"):
        kernels.stack_hits(lines, np.empty(0, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="more lines than the capacity"):
        kernels.stack_hits(lines, np.arange(3, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="one flag per line"):
        kernels.stack_hits(lines, np.empty(0, dtype=np.int64), 2,
                           np.empty(3, dtype=bool))
