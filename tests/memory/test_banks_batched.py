"""The batched bank-service calls versus their scalar reference loops.

``service_many`` / ``service_at`` / ``service_writes`` each document the
exact per-access loop they collapse into closed numpy form.  These tests
replay randomized streams through both formulations on independent
memories — starting from identical (possibly dirty) bank states — and
require identical stall totals, final cycles, bank free times, and
statistics, including the ``bank_accesses`` view that merges the scalar
and batched accumulators.
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.memory.banks import InterleavedMemory

SEED = 0xB4A2


def _pair(num_banks: int, t_m: int, warm: list[int] | None = None):
    a = InterleavedMemory(num_banks=num_banks, access_time=t_m)
    b = InterleavedMemory(num_banks=num_banks, access_time=t_m)
    if warm:
        a._bank_free_at = list(warm)
        b._bank_free_at = list(warm)
    return a, b


def _state(memory: InterleavedMemory):
    return (
        list(memory._bank_free_at),
        memory.stats.accesses,
        memory.stats.stall_cycles,
        dict(memory.stats.bank_accesses),
    )


def _cases(rng: random.Random, count: int):
    for _ in range(count):
        num_banks = rng.choice([2, 4, 16, 64])
        t_m = rng.choice([1, 2, 4, 7, 32])
        stride = rng.choice([0, 1, 2, 3, 8, 64, -3, rng.randrange(-70, 70)])
        n = rng.randrange(1, 130)
        base = rng.randrange(0, 1 << 16) + (n * abs(stride) if stride < 0
                                            else 0)
        start = rng.randrange(0, 500)
        warm = [rng.randrange(0, start + 3 * t_m)
                for _ in range(num_banks)]
        addresses = [base + i * stride for i in range(n)]
        yield num_banks, t_m, stride, addresses, start, warm


def test_service_many_matches_pipelined_access_loop():
    rng = random.Random(SEED)
    for num_banks, t_m, stride, addresses, start, warm in _cases(rng, 150):
        ref, fast = _pair(num_banks, t_m, warm)
        cycle, total = start, 0
        for address in addresses:
            reply = ref.access(address, cycle)
            total += reply.stall_cycles
            cycle += 1 + reply.stall_cycles
        batch = fast.service_many(addresses, start, stride=stride)
        assert (batch.stall_cycles, batch.final_cycle) == (total, cycle)
        assert _state(fast) == _state(ref)


def test_service_at_matches_cumulative_delay_loop():
    rng = random.Random(SEED + 1)
    for num_banks, t_m, stride, addresses, start, warm in _cases(rng, 150):
        # both the sparse (>= t_m gaps) and dense regimes
        gap = rng.choice([1, 2, t_m, t_m + 3])
        cycles = [start + i * gap for i in range(len(addresses))]
        ref, fast = _pair(num_banks, t_m, warm)
        delay, total = 0, 0
        for address, cycle in zip(addresses, cycles):
            reply = ref.access(address, cycle + delay)
            total += reply.stall_cycles
            delay += reply.stall_cycles
        batch = fast.service_at(addresses, cycles)
        assert batch.stall_cycles == total
        assert _state(fast) == _state(ref)


@st.composite
def _clear_strided_stream(draw):
    """A strided stream whose bank period covers ``t_m``, issued one per
    cycle with strip-overhead gaps (and possibly thinned to a subset of
    its slots): consecutive nominal cycles sit closer than ``t_m``, but
    accesses to the same bank never do."""
    num_banks = draw(st.sampled_from((4, 8, 16, 64)))
    stride = draw(st.integers(1, 4 * num_banks).filter(
        lambda s: s % num_banks))
    period = num_banks // math.gcd(num_banks, stride)
    t_m = draw(st.integers(2, period))
    mvl = draw(st.sampled_from((4, 16, 64)))
    overhead = draw(st.integers(0, 3 * t_m))
    slots = draw(st.integers(40, 200))
    keep = draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
    keep[:33] = [True] * 33  # above the exact loop's small-call cutoff
    base = draw(st.integers(0, 1 << 16))
    start = draw(st.integers(0, 500))
    warm = draw(st.lists(st.integers(0, start + 3 * t_m),
                         min_size=num_banks, max_size=num_banks))
    addresses, cycles = [], []
    for k in range(slots):
        if keep[k]:
            addresses.append(base + k * stride)
            cycles.append(start + (k // mvl + 1) * overhead + k)
    return num_banks, t_m, addresses, cycles, warm


@settings(max_examples=150, deadline=None)
@given(_clear_strided_stream())
def test_service_at_closed_form_covers_clear_same_bank_gaps(case):
    num_banks, t_m, addresses, cycles, warm = case
    ref, fast = _pair(num_banks, t_m, warm)
    delay, total, issue = 0, 0, 0
    for address, cycle in zip(addresses, cycles):
        reply = ref.access(address, cycle + delay)
        total += reply.stall_cycles
        delay += reply.stall_cycles
        issue = reply.issue_cycle
    flat_calls = []

    def spy(*args):
        flat_calls.append(args)
        return InterleavedMemory._service_at_flat(fast, *args)

    fast._service_at_flat = spy
    batch = fast.service_at(addresses, cycles)
    assert (batch.stall_cycles, batch.final_cycle) == (total, issue + 1)
    assert _state(fast) == _state(ref)
    assert not flat_calls, "closed form skipped for clear same-bank gaps"


def test_service_writes_matches_fixed_rate_store_loop():
    rng = random.Random(SEED + 2)
    for num_banks, t_m, stride, addresses, start, warm in _cases(rng, 150):
        ref, fast = _pair(num_banks, t_m, warm)
        for k, address in enumerate(addresses):
            ref.access(address, start + k)
        queued = fast.service_writes(addresses, start, stride=stride)
        assert queued == ref.stats.stall_cycles
        assert _state(fast) == _state(ref)


def test_batched_stats_merge_with_scalar_accesses():
    """The dual accumulators (scalar list + batched array) present one
    coherent ``bank_accesses`` view."""
    memory = InterleavedMemory(num_banks=4, access_time=2)
    memory.access(0, 0)
    memory.access(1, 1)
    memory.service_many([0, 1, 2, 3, 4, 5], 10, stride=1)
    assert memory.stats.accesses == 8
    assert memory.stats.bank_accesses == {0: 3, 1: 3, 2: 1, 3: 1}
    memory.reset()
    assert memory.stats.accesses == 0
    assert memory.stats.bank_accesses == {}


def test_negative_addresses_rejected():
    memory = InterleavedMemory(num_banks=4, access_time=2)
    with pytest.raises(ValueError):
        memory.service_many([3, -1], 0, stride=-4)
    with pytest.raises(ValueError):
        memory.service_writes([-5], 0)
