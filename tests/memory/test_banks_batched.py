"""The memory's batched counters and its address check.

The machines' compiled timing kernel keeps bank state in arrays and
merges its per-bank counts into :class:`~repro.memory.banks.MemoryStats`
once per table; the scalar ``access`` path bumps a plain list.  The two
accumulators must present one coherent ``bank_accesses`` view.
"""

from __future__ import annotations

import pytest

from repro.analytical.base import MachineConfig
from repro.machine import MMMachine, VectorLoad
from repro.memory.banks import InterleavedMemory


def test_batched_stats_merge_with_scalar_accesses():
    """The dual accumulators (scalar list + batched array) present one
    coherent ``bank_accesses`` view."""
    machine = MMMachine(MachineConfig(num_banks=4, memory_access_time=2),
                        backend="compiled")
    memory = machine.memory
    memory.access(0, 0)
    memory.access(1, 1)
    machine._cycle = 10
    machine.execute([VectorLoad(base=0, stride=1, length=6)],
                    add_loop_overhead=False)
    assert memory.stats.accesses == 8
    assert memory.stats.bank_accesses == {0: 3, 1: 3, 2: 1, 3: 1}
    memory.reset()
    assert memory.stats.accesses == 0
    assert memory.stats.bank_accesses == {}


def test_negative_addresses_rejected():
    memory = InterleavedMemory(num_banks=4, access_time=2)
    with pytest.raises(ValueError, match="addresses must be non-negative"):
        memory.access(-1, 0)
    assert memory.stats.accesses == 0
