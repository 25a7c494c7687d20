"""Pipelined processor-memory buses.

The machine models have three pipelined buses — two read, one write — each
able to move one line per cycle (Section 3.1).  A bus is a single-slot-per-
cycle resource: a transfer requested at cycle ``t`` is granted the first
free slot at or after ``t``.  The write bus plus write buffering is why the
models assume stores never stall the pipeline; the read buses matter when
two vector streams are loaded simultaneously (``P_ds`` in the model).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PipelinedBus", "BusSet"]


@dataclass
class PipelinedBus:
    """A bus moving at most one line per cycle.

    Attributes:
        name: label used in reports ("read0", "write", ...).
    """

    name: str = "bus"

    def __post_init__(self) -> None:
        self._next_free = 0
        self.transfers = 0
        self.wait_cycles = 0

    def request(self, cycle: int) -> int:
        """Claim the first slot at or after ``cycle``; returns the grant cycle."""
        grant = max(cycle, self._next_free)
        self.wait_cycles += grant - cycle
        self._next_free = grant + 1
        self.transfers += 1
        return grant

    def reset(self) -> None:
        """Free the bus and zero counters."""
        self._next_free = 0
        self.transfers = 0
        self.wait_cycles = 0


class BusSet:
    """The paper's bus complement: two read buses and one write bus.

    Read requests are steered to the read bus that frees up first (the
    hardware would dedicate one bus per active stream; picking the earliest
    free bus is equivalent for two streams and simpler).
    """

    def __init__(self) -> None:
        self.read_buses = [PipelinedBus("read0"), PipelinedBus("read1")]
        self.write_bus = PipelinedBus("write")

    def request_read(self, cycle: int) -> int:
        """Grant a read transfer on the earliest-available read bus."""
        bus = min(self.read_buses, key=lambda b: b._next_free)
        return bus.request(cycle)

    def request_write(self, cycle: int) -> int:
        """Grant a write transfer (buffered; never stalls the pipeline)."""
        return self.write_bus.request(cycle)

    def reset(self) -> None:
        """Reset every bus."""
        for bus in (*self.read_buses, self.write_bus):
            bus.reset()
