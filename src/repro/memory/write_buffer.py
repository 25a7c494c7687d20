"""Write buffer: the hardware behind "writes never stall".

The paper's models assume stores never delay the pipeline and justify the
assumption with "write buffers, separate data bus for writing and separate
write port for memories".  Rather than hard-code the assumption, this
module models the buffer so it can be *checked*: a finite FIFO of pending
stores drains into the interleaved banks through the write bus, one
attempt per cycle; the processor stalls only when it issues a store into a
full buffer.

The validation question (answered in the tests and the memory benchmarks)
is: for the paper's parameters — ``M`` banks of busy time ``t_m``, one
store issued at most every cycle — how deep must the buffer be for stalls
to be exactly zero?  For unit-stride store streams the drain rate matches
the fill rate whenever ``t_m <= M``, so a shallow buffer suffices; a
pathological stride-``M`` store stream drains at ``1/t_m`` per cycle and
*no* finite buffer saves it — a caveat the paper leaves implicit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.memory.banks import InterleavedMemory
from repro.memory.bus import PipelinedBus

__all__ = ["WriteBufferStats", "WriteBuffer"]


@dataclass
class WriteBufferStats:
    """Counters for one write buffer."""

    stores: int = 0
    processor_stall_cycles: int = 0
    max_occupancy: int = 0

    @property
    def stalls_per_store(self) -> float:
        """Average processor stall per issued store."""
        return self.processor_stall_cycles / self.stores if self.stores else 0.0


class WriteBuffer:
    """Finite FIFO of pending stores draining into interleaved memory.

    Args:
        memory: the banks the buffer drains into.
        depth: buffer entries; the paper's assumption corresponds to
            "deep enough that it never fills".
        bus: the write bus (one drain attempt per cycle); a private bus is
            created when omitted.

    Example:
        >>> memory = InterleavedMemory(num_banks=8, access_time=4)
        >>> buffer = WriteBuffer(memory, depth=4)
        >>> buffer.store(0, cycle=0)   # returns processor stall cycles
        0
    """

    def __init__(
        self,
        memory: InterleavedMemory,
        depth: int,
        bus: PipelinedBus | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError("buffer depth must be at least 1")
        self.memory = memory
        self.depth = depth
        self.bus = bus if bus is not None else PipelinedBus("write")
        self.stats = WriteBufferStats()
        self._pending: deque[int] = deque()
        self._drained_up_to = 0

    @property
    def occupancy(self) -> int:
        """Entries currently waiting to drain."""
        return len(self._pending)

    def _drain(self, up_to_cycle: int) -> None:
        """Retire pending stores whose bank and bus slots fit before
        ``up_to_cycle`` (the head drains strictly in order)."""
        cycle = self._drained_up_to
        while self._pending and cycle < up_to_cycle:
            address = self._pending[0]
            stall = self.memory.peek_stall(address, cycle)
            issue = cycle + stall
            if issue >= up_to_cycle:
                break
            grant = self.bus.request(issue)
            self.memory.access(address, grant)
            self._pending.popleft()
            cycle = grant + 1
        self._drained_up_to = max(self._drained_up_to, min(cycle, up_to_cycle))

    def store(self, address: int, cycle: int) -> int:
        """Issue one store at ``cycle``; returns processor stall cycles.

        The buffer first drains everything it could have retired before
        ``cycle``.  If it is still full, the processor waits for the head
        entry to leave.
        """
        self._drain(cycle)
        stall = 0
        while len(self._pending) >= self.depth:
            # wait for one drain slot: advance time to the head's retire
            head = self._pending[0]
            head_ready = self._drained_up_to + self.memory.peek_stall(
                head, self._drained_up_to
            )
            self._drain(head_ready + 1)
            waited = head_ready + 1 - cycle
            if waited <= 0:
                waited = 1
            stall += waited
            cycle = head_ready + 1
        self._pending.append(address)
        self.stats.stores += 1
        self.stats.processor_stall_cycles += stall
        self.stats.max_occupancy = max(self.stats.max_occupancy,
                                       len(self._pending))
        return stall

    def flush(self, cycle: int) -> int:
        """Drain everything; returns the cycle the last store retires."""
        self._drain(cycle + 10**12)
        return self._drained_up_to

    def reset(self) -> None:
        """Empty the buffer and zero counters (memory/bus are external)."""
        self._pending.clear()
        self._drained_up_to = 0
        self.stats = WriteBufferStats()
