"""Cycle-level executable models of the paper's two vector machines.

These simulators are the executable counterpart of the analytical model:
same bank/bus substrate, same overhead constants, same stall rules — but
driven by concrete address streams instead of expectations, so the
analytical equations can be cross-validated (and the workload traces of
:mod:`repro.workloads` replayed).

Timing rules (Section 3.1):

* one element issues per cycle per read bus; two read buses allow a
  double-stream access to issue a pair per cycle;
* a bank busy from a previous access stalls the whole issue pipeline until
  it recovers (MM-model accesses are otherwise fully pipelined);
* stores are buffered: they occupy banks and the write bus but never stall
  (pass ``write_buffer_depth`` to replace this assumption with a finite
  buffer that can push back);
* every ``MVL`` strip pays ``strip_overhead + T_start`` start-up cycles,
  and every block pays ``loop_overhead``;
* on the CC-model, an *initial* loading sweep streams through memory like
  the MM-model while filling the cache (compulsory misses pipeline), but a
  sweep that expects cached data pays a non-pipelined ``t_m``-cycle stall
  for every miss — the "single miss costs the entire memory access time"
  premise of the paper.  A cached strip whose data is resident saves the
  ``t_m`` component of its start-up (Eq. (4)).

Both machines time an op stream as one
:class:`~repro.machine.ops.OpTable` on the ``compiled`` backend (the
default).  The table is cut into chunks of at most :data:`CHUNK_REFS`
references, and each chunk takes one pass: its rows expand into
addresses (:func:`repro.kernels.op_addresses`), the interleave scheme
maps them to banks, the cache is probed once (``access_many``), and one
:func:`repro.kernels.op_timing` call times every element of the chunk.
That kernel transliterates the per-element reference, which
``backend="scalar"`` selects: the loop over the memory, bus and cache
objects below.  The reference also runs what the kernel does not cover —
two-level hierarchies, finite write buffers, and buses left busy past
the clock.  ``docs/architecture.md`` has the details.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.analytical.base import MachineConfig
from repro.cache.base import Cache
from repro.machine.ops import (
    KIND,
    LOAD,
    LoadPair,
    Operation,
    OpTable,
    VectorCompute,
    VectorLoad,
    VectorStore,
)
from repro.machine.report import ExecutionReport
from repro.memory.banks import InterleavedMemory, InterleaveScheme
from repro.memory.bus import BusSet
from repro.memory.write_buffer import WriteBuffer

__all__ = ["VectorMachine", "MMMachine", "CCMachine", "CHUNK_REFS"]

#: Most references the op-table kernels expand, probe and time per chunk
#: (a longer row is a chunk of its own).  One pass per chunk amortises
#: the fixed cost of its four calls, while the bound keeps the chunk's
#: address, bank and hit arrays small however long the table runs.
CHUNK_REFS = 1 << 15


class VectorMachine:
    """Common machinery of both machine models.

    Args:
        config: machine parameters (shared with the analytical model).
        scheme: optional interleave scheme override for the memory banks.
        memory: optional pre-built memory, for substrates the analytical
            config cannot describe (e.g. a prime bank count for the
            Budnik–Kuck ablation).  Overrides ``scheme``.
        write_buffer_depth: ``None`` (default) models the paper's
            assumption — stores are buffered and never stall.  An integer
            attaches a finite :class:`~repro.memory.write_buffer.WriteBuffer`
            of that depth, so store streams that out-run the banks push
            back on the pipeline (``report.store_stall_cycles``).
        backend: timing-engine selection, resolved once at construction
            (``None`` takes :func:`repro.kernels.default_backend`).
            ``"compiled"`` times op tables on the :mod:`repro.kernels`
            op-table kernels; ``"scalar"`` runs the per-element reference
            loop.  The two produce bit-for-bit identical
            :class:`~repro.machine.report.ExecutionReport` accounting and
            substrate state (enforced by a Hypothesis property test and
            swept by the ``machine-timing`` oracle of :mod:`repro.verify`).
    """

    def __init__(
        self,
        config: MachineConfig,
        scheme: InterleaveScheme | None = None,
        *,
        memory: InterleavedMemory | None = None,
        write_buffer_depth: int | None = None,
        backend: str | None = None,
    ) -> None:
        self.config = config
        self._backend = kernels.resolve_backend(backend)
        if memory is not None:
            self.memory = memory
        else:
            self.memory = InterleavedMemory(config.num_banks, config.t_m, scheme)
        self.buses = BusSet()
        self.write_buffer = (
            WriteBuffer(self.memory, write_buffer_depth,
                        bus=self.buses.write_bus)
            if write_buffer_depth is not None else None
        )
        self._cycle = 0

    # -- model-specific hooks ---------------------------------------------------

    @property
    def stride_modulus(self) -> int:
        """Range bound for random strides: ``M`` here, ``C`` on a CC-model."""
        return self.config.num_banks

    def _element_cycles(
        self, address: int, load: VectorLoad, report: ExecutionReport
    ) -> int:
        """Cycles consumed by one element beyond its 1-cycle issue slot."""
        raise NotImplementedError

    def _strip_overhead(self, expect_cached: bool) -> int:
        """Start-up cycles of one strip (model-specific via override)."""
        return self.config.strip_overhead + self.config.t_start

    def _kernel_covers(self) -> bool:
        """Whether :meth:`execute` can time on the op-table kernels now:
        the compiled backend, the paper's never-full write buffer, and no
        bus busy past the clock (so every grant comes at its request)."""
        buses = self.buses
        return (self._backend == "compiled" and self.write_buffer is None
                and max(buses.read_buses[0]._next_free,
                        buses.read_buses[1]._next_free,
                        buses.write_bus._next_free) <= self._cycle)

    def _probe(self, addresses: np.ndarray) -> np.ndarray | None:
        """Cache outcomes of one chunk's load references, in probe order.

        Returns a boolean hit array, or ``None`` on a cacheless machine
        (every reference goes to memory).
        """
        return None

    # -- execution ---------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Current simulated cycle."""
        return self._cycle

    def reset(self) -> None:
        """Zero the clock and all substrate state."""
        self._cycle = 0
        self.memory.reset()
        self.buses.reset()
        if self.write_buffer is not None:
            self.write_buffer.reset()

    def execute(self, operations, *, add_loop_overhead: bool = True) -> ExecutionReport:
        """Run a sequence of operations; returns the cycle accounting.

        ``operations`` is an :class:`~repro.machine.ops.OpTable` or any
        iterable of :data:`~repro.machine.ops.Operation`, which the
        compiled backend turns into a table before timing any of it.
        ``add_loop_overhead`` charges the per-block 10-cycle overhead once.
        """
        report = ExecutionReport()
        start = self._cycle
        if add_loop_overhead:
            self._cycle += self.config.loop_overhead
            report.overhead_cycles += self.config.loop_overhead
        if self._kernel_covers():
            if not isinstance(operations, OpTable):
                operations = OpTable.from_ops(operations)
            self._run_table(operations, report)
        else:
            if isinstance(operations, OpTable):
                operations = operations.to_ops()
            for op in operations:
                self._run_op(op, report)
        report.cycles += self._cycle - start
        return report

    def _run_table(self, table: OpTable, report: ExecutionReport) -> None:
        """Time a table on the kernels, one pass per chunk of rows.

        A chunk's load references are probed with a single
        ``access_many`` call in probe order — each row's paired slots
        interleaved, then its first-stream remainder.  Cache state does
        not depend on the clock, so probing ahead of the timing is exact
        (stores and computes never touch the cache).  Bank and bus state
        live in the kernel's arrays for the whole table and are written
        back once.
        """
        rows = table.rows
        refs = table.refs()
        ends = np.cumsum(refs)
        load_ends = np.cumsum(np.where(rows[:, KIND] == LOAD, refs, 0))
        mem = self.memory
        bank_of_batch = mem.scheme.bank_of_batch
        bus0, bus1 = self.buses.read_buses
        write_bus = self.buses.write_bus
        free = np.array(mem._bank_free_at, dtype=np.int64)
        counts = np.zeros(mem.num_banks, dtype=np.int64)
        state = np.zeros(16, dtype=np.int64)
        state[0] = self._cycle
        state[10:12] = bus0._next_free, bus1._next_free
        state[14] = write_bus._next_free
        timing = (self.config.mvl, self._strip_overhead(False),
                  self._strip_overhead(True), mem.access_time,
                  self.config.t_m)
        start = done = done_loads = 0
        while start < len(rows):
            stop = max(start + 1, int(np.searchsorted(
                ends, done + CHUNK_REFS, side="right")))
            chunk = rows[start:stop]
            n_load = int(load_ends[stop - 1]) - done_loads
            addresses = kernels.op_addresses(chunk, n_load,
                                             int(ends[stop - 1]) - done)
            if addresses.size and int(addresses.min()) < 0:
                raise ValueError("addresses must be non-negative")
            hits = self._probe(addresses[:n_load]) if n_load else None
            kernels.op_timing(chunk, n_load, bank_of_batch(addresses), hits,
                              *timing, free, counts, state)
            start = stop
            done, done_loads = int(ends[stop - 1]), int(load_ends[stop - 1])
        (self._cycle, elements, results, overhead, bank_stall, miss_stall,
         cache_hits, cache_misses, accesses, store_queue, bus0._next_free,
         bus1._next_free, reads0, reads1, write_bus._next_free,
         writes) = state.tolist()
        report.elements += elements
        report.results += results
        report.overhead_cycles += overhead
        report.bank_stall_cycles += bank_stall
        report.miss_stall_cycles += miss_stall
        report.cache_hits += cache_hits
        report.cache_misses += cache_misses
        mem._bank_free_at = free.tolist()
        mem.stats.accesses += accesses
        mem.stats.stall_cycles += bank_stall + store_queue
        mem.stats._bank_counts_batched += counts
        bus0.transfers += reads0
        bus1.transfers += reads1
        write_bus.transfers += writes

    # -- the per-element reference ------------------------------------------------

    def _run_op(self, op: Operation, report: ExecutionReport) -> None:
        if isinstance(op, VectorLoad):
            self._run_load_scalar(op, None, report)
        elif isinstance(op, LoadPair):
            self._run_load_scalar(op.first, op.second, report)
            tail = op.tail()
            if tail is not None:
                self._run_load_scalar(tail, None, report)
        elif isinstance(op, VectorStore):
            self._run_store(op, report)
        elif isinstance(op, VectorCompute):
            self._cycle += op.length
            report.elements += op.length
        else:
            raise TypeError(f"unknown operation {op!r}")

    def _run_load_scalar(
        self, first: VectorLoad, second: VectorLoad | None,
        report: ExecutionReport,
    ) -> None:
        """One load operation, element by element: the semantics the
        op-table kernel must reproduce bit-for-bit."""
        mvl = self.config.mvl
        addresses_first = first.addresses()
        addresses_second = second.addresses() if second is not None else []
        for strip_start in range(0, first.length, mvl):
            overhead = self._strip_overhead(first.expect_cached)
            self._cycle += overhead
            report.overhead_cycles += overhead
            strip_first = addresses_first[strip_start:strip_start + mvl]
            strip_second = addresses_second[strip_start:strip_start + mvl]
            for k, address in enumerate(strip_first):
                issue = self.buses.request_read(self._cycle)
                self._cycle = max(self._cycle, issue)
                stall = self._element_cycles(address, first, report)
                if second is not None and k < len(strip_second):
                    self.buses.request_read(self._cycle)
                    stall += self._element_cycles(strip_second[k], second,
                                                  report)
                self._cycle += 1 + stall
                report.elements += 1
                if first.counts_results:
                    report.results += 1
                if second is not None and k < len(strip_second):
                    report.elements += 1
                    if second.counts_results:
                        report.results += 1

    def _run_store(self, op: VectorStore, report: ExecutionReport) -> None:
        if self.write_buffer is not None:
            for address in op.addresses():
                stall = self.write_buffer.store(address, self._cycle)
                report.store_stall_cycles += stall
                self._cycle += 1 + stall
                report.elements += 1
            return
        # the paper's assumption: buffered, never stalls
        for address in op.addresses():
            grant = self.buses.request_write(self._cycle)
            self.memory.access(address, grant)  # occupies the bank
            self._cycle += 1
            report.elements += 1


class MMMachine(VectorMachine):
    """The cacheless memory-register machine of Figure 2.

    Example:
        >>> machine = MMMachine(MachineConfig(num_banks=8,
        ...                                   memory_access_time=4))
        >>> report = machine.execute([VectorLoad(base=0, stride=1, length=64)])
        >>> report.bank_stall_cycles
        0
    """

    def _element_cycles(
        self, address: int, load: VectorLoad, report: ExecutionReport
    ) -> int:
        reply = self.memory.access(address, self._cycle)
        report.bank_stall_cycles += reply.stall_cycles
        return reply.stall_cycles


class CCMachine(VectorMachine):
    """The cache-based machine of Figure 3.

    Args:
        config: machine parameters.
        cache: any :class:`~repro.cache.base.Cache`; the machine model does
            not care whether it is direct-, set-associative- or
            prime-mapped.
        scheme: optional interleave scheme override.
        start_registers: Section 2.3's cost/performance trade.  ``True``
            (default) pays for registers that cache each vector's
            converted starting index, so re-entering a vector is free;
            ``False`` saves the registers and instead re-folds the start
            address on every re-entry — ``start_recalc_cycles`` extra
            cycles per cached vector start ("1 or 2 more cycles at each
            vector start-up time").
        start_recalc_cycles: the re-folding cost when
            ``start_registers=False`` (the paper: one c-bit add per
            address chunk, so 1–2 cycles for realistic layouts).

    Example:
        >>> from repro.cache import PrimeMappedCache
        >>> machine = CCMachine(MachineConfig(num_banks=8,
        ...                                   memory_access_time=4,
        ...                                   cache_lines=31),
        ...                     PrimeMappedCache(c=5))
        >>> _ = machine.execute([VectorLoad(base=0, stride=3, length=31)])
        >>> rerun = machine.execute([VectorLoad(base=0, stride=3, length=31,
        ...                                     expect_cached=True)])
        >>> rerun.cache_misses
        0
    """

    def __init__(
        self,
        config: MachineConfig,
        cache: Cache,
        scheme: InterleaveScheme | None = None,
        *,
        start_registers: bool = True,
        start_recalc_cycles: int = 2,
        write_buffer_depth: int | None = None,
        backend: str | None = None,
    ) -> None:
        super().__init__(config, scheme, write_buffer_depth=write_buffer_depth,
                         backend=backend)
        self.cache = cache
        if start_recalc_cycles < 0:
            raise ValueError("start_recalc_cycles must be non-negative")
        self.start_registers = start_registers
        self.start_recalc_cycles = start_recalc_cycles
        # A two-level hierarchy (any cache exposing ``l2_hit_time``)
        # composes a per-level miss penalty: L1 hit free, L2 hit a
        # non-pipelined ``l2_hit_time`` stall, full miss the usual
        # memory service.  ``None`` for single-level caches.
        self._l2_time = getattr(cache, "l2_hit_time", None)

    @property
    def stride_modulus(self) -> int:
        return self.cache.total_lines

    def reset(self) -> None:
        super().reset()
        self.cache.reset()

    def _strip_overhead(self, expect_cached: bool) -> int:
        base = self.config.strip_overhead + self.config.t_start
        if expect_cached:
            base -= self.config.t_m  # operands come from the cache
            if not self.start_registers:
                # re-fold the starting index instead of reading a register
                base += self.start_recalc_cycles
        return base

    def _kernel_covers(self) -> bool:
        # A hit bitmap cannot carry which *level* served each access, so
        # hierarchical machines run the per-element reference loop (which
        # reads the change in ``cache.l2_hits`` across each access).
        return (self._l2_time is None
                and getattr(self.cache, "access_many", None) is not None
                and super()._kernel_covers())

    def _probe(self, addresses: np.ndarray) -> np.ndarray:
        return self.cache.access_many(addresses, return_hits=True,
                                      backend=self._backend).hits

    def _element_cycles(
        self, address: int, load: VectorLoad, report: ExecutionReport
    ) -> int:
        l2_time = self._l2_time
        if l2_time is not None:
            l2_before = self.cache.l2_hits
        hit = self.cache.access(address).hit
        if hit:
            report.cache_hits += 1
            if l2_time is not None and self.cache.l2_hits != l2_before:
                # served by L2: a non-pipelined stall like a short miss
                # penalty; the memory banks are never touched
                report.l2_hits += 1
                report.miss_stall_cycles += l2_time
                return l2_time
            return 0
        report.cache_misses += 1
        if load.expect_cached:
            # A conflict the processor must stall out: the full memory
            # access time, not pipelinable (plus any bank conflict).
            reply = self.memory.access(address, self._cycle)
            report.bank_stall_cycles += reply.stall_cycles
            report.miss_stall_cycles += self.config.t_m
            return reply.stall_cycles + self.config.t_m
        # Initial loading: compulsory misses stream through the pipelined
        # memory exactly like the MM-model.
        reply = self.memory.access(address, self._cycle)
        report.bank_stall_cycles += reply.stall_cycles
        return reply.stall_cycles
