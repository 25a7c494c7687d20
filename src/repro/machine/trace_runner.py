"""Run recorded address traces on the cycle-level machines.

This is the bridge between the *real* workloads (blocked matmul / LU /
FFT, which emit :class:`~repro.trace.records.Trace` objects while
computing verified results) and the executable machines: every reference
is issued through the machine's memory system with the paper's timing
rules, yielding end-to-end cycle counts instead of just hit ratios.

Costing rules, matching the analytical model's premises:

* references issue one per cycle;
* on the MM-machine every read goes to the interleaved banks and pays any
  bank-busy stall; writes are buffered and never stall;
* on the CC-machine a read probes the cache: hits are free, *compulsory*
  misses (first touch — the classifier decides) stream through the
  pipelined memory like an initial vector load, and all other misses
  stall the full memory access time;
* cache writes follow the cache's write-allocate policy and never stall
  (write buffers), but dirty evictions are counted.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.cache.base import MISS_KIND_CODES
from repro.cache.stats import MissKind
from repro.machine.report import ExecutionReport
from repro.machine.vector_machine import CCMachine, MMMachine, VectorMachine
from repro.trace.records import Trace

__all__ = ["run_trace", "compare_machines_on_trace"]

_COMPULSORY = MISS_KIND_CODES[MissKind.COMPULSORY]


def run_trace(
    machine: VectorMachine, trace: Trace, *, backend: str | None = None
) -> ExecutionReport:
    """Issue every access of ``trace`` on ``machine``; returns the report.

    The machine is reset first so reports are a function of the trace
    alone.  On a CC-machine the cache must have been built with
    ``classify_misses=True`` (the default) — the compulsory/conflict
    distinction drives the stall rule.

    ``backend`` selects the timing engine: ``"scalar"`` replays per access
    through the bus/bank objects, ``"compiled"`` runs the
    :mod:`repro.kernels` timing kernels over each chunk's banks (any
    interleave scheme, mapped through ``bank_of_batch``).  Both engines
    stream ``trace.iter_blocks`` chunk by chunk — peak memory is
    O(chunk) — and produce identical reports; the ``kernel-backend``
    oracle sweeps them against each other.
    """
    backend = kernels.resolve_backend(backend)
    machine.reset()
    report = ExecutionReport()
    start = machine._cycle

    if isinstance(machine, CCMachine):
        if (backend == "scalar"
                or getattr(machine.cache, "access_many", None) is None):
            _run_cached_scalar(machine, trace, report)
        else:
            _run_cached_compiled(machine, trace, report)
    elif backend == "scalar":
        _run_uncached_scalar(machine, trace, report)
    else:
        _run_uncached_compiled(machine, trace, report)

    report.cycles = machine._cycle - start
    report.elements = len(trace)
    report.results = len(trace)
    return report


def _run_uncached_scalar(machine: MMMachine, trace: Trace,
                         report: ExecutionReport) -> None:
    """Per-access MM reference: every reference goes through the bus and
    bank objects one at a time (the ground truth the compiled engine is
    swept against)."""
    mem = machine.memory
    for access in trace:
        cycle = machine._cycle
        if access.write:
            machine.buses.request_write(cycle)
            mem.access(access.address, cycle)
            machine._cycle = cycle + 1
        else:
            machine.buses.request_read(cycle)
            reply = mem.access(access.address, cycle)
            report.bank_stall_cycles += reply.stall_cycles
            machine._cycle = cycle + 1 + reply.stall_cycles


def _run_uncached_compiled(machine: MMMachine, trace: Trace,
                           report: ExecutionReport) -> None:
    """MM timing through :func:`repro.kernels.mm_timing`; bank state and
    the clock/counter state persist in int64 arrays across chunks.

    Because the clock strictly increases between bus requests, read
    grants alternate read0/read1 and no request ever waits, so the bus
    writeback is a pure counter update from the kernel's state.
    """
    mem = machine.memory
    bank_of_batch = mem.scheme.bank_of_batch
    free = np.asarray(mem._bank_free_at, dtype=np.int64)
    counts = np.zeros(mem.num_banks, dtype=np.int64)
    state = np.zeros(8, dtype=np.int64)
    state[0] = machine._cycle
    t_m = mem.access_time
    for addresses, writes in trace.iter_blocks():
        kernels.mm_timing(bank_of_batch(addresses), writes, t_m, free,
                          counts, state)
    (cycle, bank_stall, write_stall, reads, writes_seen,
     last_read0, last_read1, last_write) = state.tolist()
    mem._bank_free_at = free.tolist()
    stats = mem.stats
    stats.accesses += reads + writes_seen
    stats.stall_cycles += bank_stall + write_stall
    stats._bank_counts_batched += counts
    report.bank_stall_cycles += bank_stall
    machine._cycle = cycle
    bus0, bus1 = machine.buses.read_buses
    bus0.transfers += (reads + 1) // 2
    bus1.transfers += reads // 2
    if reads:
        bus0._next_free = max(bus0._next_free, last_read0 + 1)
    if reads > 1:
        bus1._next_free = max(bus1._next_free, last_read1 + 1)
    write_bus = machine.buses.write_bus
    write_bus.transfers += writes_seen
    if writes_seen:
        write_bus._next_free = max(write_bus._next_free, last_write + 1)


def _run_cached_compiled(machine: CCMachine, trace: Trace,
                         report: ExecutionReport) -> None:
    """CC timing through :func:`repro.kernels.cc_timing`.

    The cache's state evolution does not depend on the clock, so each
    chunk's probe sequence runs through the cache's batched path up
    front: the residency kernels give the hits, and the classifier's
    stack-distance pass the three-C kinds the stall rule needs.  The
    per-access timing loop over the probe outcomes is the kernel.  Only
    misses touch the banks and the read buses.
    """
    mem = machine.memory
    access_many = machine.cache.access_many
    bank_of_batch = mem.scheme.bank_of_batch
    t_m = machine.config.t_m
    free = np.asarray(mem._bank_free_at, dtype=np.int64)
    counts = np.zeros(mem.num_banks, dtype=np.int64)
    state = np.zeros(9, dtype=np.int64)
    state[0] = machine._cycle
    mem_t_m = mem.access_time
    for addresses, writes in trace.iter_blocks():
        batch = access_many(addresses, writes, return_hits=True,
                            return_kinds=True, backend="compiled")
        kernels.cc_timing(bank_of_batch(addresses), writes, batch.hits,
                          batch.miss_kinds, mem_t_m, t_m, _COMPULSORY,
                          free, counts, state)
    (cycle, cache_hits, misses, bank_stall, conflicts, writes_seen,
     last_read0, last_read1, last_write) = state.tolist()
    mem._bank_free_at = free.tolist()
    report.cache_hits += cache_hits
    report.cache_misses += misses
    report.bank_stall_cycles += bank_stall
    report.miss_stall_cycles += t_m * conflicts
    machine._cycle = cycle
    stats = mem.stats
    stats.accesses += misses
    stats.stall_cycles += bank_stall
    stats._bank_counts_batched += counts
    bus0, bus1 = machine.buses.read_buses
    bus0.transfers += (misses + 1) // 2
    bus1.transfers += misses // 2
    if misses:
        bus0._next_free = max(bus0._next_free, last_read0 + 1)
    if misses > 1:
        bus1._next_free = max(bus1._next_free, last_read1 + 1)
    write_bus = machine.buses.write_bus
    write_bus.transfers += writes_seen
    if writes_seen:
        write_bus._next_free = max(write_bus._next_free, last_write + 1)


def _run_cached_scalar(machine: CCMachine, trace: Trace,
                       report: ExecutionReport) -> None:
    """Per-access CC reference, also used for caches without
    ``access_many``."""
    t_m = machine.config.t_m
    for access in trace:
        result = machine.cache.access(access.address, write=access.write)
        if access.write:
            machine.buses.request_write(machine._cycle)
            machine._cycle += 1
            continue
        if result.hit:
            report.cache_hits += 1
            machine._cycle += 1
            continue
        report.cache_misses += 1
        machine.buses.request_read(machine._cycle)
        reply = machine.memory.access(access.address, machine._cycle)
        report.bank_stall_cycles += reply.stall_cycles
        if result.miss_kind is MissKind.COMPULSORY:
            # initial loading pipelines: only the bank conflict shows
            machine._cycle += 1 + reply.stall_cycles
        else:
            report.miss_stall_cycles += t_m
            machine._cycle += 1 + reply.stall_cycles + t_m


def compare_machines_on_trace(
    trace: Trace,
    machines: dict[str, VectorMachine],
    *,
    backend: str | None = None,
):
    """Run one trace on several machines; returns ``{label: report}``."""
    return {label: run_trace(machine, trace, backend=backend)
            for label, machine in machines.items()}
