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

Both machines execute loads and stores through a vectorised strip-level
timing engine by default; ``backend="scalar"`` selects the per-element
reference loop, which the engine reproduces bit-for-bit.  The engine
consumes the op stream in chunks of at most :data:`CHUNK_REFS`
load references and probes each chunk's cache outcomes with one
``access_many`` call (:meth:`VectorMachine._run_chunk`).  Consecutive
single-stream loads that cannot stall on themselves form a run timed
with one bank-service call (:meth:`VectorMachine._run_loads`); pairs
and loads whose bank period is below ``t_m`` are timed op by op
(:meth:`VectorMachine._run_load_batched`).  ``docs/architecture.md``
has the derivations.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.analytical.base import MachineConfig
from repro.cache.base import Cache
from repro.machine.ops import (
    LoadPair,
    Operation,
    VectorCompute,
    VectorLoad,
    VectorStore,
)
from repro.machine.report import ExecutionReport
from repro.memory.banks import InterleavedMemory, InterleaveScheme
from repro.memory.bus import BusSet
from repro.memory.write_buffer import WriteBuffer

__all__ = ["VectorMachine", "MMMachine", "CCMachine", "CHUNK_REFS"]

#: Most load references the batched engine probes and times per chunk.
#: One ``access_many`` call per chunk amortises the probe's fixed cost
#: over many short ops, while the bound keeps the chunk's address, hit
#: and schedule arrays small however long the op stream runs.  Bigger
#: chunks cost more than they save: a chunk that revisits cache sets
#: (every multi-sweep chunk does) takes the cache's sort-based replay,
#: whose cost per reference grows with the chunk, and at 16 K references
#: its temporaries were returned to and re-faulted from the OS on every
#: chunk.
CHUNK_REFS = 1 << 12

_NO_HITS = np.empty(0, dtype=bool)


def _second_tail(first: VectorLoad, second: VectorLoad | None):
    """The part of a pair's second stream beyond its first stream, which
    replays as a standalone load after the shared strips (or ``None``)."""
    if second is None or second.length <= first.length:
        return None
    return VectorLoad(
        base=second.base + first.length * second.stride,
        stride=second.stride,
        length=second.length - first.length,
        expect_cached=second.expect_cached,
        counts_results=second.counts_results,
    )


def _chunks(operations):
    """Group an op stream into lists of at most :data:`CHUNK_REFS`
    references (an op longer than that forms a chunk of its own)."""
    chunk: list = []
    refs = 0
    for op in operations:
        if isinstance(op, LoadPair):
            size = op.first.length + op.second.length
        else:
            size = getattr(op, "length", 0)
        if chunk and refs + size > CHUNK_REFS:
            yield chunk
            chunk, refs = [], 0
        chunk.append(op)
        refs += size
    if chunk:
        yield chunk


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
            ``"compiled"`` runs loads and stores through the vectorised
            strip-level engine, whose both-streams-touch-memory pair loop
            is a :mod:`repro.kernels` call; ``"scalar"`` runs the
            per-element reference loop.  The two produce bit-for-bit
            identical :class:`~repro.machine.report.ExecutionReport`
            accounting (enforced by a Hypothesis property test and swept
            by the ``machine-timing`` oracle of :mod:`repro.verify`).
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
        # whether loads and stores take the strip-level engine
        self._batched = self._backend == "compiled"
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
        # memo of _run_key's bank-period test: (stride, length) -> whether
        # a pipelined load of that shape can never stall on itself
        self._clears_itself: dict[tuple, bool] = {}
        # memo of _schedule: (overhead, load lengths) -> (strips, offsets)
        self._schedules: dict[tuple, tuple] = {}
        # memo for stalling all-miss-prefix loads: because the bank
        # sequence is periodic, an op only ever touches its first-period
        # banks, so (lengths, period, overhead, residual per-bank busy
        # offsets from cycle0) fully determines the op's stalls, end
        # cycle, and the banks' new busy offsets.  Sweeps repeat the same
        # op shape back-to-back, so the bank state reaches a fixed point
        # relative to the op start and this memo hits almost always.
        self._strip_service_memo: dict[tuple, tuple] = {}

    # -- model-specific hooks ---------------------------------------------------

    @property
    def stride_modulus(self) -> int:
        """Range bound for random strides: ``M`` here, ``C`` on a CC-model."""
        return self.config.num_banks

    def _element_cycles(
        self, address: int, load: VectorLoad, report: ExecutionReport,
        hit: bool | None = None,
    ) -> int:
        """Cycles consumed by one element beyond its 1-cycle issue slot.

        ``hit`` carries a pre-computed cache outcome from :meth:`_probe`
        (``None`` when the caller did not batch the probes, or on a
        cacheless machine, where it is ignored).
        """
        raise NotImplementedError

    @property
    def _probes_in_batches(self) -> bool:
        """Whether :meth:`_probe` can classify a whole chunk up front."""
        return True

    def _probe(self, addresses: np.ndarray) -> np.ndarray | None:
        """Cache outcomes of one chunk's load references, in issue order.

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

        ``operations`` is any iterable of :data:`~repro.machine.ops.Operation`,
        consumed lazily in chunks of at most :data:`CHUNK_REFS` references
        (see :meth:`_run_chunk`); ops are drawn a chunk ahead of their
        timing, so a generator feeding them must not read machine state.
        ``add_loop_overhead`` charges the per-block 10-cycle overhead once.
        """
        report = ExecutionReport()
        start = self._cycle
        if add_loop_overhead:
            self._cycle += self.config.loop_overhead
            report.overhead_cycles += self.config.loop_overhead
        if self._batched and self._probes_in_batches:
            for chunk in _chunks(operations):
                self._run_chunk(chunk, report)
        else:
            # the per-element reference: the scalar loop classifies each
            # element through ``cache.access`` inside ``_element_cycles``
            for op in operations:
                if isinstance(op, VectorLoad):
                    self._run_load_strips(op, None, report)
                elif isinstance(op, LoadPair):
                    self._run_load_strips(op.first, op.second, report)
                else:
                    self._run_other(op, report)
        report.cycles += self._cycle - start
        return report

    def _run_other(self, op: Operation, report: ExecutionReport) -> None:
        if isinstance(op, VectorStore):
            self._run_store(op, report)
        elif isinstance(op, VectorCompute):
            self._cycle += op.length
            report.elements += op.length
        else:
            raise TypeError(f"unknown operation {op!r}")

    def _strip_overhead(self, load: VectorLoad) -> int:
        """Start-up cycles of one strip (model-specific via override)."""
        return self.config.strip_overhead + self.config.t_start

    def _run_load_strips(
        self, first: VectorLoad, second: VectorLoad | None, report: ExecutionReport
    ) -> None:
        """One load operation on the per-element reference loop."""
        addr_first = first.address_array()
        addr_second = second.address_array() if second is not None else None
        self._run_load_scalar(first, second, addr_first, addr_second,
                              None, None, report)
        tail = _second_tail(first, second)
        if tail is not None:
            self._run_load_strips(tail, None, report)

    def _run_chunk(self, ops: list, report: ExecutionReport) -> None:
        """Time one chunk of operations on the batched engine.

        The chunk's load references are probed with a single
        ``access_many`` call in issue order — each pair's slots
        interleaved, then its first-stream remainder, then its
        second-stream tail (a standalone load, as in the reference).
        Cache state does not depend on the clock, so probing ahead of
        the timing is exact (stores and computes never touch the cache).

        Timing then walks the chunk.  Consecutive single-stream loads
        that cannot stall on themselves (see :meth:`_run_key`)
        and share a strip overhead and miss rule form a *run*, timed by
        :meth:`_run_loads` with one bank-service call.  Pairs and
        self-stalling loads go through :meth:`_run_load_batched` one op
        at a time.
        """
        pieces: list[np.ndarray] = []
        items: list[tuple] = []
        for op in ops:
            if isinstance(op, VectorLoad):
                addr = op.address_array()
                items.append((op, None, addr, None))
                pieces.append(addr)
            elif isinstance(op, LoadPair):
                first, second = op.first, op.second
                addr_first = first.address_array()
                addr_second = second.address_array()
                paired = min(first.length, second.length)
                interleaved = np.empty(2 * paired, dtype=np.int64)
                interleaved[0::2] = addr_first[:paired]
                interleaved[1::2] = addr_second[:paired]
                pieces += (interleaved, addr_first[paired:])
                items.append((first, second, addr_first, addr_second))
                tail = _second_tail(first, second)
                if tail is not None:
                    addr_tail = addr_second[first.length:]
                    items.append((tail, None, addr_tail, None))
                    pieces.append(addr_tail)
            else:
                items.append((op, None, None, None))
        addresses = np.concatenate(pieces) if pieces else None
        hits = self._probe(addresses) if pieces else None

        run: list[VectorLoad] = []
        run_key = None
        run_start = offset = 0
        for op, second, addr_first, addr_second in items:
            if addr_first is None:
                if run:
                    self._run_loads(run, addresses, hits, run_start, offset,
                                    report)
                    run = []
                self._run_other(op, report)
                continue
            if second is None:
                n = op.length
                hits_op = None if hits is None else hits[offset:offset + n]
                key = self._run_key(op, hits_op)
                if key is not None:
                    if run and key != run_key:
                        self._run_loads(run, addresses, hits, run_start,
                                        offset, report)
                        run = []
                    if not run:
                        run_key, run_start = key, offset
                    run.append(op)
                    offset += n
                    continue
            if run:
                self._run_loads(run, addresses, hits, run_start, offset,
                                report)
                run = []
            if second is None:
                hits_first, hits_second = hits_op, _NO_HITS
                offset += n
            else:
                n1 = op.length
                paired = min(n1, second.length)
                if hits is None:
                    hits_first = hits_second = None
                else:
                    slots = hits[offset:offset + n1 + paired]
                    hits_first = np.concatenate(
                        (slots[0:2 * paired:2], slots[2 * paired:]))
                    hits_second = slots[1:2 * paired:2]
                offset += n1 + paired
            if not self._run_load_batched(op, second, addr_first,
                                          addr_second, hits_first,
                                          hits_second, report):
                self._run_load_scalar(op, second, addr_first, addr_second,
                                      hits_first, hits_second, report)
        if run:
            self._run_loads(run, addresses, hits, run_start, offset, report)

    def _run_key(self, load: VectorLoad, hits) -> tuple | None:
        """Run-grouping key of a single-stream load, or ``None`` when it
        may stall on itself and must be timed alone.

        A load joins a run only if no two of its memory accesses to the
        same bank can sit closer than ``t_m`` nominal cycles:

        * a CC load that expects cached data pays a ``t_m`` stall after
          every miss, so any two of its accesses are over ``t_m`` apart;
        * otherwise its stride's exact bank period ``P`` (the gap between
          same-bank elements) must be at least ``t_m``, or the load must
          be too short to revisit a bank.

        Loads in one run also share their strip overhead and miss rule.
        Between loads every strip start adds at least ``t_m`` cycles of
        overhead on a pipelined load, but the bank-service call checks
        the same-bank gaps itself, so the grouping is a speed choice only.
        """
        expect = hits is not None and load.expect_cached
        if not expect:
            shape = (load.stride, load.length)
            clear = self._clears_itself.get(shape)
            if clear is None:
                period = self.memory.scheme.exact_stride_period(load.stride)
                clear = period is not None and (period >= self.config.t_m
                                                or load.length <= period)
                if len(self._clears_itself) < 4096:
                    self._clears_itself[shape] = clear
            if not clear:
                return None
        return self._strip_overhead(load), expect

    def _run_loads(
        self, run: list[VectorLoad], addresses, hits, start: int, stop: int,
        report: ExecutionReport,
    ) -> None:
        """Time a run of single-stream loads with one bank-service call.

        ``addresses[start:stop]`` (and ``hits[start:stop]`` on a cached
        machine) are the run's references in issue order.  The nominal
        schedule keeps every load's own strip overheads and, for loads
        that expect cached data, the ``t_m`` stall of each earlier miss;
        :meth:`~repro.memory.banks.InterleavedMemory.service_at` then
        adds the bank stalls, which push every later access back.
        """
        cycle0 = self._cycle
        buses = self.buses
        if (buses.read_buses[0]._next_free > cycle0
                or buses.read_buses[1]._next_free > cycle0):
            # a read bus lags the clock: the reference loop settles it
            for load in run:
                n = load.length
                self._run_load_scalar(
                    load, None, addresses[start:start + n], None,
                    None if hits is None else hits[start:start + n],
                    _NO_HITS, report)
                start += n
            return
        overhead = self._strip_overhead(run[0])
        strips, offsets = self._schedule(
            tuple(load.length for load in run), overhead)
        n = stop - start
        report.overhead_cycles += strips * overhead
        report.elements += n
        report.results += sum(load.length for load in run
                              if load.counts_results)
        run_addresses = addresses[start:stop]
        if hits is None:
            positions = None
            m = n
        else:
            positions = np.flatnonzero(~hits[start:stop])
            m = positions.size
            run_addresses = run_addresses[positions]
            report.cache_hits += n - m
            report.cache_misses += m
        expect = hits is not None and run[0].expect_cached
        end = cycle0 + strips * overhead + n
        if m:
            end += self._service_slots(cycle0, offsets, positions,
                                       run_addresses, expect, report)
        self._cycle = end
        buses.claim_reads_batch(0, n, end)

    def _schedule(self, lengths: tuple, overhead: int):
        """``(strips, offsets)`` of a stream through loads of ``lengths``
        slots: its ``MVL``-strip count, and each slot's nominal issue
        cycle from the stream's start (``overhead`` cycles at every strip
        start, then one cycle per slot).  Memoized: every sweep of a
        block repeats the same load shapes."""
        key = (overhead, lengths)
        schedule = self._schedules.get(key)
        if schedule is None:
            mvl = self.config.mvl
            strip_lengths = []
            for length in lengths:
                full, rest = divmod(length, mvl)
                strip_lengths += [mvl] * full
                if rest:
                    strip_lengths.append(rest)
            # the 1-based strip ordinal of every slot
            ordinal = np.repeat(
                np.arange(1, len(strip_lengths) + 1, dtype=np.int64),
                strip_lengths)
            offsets = overhead * ordinal + np.arange(ordinal.size,
                                                     dtype=np.int64)
            offsets.flags.writeable = False
            schedule = len(strip_lengths), offsets
            if len(self._schedules) < 256:
                self._schedules[key] = schedule
        return schedule

    def _service_slots(
        self, cycle0: int, offsets, positions, addresses, expect: bool,
        report: ExecutionReport,
    ) -> int:
        """Bank-service one stream's memory accesses in a single call.

        ``offsets`` is the stream's nominal slot schedule (see
        :meth:`_schedule`); ``positions`` (``None`` for every slot) are
        the slots that access memory, at ``addresses``.  With ``expect``
        each access is followed by a non-pipelined ``t_m`` stall.
        Returns the stall cycles the stream adds beyond its nominal
        ``strips * overhead + slots`` cycles.
        """
        t_m = self.config.t_m
        at = cycle0 + (offsets if positions is None else offsets[positions])
        m = at.size
        if expect:
            at += t_m * np.arange(m, dtype=np.int64)
        batch = self.memory.service_at(addresses, at)
        report.bank_stall_cycles += batch.stall_cycles
        if expect:
            report.miss_stall_cycles += t_m * m
            return batch.stall_cycles + t_m * m
        return batch.stall_cycles

    def _run_load_scalar(
        self,
        first: VectorLoad,
        second: VectorLoad | None,
        addr_first,
        addr_second,
        hits_first,
        hits_second,
        report: ExecutionReport,
    ) -> None:
        """Per-element reference loop: the semantics every batched mode of
        :meth:`_run_load_batched` must reproduce bit-for-bit, and the
        fallback for shapes no batched mode covers."""
        mvl = self.config.mvl
        addresses_first = addr_first.tolist()
        addresses_second = (addr_second.tolist()
                            if addr_second is not None else [])
        if hits_first is not None:
            hits_first = hits_first.tolist()
            hits_second = hits_second.tolist()
        for strip_start in range(0, first.length, mvl):
            overhead = self._strip_overhead(first)
            self._cycle += overhead
            report.overhead_cycles += overhead
            strip_first = addresses_first[strip_start:strip_start + mvl]
            strip_second = addresses_second[strip_start:strip_start + mvl]
            for k, address in enumerate(strip_first):
                issue = self.buses.request_read(self._cycle)
                self._cycle = max(self._cycle, issue)
                stall = self._element_cycles(
                    address, first, report,
                    None if hits_first is None else hits_first[strip_start + k],
                )
                if second is not None and k < len(strip_second):
                    self.buses.request_read(self._cycle)
                    stall += self._element_cycles(
                        strip_second[k], second, report,
                        None if hits_second is None
                        else hits_second[strip_start + k],
                    )
                self._cycle += 1 + stall
                report.elements += 1
                if first.counts_results:
                    report.results += 1
                if second is not None and k < len(strip_second):
                    report.elements += 1
                    if second.counts_results:
                        report.results += 1

    def _run_load_batched(
        self,
        first: VectorLoad,
        second: VectorLoad | None,
        addr_first,
        addr_second,
        hits_first,
        hits_second,
        report: ExecutionReport,
    ) -> bool:
        """Dispatch one load operation onto the vectorised strip engine.

        Returns ``False`` when no batched mode applies, in which case the
        caller runs the scalar reference loop.  Modes, in dispatch order:

        * both streams of a pair touch memory (every MM-machine pair; CC
          pairs where both streams miss) → :meth:`_run_pair_flat`, one
          kernel call;
        * no stream touches memory (CC all-hit op) → O(1) per strip;
        * one active stream with a contiguous all-miss prefix, pipelined
          misses and a bank period below ``t_m`` (a load that stalls on
          itself) → the strip-service memo, else per-strip
          :meth:`~repro.memory.banks.InterleavedMemory.service_many`
          closed form;
        * any other single active stream →
          :meth:`~repro.memory.banks.InterleavedMemory.service_at` over
          the miss subsequence (see :meth:`_service_slots`).

        The scalar loop still runs when a read bus could make a grant
        lag the clock (never the case for machine-issued streams, but
        guarded so hand-driven substrates keep exact semantics).
        """
        cycle0 = self._cycle
        buses = self.buses
        if (buses.read_buses[0]._next_free > cycle0
                or buses.read_buses[1]._next_free > cycle0):
            return False
        mem = self.memory
        mvl = self.config.mvl
        overhead = self._strip_overhead(first)
        t_m = self.config.t_m
        n1 = first.length
        paired = min(n1, second.length) if second is not None else 0
        if hits_first is not None:
            m1 = n1 - int(np.count_nonzero(hits_first))
            m2 = (paired - int(np.count_nonzero(hits_second[:paired]))
                  if second is not None else 0)
        else:
            m1, m2 = n1, paired
        if m1 and m2:
            self._run_pair_flat(first, second, addr_first, addr_second,
                                hits_first, hits_second, report)
            return True
        n_strips = -(-n1 // mvl)
        total_overhead = n_strips * overhead
        report.overhead_cycles += total_overhead
        report.elements += n1 + paired
        if first.counts_results:
            report.results += n1
        if second is not None and second.counts_results:
            report.results += paired
        if hits_first is not None:
            report.cache_hits += (n1 + paired) - m1 - m2
            report.cache_misses += m1 + m2
        if m1:
            m, load, array, hits_active = m1, first, addr_first, hits_first
        elif m2:
            m, load, array = m2, second, addr_second
            hits_active = hits_second[:paired]
        else:
            # pure cache traffic: overhead plus one cycle per slot
            self._cycle = cycle0 + total_overhead + n1
            buses.claim_reads_batch(paired, n1 - paired, self._cycle)
            return True
        expect = hits_first is not None and load.expect_cached
        prefix = hits_active is None or not bool(hits_active[:m].any())
        period = mem.scheme.exact_stride_period(load.stride)
        if (not expect and prefix and period is not None and period < t_m
                and m > period):
            # A pipelined all-miss prefix that stalls on itself.  The
            # op only ever touches the ``p_seen`` distinct banks of its
            # first period, whose residual busy offsets (relative to
            # cycle0) fully determine its stalls, end cycle, and the
            # banks' new busy offsets — sweeps repeat the same op shape
            # back-to-back and the bank state reaches a fixed point
            # relative to the op start, so replay the memoized outcome
            # when available.  A bank already free at cycle0 can never
            # stall the op and is overwritten by the op's own visits, so
            # negative offsets clamp to zero without changing the outcome.
            free = mem._bank_free_at
            first_list = mem.scheme.bank_of_batch(array[:period]).tolist()
            deltas = tuple(max(free[b] - cycle0, 0) for b in first_list)
            key = (n1, m, period, overhead, deltas)
            memo = self._strip_service_memo.get(key)
            if memo is not None:
                stall, end_off, new_deltas, bank_counts = memo
                for b, nd in zip(first_list, new_deltas):
                    free[b] = cycle0 + nd
                mem._record_batch(first_list, bank_counts, m, stall)
                report.bank_stall_cycles += stall
                end = cycle0 + end_off
                self._cycle = end
                buses.claim_reads_batch(paired, n1 - paired, end)
                return True
            bank_stall = 0
            cycle = cycle0
            for strip_start in range(0, n1, mvl):
                cycle += overhead
                strip_len = min(mvl, n1 - strip_start)
                active = min(m, strip_start + strip_len) - strip_start
                if active > 0:
                    batch = mem.service_many(
                        array[strip_start:strip_start + active], cycle,
                        stride=load.stride,
                    )
                    bank_stall += batch.stall_cycles
                    cycle = batch.final_cycle
                    cycle += strip_len - active
                else:
                    cycle += strip_len
            report.bank_stall_cycles += bank_stall
            if len(self._strip_service_memo) < 4096:
                free = mem._bank_free_at
                self._strip_service_memo[key] = (
                    bank_stall,
                    cycle - cycle0,
                    tuple(free[b] - cycle0 for b in first_list),
                    [(m - 1 - j) // period + 1
                     for j in range(len(first_list))],
                )
            self._cycle = cycle
            buses.claim_reads_batch(paired, n1 - paired, cycle)
            return True
        # sparse misses, conflict-stall sweeps, and prefixes whose bank
        # period covers t_m: one service_at call over the misses
        positions = None if hits_active is None else np.flatnonzero(~hits_active)
        accessed = array if positions is None else array[positions]
        _, offsets = self._schedule((n1,), overhead)
        end = cycle0 + total_overhead + n1 + self._service_slots(
            cycle0, offsets, positions, accessed, expect, report)
        self._cycle = end
        buses.claim_reads_batch(paired, n1 - paired, end)
        return True

    def _run_pair_flat(
        self,
        first: VectorLoad,
        second: VectorLoad,
        addr_first,
        addr_second,
        hits_first,
        hits_second,
        report: ExecutionReport,
    ) -> None:
        """Exact engine for pairs where both streams touch memory.

        One :func:`repro.kernels.pair_flat` call replicates the scalar
        reference cycle-for-cycle over the two streams' banks and hit
        flags: the per-element ``MemoryReply`` allocation and bus
        steering are bypassed, and stats/bus grants are claimed in one
        batch at the end.
        """
        mvl = self.config.mvl
        overhead = self._strip_overhead(first)
        t_m = self.memory.access_time
        cycle = self._cycle
        n1 = first.length
        paired = min(n1, second.length)
        pen1 = t_m if (hits_first is not None and first.expect_cached) else 0
        pen2 = t_m if (hits_second is not None and second.expect_cached) else 0
        mem = self.memory
        bank_of_batch = mem.scheme.bank_of_batch
        free_arr = np.asarray(mem._bank_free_at, dtype=np.int64)
        counts_arr = np.zeros(mem.num_banks, dtype=np.int64)
        state = np.zeros(5, dtype=np.int64)
        state[0] = cycle
        kernels.pair_flat(
            bank_of_batch(addr_first), bank_of_batch(addr_second),
            hits_first, hits_second, paired, mvl, overhead, t_m, pen1, pen2,
            free_arr, counts_arr, state,
        )
        cycle, bank_stall, miss_penalty, accesses, n_strips = state.tolist()
        mem._bank_free_at = free_arr.tolist()
        mem.stats.accesses += accesses
        mem.stats.stall_cycles += bank_stall
        mem.stats._bank_counts_batched += counts_arr
        report.overhead_cycles += n_strips * overhead
        report.bank_stall_cycles += bank_stall
        report.miss_stall_cycles += miss_penalty
        if hits_first is not None:
            hit_count = (int(np.count_nonzero(hits_first))
                         + int(np.count_nonzero(hits_second[:paired])))
            report.cache_hits += hit_count
            report.cache_misses += (n1 + paired) - hit_count
        report.elements += n1 + paired
        if first.counts_results:
            report.results += n1
        if second.counts_results:
            report.results += paired
        self.buses.claim_reads_batch(paired, n1 - paired, cycle)
        self._cycle = cycle

    def _run_store(self, op: VectorStore, report: ExecutionReport) -> None:
        if self.write_buffer is not None:
            if self._batched:
                stall, cycle = self.write_buffer.store_many(
                    op.address_array(), self._cycle
                )
                report.store_stall_cycles += stall
                report.elements += op.length
                self._cycle = cycle
                return
            for address in op.addresses():
                stall = self.write_buffer.store(address, self._cycle)
                report.store_stall_cycles += stall
                self._cycle += 1 + stall
                report.elements += 1
            return
        # the paper's assumption: buffered, never stalls — one store per
        # cycle, so the whole stream is a closed-form bank-queue update
        if self._batched and self.buses.write_bus._next_free <= self._cycle:
            self.memory.service_writes(op.address_array(), self._cycle,
                                       stride=op.stride)
            self.buses.write_bus.claim_batch(op.length, self._cycle + op.length)
            self._cycle += op.length
            report.elements += op.length
            return
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
        self, address: int, load: VectorLoad, report: ExecutionReport,
        hit: bool | None = None,
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

    def _strip_overhead(self, load: VectorLoad) -> int:
        base = self.config.strip_overhead + self.config.t_start
        if load.expect_cached:
            base -= self.config.t_m  # operands come from the cache
            if not self.start_registers:
                # re-fold the starting index instead of reading a register
                base += self.start_recalc_cycles
        return base

    @property
    def _probes_in_batches(self) -> bool:
        # A hit bitmap cannot carry which *level* served each access, and
        # the batched modes know nothing of L2 service stalls, so
        # hierarchical machines run the per-element reference loop (which
        # reads ``cache.last_level`` after each access).
        return (self._l2_time is None
                and getattr(self.cache, "access_many", None) is not None)

    def _probe(self, addresses: np.ndarray) -> np.ndarray:
        return self.cache.access_many(addresses, return_hits=True,
                                      backend=self._backend).hits

    def _element_cycles(
        self, address: int, load: VectorLoad, report: ExecutionReport,
        hit: bool | None = None,
    ) -> int:
        level = 1
        if hit is None:
            hit = self.cache.access(address).hit
            if hit and self._l2_time is not None:
                level = self.cache.last_level
        if hit:
            report.cache_hits += 1
            if level == 2:
                # served by L2: a non-pipelined stall like a short miss
                # penalty; the memory banks are never touched
                report.l2_hits += 1
                report.miss_stall_cycles += self._l2_time
                return self._l2_time
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
