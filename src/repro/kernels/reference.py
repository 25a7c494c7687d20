"""Pure-Python provider of the compiled kernels.

This module *is* the kernel contract: the generated-C provider
(:mod:`repro.kernels.cext`) implements exactly these signatures and
semantics, and ``tests/kernels/test_provider_parity.py`` pins the two
against each other, returns and state arrays element for element.  It is
also what a host without a C compiler runs, so each kernel takes the
fastest pure-Python form of its loop: the one-way replay is a numpy
closed form for read-only batches and a list loop otherwise, the
two-level replay finds resident lines through dicts, the op-table
address expansion is numpy, the op-table timing loop walks only the slots
that touch memory, the other timing loops run on plain lists, the stack
distances are an ``OrderedDict`` LRU loop, and Belady OPT is a dict loop.

Shared conventions:

* all arrays are C-contiguous numpy arrays; ``int64`` for lines, sets,
  banks and per-bank state, ``uint8`` for flags (``writes``/``hits``/
  ``dirty``);
* the caller maps every reference before the call: replay kernels take a
  ``sets`` array (the cache's ``_map_sets_batch``), timing kernels a
  ``banks`` array (the interleave scheme's ``bank_of_batch``), so every
  index function and every interleave scheme runs on the same kernels;
* optional arrays are passed as ``None`` (read-only batch, no hit output,
  cacheless stream);
* state arrays are mutated in place so a caller can stream a trace chunk
  by chunk while the kernel state lives across calls.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, defaultdict

import numpy as np

from repro.machine.ops import (
    BASE1,
    BASE2,
    COMPUTE,
    KIND,
    LENGTH,
    LOAD,
    PAIRED,
    STORE,
    STRIDE1,
    STRIDE2,
    OpTable,
)

__all__ = [
    "replay_oneway", "replay_assoc", "replay_two_level", "stack_hits",
    "mm_timing", "cc_timing", "pair_flat", "op_addresses", "op_timing",
    "belady_opt",
]

name = "reference"
detail = "pure-Python fallback (install a C compiler for speed)"

# scratch for the one-way replay's duplicate-set test (content carries no
# meaning between calls; only same-call writes are read back)
_scratch = np.empty(0, dtype=np.intp)


def replay_oneway(lines, sets, writes, write_allocate, current, dirty,
                  hits_out):
    """One-way residency replay; returns ``(hits, misses, evictions)``.

    ``current``/``dirty`` are the per-set resident line (``-1`` empty)
    and dirty bit, updated in place; ``hits_out`` receives one flag per
    reference.
    """
    if writes is not None:
        return _replay_oneway_loop(lines, sets, writes, write_allocate,
                                   current, dirty, hits_out)
    # Read-only closed form: with a single way, the set's content before
    # access i is the line of the most recent earlier access to the same
    # set (every access, hit or miss, leaves its own line resident).  A
    # stable sort by set makes that predecessor the previous element of
    # each sort group, so the whole hit bitmap is one comparison.
    global _scratch
    n = lines.size
    if n == 0:
        return 0, 0, 0
    prev_unsorted = current[sets]
    hits = lines == prev_unsorted
    if hits.all():
        # Every access matches current residency, so the sequential
        # replay is all hits even with repeated sets (a repeat keeps
        # re-installing the very same line) and no state changes.
        if hits_out is not None:
            hits_out[:] = 1
        return n, 0, 0
    if _scratch.size < current.size:
        _scratch = np.empty(current.size, dtype=np.intp)
    idx = np.arange(n)
    _scratch[sets] = idx
    if bool((_scratch[sets] == idx).all()):
        # No set repeats inside the batch (scatter-then-gather read every
        # index back unchanged), so each access's predecessor is the
        # current residency itself.
        hit_count = int(np.count_nonzero(hits))
        miss = ~hits
        evictions = int(np.count_nonzero(miss & (prev_unsorted >= 0)))
        current[sets] = lines
        dirty[sets[miss]] = 0
        if hits_out is not None:
            hits_out[:] = hits
        return hit_count, n - hit_count, evictions
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=first[1:])
    prev = np.empty(n, dtype=np.int64)
    prev[1:] = sorted_lines[:-1]
    prev[first] = current[sorted_sets[first]]
    hits_sorted = sorted_lines == prev
    hit_count = int(np.count_nonzero(hits_sorted))
    miss_count = n - hit_count
    evictions = int(np.count_nonzero(~hits_sorted & (prev >= 0)))
    if hits_out is not None:
        hits_out[order] = hits_sorted
    if miss_count:
        # The last access of each sort group leaves its line resident; a
        # set's dirty mark survives only if the whole group hit (reads
        # never dirty, and every miss installs a clean line).
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        group_missed = np.logical_or.reduceat(~hits_sorted,
                                              np.flatnonzero(first))
        touched = sorted_sets[last]
        current[touched] = sorted_lines[last]
        dirty[touched[group_missed]] = 0
    return hit_count, miss_count, evictions


def _replay_oneway_loop(lines, sets, writes, write_allocate, current,
                        dirty, hits_out):
    """:func:`replay_oneway` for batches with stores, over plain lists."""
    sets_list = sets.tolist()
    writes_list = writes.tolist()
    cur = current.tolist()
    dirt = dirty.tolist()
    hit_list = [] if hits_out is not None else None
    append = hit_list.append if hit_list is not None else None
    hits = misses = evictions = 0
    for i, line in enumerate(lines.tolist()):
        s = sets_list[i]
        write = writes_list[i]
        if cur[s] == line:
            hits += 1
            if write:
                dirt[s] = 1
            if append is not None:
                append(1)
        else:
            misses += 1
            if not write or write_allocate:
                if cur[s] >= 0:
                    evictions += 1
                cur[s] = line
                dirt[s] = 1 if write else 0
            if append is not None:
                append(0)
    touched = list(set(sets_list))
    current[touched] = [cur[s] for s in touched]
    dirty[touched] = [dirt[s] for s in touched]
    if hits_out is not None:
        hits_out[:] = hit_list
    return hits, misses, evictions


def replay_assoc(lines, sets, writes, num_ways, write_allocate, lru, tick,
                 tags, stamps, dirty, hits_out):
    """N-way LRU/FIFO replay over flattened ``[set, way]`` state.

    ``tags[s*W+w]`` holds the resident line (``-1`` empty); ``stamps``
    carry recency (LRU bumps them on hits too, FIFO only on fills; the
    victim is the minimum-stamp way); ``tick`` is the next stamp value.
    A fill takes the lowest empty way.  Returns ``(hits, misses,
    evictions, tick)``.
    """
    hits = misses = evictions = 0
    sets_list = sets.tolist()
    writes_list = writes.tolist() if writes is not None else None
    for i, line in enumerate(lines.tolist()):
        base = sets_list[i] * num_ways
        wr = writes_list is not None and writes_list[i]
        way = -1
        for w in range(num_ways):
            if tags[base + w] == line:
                way = w
                break
        if way >= 0:
            hits += 1
            if lru:
                stamps[base + way] = tick
                tick += 1
            if wr:
                dirty[base + way] = 1
            if hits_out is not None:
                hits_out[i] = 1
        else:
            misses += 1
            if hits_out is not None:
                hits_out[i] = 0
            if not wr or write_allocate:
                slot = -1
                for w in range(num_ways):
                    if tags[base + w] < 0:
                        slot = w
                        break
                if slot < 0:
                    best = 0
                    for w in range(1, num_ways):
                        if stamps[base + w] < stamps[base + best]:
                            best = w
                    slot = best
                    evictions += 1
                tags[base + slot] = line
                dirty[base + slot] = 1 if wr else 0
                stamps[base + slot] = tick
                tick += 1
    return hits, misses, evictions, tick


#: what :func:`replay_two_level` raises for a set index outside L1
BAD_L1_SETS = "replay_two_level: a set index lies outside the L1 level"


def _fill_slot(tags, stamps, base, ways):
    """The slot a fill of the set starting at ``base`` takes: its lowest
    empty (``-1``) way, else its minimum-stamp way."""
    if ways == 1:
        return base
    ways_tags = tags[base:base + ways]
    if -1 in ways_tags:
        return base + ways_tags.index(-1)
    ways_stamps = stamps[base:base + ways]
    return base + ways_stamps.index(min(ways_stamps))


def _back_invalidate(where, tags, dirty, line):
    """Drop ``line``'s L1 copy, if any: inclusion after an L2 eviction."""
    slot = where.pop(line, None)
    if slot is not None:
        tags[slot] = -1
        dirty[slot] = 0


def replay_two_level(lines, sets, writes, write_allocate, l1, l2, hits_out):
    """Inclusive L1/L2 replay over two levels in :func:`replay_assoc`'s
    flattened ``[set, way]`` layout.

    ``l1`` and ``l2`` are each ``(ways, lru, tick, tags, stamps, dirty)``;
    ``stamps`` is ``None`` for a one-way level, whose tick never moves.
    ``sets`` holds each line's L1 set; both levels index by power-of-two
    modulo, so the set of a line in a level of ``S`` sets is ``line &
    (S - 1)``.  An L1 hit refreshes L1.  An L2 hit refreshes L2 and
    promotes the line into L1.  A full miss that allocates fills L2,
    drops the L2 victim's L1 copy (back-invalidation) and promotes.  A
    promotion takes L1's lowest empty way, else its minimum-stamp way,
    and a dirty L1 victim's dirt falls back into its L2 copy.  Only L2
    victims count as evictions.  Returns ``(hits, misses, evictions,
    l2_hits, tick1, tick2)``; raises ``ValueError`` (:data:`BAD_L1_SETS`)
    when a set lies outside L1.

    This form finds resident lines through a line-to-slot dict per level
    rather than scanning the set's ways.
    """
    ways1, lru1, tick1, tags1, stamps1, dirty1 = l1
    ways2, lru2, tick2, tags2, stamps2, dirty2 = l2
    sets1 = tags1.size // ways1
    if lines.size and not 0 <= int(sets.min()) <= int(sets.max()) < sets1:
        raise ValueError(BAD_L1_SETS)
    mask2 = tags2.size // ways2 - 1
    t1, d1, t2, d2 = (tags1.tolist(), dirty1.tolist(), tags2.tolist(),
                      dirty2.tolist())
    st1 = None if stamps1 is None else stamps1.tolist()
    st2 = None if stamps2 is None else stamps2.tolist()
    lru1 = lru1 and st1 is not None
    lru2 = lru2 and st2 is not None
    where1 = {line: slot for slot, line in enumerate(t1) if line >= 0}
    where2 = {line: slot for slot, line in enumerate(t2) if line >= 0}
    sets_list = sets.tolist()
    writes_list = writes.tolist() if writes is not None else None
    flags = []
    flag = flags.append
    hits = misses = evictions = l2_hits = 0
    for i, line in enumerate(lines.tolist()):
        wr = writes_list is not None and writes_list[i]
        slot = where1.get(line)
        if slot is not None:
            hits += 1
            if lru1:
                st1[slot] = tick1
                tick1 += 1
            if wr:
                d1[slot] = 1
            flag(1)
            continue
        slot = where2.get(line)
        if slot is not None:
            hits += 1
            l2_hits += 1
            if lru2:
                st2[slot] = tick2
                tick2 += 1
            flag(1)
        else:
            misses += 1
            flag(0)
            if wr and not write_allocate:
                continue
            slot = _fill_slot(t2, st2, (line & mask2) * ways2, ways2)
            victim = t2[slot]
            if victim >= 0:
                evictions += 1
                del where2[victim]
                _back_invalidate(where1, t1, d1, victim)
            t2[slot] = line
            d2[slot] = 0
            where2[line] = slot
            if st2 is not None:
                st2[slot] = tick2
                tick2 += 1
        slot = _fill_slot(t1, st1, sets_list[i] * ways1, ways1)
        victim = t1[slot]
        if victim >= 0:
            del where1[victim]
            if d1[slot] and victim in where2:
                d2[where2[victim]] = 1
        t1[slot] = line
        d1[slot] = 1 if wr else 0
        where1[line] = slot
        if st1 is not None:
            st1[slot] = tick1
            tick1 += 1
    tags1[:] = t1
    dirty1[:] = d1
    tags2[:] = t2
    dirty2[:] = d2
    if st1 is not None:
        stamps1[:] = st1
    if st2 is not None:
        stamps2[:] = st2
    if hits_out is not None:
        hits_out[:] = flags
    return hits, misses, evictions, l2_hits, tick1, tick2


def stack_hits(lines, recent, capacity, cold_out):
    """Mattson stack hits of ``lines`` against a ``capacity``-line LRU.

    ``recent`` holds the distinct lines of the history before the batch,
    at most ``capacity`` of them, oldest first.  Returns ``(hits,
    new_recent)``: ``hits[j]`` is ``True`` when ``lines[j]`` is among the
    ``capacity`` most recently used distinct lines before it (its stack
    distance is below ``capacity``), and ``new_recent`` is the
    ``capacity`` most recently used distinct lines after the batch,
    oldest first.  ``cold_out`` (or ``None``) receives a flag per line:
    set when the line has no earlier use in ``recent`` or the batch.
    This form is the fully-associative LRU shadow itself: an
    ``OrderedDict`` that moves each reused line to its end and drops its
    first entry past ``capacity``.
    """
    lru = OrderedDict.fromkeys(recent.tolist())
    move_to_end = lru.move_to_end
    popitem = lru.popitem
    history = set(lru)
    hits = []
    cold = []
    for line in lines.tolist():
        if line in lru:
            move_to_end(line)
            hits.append(True)
            cold.append(False)
        else:
            lru[line] = None
            if len(lru) > capacity:
                popitem(last=False)
            hits.append(False)
            cold.append(line not in history)
            history.add(line)
    if cold_out is not None:
        cold_out[:] = cold
    return (np.array(hits, dtype=bool),
            np.fromiter(lru, dtype=np.int64, count=len(lru)))


def mm_timing(banks, writes, t_m, free_at, counts, state):
    """MM-machine per-access timing.

    ``state`` = ``[cycle, bank_stall, write_stall, reads, writes_seen,
    last_read0, last_read1, last_write]``; mutated in place along with
    the per-bank ``free_at``/``counts``.  A bank stall delays a read and
    every later reference; a store is buffered, so its stall delays only
    the bank.
    """
    (cycle, bank_stall, write_stall, reads, writes_seen,
     last_read0, last_read1, last_write) = state.tolist()
    free = free_at.tolist()
    count = counts.tolist()
    writes_list = writes.tolist() if writes is not None else None
    for i, bank in enumerate(banks.tolist()):
        ready = free[bank]
        stall = ready - cycle if ready > cycle else 0
        free[bank] = cycle + stall + t_m
        count[bank] += 1
        if writes_list is not None and writes_list[i]:
            write_stall += stall
            writes_seen += 1
            last_write = cycle
            cycle += 1
        else:
            bank_stall += stall
            if reads & 1:
                last_read1 = cycle
            else:
                last_read0 = cycle
            reads += 1
            cycle += 1 + stall
    free_at[:] = free
    counts[:] = count
    state[:] = (cycle, bank_stall, write_stall, reads, writes_seen,
                last_read0, last_read1, last_write)


def cc_timing(banks, writes, hits, kinds, mem_t_m, cc_t_m, compulsory,
              free_at, counts, state):
    """CC-machine per-access timing over precomputed probe outcomes.

    ``state`` = ``[cycle, cache_hits, misses, bank_stall, conflicts,
    writes_seen, last_read0, last_read1, last_write]``; only read misses
    touch the banks, and compulsory misses skip the ``cc_t_m`` penalty.
    """
    (cycle, cache_hits, misses, bank_stall, conflicts, writes_seen,
     last_read0, last_read1, last_write) = state.tolist()
    free = free_at.tolist()
    count = counts.tolist()
    writes_list = writes.tolist() if writes is not None else None
    hits_list = hits.tolist()
    kinds_list = kinds.tolist()
    for i, bank in enumerate(banks.tolist()):
        if writes_list is not None and writes_list[i]:
            writes_seen += 1
            last_write = cycle
            cycle += 1
            continue
        if hits_list[i]:
            cache_hits += 1
            cycle += 1
            continue
        ready = free[bank]
        stall = ready - cycle if ready > cycle else 0
        free[bank] = cycle + stall + mem_t_m
        count[bank] += 1
        bank_stall += stall
        if misses & 1:
            last_read1 = cycle
        else:
            last_read0 = cycle
        misses += 1
        if kinds_list[i] == compulsory:
            cycle += 1 + stall
        else:
            conflicts += 1
            cycle += 1 + stall + cc_t_m
    free_at[:] = free
    counts[:] = count
    state[:] = (cycle, cache_hits, misses, bank_stall, conflicts,
                writes_seen, last_read0, last_read1, last_write)


def pair_flat(b1, b2, h1, h2, paired, mvl, overhead, t_m, pen1, pen2,
              free_at, counts, state):
    """Strip-level engine for a load pair whose streams both touch memory.

    ``b1``/``b2`` are the two streams' banks, ``h1``/``h2`` their hit
    flags (``None`` on a cacheless machine); the first ``paired`` slots
    issue one element of each stream.  ``state`` = ``[cycle, bank_stall,
    miss_penalty, accesses, n_strips]``.
    """
    cycle, bank_stall, miss_penalty, accesses, n_strips = state.tolist()
    free = free_at.tolist()
    count = counts.tolist()
    n1 = b1.size
    b1_list = b1.tolist()
    b2_list = b2.tolist()
    h1_list = h1.tolist() if h1 is not None else None
    h2_list = h2.tolist() if h2 is not None else None
    for strip in range(0, n1, mvl):
        n_strips += 1
        cycle += overhead
        for k in range(strip, min(strip + mvl, n1)):
            stall = 0
            if h1_list is None or not h1_list[k]:
                bank = b1_list[k]
                ready = free[bank]
                wait = ready - cycle if ready > cycle else 0
                free[bank] = cycle + wait + t_m
                count[bank] += 1
                accesses += 1
                bank_stall += wait
                stall = wait + pen1
                miss_penalty += pen1
            if k < paired and (h2_list is None or not h2_list[k]):
                bank = b2_list[k]
                ready = free[bank]
                wait = ready - cycle if ready > cycle else 0
                free[bank] = cycle + wait + t_m
                count[bank] += 1
                accesses += 1
                bank_stall += wait
                stall += wait + pen2
                miss_penalty += pen2
            cycle += 1 + stall
    free_at[:] = free
    counts[:] = count
    state[:] = (cycle, bank_stall, miss_penalty, accesses, n_strips)


#: what the op-table kernels raise for rows or arrays that do not match
BAD_OP_ROWS = ("op-table rows malformed, or not matching their reference "
               "counts or bank range")


def _check_op_rows(rows, n_load, n_refs, banks=None, n_banks=0):
    """Raise ``ValueError`` unless ``rows`` are well-formed op-table rows
    holding ``n_load`` load references and ``n_refs`` in all, and every
    bank lies in ``0 .. n_banks - 1``."""
    try:
        refs = OpTable(rows).refs()
    except ValueError:
        raise ValueError(BAD_OP_ROWS) from None
    if (int(refs[rows[:, KIND] == LOAD].sum()) != n_load
            or int(refs.sum()) != n_refs
            or (banks is not None and banks.size
                and not 0 <= int(banks.min()) <= int(banks.max()) < n_banks)):
        raise ValueError(BAD_OP_ROWS)


def _ramps(lengths):
    """``(row, k)`` for every element of rows of ``lengths`` elements:
    the element's row index and its index within the row."""
    row = np.repeat(np.arange(lengths.size), lengths)
    starts = np.cumsum(lengths) - lengths
    return row, np.arange(row.size, dtype=np.int64) - starts[row]


def op_addresses(rows, n_load, n_refs):
    """Expand :class:`~repro.machine.ops.OpTable` rows into addresses.

    Returns ``n_refs`` int64 addresses: the load rows' references from
    index 0 in probe order (each row's paired slots as first-stream,
    second-stream pairs, then the first stream's remainder), and the
    store rows' elements from index ``n_load``, both in row order.
    Raises ``ValueError`` (:data:`BAD_OP_ROWS`) for malformed rows or
    counts that do not match them.
    """
    _check_op_rows(rows, n_load, n_refs)
    out = np.empty(n_refs, dtype=np.int64)
    kind = rows[:, KIND]
    loads = rows[kind == LOAD]
    n1, paired = loads[:, LENGTH], loads[:, PAIRED]
    starts = np.cumsum(n1 + paired) - (n1 + paired)
    row, k = _ramps(n1)
    p = paired[row]
    out[starts[row] + np.where(k < p, 2 * k, p + k)] = (
        loads[row, BASE1] + k * loads[row, STRIDE1])
    row, k = _ramps(paired)
    out[starts[row] + 2 * k + 1] = loads[row, BASE2] + k * loads[row, STRIDE2]
    stores = rows[kind == STORE]
    row, k = _ramps(stores[:, LENGTH])
    out[n_load:] = stores[row, BASE1] + k * stores[row, STRIDE1]
    return out


def op_timing(rows, n_load, banks, hits, mvl, overhead, cached_overhead,
              t_bank, penalty, free_at, counts, state):
    """Time :class:`~repro.machine.ops.OpTable` rows on the vector machine.

    A transliteration of the per-element object-model machine
    (:class:`~repro.machine.vector_machine.VectorMachine` on the
    ``scalar`` backend).  ``banks`` maps the rows' references in
    :func:`op_addresses` order; ``hits`` holds the load references'
    cache outcomes (``None`` on a cacheless machine, where every load
    reference goes to memory).  A load row runs in strips of ``mvl``
    slots, each strip paying ``cached_overhead`` cycles if the first
    stream expects cached data, else ``overhead``; a slot issues its
    first-stream element and, among the ``paired`` leading slots, its
    second-stream element at the same cycle.  A reference that goes to
    memory waits for its bank, which it then holds ``t_bank`` cycles;
    the slot takes one cycle plus its references' bank waits, plus
    ``penalty`` per miss of a stream that expects cached data.  Every
    element requests a read bus, the earlier-free one (ties to bus 0),
    exactly as :meth:`~repro.memory.bus.BusSet.request_read` steers.  A
    store element occupies its bank at its issue cycle and the write
    bus, and the pipeline moves on the next cycle (the bank-side queueing
    lands in ``store_queue``); a compute costs its length.

    ``state`` = ``[cycle, elements, results, overhead_cycles,
    bank_stall_cycles, miss_stall_cycles, cache_hits, cache_misses,
    accesses, store_queue, read_free0, read_free1, reads0, reads1,
    write_free, writes]``; mutated in place along with the per-bank
    ``free_at``/``counts``.  Precondition: no bus is busy past the
    clock (``read_free0``, ``read_free1`` and ``write_free`` at most
    ``cycle``), so every bus grant comes at its request cycle.  Raises
    ``ValueError`` (:data:`BAD_OP_ROWS`) for malformed rows, rows that do
    not hold ``n_load`` load references and ``banks.size`` in all, or a
    bank outside ``free_at``; the arrays are then unspecified.

    This form walks only the slots that touch memory: the clock crosses
    hit slots and strip starts in closed form, and the read buses'
    alternation is settled per row.
    """
    _check_op_rows(rows, n_load, banks.size, banks, free_at.size)
    (cycle, elements, results, overhead_cycles, bank_stall, miss_stall,
     cache_hits, cache_misses, accesses, store_queue, read_free0,
     read_free1, reads0, reads1, write_free, writes) = state.tolist()
    free = free_at.tolist()
    count = counts.tolist()
    bank_list = banks.tolist()
    if hits is not None:
        # probe indexes of the load references that go to memory
        memory_refs = np.flatnonzero(hits[:n_load] == 0).tolist()
    cursor = 0
    load_at = 0
    store_at = n_load
    for kind, length, paired, _, _, _, _, expect1, counts1, expect2, \
            counts2 in rows.tolist():
        if kind == COMPUTE:
            cycle += length
            elements += length
            continue
        if kind == STORE:
            for bank in bank_list[store_at:store_at + length]:
                ready = free[bank]
                if ready > cycle:
                    store_queue += ready - cycle
                    free[bank] = ready + t_bank
                else:
                    free[bank] = cycle + t_bank
                count[bank] += 1
                cycle += 1
            store_at += length
            accesses += length
            elements += length
            writes += length
            write_free = cycle
            continue
        ov = cached_overhead if expect1 else overhead
        refs = length + paired
        end = load_at + refs
        if hits is None:
            row_refs = range(load_at, end)
            touched = refs
            pen1 = pen2 = 0
        else:
            start = cursor
            cursor = bisect_left(memory_refs, end, start)
            row_refs = memory_refs[start:cursor]
            touched = cursor - start
            cache_hits += refs - touched
            cache_misses += touched
            pen1 = penalty if expect1 else 0
            pen2 = penalty if expect2 else 0
        accesses += touched
        twice = 2 * paired
        slot = prev_slot = -1
        slot_cycle = slot_stall = prev_stall = 0
        stalled = 0          # stall cycles of the slots before ``slot``
        for j in row_refs:
            offset = j - load_at
            if offset < twice:
                k = offset >> 1
                pen = pen2 if offset & 1 else pen1
            else:
                k = offset - paired
                pen = pen1
            if k != slot:
                stalled += slot_stall
                prev_slot, prev_stall = slot, slot_stall
                slot, slot_stall = k, 0
                slot_cycle = cycle + ov * (k // mvl + 1) + k + stalled
            bank = bank_list[j]
            ready = free[bank]
            if ready > slot_cycle:
                wait = ready - slot_cycle
                bank_stall += wait
                slot_stall += wait + pen
                free[bank] = ready + t_bank
            else:
                slot_stall += pen
                free[bank] = slot_cycle + t_bank
            count[bank] += 1
            miss_stall += pen
        stalled += slot_stall
        # the issue cycles of the row's last two slots (whose stalls are
        # 0 unless they touched memory) settle the read buses
        tail_stalls = {prev_slot: prev_stall, slot: slot_stall}
        final = length - 1
        last = tail_stalls.get(final, 0)
        before_last = tail_stalls.get(final - 1, 0)
        last_issue = (cycle + ov * (final // mvl + 1) + final
                      + stalled - last)
        before_issue = (cycle + ov * ((final - 1) // mvl + 1) + final - 1
                        + stalled - last - before_last)
        strips = -(-length // mvl)
        overhead_cycles += strips * ov
        cycle += strips * ov + length + stalled
        load_at = end
        elements += refs
        results += counts1 * length + counts2 * paired
        singles = length - paired
        reads0 += paired
        reads1 += paired
        if not singles:
            read_free0 = read_free1 = last_issue + 1
            continue
        # singles alternate buses from the earlier-free one (ties, as
        # after a paired slot, go to bus 0)
        lead0 = paired > 0 or read_free0 <= read_free1
        if lead0:
            reads0 += (singles + 1) // 2
            reads1 += singles // 2
        else:
            reads1 += (singles + 1) // 2
            reads0 += singles // 2
        if lead0 == bool(singles & 1):
            read_free0 = last_issue + 1
            if length > 1:
                read_free1 = before_issue + 1
        else:
            read_free1 = last_issue + 1
            if length > 1:
                read_free0 = before_issue + 1
    free_at[:] = free
    counts[:] = count
    state[:] = (cycle, elements, results, overhead_cycles, bank_stall,
                miss_stall, cache_hits, cache_misses, accesses, store_queue,
                read_free0, read_free1, reads0, reads1, write_free, writes)


def belady_opt(lines, sets, next_use, num_ways, tags, nu, ins):
    """Belady OPT over precomputed sets and next-use indexes.

    ``tags``/``nu``/``ins`` are flattened ``[set, way]`` state that must
    arrive empty (``tags`` all ``-1``) and leave holding the final
    residency: resident line, its next-use index, its insertion stamp
    (the fill's ordinal among all fills).  A fill takes the lowest empty
    way, else the way of the victim: the farthest next use, ties going to
    the earliest-inserted line — the first maximum in a set dict's
    insertion order.  Returns ``(hits, misses, evictions)``.
    """
    hits = misses = evictions = 0
    resident: dict[int, dict[int, int]] = defaultdict(dict)
    placed: dict[tuple[int, int], tuple[int, int]] = {}
    sets_list = sets.tolist()
    nu_list = next_use.tolist()
    for i, line in enumerate(lines.tolist()):
        s = sets_list[i]
        content = resident[s]
        if line in content:
            hits += 1
            content[line] = nu_list[i]
            continue
        if len(content) >= num_ways:
            victim = max(content, key=content.__getitem__)
            del content[victim]
            way = placed.pop((s, victim))[0]
            evictions += 1
        else:
            way = len(content)
        content[line] = nu_list[i]
        placed[(s, line)] = (way, misses)
        misses += 1
    for (s, line), (way, stamp) in placed.items():
        slot = s * num_ways + way
        tags[slot] = line
        nu[slot] = resident[s][line]
        ins[slot] = stamp
    return hits, misses, evictions
