"""Pure-Python provider of the compiled kernels.

This module *is* the kernel contract: the generated-C provider
(:mod:`repro.kernels.cext`) implements exactly these signatures and
semantics, and ``tests/kernels/test_provider_parity.py`` pins the two
against each other, returns and state arrays element for element.  It is
also what a host without a C compiler runs, so each kernel takes the
fastest pure-Python form of its loop: the one-way replay is a numpy
closed form for read-only batches and a list loop otherwise, the timing
loops run on plain lists, and Belady OPT is a dict loop.

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

from collections import defaultdict

import numpy as np

__all__ = [
    "replay_oneway", "replay_assoc", "mm_timing", "cc_timing",
    "pair_flat", "belady_opt",
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
