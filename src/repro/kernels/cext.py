"""Generated-C kernel provider: compile once with the system C compiler.

The hot loops below are a single C translation unit, built on first use
with whatever ``cc``/``gcc``/``clang`` the host provides and bound
through :mod:`ctypes`.  The shared object is cached under
``~/.cache/repro/kernels`` (override with ``REPRO_KERNEL_CACHE``) keyed by
a hash of the source, so the build cost is paid once per source
revision, not per process.

Every entry point mirrors a kernel of :mod:`repro.kernels.reference`,
which documents the contract; ``tests/kernels/test_provider_parity.py``
pins the two element for element.  Any failure here — no compiler,
build error, load error, self-test mismatch — makes :func:`load` return
``None`` and the dispatcher falls back to the reference provider.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels.reference import BAD_L1_SETS, BAD_OP_ROWS

__all__ = ["load", "build_error"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* One-way (direct/prime-mapped) residency replay: sets[i] is the set of
 * lines[i], current[s] the resident line of set s (-1 empty), dirty[s]
 * its dirty bit.  writes/hits_out may be NULL.
 * out = {hits, misses, evictions}. */
void repro_replay_oneway(const int64_t *lines, const int64_t *sets,
                         const uint8_t *writes, int64_t n,
                         int64_t write_allocate, int64_t *current,
                         uint8_t *dirty, uint8_t *hits_out, int64_t *out) {
    int64_t hits = 0, misses = 0, evictions = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t s = sets[i];
        int wr = writes != 0 && writes[i];
        int hit = current[s] == line;
        if (hit) {
            hits++;
            if (wr)
                dirty[s] = 1;
        } else {
            misses++;
            if (!wr || write_allocate) {
                if (current[s] >= 0)
                    evictions++;
                current[s] = line;
                dirty[s] = wr ? 1 : 0;
            }
        }
        if (hits_out != 0)
            hits_out[i] = (uint8_t)hit;
    }
    out[0] = hits;
    out[1] = misses;
    out[2] = evictions;
}

/* N-way LRU/FIFO replay over flattened per-way state: tags[s*W+w] is the
 * resident line (-1 empty), stamps[s*W+w] the recency/insertion stamp
 * (LRU updates it on hits too, FIFO only on fills; victim = min stamp),
 * dirty[s*W+w] the dirty bit.  out = {hits, misses, evictions, tick}. */
void repro_replay_assoc(const int64_t *lines, const int64_t *sets,
                        const uint8_t *writes, int64_t n, int64_t num_ways,
                        int64_t write_allocate, int64_t lru, int64_t tick,
                        int64_t *tags, int64_t *stamps, uint8_t *dirty,
                        uint8_t *hits_out, int64_t *out) {
    int64_t hits = 0, misses = 0, evictions = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t base = sets[i] * num_ways;
        int wr = writes != 0 && writes[i];
        int64_t way = -1;
        for (int64_t w = 0; w < num_ways; w++) {
            if (tags[base + w] == line) {
                way = w;
                break;
            }
        }
        if (way >= 0) {
            hits++;
            if (lru)
                stamps[base + way] = tick++;
            if (wr)
                dirty[base + way] = 1;
            if (hits_out != 0)
                hits_out[i] = 1;
        } else {
            misses++;
            if (hits_out != 0)
                hits_out[i] = 0;
            if (!wr || write_allocate) {
                int64_t slot = -1;
                for (int64_t w = 0; w < num_ways; w++) {
                    if (tags[base + w] < 0) {
                        slot = w;
                        break;
                    }
                }
                if (slot < 0) {
                    int64_t best = 0;
                    for (int64_t w = 1; w < num_ways; w++) {
                        if (stamps[base + w] < stamps[base + best])
                            best = w;
                    }
                    slot = best;
                    evictions++;
                }
                tags[base + slot] = line;
                dirty[base + slot] = wr ? 1 : 0;
                stamps[base + slot] = tick++;
            }
        }
    }
    out[0] = hits;
    out[1] = misses;
    out[2] = evictions;
    out[3] = tick;
}

/* One level of an inclusive hierarchy in replay_assoc's flattened
 * per-way layout (stamps NULL for a one-way level), its LRU flag and next
 * stamp, and mask = sets - 1 for power-of-two indexing. */
typedef struct {
    int64_t *tags, *stamps;
    uint8_t *dirty;
    int64_t ways, mask, lru, tick;
} cache_level;

/* The way of `line` in the set starting at slot `base`, or -1. */
static int64_t level_find(const cache_level *lv, int64_t base,
                          int64_t line) {
    for (int64_t w = 0; w < lv->ways; w++)
        if (lv->tags[base + w] == line)
            return w;
    return -1;
}

/* The way a fill of the set at `base` takes: the lowest empty way, else
 * the minimum-stamp way. */
static int64_t level_slot(const cache_level *lv, int64_t base) {
    for (int64_t w = 0; w < lv->ways; w++)
        if (lv->tags[base + w] < 0)
            return w;
    int64_t best = 0;
    for (int64_t w = 1; w < lv->ways; w++)
        if (lv->stamps[base + w] < lv->stamps[base + best])
            best = w;
    return best;
}

/* A hit at way `way` of the set at `base`: LRU restamps it. */
static void level_touch(cache_level *lv, int64_t base, int64_t way) {
    if (lv->lru && lv->stamps != 0)
        lv->stamps[base + way] = lv->tick++;
}

/* Install `line` at way `slot` of the set at `base`. */
static void level_put(cache_level *lv, int64_t base, int64_t slot,
                      int64_t line, uint8_t dirty) {
    lv->tags[base + slot] = line;
    lv->dirty[base + slot] = dirty;
    if (lv->stamps != 0)
        lv->stamps[base + slot] = lv->tick++;
}

/* Inclusive L1/L2 replay: sets[i] is the L1 set of lines[i]; both levels
 * index by power-of-two modulo (set = line & mask).  An L1 hit refreshes
 * L1; an L2 hit refreshes L2 and promotes the line into L1; a full miss
 * that allocates fills L2, drops the L2 victim's L1 copy
 * (back-invalidation) and promotes.  A promotion's dirty L1 victim
 * writes its dirt back into its L2 copy.  out = {hits, misses,
 * evictions (L2 victims), l2_hits, tick1, tick2}.  Returns 0, or -1 when
 * a set lies outside L1 (the arrays are then unspecified). */
int64_t repro_replay_two_level(
        const int64_t *lines, const int64_t *sets, const uint8_t *writes,
        int64_t n, int64_t write_allocate,
        int64_t *tags1, int64_t *stamps1, uint8_t *dirty1, int64_t sets1,
        int64_t ways1, int64_t lru1, int64_t tick1,
        int64_t *tags2, int64_t *stamps2, uint8_t *dirty2, int64_t sets2,
        int64_t ways2, int64_t lru2, int64_t tick2,
        uint8_t *hits_out, int64_t *out) {
    cache_level l1 = {tags1, stamps1, dirty1, ways1, sets1 - 1, lru1, tick1};
    cache_level l2 = {tags2, stamps2, dirty2, ways2, sets2 - 1, lru2, tick2};
    int64_t hits = 0, misses = 0, evictions = 0, l2_hits = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i], s = sets[i];
        if (s < 0 || s >= sets1)
            return -1;
        int wr = writes != 0 && writes[i];
        int64_t base1 = s * ways1;
        int64_t way = level_find(&l1, base1, line);
        if (way >= 0) {
            hits++;
            level_touch(&l1, base1, way);
            if (wr)
                dirty1[base1 + way] = 1;
            if (hits_out != 0)
                hits_out[i] = 1;
            continue;
        }
        int64_t base2 = (line & l2.mask) * ways2;
        way = level_find(&l2, base2, line);
        if (hits_out != 0)
            hits_out[i] = way >= 0;
        if (way >= 0) {
            hits++;
            l2_hits++;
            level_touch(&l2, base2, way);
        } else {
            misses++;
            if (wr && !write_allocate)
                continue;
            int64_t slot = level_slot(&l2, base2);
            int64_t victim = tags2[base2 + slot];
            if (victim >= 0) {
                evictions++;
                int64_t vbase = (victim & l1.mask) * ways1;
                int64_t vway = level_find(&l1, vbase, victim);
                if (vway >= 0) {
                    tags1[vbase + vway] = -1;
                    dirty1[vbase + vway] = 0;
                }
            }
            level_put(&l2, base2, slot, line, 0);
        }
        int64_t slot = level_slot(&l1, base1);
        int64_t victim = tags1[base1 + slot];
        if (victim >= 0 && dirty1[base1 + slot]) {
            int64_t vbase = (victim & l2.mask) * ways2;
            int64_t vway = level_find(&l2, vbase, victim);
            if (vway >= 0)
                dirty2[vbase + vway] = 1;
        }
        level_put(&l1, base1, slot, line, (uint8_t)wr);
    }
    out[0] = hits;
    out[1] = misses;
    out[2] = evictions;
    out[3] = l2_hits;
    out[4] = l1.tick;
    out[5] = l2.tick;
    return 0;
}

/* Open-addressing table entry of the stack kernel: a line and the
 * history position of its last use (-1: empty entry). */
typedef struct {
    int64_t line;
    int64_t last;
} stack_entry;

/* Entry of `line` in a table of `mask + 1` entries (a power of two): its
 * own, or the empty one it would take.  Fibonacci hashing spreads
 * strided lines over the table. */
static int64_t stack_slot(const stack_entry *table, int64_t mask, int shift,
                          int64_t line) {
    int64_t h = (int64_t)(((uint64_t)line * 0x9E3779B97F4A7C15ull) >> shift);
    while (table[h].last >= 0 && table[h].line != line)
        h = (h + 1) & mask;
    return h;
}

/* Mattson stack hits over the history recent[0..r) ++ lines[0..n):
 * hits_out[j] = 1 when lines[j] is among the `capacity` most recently
 * used distinct lines before it (stack distance < capacity).  recent
 * holds r distinct lines, oldest first.  Bennett-Kruskal: a Fenwick
 * tree over history positions marks each line's last use, so a reuse's
 * distance is the number of marks after its previous use (a reuse fewer
 * than `capacity` positions back is a hit without the count).  The
 * table maps each line to its last use.  cold_out (may be NULL) receives
 * 1 where lines[j] has no earlier use in the history.
 * new_recent[0..*new_r) receives the `capacity` most recently used
 * distinct lines, oldest first.  Returns 0, or -1 when the scratch
 * cannot be allocated. */
int64_t repro_stack_hits(const int64_t *lines, int64_t n,
                         const int64_t *recent, int64_t r, int64_t capacity,
                         uint8_t *hits_out, uint8_t *cold_out,
                         int64_t *new_recent, int64_t *new_r) {
    int64_t m = r + n, size = 16;
    int shift = 60;
    while (size < m + m / 2) {
        size <<= 1;
        shift--;
    }
    int64_t mask = size - 1;
    stack_entry *table = malloc(size * sizeof(stack_entry));
    int32_t *tree = malloc((m + 1) * sizeof(int32_t));
    if (table == 0 || tree == 0) {
        free(table);
        free(tree);
        return -1;
    }
    for (int64_t i = 0; i < size; i++)
        table[i].last = -1;
    /* history position k is tree index k + 1; node i sums (i - lowbit, i],
     * and the marks start on the r recent lines */
    for (int64_t i = 1; i <= m; i++) {
        int64_t lo = i - (i & -i), hi = i < r ? i : r;
        tree[i] = hi > lo ? (int32_t)(hi - lo) : 0;
    }
    for (int64_t k = 0; k < r; k++) {
        stack_entry *e = table + stack_slot(table, mask, shift, recent[k]);
        e->line = recent[k];
        e->last = k;
    }
    int64_t marks = r;
    for (int64_t j = 0; j < n; j++) {
        int64_t pos = r + j, line = lines[j];
        stack_entry *e = table + stack_slot(table, mask, shift, line);
        int64_t prev = e->last;
        uint8_t hit = 0;
        if (prev >= 0) {
            if (pos - prev <= capacity) {
                hit = 1;
            } else {
                int64_t upto = 0;
                for (int64_t i = prev + 1; i > 0; i -= i & -i)
                    upto += tree[i];
                hit = marks - upto < capacity;
            }
            for (int64_t i = prev + 1; i <= m; i += i & -i)
                tree[i]--;
        } else {
            e->line = line;
            marks++;
        }
        e->last = pos;
        for (int64_t i = pos + 1; i <= m; i += i & -i)
            tree[i]++;
        hits_out[j] = hit;
        if (cold_out != 0)
            cold_out[j] = prev < 0;
    }
    int64_t count = 0;
    for (int64_t k = m - 1; k >= 0 && count < capacity; k--) {
        int64_t line = k < r ? recent[k] : lines[k - r];
        if (table[stack_slot(table, mask, shift, line)].last == k)
            new_recent[count++] = line;
    }
    for (int64_t a = 0, b = count - 1; a < b; a++, b--) {
        int64_t t = new_recent[a];
        new_recent[a] = new_recent[b];
        new_recent[b] = t;
    }
    *new_r = count;
    free(table);
    free(tree);
    return 0;
}

/* MM-machine per-access timing loop over precomputed banks.  state =
 * {cycle, bank_stall, write_stall, reads, writes_seen, last_read0,
 *  last_read1, last_write}; free_at/counts are per-bank, all in/out. */
void repro_mm_timing(const int64_t *banks, const uint8_t *writes, int64_t n,
                     int64_t t_m, int64_t *free_at, int64_t *counts,
                     int64_t *state) {
    int64_t cycle = state[0], bank_stall = state[1], write_stall = state[2];
    int64_t reads = state[3], writes_seen = state[4];
    int64_t last_read0 = state[5], last_read1 = state[6];
    int64_t last_write = state[7];
    for (int64_t i = 0; i < n; i++) {
        int64_t bank = banks[i];
        int64_t ready = free_at[bank];
        int64_t stall = ready > cycle ? ready - cycle : 0;
        free_at[bank] = cycle + stall + t_m;
        counts[bank] += 1;
        if (writes != 0 && writes[i]) {
            write_stall += stall;
            writes_seen++;
            last_write = cycle;
            cycle += 1;
        } else {
            bank_stall += stall;
            if (reads & 1)
                last_read1 = cycle;
            else
                last_read0 = cycle;
            reads++;
            cycle += 1 + stall;
        }
    }
    state[0] = cycle;
    state[1] = bank_stall;
    state[2] = write_stall;
    state[3] = reads;
    state[4] = writes_seen;
    state[5] = last_read0;
    state[6] = last_read1;
    state[7] = last_write;
}

/* CC-machine per-access timing loop: hits/kinds come from the cache
 * probe, only read misses touch the banks, and compulsory misses
 * (kinds[i] == compulsory) pipeline without the t_m penalty.  state =
 * {cycle, cache_hits, misses, bank_stall, conflicts, writes_seen,
 *  last_read0, last_read1, last_write}. */
void repro_cc_timing(const int64_t *banks, const uint8_t *writes,
                     const uint8_t *hits, const uint8_t *kinds, int64_t n,
                     int64_t mem_t_m, int64_t cc_t_m, int64_t compulsory,
                     int64_t *free_at, int64_t *counts, int64_t *state) {
    int64_t cycle = state[0], cache_hits = state[1], misses = state[2];
    int64_t bank_stall = state[3], conflicts = state[4];
    int64_t writes_seen = state[5];
    int64_t last_read0 = state[6], last_read1 = state[7];
    int64_t last_write = state[8];
    for (int64_t i = 0; i < n; i++) {
        if (writes != 0 && writes[i]) {
            writes_seen++;
            last_write = cycle;
            cycle += 1;
            continue;
        }
        if (hits[i]) {
            cache_hits++;
            cycle += 1;
            continue;
        }
        int64_t bank = banks[i];
        int64_t ready = free_at[bank];
        int64_t stall = ready > cycle ? ready - cycle : 0;
        free_at[bank] = cycle + stall + mem_t_m;
        counts[bank] += 1;
        bank_stall += stall;
        if (misses & 1)
            last_read1 = cycle;
        else
            last_read0 = cycle;
        misses++;
        if (kinds[i] == compulsory) {
            cycle += 1 + stall;
        } else {
            conflicts++;
            cycle += 1 + stall + cc_t_m;
        }
    }
    state[0] = cycle;
    state[1] = cache_hits;
    state[2] = misses;
    state[3] = bank_stall;
    state[4] = conflicts;
    state[5] = writes_seen;
    state[6] = last_read0;
    state[7] = last_read1;
    state[8] = last_write;
}

/* Strip-level engine for a load pair whose streams both touch memory.
 * b1/b2 are the streams' banks, h1/h2 their hit flags (NULL on a
 * cacheless machine).  state = {cycle, bank_stall, miss_penalty,
 * accesses, n_strips}. */
void repro_pair_flat(const int64_t *b1, const int64_t *b2, const uint8_t *h1,
                     const uint8_t *h2, int64_t n1, int64_t paired,
                     int64_t mvl, int64_t overhead, int64_t t_m, int64_t pen1,
                     int64_t pen2, int64_t *free_at, int64_t *counts,
                     int64_t *state) {
    int64_t cycle = state[0], bank_stall = state[1];
    int64_t miss_penalty = state[2], accesses = state[3];
    int64_t n_strips = state[4];
    for (int64_t strip = 0; strip < n1; strip += mvl) {
        n_strips++;
        cycle += overhead;
        int64_t end = strip + mvl < n1 ? strip + mvl : n1;
        for (int64_t k = strip; k < end; k++) {
            int64_t stall = 0;
            if (h1 == 0 || !h1[k]) {
                int64_t bank = b1[k];
                int64_t ready = free_at[bank];
                int64_t wait = ready > cycle ? ready - cycle : 0;
                free_at[bank] = cycle + wait + t_m;
                counts[bank] += 1;
                accesses++;
                bank_stall += wait;
                stall = wait + pen1;
                miss_penalty += pen1;
            }
            if (k < paired && (h2 == 0 || !h2[k])) {
                int64_t bank = b2[k];
                int64_t ready = free_at[bank];
                int64_t wait = ready > cycle ? ready - cycle : 0;
                free_at[bank] = cycle + wait + t_m;
                counts[bank] += 1;
                accesses++;
                bank_stall += wait;
                stall += wait + pen2;
                miss_penalty += pen2;
            }
            cycle += 1 + stall;
        }
    }
    state[0] = cycle;
    state[1] = bank_stall;
    state[2] = miss_penalty;
    state[3] = accesses;
    state[4] = n_strips;
}

/* Op-table rows are [n x 11]: kind (0 load, 1 store, 2 compute), length,
 * paired, base1, stride1, base2, stride2, expect1, counts1, expect2,
 * counts2 (see repro.machine.ops.OpTable). */
#define OP_COLS 11

/* 0 when every row has a known kind, a positive length and 0 <= paired
 * <= length (loads only), and the rows hold n_load load references and
 * n_refs references in all; -1 otherwise. */
static int64_t op_rows_check(const int64_t *rows, int64_t n, int64_t n_load,
                             int64_t n_refs) {
    int64_t loads = 0, stores = 0;
    for (int64_t r = 0; r < n; r++) {
        const int64_t *row = rows + r * OP_COLS;
        int64_t kind = row[0], length = row[1], paired = row[2];
        if (kind < 0 || kind > 2 || length <= 0 || paired < 0 ||
            paired > (kind == 0 ? length : 0))
            return -1;
        if (kind == 0)
            loads += length + paired;
        else if (kind == 1)
            stores += length;
    }
    return loads == n_load && loads + stores == n_refs ? 0 : -1;
}

/* Expand rows into addresses: load references from out[0] in probe order
 * (paired slots first-stream/second-stream, then the first stream's
 * remainder), store elements from out[n_load], both in row order.
 * Returns op_rows_check's verdict; out is untouched on -1. */
int64_t repro_op_addresses(const int64_t *rows, int64_t n, int64_t n_load,
                           int64_t n_refs, int64_t *out) {
    if (op_rows_check(rows, n, n_load, n_refs) != 0)
        return -1;
    int64_t li = 0, si = n_load;
    for (int64_t r = 0; r < n; r++) {
        const int64_t *row = rows + r * OP_COLS;
        int64_t length = row[1], a = row[3], s = row[4];
        if (row[0] == 0) {
            int64_t paired = row[2], b = row[5], t = row[6], k = 0;
            for (; k < paired; k++) {
                out[li++] = a;
                out[li++] = b;
                a += s;
                b += t;
            }
            for (; k < length; k++) {
                out[li++] = a;
                a += s;
            }
        } else if (row[0] == 1) {
            for (int64_t k = 0; k < length; k++) {
                out[si++] = a;
                a += s;
            }
        }
    }
    return 0;
}

/* Per-element vector machine over op-table rows, the object-model
 * machine transliterated.  banks maps the n_refs references in
 * op_addresses order; hits the load references' cache outcomes (NULL:
 * cacheless, all go to memory).  state = {cycle, elements, results,
 * overhead_cycles, bank_stall, miss_stall, cache_hits, cache_misses,
 * accesses, store_queue, read_free0, read_free1, reads0, reads1,
 * write_free, writes}.  No bus may be busy past state[0] on entry, so
 * every bus grant comes at its request cycle.  Returns 0, or -1 for bad
 * rows or a bank outside 0..n_banks-1 (state is then unspecified). */
int64_t repro_op_timing(const int64_t *rows, int64_t n, int64_t n_load,
                        const int64_t *banks, int64_t n_refs,
                        const uint8_t *hits, int64_t mvl, int64_t overhead,
                        int64_t cached_overhead, int64_t t_bank,
                        int64_t penalty, int64_t n_banks, int64_t *free_at,
                        int64_t *counts, int64_t *state) {
    if (op_rows_check(rows, n, n_load, n_refs) != 0)
        return -1;
    int64_t cycle = state[0], elements = state[1], results = state[2];
    int64_t overhead_cycles = state[3], bank_stall = state[4];
    int64_t miss_stall = state[5], cache_hits = state[6];
    int64_t cache_misses = state[7], accesses = state[8];
    int64_t store_queue = state[9], read_free0 = state[10];
    int64_t read_free1 = state[11], reads0 = state[12], reads1 = state[13];
    int64_t write_free = state[14], writes = state[15];
    int64_t li = 0, si = n_load;
    for (int64_t r = 0; r < n; r++) {
        const int64_t *row = rows + r * OP_COLS;
        int64_t length = row[1];
        if (row[0] == 2) {
            cycle += length;
            elements += length;
            continue;
        }
        if (row[0] == 1) {
            for (int64_t k = 0; k < length; k++) {
                int64_t bank = banks[si++];
                if ((uint64_t)bank >= (uint64_t)n_banks)
                    return -1;
                int64_t ready = free_at[bank];
                int64_t wait = ready > cycle ? ready - cycle : 0;
                free_at[bank] = cycle + wait + t_bank;
                counts[bank] += 1;
                store_queue += wait;
                cycle++;
            }
            accesses += length;
            elements += length;
            writes += length;
            write_free = cycle;
            continue;
        }
        int64_t paired = row[2];
        int64_t ov = row[7] ? cached_overhead : overhead;
        int64_t pen1 = hits != 0 && row[7] ? penalty : 0;
        int64_t pen2 = hits != 0 && row[9] ? penalty : 0;
        for (int64_t strip = 0; strip < length; strip += mvl) {
            cycle += ov;
            overhead_cycles += ov;
            int64_t end = strip + mvl < length ? strip + mvl : length;
            for (int64_t k = strip; k < end; k++) {
                int64_t stall = 0;
                for (int64_t second = 0; second <= (k < paired); second++) {
                    if (read_free0 <= read_free1) {
                        read_free0 = cycle + 1;
                        reads0++;
                    } else {
                        read_free1 = cycle + 1;
                        reads1++;
                    }
                    int64_t j = k < paired ? li + 2 * k + second
                                           : li + paired + k;
                    if (hits != 0 && hits[j]) {
                        cache_hits++;
                        continue;
                    }
                    if (hits != 0)
                        cache_misses++;
                    int64_t bank = banks[j];
                    if ((uint64_t)bank >= (uint64_t)n_banks)
                        return -1;
                    int64_t ready = free_at[bank];
                    int64_t wait = ready > cycle ? ready - cycle : 0;
                    int64_t pen = second ? pen2 : pen1;
                    free_at[bank] = cycle + wait + t_bank;
                    counts[bank] += 1;
                    accesses++;
                    bank_stall += wait;
                    miss_stall += pen;
                    stall += wait + pen;
                }
                cycle += 1 + stall;
            }
        }
        elements += length + paired;
        results += row[8] * length + row[10] * paired;
        li += length + paired;
    }
    state[0] = cycle;
    state[1] = elements;
    state[2] = results;
    state[3] = overhead_cycles;
    state[4] = bank_stall;
    state[5] = miss_stall;
    state[6] = cache_hits;
    state[7] = cache_misses;
    state[8] = accesses;
    state[9] = store_queue;
    state[10] = read_free0;
    state[11] = read_free1;
    state[12] = reads0;
    state[13] = reads1;
    state[14] = write_free;
    state[15] = writes;
    return 0;
}

/* Belady OPT simulation loop over precomputed sets and next-use indexes.
 * tags/nu/ins are flattened [num_sets x num_ways] state: resident line
 * (-1 empty), its next-use index, and its insertion stamp.  Victim = the
 * way with the farthest next use; ties go to the earliest-inserted way.
 * out = {hits, misses, evictions}. */
void repro_belady_opt(const int64_t *lines, const int64_t *sets,
                      const int64_t *next_use, int64_t n, int64_t num_ways,
                      int64_t *tags, int64_t *nu, int64_t *ins, int64_t *out) {
    int64_t hits = 0, misses = 0, evictions = 0, tick = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i];
        int64_t base = sets[i] * num_ways;
        int64_t way = -1, empty = -1;
        for (int64_t w = 0; w < num_ways; w++) {
            int64_t t = tags[base + w];
            if (t == line) {
                way = w;
                break;
            }
            if (t < 0 && empty < 0)
                empty = w;
        }
        if (way >= 0) {
            hits++;
            nu[base + way] = next_use[i];
            continue;
        }
        misses++;
        int64_t slot = empty;
        if (slot < 0) {
            int64_t best = 0;
            for (int64_t w = 1; w < num_ways; w++) {
                if (nu[base + w] > nu[base + best] ||
                    (nu[base + w] == nu[base + best] &&
                     ins[base + w] < ins[base + best]))
                    best = w;
            }
            slot = best;
            evictions++;
        }
        tags[base + slot] = line;
        nu[base + slot] = next_use[i];
        ins[base + slot] = tick++;
    }
    out[0] = hits;
    out[1] = misses;
    out[2] = evictions;
}
"""

# arrays travel as raw addresses (``arr.ctypes.data``), which costs about
# half a typed ``data_as`` cast per call; the C side declares their types
_I64 = _U8 = ctypes.c_void_p
_N = ctypes.c_int64

# argtype tables for the exported entry points
_SIGNATURES = {
    "repro_replay_oneway": [_I64, _I64, _U8, _N, _N, _I64, _U8, _U8, _I64],
    "repro_replay_assoc": [
        _I64, _I64, _U8, _N, _N, _N, _N, _N, _I64, _I64, _U8, _U8, _I64,
    ],
    "repro_replay_two_level": [
        _I64, _I64, _U8, _N, _N, _I64, _I64, _U8, _N, _N, _N, _N,
        _I64, _I64, _U8, _N, _N, _N, _N, _U8, _I64,
    ],
    "repro_stack_hits": [_I64, _N, _I64, _N, _N, _U8, _U8, _I64, _I64],
    "repro_mm_timing": [_I64, _U8, _N, _N, _I64, _I64, _I64],
    "repro_cc_timing": [
        _I64, _U8, _U8, _U8, _N, _N, _N, _N, _I64, _I64, _I64,
    ],
    "repro_pair_flat": [
        _I64, _I64, _U8, _U8, _N, _N, _N, _N, _N, _N, _N, _I64, _I64, _I64,
    ],
    "repro_op_addresses": [_I64, _N, _N, _N, _I64],
    "repro_op_timing": [
        _I64, _N, _N, _I64, _N, _U8, _N, _N, _N, _N, _N, _N, _I64, _I64,
        _I64,
    ],
    "repro_belady_opt": [_I64, _I64, _I64, _N, _N, _I64, _I64, _I64, _I64],
}

#: entry points that check their arguments and return 0 or -1
_CHECKED = ("repro_replay_two_level", "repro_stack_hits",
            "repro_op_addresses", "repro_op_timing")

_build_error: str | None = None


def build_error() -> str | None:
    """Why the last :func:`load` attempt failed, or ``None``."""
    return _build_error


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernels"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _ptr(arr: np.ndarray | None) -> int | None:
    """The address of a contiguous array's data (``None``: NULL)."""
    return None if arr is None else arr.ctypes.data


class _CExtProvider:
    """ctypes bindings wrapped in the provider calling convention
    (see :mod:`repro.kernels.reference` for the documented contract)."""

    name = "cext"

    def __init__(self, lib: ctypes.CDLL, compiler: str) -> None:
        self._lib = lib
        self.detail = f"generated C via {compiler}"
        for fn_name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, fn_name)
            fn.argtypes = argtypes
            fn.restype = _N if fn_name in _CHECKED else None

    def replay_oneway(self, lines, sets, writes, write_allocate, current,
                      dirty, hits_out):
        out = np.zeros(3, dtype=np.int64)
        self._lib.repro_replay_oneway(
            _ptr(lines), _ptr(sets), _ptr(writes), lines.size,
            int(write_allocate), _ptr(current), _ptr(dirty), _ptr(hits_out),
            _ptr(out),
        )
        return int(out[0]), int(out[1]), int(out[2])

    def replay_assoc(self, lines, sets, writes, num_ways, write_allocate,
                     lru, tick, tags, stamps, dirty, hits_out):
        out = np.zeros(4, dtype=np.int64)
        self._lib.repro_replay_assoc(
            _ptr(lines), _ptr(sets), _ptr(writes), lines.size, num_ways,
            int(write_allocate), int(lru), tick, _ptr(tags), _ptr(stamps),
            _ptr(dirty), _ptr(hits_out), _ptr(out),
        )
        return int(out[0]), int(out[1]), int(out[2]), int(out[3])

    def replay_two_level(self, lines, sets, writes, write_allocate, l1, l2,
                         hits_out):
        out = np.zeros(6, dtype=np.int64)
        levels = []
        for ways, lru, tick, tags, stamps, dirty in (l1, l2):
            levels += [_ptr(tags), _ptr(stamps), _ptr(dirty),
                       tags.size // ways, ways, lru, tick]
        if self._lib.repro_replay_two_level(
                _ptr(lines), _ptr(sets), _ptr(writes), lines.size,
                write_allocate, *levels, _ptr(hits_out), _ptr(out)):
            raise ValueError(BAD_L1_SETS)
        return tuple(int(value) for value in out)

    def stack_hits(self, lines, recent, capacity, cold_out):
        if recent.size + lines.size >= 1 << 31:
            raise ValueError("stack_hits counts history positions in int32")
        hits = np.empty(lines.size, dtype=bool)
        new_recent = np.empty(min(capacity, recent.size + lines.size),
                              dtype=np.int64)
        count = np.zeros(1, dtype=np.int64)
        if self._lib.repro_stack_hits(
                _ptr(lines), lines.size, _ptr(recent), recent.size, capacity,
                _ptr(hits), _ptr(cold_out), _ptr(new_recent),
                _ptr(count)):
            raise MemoryError("stack_hits scratch allocation failed")
        return hits, new_recent[:int(count[0])]

    def mm_timing(self, banks, writes, t_m, free_at, counts, state):
        self._lib.repro_mm_timing(
            _ptr(banks), _ptr(writes), banks.size, t_m, _ptr(free_at),
            _ptr(counts), _ptr(state),
        )

    def cc_timing(self, banks, writes, hits, kinds, mem_t_m, cc_t_m,
                  compulsory, free_at, counts, state):
        self._lib.repro_cc_timing(
            _ptr(banks), _ptr(writes), _ptr(hits), _ptr(kinds), banks.size,
            mem_t_m, cc_t_m, compulsory, _ptr(free_at), _ptr(counts),
            _ptr(state),
        )

    def pair_flat(self, b1, b2, h1, h2, paired, mvl, overhead, t_m, pen1,
                  pen2, free_at, counts, state):
        self._lib.repro_pair_flat(
            _ptr(b1), _ptr(b2), _ptr(h1), _ptr(h2), b1.size, paired, mvl,
            overhead, t_m, pen1, pen2, _ptr(free_at), _ptr(counts),
            _ptr(state),
        )

    def op_addresses(self, rows, n_load, n_refs):
        out = np.empty(n_refs, dtype=np.int64)
        if self._lib.repro_op_addresses(_ptr(rows), len(rows), n_load,
                                        n_refs, _ptr(out)):
            raise ValueError(BAD_OP_ROWS)
        return out

    def op_timing(self, rows, n_load, banks, hits, mvl, overhead,
                  cached_overhead, t_bank, penalty, free_at, counts, state):
        if self._lib.repro_op_timing(
                _ptr(rows), len(rows), n_load, _ptr(banks), banks.size,
                _ptr(hits), mvl, overhead, cached_overhead, t_bank, penalty,
                free_at.size, _ptr(free_at), _ptr(counts), _ptr(state)):
            raise ValueError(BAD_OP_ROWS)

    def belady_opt(self, lines, sets, next_use, num_ways, tags, nu, ins):
        out = np.zeros(3, dtype=np.int64)
        self._lib.repro_belady_opt(
            _ptr(lines), _ptr(sets), _ptr(next_use), lines.size, num_ways,
            _ptr(tags), _ptr(nu), _ptr(ins), _ptr(out),
        )
        return int(out[0]), int(out[1]), int(out[2])


def _self_test(provider: _CExtProvider) -> bool:
    """Tiny known-answer probe guarding against ABI/build breakage."""
    lines = np.array([0, 8, 0, 8, 3], dtype=np.int64)
    sets = lines & 7
    current = np.full(8, -1, dtype=np.int64)
    dirty = np.zeros(8, dtype=np.uint8)
    hits_out = np.empty(5, dtype=np.uint8)
    # direct-mapped, 8 sets: 0 and 8 thrash set 0; expected outcomes
    # miss, miss(evict), miss(evict), miss(evict), miss
    result = provider.replay_oneway(
        lines, sets, None, 1, current, dirty, hits_out)
    return (result == (0, 5, 3)
            and hits_out.tolist() == [0, 0, 0, 0, 0]
            and current[0] == 8 and current[3] == 3)


def _bind(path: Path, compiler: str) -> _CExtProvider | None:
    """Load and self-test one shared object; ``None`` when it fails."""
    global _build_error
    provider = _CExtProvider(ctypes.CDLL(str(path)), compiler)
    if not _self_test(provider):
        _build_error = "compiled kernel failed its known-answer self-test"
        return None
    return provider


def load() -> _CExtProvider | None:
    """Build (if needed) and bind the C kernels; ``None`` on any failure.

    Each process compiles its own copy of the source in a private build
    directory, loads and self-tests the result, and only then moves the
    shared object into the cache with an atomic ``os.replace``.  Processes
    racing on an empty cache therefore never compile a source another
    process is rewriting, and a bad build never enters the cache.
    """
    global _build_error
    try:
        compiler = _find_compiler()
        if compiler is None:
            _build_error = "no C compiler found (cc/gcc/clang)"
            return None
        digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
        cache_dir = _cache_dir()
        lib_path = cache_dir / f"reprokernels-{digest}.so"
        if lib_path.exists():
            provider = _bind(lib_path, compiler)
        else:
            cache_dir.mkdir(parents=True, exist_ok=True)
            build_dir = Path(tempfile.mkdtemp(
                prefix=f"reprokernels-{digest}.", dir=cache_dir))
            try:
                src_path = build_dir / "kernels.c"
                obj_path = build_dir / "kernels.so"
                src_path.write_text(_SOURCE)
                proc = subprocess.run(
                    [compiler, "-O3", "-fPIC", "-shared",
                     "-o", str(obj_path), str(src_path)],
                    capture_output=True, text=True, timeout=120,
                )
                if proc.returncode != 0:
                    _build_error = (f"{compiler} failed: "
                                    f"{proc.stderr.strip()[:500]}")
                    return None
                provider = _bind(obj_path, compiler)
                if provider is not None:
                    os.replace(obj_path, lib_path)
            finally:
                shutil.rmtree(build_dir, ignore_errors=True)
        if provider is not None:
            _build_error = None
        return provider
    except Exception as exc:  # the compiler toolchain may be missing or broken
        _build_error = f"{type(exc).__name__}: {exc}"
        return None
