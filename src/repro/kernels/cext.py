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

__all__ = ["load", "build_error"]

_SOURCE = r"""
#include <stdint.h>

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

_I64 = ctypes.POINTER(ctypes.c_int64)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_N = ctypes.c_int64

# argtype tables for the exported entry points
_SIGNATURES = {
    "repro_replay_oneway": [_I64, _I64, _U8, _N, _N, _I64, _U8, _U8, _I64],
    "repro_replay_assoc": [
        _I64, _I64, _U8, _N, _N, _N, _N, _N, _I64, _I64, _U8, _U8, _I64,
    ],
    "repro_mm_timing": [_I64, _U8, _N, _N, _I64, _I64, _I64],
    "repro_cc_timing": [
        _I64, _U8, _U8, _U8, _N, _N, _N, _N, _I64, _I64, _I64,
    ],
    "repro_pair_flat": [
        _I64, _I64, _U8, _U8, _N, _N, _N, _N, _N, _N, _N, _I64, _I64, _I64,
    ],
    "repro_belady_opt": [_I64, _I64, _I64, _N, _N, _I64, _I64, _I64, _I64],
}

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


def _i64(arr: np.ndarray):
    return arr.ctypes.data_as(_I64)


def _u8(arr: np.ndarray | None):
    if arr is None:
        return None
    return arr.ctypes.data_as(_U8)


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
            fn.restype = None

    def replay_oneway(self, lines, sets, writes, write_allocate, current,
                      dirty, hits_out):
        out = np.zeros(3, dtype=np.int64)
        self._lib.repro_replay_oneway(
            _i64(lines), _i64(sets), _u8(writes), lines.size,
            int(write_allocate), _i64(current), _u8(dirty), _u8(hits_out),
            _i64(out),
        )
        return int(out[0]), int(out[1]), int(out[2])

    def replay_assoc(self, lines, sets, writes, num_ways, write_allocate,
                     lru, tick, tags, stamps, dirty, hits_out):
        out = np.zeros(4, dtype=np.int64)
        self._lib.repro_replay_assoc(
            _i64(lines), _i64(sets), _u8(writes), lines.size, num_ways,
            int(write_allocate), int(lru), tick, _i64(tags), _i64(stamps),
            _u8(dirty), _u8(hits_out), _i64(out),
        )
        return int(out[0]), int(out[1]), int(out[2]), int(out[3])

    def mm_timing(self, banks, writes, t_m, free_at, counts, state):
        self._lib.repro_mm_timing(
            _i64(banks), _u8(writes), banks.size, t_m, _i64(free_at),
            _i64(counts), _i64(state),
        )

    def cc_timing(self, banks, writes, hits, kinds, mem_t_m, cc_t_m,
                  compulsory, free_at, counts, state):
        self._lib.repro_cc_timing(
            _i64(banks), _u8(writes), _u8(hits), _u8(kinds), banks.size,
            mem_t_m, cc_t_m, compulsory, _i64(free_at), _i64(counts),
            _i64(state),
        )

    def pair_flat(self, b1, b2, h1, h2, paired, mvl, overhead, t_m, pen1,
                  pen2, free_at, counts, state):
        self._lib.repro_pair_flat(
            _i64(b1), _i64(b2), _u8(h1), _u8(h2), b1.size, paired, mvl,
            overhead, t_m, pen1, pen2, _i64(free_at), _i64(counts),
            _i64(state),
        )

    def belady_opt(self, lines, sets, next_use, num_ways, tags, nu, ins):
        out = np.zeros(3, dtype=np.int64)
        self._lib.repro_belady_opt(
            _i64(lines), _i64(sets), _i64(next_use), lines.size, num_ways,
            _i64(tags), _i64(nu), _i64(ins), _i64(out),
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
