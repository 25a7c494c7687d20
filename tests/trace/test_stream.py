"""``StridedStream``: the O(chunk)-memory synthetic reference stream.

The stream must be indistinguishable from a materialised strided
``Trace`` to every consumer — same addresses in the same order, same
replay statistics on every backend, same compulsory-miss footprint —
while never allocating O(length).  These tests pin the address closed
form, the chunking geometry, the ``distinct_lines`` shortcut and the
replay parity.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro

from repro import kernels
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.trace import StridedStream, replay
from repro.trace.records import Trace
from repro.trace.stream import _MATERIALISE_CAP

CASES = [
    # (length, stride, window, chunk, base)
    (0, 3, 8, 4, 0),
    (5, 3, 8, 16, 0),          # single partial chunk (chunk > length)
    (10, 3, 8, 4, 0),          # chunk straddles the period
    (100, 1, 16, 7, 32),       # chunk not a divisor of anything
    (64, 8, 8, 8, 0),          # stride multiple of window: period 1
    (1000, 7, 3 << 5, 64, 5),
]


def _reference_addresses(length, stride, window, base):
    return base + (np.arange(length, dtype=np.int64) * stride) % window


@pytest.mark.parametrize("length,stride,window,chunk,base", CASES)
def test_addresses_match_closed_form(length, stride, window, chunk, base):
    stream = StridedStream(length, stride=stride, window=window,
                           chunk=chunk, base=base)
    expected = _reference_addresses(length, stride, window, base)
    streamed = [c for c, flags in stream.iter_blocks()]
    flat = (np.concatenate(streamed) if streamed
            else np.empty(0, np.int64))
    np.testing.assert_array_equal(flat, expected)
    assert len(stream) == length
    np.testing.assert_array_equal(stream.as_arrays()[0], expected)
    assert [a.address for a in stream] == expected.tolist()


@pytest.mark.parametrize("length,stride,window,chunk,base", CASES)
def test_chunk_geometry(length, stride, window, chunk, base):
    stream = StridedStream(length, stride=stride, window=window,
                           chunk=chunk, base=base)
    sizes = [c.size for c, _ in stream.iter_blocks()]
    assert sum(sizes) == length
    assert all(size == chunk for size in sizes[:-1])
    if sizes:
        assert 0 < sizes[-1] <= chunk
    for _, flags in stream.iter_blocks():
        assert flags is None   # the stream models a load sweep


@pytest.mark.parametrize("length,stride,window,chunk,base", CASES)
def test_distinct_lines_matches_materialised(length, stride, window,
                                             chunk, base):
    stream = StridedStream(length, stride=stride, window=window,
                           chunk=chunk, base=base)
    expected = _reference_addresses(length, stride, window, base)
    for shift in (0, 2):
        assert stream.distinct_lines(shift) == np.unique(
            expected >> shift).size


def test_validation():
    with pytest.raises(ValueError):
        StridedStream(-1)
    with pytest.raises(ValueError):
        StridedStream(10, stride=0)
    with pytest.raises(ValueError):
        StridedStream(10, window=0)
    with pytest.raises(ValueError):
        StridedStream(10, chunk=0)
    with pytest.raises(ValueError):
        StridedStream(10, base=-1)


def test_as_arrays_refuses_huge_lengths():
    stream = StridedStream(_MATERIALISE_CAP + 1, stride=3, window=64)
    with pytest.raises(ValueError, match="refusing to materialise"):
        stream.as_arrays()
    # ...but the streaming surface still works at that size
    chunk, flags = next(stream.iter_blocks())
    assert chunk.size == stream.chunk and flags is None


# the compiled backend always resolves (reference fallback at worst)
# and must agree bit-for-bit regardless of which provider is live
@pytest.mark.parametrize("backend", list(kernels.BACKENDS))
@pytest.mark.parametrize("factory", [
    lambda: DirectMappedCache(num_lines=64),
    lambda: PrimeMappedCache(c=7),
], ids=["direct", "prime"])
def test_replay_parity_with_materialised_trace(backend, factory):
    length, stride, window = 3000, 7, 3 << 5
    stream = StridedStream(length, stride=stride, window=window, chunk=256)
    trace = Trace.from_addresses(
        _reference_addresses(length, stride, window, 0))
    from_stream = replay(stream, factory(), backend=backend)
    from_trace = replay(trace, factory(), backend=backend)
    for field in ("accesses", "hits", "misses", "reads", "writes",
                  "evictions"):
        assert getattr(from_stream.stats, field) == \
            getattr(from_trace.stats, field), field
    assert from_stream.stall_cycles == from_trace.stall_cycles


# -- the streaming bounds ---------------------------------------------------
#
# A billion-reference stream replays in a child process whose peak RSS
# (ru_maxrss of just that replay) stays under 512 MB: stream generation,
# chunk iteration, the kernel state and the compulsory-miss estimate are
# all O(chunk).  And compiled replay sustains 10^8 references/s while
# generated C is live.  Without a C compiler the child streams 10^7
# references: the pure-Python provider would take minutes for 10^9.

RSS_LIMIT_KB = 512 * 1024
THROUGHPUT_FLOOR = 100e6


def _bound_stream(refs: int) -> StridedStream:
    # a 1.5x-the-cache window: hits mixed with evictions
    return StridedStream(refs, stride=7, window=3 << 12, chunk=1 << 22)


_STREAM_CHILD = """
import json, resource, sys
from repro.cache import DirectMappedCache
from repro.trace.replay import replay
from tests.trace.test_stream import _bound_stream

refs = int(sys.argv[1])
result = replay(_bound_stream(refs),
                DirectMappedCache(num_lines=8192, classify_misses=False),
                backend="compiled")
print(json.dumps({
    "accesses": result.stats.accesses,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def test_billion_reference_stream_in_bounded_memory():
    refs = 10**9 if kernels.has_compiled_provider() else 10**7
    root = Path(__file__).resolve().parents[2]
    path = os.pathsep.join(filter(None, (
        str(Path(repro.__file__).resolve().parents[1]), str(root),
        os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _STREAM_CHILD, str(refs)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    record = json.loads(child.stdout.splitlines()[-1])
    assert record["accesses"] == refs
    assert record["peak_rss_kb"] <= RSS_LIMIT_KB, (
        f"peak RSS {record['peak_rss_kb']} KB over the "
        f"{RSS_LIMIT_KB} KB streaming bound")


@pytest.mark.skipif(not kernels.has_compiled_provider(),
                    reason="the floor holds for generated C only")
def test_compiled_replay_throughput_floor():
    refs = 100_000_000
    stream = _bound_stream(refs)
    best = float("inf")
    for _ in range(2):
        cache = DirectMappedCache(num_lines=8192, classify_misses=False)
        start = time.perf_counter()
        replay(stream, cache, backend="compiled")
        best = min(best, time.perf_counter() - start)
    assert refs / best >= THROUGHPUT_FLOOR, (
        f"compiled replay {refs / best:.3g} refs/s under the "
        f"{THROUGHPUT_FLOOR:.3g} floor")
