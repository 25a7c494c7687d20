"""Benchmark: compiled-kernel replay throughput and bounded-RSS streaming.

Two claims back the "billion-reference" half of the compiled-kernels
work, and this bench enforces both, recording the evidence in
``BENCH_stream.json`` at the repo root:

* **Throughput** — replaying a :class:`~repro.trace.stream.StridedStream`
  through ``Cache.access_many`` on ``backend="compiled"`` sustains at
  least ``100e6`` references per second (the floor is only enforced when
  the generated-C provider is live; on the pure-Python provider the leg
  records its numbers and the gate is skipped).
* **Bounded memory** — a full 10^9-reference stream replays to
  completion in a subprocess whose peak RSS (``ru_maxrss``) stays under
  512 MB, demonstrating the O(chunk) streaming contract end to end:
  stream generation, chunk iteration, the kernel state arrays and the
  compulsory-miss estimate all avoid O(length) allocations.

Runable standalone (``python benchmarks/bench_stream.py``) or under
pytest.  Set ``BENCH_STREAM_SMOKE=1`` for a seconds-scale smoke tier
(smaller streams; the throughput floor is recorded but not enforced,
the RSS bound still is).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

from repro import kernels
from repro.cache import DirectMappedCache
from repro.trace import StridedStream
from repro.trace.replay import replay

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_stream.json"

SMOKE = bool(os.environ.get("BENCH_STREAM_SMOKE"))

THROUGHPUT_REFS = 2_000_000 if SMOKE else 100_000_000
STREAM_REFS = 10_000_000 if SMOKE else 1_000_000_000
THROUGHPUT_FLOOR = 100e6          # compiled refs/s, full tier only
RSS_LIMIT_KB = 512 * 1024         # ru_maxrss bound for the streaming leg

STRIDE = 7
WINDOW = 3 << 12                  # 1.5x the cache: hits mixed with evictions
CHUNK = 1 << 22
NUM_LINES = 8192

# The streaming leg runs in a child so ru_maxrss measures just that
# replay (the parent's own numpy arrays would pollute the high-water
# mark).  The child prints one JSON line; everything else goes to stderr.
_CHILD_SCRIPT = """
import json, resource, sys, time
from repro.cache import DirectMappedCache
from repro.trace import StridedStream
from repro.trace.replay import replay

refs, stride, window, chunk, num_lines = (
    int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]),
    int(sys.argv[4]), int(sys.argv[5]))
stream = StridedStream(refs, stride=stride, window=window, chunk=chunk)
cache = DirectMappedCache(num_lines=num_lines, classify_misses=False)
start = time.perf_counter()
result = replay(stream, cache, backend="compiled")
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "hits": result.stats.hits,
    "misses": result.stats.misses,
    "accesses": result.stats.accesses,
}))
"""


def _time_replay(reps: int = 2) -> dict:
    stream = StridedStream(
        THROUGHPUT_REFS, stride=STRIDE, window=WINDOW, chunk=CHUNK)
    best = float("inf")
    result = None
    for _ in range(reps):
        cache = DirectMappedCache(num_lines=NUM_LINES, classify_misses=False)
        start = time.perf_counter()
        result = replay(stream, cache, backend="compiled")
        best = min(best, time.perf_counter() - start)
    return {
        "refs": THROUGHPUT_REFS,
        "seconds": round(best, 4),
        "refs_per_sec": round(THROUGHPUT_REFS / best),
        "hit_ratio": round(result.hit_ratio, 6),
    }


def measure_throughput() -> dict:
    """Time the compiled replay engine on the stream."""
    return {
        "stride_words": STRIDE,
        "window_words": WINDOW,
        "chunk_refs": CHUNK,
        "cache_lines": NUM_LINES,
        "compiled": _time_replay(),
        "floor_refs_per_sec": THROUGHPUT_FLOOR,
        "floor_enforced": not SMOKE and kernels.has_compiled_provider(),
    }


def measure_streaming() -> dict:
    """Replay ``STREAM_REFS`` references in a child; assert bounded RSS."""
    window = WINDOW
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT,
         str(STREAM_REFS), str(STRIDE), str(window), str(CHUNK),
         str(NUM_LINES)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    if child.returncode != 0:
        raise AssertionError(
            f"streaming child failed:\n{child.stderr}")
    record = json.loads(child.stdout.strip().splitlines()[-1])
    if record["accesses"] != STREAM_REFS:
        raise AssertionError(
            f"streaming replay covered {record['accesses']} of "
            f"{STREAM_REFS} references")
    return {
        "refs": STREAM_REFS,
        "window_words": window,
        "chunk_refs": CHUNK,
        "seconds": round(record["seconds"], 3),
        "refs_per_sec": round(STREAM_REFS / record["seconds"]),
        "hits": record["hits"],
        "misses": record["misses"],
        "peak_rss_kb": record["peak_rss_kb"],
        "rss_limit_kb": RSS_LIMIT_KB,
        "rss_within_limit": record["peak_rss_kb"] <= RSS_LIMIT_KB,
    }


_PAYLOAD: dict | None = None


def run() -> dict:
    global _PAYLOAD
    if _PAYLOAD is None:
        _PAYLOAD = {
            "benchmark": "stream",
            "smoke": SMOKE,
            "kernel_provider": kernels.provider_info(),
            "throughput": measure_throughput(),
            "streaming": measure_streaming(),
        }
        ARTIFACT.write_text(json.dumps(_PAYLOAD, indent=2) + "\n")
    return _PAYLOAD


def test_compiled_throughput_floor():
    import pytest

    payload = run()
    record = payload["throughput"]
    if not kernels.has_compiled_provider():
        pytest.skip("no compiled kernel provider in this environment")
    if SMOKE:
        pytest.skip("smoke tier records throughput without enforcing it")
    assert record["compiled"]["refs_per_sec"] >= THROUGHPUT_FLOOR, (
        f"compiled replay {record['compiled']['refs_per_sec']:.3g} refs/s "
        f"< {THROUGHPUT_FLOOR:.3g} floor")


def test_streaming_rss_bounded():
    payload = run()
    record = payload["streaming"]
    assert record["rss_within_limit"], (
        f"peak RSS {record['peak_rss_kb']} KB exceeds "
        f"{RSS_LIMIT_KB} KB streaming bound")


if __name__ == "__main__":
    result = run()
    print(json.dumps(result, indent=2))
    compiled = result["throughput"]["compiled"]
    streaming = result["streaming"]
    fast_enough = compiled["refs_per_sec"] >= THROUGHPUT_FLOOR or SMOKE
    print(f"compiled replay: {compiled['refs_per_sec'] / 1e6:.1f} M refs/s "
          f"({'ok' if fast_enough else 'BELOW FLOOR'})")
    print(f"streaming {streaming['refs']} refs: peak RSS "
          f"{streaming['peak_rss_kb'] / 1024:.0f} MB "
          f"({'ok' if streaming['rss_within_limit'] else 'OVER LIMIT'})")
