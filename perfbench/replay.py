"""The ``replay`` workload: trace generation and trace-driven replay.

No orchestrator, store or HTTP: seeded traces go straight through
``repro.trace.replay`` on the program's default backend.  One operation
is a *pair* (trace kind, organisation): generate the trace, replay it
once through the organisation as built by default (three-C
classification on) and ``repeats`` times with ``classify_misses=False``
(the build the machines and streaming use).  Pair sizes are balanced by
host time, not by reference count, from rates measured on a 2-core
x86-64 host: a classified replay runs at 80-260 k refs/s, an
unclassified one-way replay at 1.4-3 M refs/s, a 512-line
fully-associative cache at about 80 k refs/s.  ``repeats`` (the measured
classified-to-unclassified time ratio of the organisation) gives the
unclassified half about the host time of the classified half.

The timed phase replays every pair of the seeded set, in a seeded order,
round after round until ``--seconds`` have passed; it always ends on a
whole round.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import common

#: The seed whose simulated counts are recorded in ``expected_replay.json``.
DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected_replay.json")

#: Vector data lives above this word address (the bicameral cache routes
#: it to its vector half); the traced kernels' arrays sit below it.
VECTOR_BASE = 1 << 24

KINDS = ("strided_below", "strided_above", "multistride_below",
         "multistride_above", "matmul", "lu", "fft", "spmv", "hash_join",
         "bfs", "mergesort", "stream")

#: Strides of the strided pairs.  Each (kind, organisation) pair keeps
#: one fixed stride: the stride sets the conflict pattern and with it the
#: replay cost, which must not move with the seed.
STRIDES = (1, 2, 3, 7, 8, 16, 31, 64, 127, 128, 256, 1024)
STRIDED_KINDS = ("strided_below", "strided_above", "stream")


@dataclass(frozen=True)
class Org:
    """One organisation: how to build it and how big its pairs are."""

    name: str
    capacity: int          # lines; line size is one word throughout
    budget: int            # references of a below-capacity pair
    repeats: int           # unclassified replays per classified one
    build: object          # build(classify: bool) -> Cache


def organisations(tiny: bool = False) -> tuple[Org, ...]:
    """The seven organisations at the paper's 8 K-line design point (the
    fully-associative cache at 512 lines), or at 128 lines when ``tiny``."""
    from repro.cache import (
        BicameralCache,
        DirectMappedCache,
        FullyAssociativeCache,
        HashedIndexCache,
        PrimeMappedCache,
        SetAssociativeCache,
        TwoLevelCache,
    )

    c = 7 if tiny else 13
    lines = 1 << c
    fa_lines = 64 if tiny else 512
    shrink = 10 if tiny else 1

    def bicameral(classify: bool):
        cache = BicameralCache(scalar_sets=lines // 8, vector_c=c,
                               classify_misses=classify)
        cache.mark_vector(VECTOR_BASE, 1 << 62)
        return cache

    table = (
        ("direct", lines, 3500, 3,
         lambda k: DirectMappedCache(num_lines=lines, classify_misses=k)),
        ("prime", lines - 1, 3500, 5,
         lambda k: PrimeMappedCache(c=c, classify_misses=k)),
        ("set_assoc", lines, 4000, 2,
         lambda k: SetAssociativeCache(num_sets=lines // 4, num_ways=4,
                                       classify_misses=k)),
        ("fully_assoc", fa_lines, 2000, 1,
         lambda k: FullyAssociativeCache(num_lines=fa_lines,
                                         classify_misses=k)),
        ("hashed", lines, 2400, 4,
         lambda k: HashedIndexCache(num_sets=lines, classify_misses=k)),
        ("bicameral", lines - 1 + lines // 8, 2600, 3, bicameral),
        ("two_level", lines // 4, 2400, 1,
         lambda k: TwoLevelCache(l1_sets=lines // 32, l2_sets=lines // 4,
                                 classify_misses=k)),
    )
    return tuple(Org(name, capacity, max(64, budget // shrink), repeats,
                     build)
                 for name, capacity, budget, repeats, build in table)


@dataclass
class Pair:
    kind: str
    org: Org
    params: dict

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.org.name}"


def _largest(candidates, cost, budget):
    fitting = [c for c in candidates if cost(c) <= budget]
    return fitting[-1] if fitting else candidates[0]


def pair_params(kind: str, org: Org, org_index: int,
                rng: random.Random) -> dict:
    """Seeded parameters of one pair.

    Sizes and strides depend only on the pair; the seed draws base
    addresses, the multistride vectors (16 per trace, so their cost
    averages out), matrix values and the irregular kernels' data.
    """
    cap, budget = org.capacity, org.budget
    above = cap + cap // 4
    base = VECTOR_BASE + rng.randrange(1 << 24)
    if kind in STRIDED_KINDS:
        slot = STRIDED_KINDS.index(kind)
        stride = STRIDES[(org_index + 5 * slot) % len(STRIDES)]
    if kind == "strided_below":
        length = max(1, min(cap // 2, budget // 2))
        return {"base": base, "stride": stride, "length": length,
                "sweeps": max(2, budget // length)}
    if kind == "strided_above":
        return {"base": base, "stride": stride, "length": above,
                "sweeps": 2}
    if kind == "multistride_below":
        length = max(1, min(cap // 32, budget // 32))
        return {"length": length, "num_vectors": 16,
                "sweeps": max(2, budget // (16 * length)),
                "seed": rng.randrange(1 << 31)}
    if kind == "multistride_above":
        return {"length": above // 16, "num_vectors": 16, "sweeps": 2,
                "seed": rng.randrange(1 << 31)}
    if kind == "matmul":
        n = _largest((4, 8, 12, 16, 24, 32), lambda n: 3 * n ** 3, budget)
        return {"n": n, "block": 4 if n >= 8 else 2,
                "seed": rng.randrange(1 << 31)}
    if kind == "lu":
        n = _largest((8, 12, 16, 20, 24, 32), lambda n: n ** 3, budget)
        return {"n": n, "block": 4, "seed": rng.randrange(1 << 31)}
    if kind == "fft":
        n = _largest(tuple(1 << k for k in range(4, 15)),
                     lambda n: 2 * n * int(math.log2(n)), budget)
        return {"n": n, "seed": rng.randrange(1 << 31)}
    if kind == "spmv":
        rows = max(8, budget // 15)
        return {"rows": rows, "seed": rng.randrange(1 << 31)}
    if kind == "hash_join":
        return {"build_rows": max(8, budget // 24),
                "seed": rng.randrange(1 << 31)}
    if kind == "bfs":
        return {"nodes": max(8, budget // 10),
                "seed": rng.randrange(1 << 31)}
    if kind == "mergesort":
        return {"n": max(8, budget // 18), "seed": rng.randrange(1 << 31)}
    if kind == "stream":
        return {"base": base, "stride": stride, "window": above,
                "length": 2 * above}
    raise ValueError(f"unknown trace kind {kind!r}")


def build_pairs(seed: int, tiny: bool = False) -> list[Pair]:
    """Every (kind, organisation) pair of one seed, in seeded order."""
    pairs = []
    for org_index, org in enumerate(organisations(tiny)):
        for kind in KINDS:
            rng = random.Random(f"{seed}/{kind}/{org.name}")
            pairs.append(Pair(kind, org,
                              pair_params(kind, org, org_index, rng)))
    random.Random(seed).shuffle(pairs)
    return pairs


def make_trace(pair: Pair):
    """Generate the pair's trace through the program's own generators."""
    from repro import trace, workloads
    from repro.trace.stream import StridedStream

    p = pair.params
    kind = pair.kind
    if kind in ("strided_below", "strided_above"):
        return trace.strided(p["base"], p["stride"], p["length"],
                             sweeps=p["sweeps"])
    if kind in ("multistride_below", "multistride_above"):
        return trace.multistride(p["length"], p["num_vectors"], 64,
                                 sweeps=p["sweeps"], seed=p["seed"])
    if kind == "stream":
        return StridedStream(p["length"], stride=p["stride"],
                             window=p["window"], base=p["base"], chunk=4096)
    rng = np.random.default_rng(p.get("seed", 0))
    if kind == "matmul":
        n = p["n"]
        return workloads.blocked_matmul(rng.standard_normal((n, n)),
                                        rng.standard_normal((n, n)),
                                        p["block"])[1]
    if kind == "lu":
        n = p["n"]
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        return workloads.blocked_lu(a, p["block"])[1]
    if kind == "fft":
        return workloads.fft_radix2(rng.standard_normal(p["n"]))[1]
    if kind == "spmv":
        rows = p["rows"]
        return workloads.spmv_csr(rows=rows, cols=rows, nnz_per_row=4,
                                  seed=p["seed"])[1]
    if kind == "hash_join":
        build = p["build_rows"]
        return workloads.hash_join(build_rows=build, probe_rows=2 * build,
                                   buckets=max(4, build // 4),
                                   key_space=4 * build, seed=p["seed"])[1]
    if kind == "bfs":
        return workloads.bfs(nodes=p["nodes"], avg_degree=3,
                             seed=p["seed"])[1]
    if kind == "mergesort":
        return workloads.mergesort(n=p["n"], seed=p["seed"])[1]
    raise ValueError(f"unknown trace kind {kind!r}")


def run_pair(pair: Pair) -> tuple[int, list[tuple[int, int, int]]]:
    """Generate and replay one pair; returns ``(refs, counts)``.

    ``counts`` holds ``(accesses, hits, misses)`` of the classified
    replay first, then of each unclassified one.
    """
    from repro.trace import replay

    trace = make_trace(pair)
    builds = [True] + [False] * pair.org.repeats
    counts = []
    for classify in builds:
        stats = replay(trace, pair.org.build(classify)).stats
        counts.append((stats.accesses, stats.hits, stats.misses))
    return len(trace) * len(builds), counts


def pair_failure(pair: Pair, refs: int, counts, seen: dict,
                 expected: dict | None) -> str | None:
    """Why one pair execution is wrong, or ``None`` when it is right."""
    length = refs // len(counts)
    first = counts[0]
    if first[0] != length:
        return f"{pair.key}: replayed {first[0]} of {length} references"
    if any(c != first for c in counts[1:]):
        return (f"{pair.key}: classified {first[1:]} != unclassified "
                f"{[c[1:] for c in counts[1:]]}")
    if pair.key in seen and seen[pair.key] != first:
        return f"{pair.key}: {first} differs from an earlier round"
    seen[pair.key] = first
    if expected is not None and pair.key in expected:
        if list(first[1:]) != list(expected[pair.key]):
            return (f"{pair.key}: hits/misses {first[1:]} != recorded "
                    f"{expected[pair.key]}")
    return None


def load_expected(seed: int, tiny: bool) -> dict | None:
    """Recorded counts when this run uses the recorded seed and sizes."""
    if tiny or seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_PATH.read_text())["pairs"]


def run(seed: int, seconds: float, *, tiny: bool = False,
        expected: dict | None = None) -> dict:
    """The timed phase; returns the workload's raw result.

    Rates and latencies use each pair's median time across rounds, so a
    host stall during one round does not move them.
    """
    pairs = build_pairs(seed, tiny)
    ready_ns = time.perf_counter_ns()
    times_ms: dict[str, list[float]] = {pair.key: [] for pair in pairs}
    refs_of: dict[str, int] = {}
    failures: list[str] = []
    seen: dict = {}
    attempted = rounds = 0
    t0 = time.perf_counter_ns()
    while True:
        for pair in pairs:
            start = time.perf_counter_ns()
            refs, counts = run_pair(pair)
            times_ms[pair.key].append((time.perf_counter_ns() - start) / 1e6)
            refs_of[pair.key] = refs
            attempted += 1
            failure = pair_failure(pair, refs, counts, seen, expected)
            if failure is not None:
                failures.append(failure)
        rounds += 1
        if time.perf_counter_ns() - t0 >= seconds * 1e9:
            break
    t1 = time.perf_counter_ns()
    typical_ms = [statistics.median(values) for values in times_ms.values()]
    round_refs = sum(refs_of.values())
    wall_s = (t1 - t0) / 1e9
    return {
        "ready_ns": ready_ns, "t0": t0, "t1": t1,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "work_units": round_refs * rounds, "wall_s": wall_s,
        "metrics": {
            "work_per_s": round_refs / (sum(typical_ms) / 1e3),
            "op_p50_ms": float(np.percentile(typical_ms, 50)),
            "op_p90_ms": float(np.percentile(typical_ms, 90)),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "detail": {"refs_per_s": round_refs / (sum(typical_ms) / 1e3),
                   "mean_refs_per_s": round_refs * rounds / wall_s,
                   "rounds": rounds, "pairs": len(pairs)},
        "counts": dict(seen),
    }


def record_expected() -> None:
    """Rewrite ``expected_replay.json`` from one round at the default seed."""
    seen: dict = {}
    for pair in build_pairs(DEFAULT_SEED):
        refs, counts = run_pair(pair)
        failure = pair_failure(pair, refs, counts, seen, None)
        if failure is not None:
            raise SystemExit(failure)
    rows = ",\n".join(f"  {json.dumps(key)}: {list(value[1:])}"
                      for key, value in sorted(seen.items()))
    EXPECTED_PATH.write_text(
        f'{{"seed": {DEFAULT_SEED}, "pairs": {{\n{rows}\n}}}}\n')


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv == ["--record-expected"]:
        record_expected()
        return 0
    args = common.workload_args(argv)
    common.start_tracing(args)
    import repro.cache  # noqa: F401 - part of set-up
    import repro.trace  # noqa: F401
    import repro.workloads  # noqa: F401

    if args.setup_only:
        build_pairs(args.seed, args.tiny)
        args.out.write_text(json.dumps({"ready_ns": time.perf_counter_ns()}))
        return 0
    result = run(args.seed, args.seconds, tiny=args.tiny,
                 expected=load_expected(args.seed, args.tiny))
    result.pop("counts")
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
