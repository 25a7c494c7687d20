"""The nine ablation studies, as importable pure functions.

Each study is a registry job (:mod:`repro.orchestrate.jobs`) that
writes ``results/ablation_*.txt``; its claims are checked in
:mod:`repro.experiments.checks`.  Every function returns an
:class:`AblationResult`, rendered by :func:`render_ablation`.

The studies (design-space context for the paper's mapping attack):

* **associativity** — k-way LRU vs prime mapping (Section 2.1);
* **interleave** — prime-number *memory* interleaving (Budnik–Kuck/BSP);
* **linesize** — line size under strided access (Section 2.2);
* **mappings** — bit-slice / XOR / column-associative / Mersenne index;
* **prefetch** — Fu & Patel prefetching vs conflict removal;
* **prime-linesize** — does prime mapping survive multi-word lines?;
* **replacement** — LRU/FIFO/random/Belady under serial sweeps;
* **sensitivity** — MVL and overhead constants perturbed;
* **victim** — a Jouppi victim buffer vs vector-length eviction runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.render import render_table

__all__ = [
    "ALL_ABLATIONS",
    "AblationResult",
    "ablation_associativity",
    "ablation_interleave",
    "ablation_linesize",
    "ablation_mappings",
    "ablation_prefetch",
    "ablation_prime_linesize",
    "ablation_replacement",
    "ablation_sensitivity",
    "ablation_victim",
    "render_ablation",
]


@dataclass(frozen=True)
class AblationResult:
    """One study's table: a name, column headers, and data rows."""

    name: str
    headers: list[str]
    rows: list[list]

    def row(self, *prefix) -> list:
        """The first row whose leading cells equal ``prefix``."""
        for row in self.rows:
            if tuple(row[:len(prefix)]) == prefix:
                return row
        raise KeyError(f"{self.name}: no row starting with {prefix!r}")


def render_ablation(result: AblationResult) -> str:
    """The fixed-width table of a study's ``results/`` artifact."""
    return render_table(result.headers, result.rows)


# ----------------------------------------------------------------------
# associativity (Section 2.1)

ASSOC_LINES = 8192
ASSOC_PRIME_C = 13
ASSOC_VECTOR_LENGTH = 2048
#: gcd with 8192: 1, 1, 8, 32, 64, 256 -> per-set load 0.25..64 elements
ASSOC_STRIDES = [1, 7, 8, 32, 64, 256]


def ablation_associativity() -> AblationResult:
    """Replay a stride spectrum through k-way caches and the prime cache."""
    from repro.cache import (
        DirectMappedCache,
        FullyAssociativeCache,
        PrimeMappedCache,
        SetAssociativeCache,
    )
    from repro.trace.patterns import strided
    from repro.trace.records import Trace
    from repro.trace.replay import replay

    trace = Trace(description="stride spectrum")
    for i, stride in enumerate(ASSOC_STRIDES):
        trace.extend(strided(i * (1 << 20), stride, ASSOC_VECTOR_LENGTH,
                             sweeps=2))
    contenders = [
        ("direct 8192", DirectMappedCache(num_lines=ASSOC_LINES)),
        ("2-way LRU", SetAssociativeCache(num_sets=ASSOC_LINES // 2,
                                          num_ways=2)),
        ("4-way LRU", SetAssociativeCache(num_sets=ASSOC_LINES // 4,
                                          num_ways=4)),
        ("8-way LRU", SetAssociativeCache(num_sets=ASSOC_LINES // 8,
                                          num_ways=8)),
        ("fully assoc", FullyAssociativeCache(num_lines=ASSOC_LINES)),
        ("prime 8191", PrimeMappedCache(c=ASSOC_PRIME_C)),
    ]
    rows = []
    for label, cache in contenders:
        result = replay(trace, cache, t_m=16)
        rows.append([label, result.hit_ratio,
                     result.stats.conflict_misses, result.stall_cycles])
    return AblationResult(
        "ablation_associativity",
        ["organisation", "hit ratio", "conflict misses", "stall cycles"],
        rows)


# ----------------------------------------------------------------------
# prime-number memory interleaving (the BSP ancestor)

INTERLEAVE_T_M = 8
INTERLEAVE_BANKS_POW2 = 16
INTERLEAVE_BANKS_PRIME = 17


def ablation_interleave() -> AblationResult:
    """Bank stalls of a stride-16 sweep under each interleave scheme."""
    from repro.analytical.base import MachineConfig
    from repro.machine import MMMachine, VectorLoad
    from repro.memory import (
        InterleavedMemory,
        LowOrderInterleave,
        PrimeInterleave,
        SkewedInterleave,
    )

    schemes = [
        ("low-order 16", LowOrderInterleave(INTERLEAVE_BANKS_POW2)),
        ("skewed 16", SkewedInterleave(INTERLEAVE_BANKS_POW2)),
        ("prime 17", PrimeInterleave(INTERLEAVE_BANKS_PRIME)),
    ]
    config = MachineConfig(num_banks=INTERLEAVE_BANKS_POW2,
                           memory_access_time=INTERLEAVE_T_M)
    rows = []
    for label, scheme in schemes:
        memory = InterleavedMemory(scheme.num_banks, INTERLEAVE_T_M, scheme)
        machine = MMMachine(config, memory=memory)
        report = machine.execute(
            [VectorLoad(base=0, stride=INTERLEAVE_BANKS_POW2, length=256)]
        )
        rows.append([label, report.bank_stall_cycles, report.cycles])
    return AblationResult(
        "ablation_interleave",
        ["interleave", "bank stall cycles", "total cycles"],
        rows)


# ----------------------------------------------------------------------
# line size under strided access (Section 2.2)

LINESIZE_CAPACITY_WORDS = 4096
LINESIZE_SIZES = [1, 2, 4, 8, 16]


def ablation_linesize() -> AblationResult:
    """Hit ratios per line size for unit-stride and long-stride sweeps."""
    from repro.cache import DirectMappedCache
    from repro.trace.patterns import strided
    from repro.trace.replay import replay

    rows = []
    for line_size in LINESIZE_SIZES:
        cache = DirectMappedCache(
            num_lines=LINESIZE_CAPACITY_WORDS // line_size,
            line_size_words=line_size)
        unit = replay(strided(0, 1, 2048, sweeps=2), cache, t_m=16)
        cache = DirectMappedCache(
            num_lines=LINESIZE_CAPACITY_WORDS // line_size,
            line_size_words=line_size)
        # stride 33: coprime with the line count, so misses are pure
        # pollution/capacity effects rather than mapping conflicts
        long_stride = replay(strided(0, 33, 2048, sweeps=2), cache, t_m=16)
        rows.append([line_size, unit.hit_ratio, long_stride.hit_ratio])
    return AblationResult(
        "ablation_linesize",
        ["line size (words)", "hit ratio stride 1", "hit ratio stride 33"],
        rows)


# ----------------------------------------------------------------------
# the index-mapping design space

MAPPINGS_LINES = 128
MAPPINGS_PRIME_C = 7


def _mapping_traces():
    from repro.trace.patterns import fft_butterflies, strided, subblock

    return [
        ("stride-16 x3", strided(0, 16, 100, sweeps=3)),
        # stride 2^(2c): beyond the XOR fold's reach
        ("stride-16384 x3", strided(0, 1 << 14, 100, sweeps=3)),
        # the paper's tailored conflict-free shape for P=384 at C=127:
        # rho = min(384 mod 127, 127 - 384 mod 127) = 3 -> (3, 42)
        ("subblock P=384 x2", subblock(384, 3, 42, sweeps=2)),
        ("FFT n=64 (fits)", fft_butterflies(64)),
    ]


def ablation_mappings() -> AblationResult:
    """Bit-slice vs XOR vs column-associative vs Mersenne index."""
    from repro.cache import (
        ColumnAssociativeCache,
        DirectMappedCache,
        PrimeMappedCache,
        XorMappedCache,
    )
    from repro.trace.replay import replay

    contenders = [
        ("direct", lambda: DirectMappedCache(num_lines=MAPPINGS_LINES)),
        ("xor-hash", lambda: XorMappedCache(num_lines=MAPPINGS_LINES)),
        ("column-assoc",
         lambda: ColumnAssociativeCache(num_lines=MAPPINGS_LINES)),
        ("prime", lambda: PrimeMappedCache(c=MAPPINGS_PRIME_C)),
    ]
    rows = []
    for trace_label, trace in _mapping_traces():
        for label, build in contenders:
            result = replay(trace, build(), t_m=16)
            rows.append([trace_label, label, result.hit_ratio,
                         result.stats.conflict_misses])
    return AblationResult(
        "ablation_mappings",
        ["trace", "mapping", "hit ratio", "conflict misses"],
        rows)


# ----------------------------------------------------------------------
# prefetching vs prime mapping (Fu & Patel)

PREFETCH_DIRECT_LINES = 128
PREFETCH_PRIME_C = 7


def ablation_prefetch() -> AblationResult:
    """{mapping} x {prefetch scheme} on folding, mixed and FFT traces."""
    from repro.cache import (
        DirectMappedCache,
        PrefetchingCache,
        PrimeMappedCache,
        SequentialPrefetcher,
        StridePrefetcher,
    )
    from repro.trace.patterns import fft_butterflies, strided
    from repro.trace.records import Trace
    from repro.trace.replay import replay

    contenders = [
        ("direct",
         lambda: DirectMappedCache(num_lines=PREFETCH_DIRECT_LINES)),
        ("direct+seq", lambda: PrefetchingCache(
            DirectMappedCache(num_lines=PREFETCH_DIRECT_LINES),
            SequentialPrefetcher(2))),
        ("direct+stride", lambda: PrefetchingCache(
            DirectMappedCache(num_lines=PREFETCH_DIRECT_LINES),
            StridePrefetcher(2))),
        ("prime", lambda: PrimeMappedCache(c=PREFETCH_PRIME_C)),
        ("prime+stride", lambda: PrefetchingCache(
            PrimeMappedCache(c=PREFETCH_PRIME_C), StridePrefetcher(2))),
    ]
    mixed = Trace(description="mixed strides")
    for i, stride in enumerate([1, 7, 16, 64]):
        mixed.extend(strided(i << 20, stride, 100, sweeps=2))
    traces = [("stride-64 x3 sweeps", strided(0, 64, 100, sweeps=3)),
              ("mixed strides", mixed),
              ("FFT n=256", fft_butterflies(256))]
    rows = []
    for trace_label, trace in traces:
        for label, build in contenders:
            cache = build()
            result = replay(trace, cache, t_m=16)
            traffic = (cache.memory_traffic
                       if isinstance(cache, PrefetchingCache)
                       else cache.stats.misses)
            rows.append([trace_label, label, result.hit_ratio,
                         result.stats.conflict_misses, traffic])
    return AblationResult(
        "ablation_prefetch",
        ["trace", "cache", "hit ratio", "conflict misses", "memory traffic"],
        rows)


# ----------------------------------------------------------------------
# prime mapping with multi-word lines

PRIME_LINESIZE_C = 7
PRIME_LINESIZE_DIRECT_LINES = 128
PRIME_LINESIZE_VECTOR_LENGTH = 100
PRIME_LINESIZE_SWEEPS = 2


def ablation_prime_linesize() -> AblationResult:
    """Direct vs prime across line sizes for unit / power-of-two strides."""
    from repro.cache import DirectMappedCache, PrimeMappedCache
    from repro.trace.patterns import strided
    from repro.trace.replay import replay

    rows = []
    for line_size in (1, 2, 4, 8):
        for stride, label in ((1, "unit"), (64, "power-of-two")):
            trace = strided(0, stride, PRIME_LINESIZE_VECTOR_LENGTH,
                            sweeps=PRIME_LINESIZE_SWEEPS)
            direct = replay(
                trace,
                DirectMappedCache(num_lines=PRIME_LINESIZE_DIRECT_LINES,
                                  line_size_words=line_size),
                t_m=16,
            )
            prime = replay(
                trace,
                PrimeMappedCache(c=PRIME_LINESIZE_C,
                                 line_size_words=line_size),
                t_m=16,
            )
            rows.append([line_size, label, direct.hit_ratio,
                         prime.hit_ratio, direct.stats.conflict_misses,
                         prime.stats.conflict_misses])
    return AblationResult(
        "ablation_prime_linesize",
        ["line size", "stride", "direct hits", "prime hits",
         "direct conflicts", "prime conflicts"],
        rows)


# ----------------------------------------------------------------------
# replacement policy under serial sweeps (Section 2.1)

REPLACEMENT_CAPACITY = 64


def ablation_replacement() -> AblationResult:
    """LRU vs FIFO vs random vs Belady on cyclic and reuse patterns."""
    from repro.cache import FullyAssociativeCache
    from repro.cache.belady import simulate_opt
    from repro.trace.patterns import strided
    from repro.trace.records import Trace
    from repro.trace.replay import replay

    capacity = REPLACEMENT_CAPACITY
    over_capacity = strided(0, 1, capacity + 8, sweeps=4)
    # reuse-friendly: a hot vector re-read between one-shot streams
    friendly = Trace(description="hot/cold mix")
    for round_index in range(4):
        friendly.extend(strided(0, 1, capacity // 2, sweeps=1))        # hot
        friendly.extend(
            strided(10_000 + round_index * 1000, 1, capacity // 2)     # cold
        )
    rows = []
    for policy in ("lru", "fifo", "random"):
        cyclic = replay(
            over_capacity,
            FullyAssociativeCache(num_lines=capacity, policy=policy),
        )
        reuse = replay(
            friendly, FullyAssociativeCache(num_lines=capacity,
                                            policy=policy)
        )
        rows.append([policy, cyclic.hit_ratio, reuse.hit_ratio])
    rows.append([
        "opt (clairvoyant)",
        simulate_opt(over_capacity, total_lines=capacity).hit_ratio,
        simulate_opt(friendly, total_lines=capacity).hit_ratio,
    ])
    return AblationResult(
        "ablation_replacement",
        ["policy", "hit ratio (cyclic sweep)", "hit ratio (hot/cold reuse)"],
        rows)


# ----------------------------------------------------------------------
# sensitivity to the fixed model constants

SENSITIVITY_T_M = 32
SENSITIVITY_BANKS = 64


def _sensitivity_point(mvl, loop_overhead, strip_overhead, start_base):
    from repro.analytical.base import MachineConfig
    from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
    from repro.analytical.mm import MMModel
    from repro.analytical.vcm import VCM

    cfg = MachineConfig(
        num_banks=SENSITIVITY_BANKS, memory_access_time=SENSITIVITY_T_M,
        cache_lines=8192, mvl=mvl, loop_overhead=loop_overhead,
        strip_overhead=strip_overhead, start_base=start_base,
    )
    vcm = VCM(blocking_factor=2048, reuse_factor=2048, p_ds=0.1)
    mm = MMModel(cfg).cycles_per_result(vcm)
    direct = DirectMappedModel(cfg).cycles_per_result(vcm)
    prime = PrimeMappedModel(
        cfg.with_(cache_lines=8191)).cycles_per_result(vcm)
    return mm, direct, prime


def ablation_sensitivity() -> AblationResult:
    """The headline conclusion under perturbed MVL/overhead constants."""
    variants = [
        ("paper (MVL=64, 10/15/30)", 64, 10, 15, 30),
        ("short registers (MVL=16)", 16, 10, 15, 30),
        ("long registers (MVL=256)", 256, 10, 15, 30),
        ("double overheads", 64, 20, 30, 60),
        ("zero overheads", 64, 0, 0, 1),
    ]
    rows = []
    for label, mvl, loop, strip, start in variants:
        mm, direct, prime = _sensitivity_point(mvl, loop, strip, start)
        rows.append([label, mm, direct, prime, direct / prime, mm / prime])
    return AblationResult(
        "ablation_sensitivity",
        ["constants", "MM", "direct", "prime", "direct/prime", "MM/prime"],
        rows)


# ----------------------------------------------------------------------
# victim cache vs prime mapping

VICTIM_DIRECT_LINES = 128
VICTIM_PRIME_C = 7


def ablation_victim() -> AblationResult:
    """Jouppi victim buffers on ping-pong pairs vs strided eviction runs."""
    from repro.cache import DirectMappedCache, PrimeMappedCache, VictimCache
    from repro.trace.patterns import strided
    from repro.trace.records import Trace

    traces = [
        ("ping-pong pair",
         Trace.from_addresses([0, VICTIM_DIRECT_LINES] * 40,
                              description="ping-pong")),
        ("stride-16 x3 sweeps", strided(0, 16, 100, sweeps=3)),
    ]
    rows = []
    for trace_label, trace in traces:
        contenders = [
            ("direct", DirectMappedCache(num_lines=VICTIM_DIRECT_LINES)),
            ("direct+victim4", VictimCache(
                DirectMappedCache(num_lines=VICTIM_DIRECT_LINES),
                entries=4)),
            ("direct+victim16", VictimCache(
                DirectMappedCache(num_lines=VICTIM_DIRECT_LINES),
                entries=16)),
            ("prime", PrimeMappedCache(c=VICTIM_PRIME_C)),
        ]
        for label, cache in contenders:
            for access in trace:
                cache.access(access.address)
            to_memory = (cache.misses_costing_memory()
                         if isinstance(cache, VictimCache)
                         else cache.stats.misses)
            rows.append([trace_label, label, cache.stats.miss_ratio,
                         to_memory])
    return AblationResult(
        "ablation_victim",
        ["trace", "cache", "miss ratio", "lines fetched from memory"],
        rows)


#: Registry keyed by the ``results/`` artifact stem each study writes.
ALL_ABLATIONS = {
    "ablation_associativity": ablation_associativity,
    "ablation_interleave": ablation_interleave,
    "ablation_linesize": ablation_linesize,
    "ablation_mappings": ablation_mappings,
    "ablation_prefetch": ablation_prefetch,
    "ablation_prime_linesize": ablation_prime_linesize,
    "ablation_replacement": ablation_replacement,
    "ablation_sensitivity": ablation_sensitivity,
    "ablation_victim": ablation_victim,
}
