"""The oracle registry: every fast/derived implementation paired with its
reference.

An *oracle* cross-checks two independent computations of the same
quantity and reports the first diverging value.  The registry pins the
four load-bearing pairs of this reproduction (plus the prime-mapping
geometry law):

* ``cache-batch`` — the batched :meth:`repro.cache.base.Cache.access_many`
  fast path against the scalar :meth:`~repro.cache.base.Cache.access`
  state machine, per access and per statistic.
* ``machine-timing`` — the op-table timing kernel of the machines
  (``backend="compiled"``) against the per-element scalar machine loop
  (``backend="scalar"``), bit-for-bit over the full
  :class:`~repro.machine.report.ExecutionReport`.
* ``analytical-vs-simulated`` — the analytical CC/MM stall formulas
  against executable caches and banks: exact number-theoretic laws for
  fixed strides, statistical tolerances for the stochastic VCM grid.
* ``congruence`` — :mod:`repro.analytical.congruence` against brute-force
  enumeration of the congruence equations.
* ``prime-geometry`` — :meth:`PrimeMappedCache.lines_touched_by_stride`
  against direct enumeration of the visited line slots.
* ``trace-columnar`` — the block-granular (columnar) trace generators and
  workload kernels against the retained per-reference scalar paths,
  addresses and write flags bit-for-bit.
* ``kernel-backend`` — the two replay/timing/Belady engines
  (``backend="scalar"`` and ``"compiled"``, the latter through
  :mod:`repro.kernels`) against each other, bit-for-bit across cache
  statistics, per-access outcomes, machine reports and bank state.
* ``analytical-batched`` — the vectorised surrogate engine
  (:mod:`repro.analytical.batched`) against the scalar analytical stack
  it mirrors, element-wise over grids that always batch several
  distinct ``t_m`` values per call so broadcast-collapse faults cannot
  hide behind a uniform axis.  The set-associative model evaluates its
  random-stride sums with the same gcd-class code, so its reference here
  is :class:`StrideEnumeratedAssocModel`, which sums stride by stride.
* ``lru-stack`` — an independent LRU witness: Mattson stack distances
  (:func:`repro.kernels.stack_hits` on both providers, per set of a
  stable sort by set) against the hit bitmaps of direct, prime, hashed
  and 2/4-way LRU caches.  Every other cache oracle compares two
  transliterations of one state machine; this one uses a different
  algorithm, so a misconception shared by the engines still shows.
* ``cache-zoo`` — the zoo organisations (docs/cache-zoo.md):
  bicameral batched routing vs the scalar ``set_of`` at exact range
  boundaries, hashed-index batch mapping vs the seeded scalar hash,
  the birthday-paradox collision law vs measured placements (exact per
  seed, statistical across seeds), L1/L2 hierarchy invariants
  (inclusion, per-level counters, direct-L2 equivalence) and the L2
  hit-time law through the CC machine.

Each oracle supplies ``build_cases(mode, rng)`` (seeded, reproducible
case configurations — plain JSON-safe dicts) and ``check_case(config)``
(pure: rebuild everything from the config, return divergences).  The
:class:`~repro.verify.runner.DifferentialRunner` sweeps them and wraps
divergences into structured :class:`~repro.verify.result.Mismatch`
records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analytical import congruence
from repro.analytical.base import MachineConfig
from repro.analytical.mm import MMModel, self_stalls_for_stride
from repro.analytical.set_assoc import SetAssociativeModel
from repro.cache import (
    DirectMappedCache,
    FullyAssociativeCache,
    HashedIndexCache,
    MissKind,
    PrimeMappedCache,
    SetAssociativeCache,
    TwoLevelCache,
)
from repro.machine.ops import LoadPair, VectorCompute, VectorLoad, VectorStore
from repro.machine.vector_machine import CCMachine, MMMachine
from repro.machine.vcm_driver import VCMDriver
from repro.analytical.vcm import VCM
from repro.memory.banks import (
    InterleavedMemory,
    LowOrderInterleave,
    PrimeInterleave,
    SkewedInterleave,
)

__all__ = ["Oracle", "ORACLES", "Divergence", "StrideEnumeratedAssocModel",
           "default_oracles"]

#: ``(metric, expected, actual, detail)`` — one diverging value.
Divergence = tuple


@dataclass(frozen=True)
class Oracle:
    """One fast/derived implementation paired with its reference.

    Attributes:
        name: registry key (stable; mutation catalogue refers to it).
        description: what pair of implementations is cross-checked.
        build_cases: ``(mode, rng) -> list[config]`` — seeded sweep of
            JSON-safe case configurations (each carries its own ``seed``).
        check_case: ``config -> list[Divergence]`` — pure differential
            check of one case; empty list means agreement.
    """

    name: str
    description: str
    build_cases: Callable[[str, random.Random], list[dict]]
    check_case: Callable[[dict], list[Divergence]]


def _case_counts(mode: str, quick: int, deep: int) -> int:
    if mode not in ("quick", "deep"):
        raise ValueError("mode must be 'quick' or 'deep'")
    return quick if mode == "quick" else deep


# ---------------------------------------------------------------------------
# cache-batch: Cache.access_many vs scalar Cache.access
# ---------------------------------------------------------------------------

_CACHE_KINDS = ("direct", "prime", "set2", "full")


def _make_case_cache(config: dict):
    kind = config["cache"]
    line_size = config["line_size"]
    classify = config["classify"]
    write_allocate = config["write_allocate"]
    if kind == "direct":
        return DirectMappedCache(
            num_lines=config["lines"], line_size_words=line_size,
            classify_misses=classify, write_allocate=write_allocate)
    if kind == "prime":
        return PrimeMappedCache(
            c=config["c"], line_size_words=line_size,
            classify_misses=classify, write_allocate=write_allocate)
    if kind in ("set2", "set4"):
        ways = int(kind[-1])
        return SetAssociativeCache(
            num_sets=config["lines"] // ways, num_ways=ways,
            line_size_words=line_size, classify_misses=classify,
            write_allocate=write_allocate)
    if kind == "hashed":
        return HashedIndexCache(
            num_sets=config["lines"], seed=config["seed"],
            line_size_words=line_size, classify_misses=classify,
            write_allocate=write_allocate)
    if kind == "full":
        return FullyAssociativeCache(
            num_lines=config["lines"], line_size_words=line_size,
            classify_misses=classify, write_allocate=write_allocate)
    if kind == "two-level":
        return TwoLevelCache(
            l1_sets=config["l1_sets"], l2_sets=config["l2_sets"],
            l1_ways=config["l1_ways"], l2_ways=config["l2_ways"],
            line_size_words=line_size, classify_misses=classify,
            write_allocate=write_allocate)
    raise ValueError(f"unknown cache kind {kind!r}")


def _case_trace(config: dict) -> tuple[list[int], list[bool] | None]:
    """Materialise the case's reference stream from its seeded spec."""
    rng = random.Random(config["seed"])
    pattern = config["pattern"]
    length = config["length"]
    if pattern == "strided":
        base = rng.randrange(1 << 12)
        stride = config["stride"]
        addresses = [base + i * stride
                     for i in range(length)] * config["sweeps"]
    elif pattern == "random":
        span = config["span"]
        addresses = [rng.randrange(span) for _ in range(length)]
    else:  # multistride: several vectors, fresh base+stride each, 2 sweeps
        addresses = []
        for _ in range(4):
            base = rng.randrange(1 << 12)
            stride = rng.randint(1, config["span"])
            vector = [base + i * stride for i in range(length // 4)]
            addresses.extend(vector * config["sweeps"])
    write_frac = config["write_frac"]
    if write_frac == 0:
        return addresses, None
    return addresses, [rng.random() < write_frac for _ in addresses]


#: A cyclic sweep of 33 lines through a 32-line fully-associative LRU
#: cache: from the second sweep on, every reference misses at a stack
#: distance of exactly the capacity, a capacity miss that an off-by-one
#: in the shadow's distance test would call a conflict.
_CAPACITY_PLUS_ONE_SWEEP = {
    "cache": "full", "c": 5, "lines": 32, "line_size": 1,
    "classify": True, "write_allocate": True, "pattern": "strided",
    "length": 33, "stride": 1, "sweeps": 3, "span": 64,
    "write_frac": 0.0, "seed": 0,
}


def _cache_batch_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 3, 12)
    # pinned: a dense reused sweep over a small prime cache, so any fold
    # fault in the batched set mapping diverges from the scalar path
    # regardless of what the random grid draws; and the capacity + 1
    # sweep, so the batched miss labels meet a distance equal to the
    # shadow's capacity
    cases = [{
        "cache": "prime", "c": 5, "lines": 32, "line_size": 1,
        "classify": True, "write_allocate": True, "pattern": "strided",
        "length": 64, "stride": 1, "sweeps": 2, "span": 64,
        "write_frac": 0.0, "seed": 0,
    }, dict(_CAPACITY_PLUS_ONE_SWEEP)]
    for _ in range(rounds):
        for kind in _CACHE_KINDS:
            pattern = rng.choice(("strided", "random", "multistride"))
            cases.append({
                "cache": kind,
                "c": rng.choice((5, 7)),
                "lines": rng.choice((32, 128)),
                "line_size": rng.choice((1, 4)),
                "classify": rng.random() < 0.75,
                "write_allocate": rng.random() < 0.75,
                "pattern": pattern,
                "length": rng.choice((64, 256)),
                "stride": rng.randint(1, 200),
                "sweeps": rng.randint(1, 3),
                "span": rng.choice((64, 1024)),
                "write_frac": rng.choice((0.0, 0.25)),
                "seed": rng.randrange(1 << 30),
            })
    return cases


_STAT_FIELDS = ("accesses", "hits", "misses", "reads", "writes", "evictions")


def _check_cache_batch(config: dict) -> list[Divergence]:
    return _diff_batch_vs_scalar(
        lambda: _make_case_cache(config), *_case_trace(config),
        "Cache.access_many vs Cache.access (repro/cache/base.py)")


def _diff_batch_vs_scalar(build: Callable, addresses, writes,
                          detail: str) -> list[Divergence]:
    """Differential core: one scalar-replayed instance vs one batched."""
    reference = build()
    candidate = build()

    ref_hits, ref_kinds = [], []
    from repro.cache.base import MISS_KIND_CODES
    for i, address in enumerate(addresses):
        result = reference.access(
            address, write=writes is not None and writes[i])
        ref_hits.append(result.hit)
        ref_kinds.append(0 if result.miss_kind is None
                         else MISS_KIND_CODES[result.miss_kind])

    batch = candidate.access_many(
        np.asarray(addresses, dtype=np.int64),
        None if writes is None else np.asarray(writes, dtype=bool),
        return_hits=True, return_kinds=True)

    for field in _STAT_FIELDS:
        expected = getattr(reference.stats, field)
        actual = getattr(candidate.stats, field)
        if expected != actual:
            return [(f"stats.{field}", expected, actual, detail)]
        if getattr(batch.delta, field) != expected:
            return [(f"delta.{field}", expected,
                     getattr(batch.delta, field), detail)]
    for kind in MissKind:
        expected = reference.stats.miss_kinds[kind]
        actual = candidate.stats.miss_kinds[kind]
        if expected != actual:
            return [(f"stats.miss_kinds[{kind.value}]", expected, actual,
                     detail)]
    batch_hits = batch.hits.tolist()
    for i, (expected, actual) in enumerate(zip(ref_hits, batch_hits)):
        if expected != actual:
            return [(f"hits[{i}]", expected, actual, detail)]
    batch_kinds = batch.miss_kinds.tolist()
    for i, (expected, actual) in enumerate(zip(ref_kinds, batch_kinds)):
        if expected != actual:
            return [(f"miss_kinds[{i}]", expected, actual, detail)]
    ref_resident = reference.resident_lines()
    cand_resident = candidate.resident_lines()
    if ref_resident != cand_resident:
        delta = sorted(ref_resident ^ cand_resident)[:4]
        return [("resident_lines", sorted(ref_resident)[:4],
                 sorted(cand_resident)[:4],
                 f"{detail}; symmetric difference starts {delta}")]
    return []


# ---------------------------------------------------------------------------
# machine-timing: op-table timing kernel vs scalar machine loop
# ---------------------------------------------------------------------------

_REPORT_FIELDS = (
    "cycles", "elements", "results", "bank_stall_cycles",
    "miss_stall_cycles", "store_stall_cycles", "overhead_cycles",
    "cache_hits", "cache_misses",
)


def _make_case_machine(config: dict, backend: str):
    machine_config = MachineConfig(
        num_banks=config["banks"],
        memory_access_time=config["t_m"],
        cache_lines=config["lines"],
    )
    depth = config["write_buffer_depth"]
    if config["machine"] == "mm":
        return MMMachine(machine_config, write_buffer_depth=depth,
                         backend=backend)
    if config["machine"] == "cc-direct":
        cache = DirectMappedCache(num_lines=config["lines"])
    else:
        cache = PrimeMappedCache(c=config["c"])
        machine_config = machine_config.with_(
            cache_lines=cache.total_lines)
    return CCMachine(machine_config, cache, write_buffer_depth=depth,
                     backend=backend)


def _case_ops(config: dict):
    """Deterministic op list from the case's seeded spec.

    Always includes a stride-``M`` load (every element in one bank — the
    worst bank-busy pattern) so dropped-stall faults cannot hide, a
    re-walk of the first vector with ``expect_cached=True`` (conflict
    stalls on a CC machine), a mismatched-length double stream, and a
    store sweep.
    """
    rng = random.Random(config["seed"])
    banks = config["banks"]
    base = rng.randrange(1 << 10)
    stride = rng.choice((1, 2, banks // 2, banks, banks + 1))
    length = rng.choice((48, 130))
    ops = [
        VectorLoad(base=base, stride=stride, length=length),
        VectorLoad(base=rng.randrange(1 << 10), stride=banks, length=80),
        VectorLoad(base=base, stride=stride, length=length,
                   expect_cached=True),
        LoadPair(
            VectorLoad(base=rng.randrange(1 << 10), stride=rng.randint(1, 8),
                       length=40),
            VectorLoad(base=rng.randrange(1 << 10), stride=banks,
                       length=rng.choice((24, 56)), counts_results=False),
        ),
        VectorStore(base=rng.randrange(1 << 10), stride=rng.randint(1, 4),
                    length=64),
        VectorCompute(length=32),
    ]
    return ops


def _machine_timing_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 2, 8)
    cases = []
    for _ in range(rounds):
        for machine in ("mm", "cc-direct", "cc-prime"):
            for kind in ("ops", "vcm"):
                cases.append({
                    "machine": machine,
                    "kind": kind,
                    "banks": rng.choice((8, 16)),
                    "t_m": rng.choice((4, 12, 20)),
                    "lines": 128,
                    "c": 7,
                    "write_buffer_depth": rng.choice((None, 4)),
                    "block": rng.choice((96, 160)),
                    "reuse": rng.choice((2, 3)),
                    "p_ds": rng.choice((0.0, 0.25)),
                    "seed": rng.randrange(1 << 30),
                })
    return cases


def _check_machine_timing(config: dict) -> list[Divergence]:
    fast = _make_case_machine(config, "compiled")
    slow = _make_case_machine(config, "scalar")
    detail = ("op-table timing kernel vs scalar reference loop "
              "(repro/machine/vector_machine.py)")
    if config["kind"] == "ops":
        report_fast = fast.execute(_case_ops(config))
        report_slow = slow.execute(_case_ops(config))
    else:
        vcm = VCM(
            blocking_factor=config["block"],
            reuse_factor=config["reuse"],
            p_ds=config["p_ds"],
            s2=None if config["p_ds"] == 0 else "random",
        )
        seed = config["seed"]
        report_fast = VCMDriver(fast, seed=seed).run(
            vcm, problem_size=2 * config["block"]).report
        report_slow = VCMDriver(slow, seed=seed).run(
            vcm, problem_size=2 * config["block"]).report
        detail += " driven by VCMDriver"
    for field in _REPORT_FIELDS:
        expected = getattr(report_slow, field)
        actual = getattr(report_fast, field)
        if expected != actual:
            return [(f"report.{field}", expected, actual, detail)]
    if slow.cycle != fast.cycle:
        return [("machine.cycle", slow.cycle, fast.cycle, detail)]
    for field in ("accesses", "stall_cycles"):
        expected = getattr(slow.memory.stats, field)
        actual = getattr(fast.memory.stats, field)
        if expected != actual:
            return [(f"memory.stats.{field}", expected, actual, detail)]
    if slow.memory.stats.bank_accesses != fast.memory.stats.bank_accesses:
        return [("memory.stats.bank_accesses",
                 slow.memory.stats.bank_accesses,
                 fast.memory.stats.bank_accesses, detail)]
    return []


# ---------------------------------------------------------------------------
# analytical-vs-simulated: closed forms vs executable caches and banks
# ---------------------------------------------------------------------------

def _reuse_sweep_misses(cache, block: int, stride: int) -> int:
    """Misses of the second sweep over one strided vector."""
    addresses = [i * stride for i in range(block)]
    for address in addresses:
        cache.access(address)
    before = cache.stats.misses
    for address in addresses:
        cache.access(address)
    return cache.stats.misses - before


def _analytical_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 4, 16)
    # pinned: stride == M puts every element in one bank (the maximal
    # bank-busy pattern), and stride == 2^c - 1 is the prime cache's one
    # pathological stride — the two strides a stall/modulus fault cannot
    # dodge
    cases = [
        {"kind": "mm-strip", "banks": 8, "t_m": 16, "stride": 8, "seed": 0},
        {"kind": "cc-prime-stride", "c": 5, "t_m": 16, "block": 20,
         "stride": 31, "seed": 0},
    ]
    for _ in range(rounds):
        cases.append({
            "kind": "mm-strip",
            "banks": rng.choice((8, 16, 32, 64)),
            "t_m": rng.choice((8, 16, 24, 48)),
            "stride": rng.randint(1, 96),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "cc-direct-stride",
            "lines": rng.choice((64, 128)),
            "t_m": 16,
            "block": rng.randint(2, 128),
            "stride": rng.randint(1, 512),
            "seed": rng.randrange(1 << 30),
        })
        c = rng.choice((5, 7))
        value = (1 << c) - 1
        cases.append({
            "kind": "cc-prime-stride",
            "c": c,
            "t_m": 16,
            "block": rng.randint(2, value),
            "stride": rng.choice(
                (rng.randint(1, 4 * value), value, 2 * value, 3 * value)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "mm-closed-vs-sum",
            "banks": rng.choice((16, 32, 64)),
            "t_m": rng.choice((4, 8, 16, 32)),
            "seed": rng.randrange(1 << 30),
        })
    # the stochastic VCM grid is expensive: a fixed handful of points
    depth = _case_counts(mode, 1, 2)
    grid = [("mm", 0.35), ("prime", 0.35), ("direct", 0.9)]
    for model, tolerance in grid:
        for t_m in ((8,) if depth == 1 else (8, 16)):
            cases.append({
                "kind": "validation",
                "model": model,
                "t_m": t_m,
                "block": 512,
                "seeds": 4 if depth == 1 else 8,
                "blocks": 3 if depth == 1 else 4,
                "tolerance": tolerance,
                "seed": 0,
            })
    return cases


def _check_analytical(config: dict) -> list[Divergence]:
    kind = config["kind"]
    if kind == "mm-strip":
        machine_config = MachineConfig(
            num_banks=config["banks"],
            memory_access_time=config["t_m"], cache_lines=128)
        stride = config["stride"]
        memory = InterleavedMemory(config["banks"], config["t_m"])
        mvl = machine_config.mvl
        # a warming strip, then the measured strip right behind it: one
        # element per cycle, each held up by its bank's busy window
        cycle = steady = 0
        for k in range(2 * mvl):
            stall = memory.access(k * stride, cycle).stall_cycles
            cycle += 1 + stall
            if k >= mvl:
                steady += stall
        predicted = self_stalls_for_stride(stride, machine_config)
        if steady != predicted:
            return [("mm.steady_strip_stalls", steady, predicted,
                     "analytical/mm.self_stalls_for_stride vs "
                     "memory/banks.InterleavedMemory (warmed strip)")]
        return []
    if kind == "cc-direct-stride":
        lines, t_m = config["lines"], config["t_m"]
        model = SetAssociativeModel(
            MachineConfig(num_banks=32, memory_access_time=t_m,
                          cache_lines=lines), ways=1)
        cache = DirectMappedCache(num_lines=lines, classify_misses=False)
        measured = _reuse_sweep_misses(cache, config["block"],
                                       config["stride"])
        predicted = model.self_stalls_for_stride(
            config["block"], config["stride"]) / t_m
        if measured != predicted:
            return [("direct.reuse_sweep_misses", measured, predicted,
                     "analytical/set_assoc.SetAssociativeModel vs "
                     "cache/direct.DirectMappedCache replay")]
        return []
    if kind == "cc-prime-stride":
        from repro.analytical.cc import PrimeMappedModel

        c, t_m = config["c"], config["t_m"]
        value = (1 << c) - 1
        block, stride = config["block"], config["stride"]
        cache = PrimeMappedCache(c=c, classify_misses=False)
        measured = _reuse_sweep_misses(cache, block, stride)
        # the conflict-freedom law: a reused sweep of B <= C elements
        # misses everywhere iff C divides the stride, else nowhere
        law = block if (stride != 0 and stride % value == 0) else 0
        if measured != law:
            return [("prime.reuse_sweep_misses", law, measured,
                     "prime conflict-freedom law vs "
                     "cache/prime.PrimeMappedCache replay")]
        model = PrimeMappedModel(
            MachineConfig(num_banks=32, memory_access_time=t_m,
                          cache_lines=value))
        stalls = model.self_stalls_for_stride(block, stride)
        # Eq. (8) counts the B - 1 refills after the first; the replayed
        # second sweep counts all B — same law, off by exactly one fill.
        expected = (block - 1) * t_m if measured else 0.0
        if stalls != expected:
            return [("prime.model_stalls", expected, stalls,
                     "analytical/cc.PrimeMappedModel.self_stalls_for_stride"
                     " vs replayed reuse misses")]
        return []
    if kind == "mm-closed-vs-sum":
        model = MMModel(MachineConfig(
            num_banks=config["banks"],
            memory_access_time=config["t_m"], cache_lines=128))
        closed = model.self_interference(0.25, "random")
        summed = model.self_interference_sum_form(0.25)
        if not math.isclose(closed, summed, rel_tol=1e-9, abs_tol=1e-9):
            return [("mm.I_s_closed_form", summed, closed,
                     "Eq.(2) closed form vs divisor-function sum "
                     "(analytical/mm.py)")]
        return []
    if kind == "validation":
        from repro.experiments.validation import validate_point

        point = validate_point(
            config["model"], config["t_m"], config["block"],
            seeds=config["seeds"], blocks=config["blocks"])
        if point.relative_error >= config["tolerance"]:
            return [(f"validation.{config['model']}.relative_error",
                     f"< {config['tolerance']}", point.relative_error,
                     f"predicted {point.predicted:.3f} vs measured "
                     f"{point.measured:.3f} "
                     "(experiments/validation.validate_point)")]
        return []
    raise ValueError(f"unknown analytical case kind {kind!r}")


# ---------------------------------------------------------------------------
# congruence: closed forms vs brute-force enumeration
# ---------------------------------------------------------------------------

def _congruence_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 6, 40)
    # pinned: gcd(6, 12) = 6 solutions — a solver that loses the
    # multi-solution family fails here every run
    cases = [{"kind": "solve", "a": 6, "b": 0, "m": 12, "seed": 0}]
    for _ in range(rounds):
        m = rng.randint(2, 64)
        cases.append({
            "kind": "solve",
            "a": rng.randint(0, 2 * m),
            "b": rng.randint(0, 2 * m),
            "m": m,
            "seed": rng.randrange(1 << 30),
        })
        banks = rng.choice((4, 8, 16))
        cases.append({
            "kind": "cross",
            "s1": rng.randint(1, 2 * banks),
            "s2": rng.randint(1, 2 * banks),
            "d": rng.randint(1, banks),
            "banks": banks,
            "mvl": rng.choice((16, 32, 64)),
            "t_m": rng.choice((4, 8, 12)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "average-vs-closed",
            "s1": rng.randint(1, 2 * banks),
            "s2": rng.randint(1, 2 * banks),
            "banks": banks,
            "mvl": rng.choice((16, 32)),
            "t_m": rng.choice((4, 8)),
            "seed": rng.randrange(1 << 30),
        })
    return cases


def _check_congruence(config: dict) -> list[Divergence]:
    kind = config["kind"]
    if kind == "solve":
        a, b, m = config["a"], config["b"], config["m"]
        brute = [x for x in range(m) if (a * x - b) % m == 0]
        solved = sorted(congruence.solve_linear_congruence(a, b, m))
        if solved != brute:
            return [("solve_linear_congruence", brute, solved,
                     "analytical/congruence.solve_linear_congruence vs "
                     "brute-force enumeration")]
        return []
    if kind == "cross":
        s1, s2, d = config["s1"], config["s2"], config["d"]
        banks, mvl, t_m = config["banks"], config["mvl"], config["t_m"]
        brute = sum(
            t_m - abs(i - j)
            for i in range(mvl) for j in range(mvl)
            if (s1 * i - s2 * j - d) % banks == 0 and abs(i - j) < t_m
        )
        fast = congruence.cross_stalls(s1, s2, d, banks, mvl, t_m)
        if fast != brute:
            return [("cross_stalls", brute, fast,
                     "analytical/congruence.cross_stalls vs O(MVL^2) "
                     "double loop")]
        return []
    if kind == "average-vs-closed":
        s1, s2 = config["s1"], config["s2"]
        banks, mvl, t_m = config["banks"], config["mvl"], config["t_m"]
        averaged = congruence.average_cross_stalls(s1, s2, banks, mvl, t_m)
        closed = congruence.expected_cross_stalls(banks, mvl, t_m)
        if not math.isclose(averaged, closed, rel_tol=1e-12, abs_tol=1e-9):
            return [("expected_cross_stalls", averaged, closed,
                     "closed form vs stride-dependent average "
                     "(the paper's stride-independence collapse)")]
        return []
    raise ValueError(f"unknown congruence case kind {kind!r}")


# ---------------------------------------------------------------------------
# prime-geometry: lines_touched_by_stride vs enumeration
# ---------------------------------------------------------------------------

def _prime_geometry_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 8, 48)
    # pinned: a fractional-line stride with two line-offset phases
    # (true footprint 2), which a phase-collapsed count reports as 1
    cases = [{"c": 7, "line_size": 4, "stride": 254, "seed": 0}]
    for _ in range(rounds):
        c = rng.choice((5, 7))
        value = (1 << c) - 1
        line_size = rng.choice((1, 2, 4, 8))
        stride = rng.choice((
            rng.randint(1, 4 * value),
            value, 2 * value,
            value * max(1, line_size // 2),  # fractional line phases
            line_size, 2 * line_size,
        ))
        cases.append({
            "c": c,
            "line_size": line_size,
            "stride": stride,
            "seed": rng.randrange(1 << 30),
        })
    return cases


def _check_prime_geometry(config: dict) -> list[Divergence]:
    cache = PrimeMappedCache(
        c=config["c"], line_size_words=config["line_size"],
        classify_misses=False)
    stride = config["stride"]
    value = cache.modulus.value
    shift = config["line_size"].bit_length() - 1
    elements = 2 * value * config["line_size"] + 8
    visited = {((k * stride) >> shift) % value for k in range(elements)}
    claimed = cache.lines_touched_by_stride(stride)
    if claimed != len(visited):
        return [("lines_touched_by_stride", len(visited), claimed,
                 "cache/prime.lines_touched_by_stride vs enumeration of "
                 "a base-aligned sweep")]
    return []


# ---------------------------------------------------------------------------
# trace-columnar: block-granular generators vs the scalar reference paths
# ---------------------------------------------------------------------------

_COLUMNAR_TARGETS = (
    "strided", "multistride", "matrix_column", "matrix_row",
    "matrix_diagonal", "row_column_mix", "subblock", "fft_butterflies",
    "naive_matmul", "blocked_matmul", "saxpy", "strided_saxpy",
    "transpose", "blocked_transpose", "jacobi", "dot", "matrix_sums",
    "lu_decompose", "blocked_lu", "fft_radix2", "blocked_fft_2d",
    "spmv_csr", "hash_join", "bfs", "mergesort",
)

#: kernels whose columnar value differs in float rounding only: the FFTs
#: (numpy's SIMD complex multiply rounds the last ulp differently from
#: its scalar multiply) and SpMV (dot-product vs sequential accumulation
#: order); the traces are still compared bit-for-bit
_COLUMNAR_APPROX_VALUES = ("fft_radix2", "blocked_fft_2d", "spmv_csr")


def _trace_columnar_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 1, 3)
    # pinned: the length-48 double sweep diverges under any block-boundary
    # fault in append_block regardless of what the random grid draws
    cases = [{"target": "multistride", "seed": 0}]
    for _ in range(rounds):
        for target in _COLUMNAR_TARGETS:
            cases.append({"target": target, "seed": rng.randrange(1 << 30)})
    return cases


def _run_columnar_target(target: str, seed: int, columnar: bool):
    """Run one generator/kernel from its seeded spec; ``(value, trace)``."""
    from repro.trace import patterns
    from repro.workloads.fft import blocked_fft_2d, fft_radix2
    from repro.workloads.irregular import bfs, hash_join, mergesort, spmv_csr
    from repro.workloads.lu import blocked_lu, lu_decompose
    from repro.workloads.matmul import blocked_matmul, naive_matmul
    from repro.workloads.reduction import dot, matrix_sums
    from repro.workloads.saxpy import saxpy, strided_saxpy
    from repro.workloads.stencil import jacobi
    from repro.workloads.transpose import blocked_transpose, transpose

    py = random.Random(seed)
    rng = np.random.default_rng(seed)
    if target == "strided":
        return None, patterns.strided(
            py.randrange(1 << 16), py.randint(1, 64), 48, sweeps=2,
            columnar=columnar)
    if target == "multistride":
        return None, patterns.multistride(
            24, 3, 50, seed=seed, columnar=columnar)
    if target == "matrix_column":
        return None, patterns.matrix_column(
            py.randint(8, 40), 16, py.randrange(8), columnar=columnar)
    if target == "matrix_row":
        return None, patterns.matrix_row(
            py.randint(8, 40), 16, py.randrange(8), columnar=columnar)
    if target == "matrix_diagonal":
        return None, patterns.matrix_diagonal(
            py.randint(8, 40), 16, columnar=columnar)
    if target == "row_column_mix":
        return None, patterns.row_column_mix(
            py.randint(8, 40), 12, accesses=6, seed=seed, columnar=columnar)
    if target == "subblock":
        return None, patterns.subblock(
            py.randint(8, 40), 5, 4, sweeps=2, columnar=columnar)
    if target == "fft_butterflies":
        return None, patterns.fft_butterflies(32, columnar=columnar)
    if target == "naive_matmul":
        return naive_matmul(rng.standard_normal((6, 6)),
                            rng.standard_normal((6, 6)), columnar=columnar)
    if target == "blocked_matmul":
        return blocked_matmul(rng.standard_normal((8, 8)),
                              rng.standard_normal((8, 8)), 4,
                              columnar=columnar)
    if target == "saxpy":
        return saxpy(1.5, rng.standard_normal(33), rng.standard_normal(33),
                     columnar=columnar)
    if target == "strided_saxpy":
        return strided_saxpy(0.75, rng.standard_normal(31),
                             rng.standard_normal(31), stride_x=3,
                             stride_y=2, columnar=columnar)
    if target == "transpose":
        return transpose(rng.standard_normal((6, 9)), columnar=columnar)
    if target == "blocked_transpose":
        return blocked_transpose(rng.standard_normal((8, 8)), 4,
                                 columnar=columnar)
    if target == "jacobi":
        return jacobi(rng.standard_normal((7, 6)), 2, columnar=columnar)
    if target == "dot":
        return dot(rng.standard_normal(29), rng.standard_normal(29),
                   columnar=columnar)
    if target == "matrix_sums":
        return matrix_sums(rng.standard_normal((7, 7)), repeats=2,
                           columnar=columnar)
    if target == "lu_decompose":
        return lu_decompose(rng.standard_normal((8, 8)) + 8 * np.eye(8),
                            columnar=columnar)
    if target == "blocked_lu":
        return blocked_lu(rng.standard_normal((8, 8)) + 8 * np.eye(8), 4,
                          columnar=columnar)
    if target == "fft_radix2":
        return fft_radix2(rng.standard_normal(32)
                          + 1j * rng.standard_normal(32), columnar=columnar)
    if target == "blocked_fft_2d":
        return blocked_fft_2d(rng.standard_normal(32)
                              + 1j * rng.standard_normal(32), 4,
                              columnar=columnar)
    if target == "spmv_csr":
        return spmv_csr(rows=py.randint(8, 24), cols=32,
                        nnz_per_row=py.randint(1, 6), seed=seed,
                        columnar=columnar)
    if target == "hash_join":
        return hash_join(build_rows=py.randint(8, 32), probe_rows=48,
                         buckets=py.choice((4, 16)), seed=seed,
                         columnar=columnar)
    if target == "bfs":
        return bfs(nodes=py.randint(16, 64), avg_degree=py.randint(1, 4),
                   seed=seed, columnar=columnar)
    if target == "mergesort":
        return mergesort(n=py.randint(5, 64), seed=seed, columnar=columnar)
    raise ValueError(f"unknown columnar target {target!r}")


def _check_trace_columnar(config: dict) -> list[Divergence]:
    target, seed = config["target"], config["seed"]
    value_col, trace_col = _run_columnar_target(target, seed, True)
    value_ref, trace_ref = _run_columnar_target(target, seed, False)
    detail = (f"columnar {target} vs retained scalar reference path "
              "(repro/trace/patterns.py, repro/workloads/)")
    if len(trace_col) != len(trace_ref):
        return [(f"{target}.len", len(trace_ref), len(trace_col), detail)]
    addr_col, flags_col = trace_col.as_arrays()
    addr_ref, flags_ref = trace_ref.as_arrays()
    if not np.array_equal(addr_col, addr_ref):
        index = int(np.argmax(addr_col != addr_ref))
        return [(f"{target}.addresses[{index}]", int(addr_ref[index]),
                 int(addr_col[index]), detail)]
    dense_col = (flags_col if flags_col is not None
                 else np.zeros(addr_col.size, dtype=bool))
    dense_ref = (flags_ref if flags_ref is not None
                 else np.zeros(addr_ref.size, dtype=bool))
    if not np.array_equal(dense_col, dense_ref):
        index = int(np.argmax(dense_col != dense_ref))
        return [(f"{target}.writes[{index}]", bool(dense_ref[index]),
                 bool(dense_col[index]), detail)]
    if value_col is None:
        return []
    if target in _COLUMNAR_APPROX_VALUES:
        if not np.allclose(value_col, value_ref, rtol=1e-9, atol=1e-12):
            worst = float(np.abs(np.asarray(value_col)
                                 - np.asarray(value_ref)).max())
            return [(f"{target}.values", "allclose", worst, detail)]
        return []
    if isinstance(value_col, dict):
        for key in value_col:
            if value_col[key] != value_ref[key]:
                return [(f"{target}.value[{key}]", value_ref[key],
                         value_col[key], detail)]
        return []
    if isinstance(value_col, float):
        if value_col != value_ref:
            return [(f"{target}.value", value_ref, value_col, detail)]
        return []
    if not np.array_equal(np.asarray(value_col), np.asarray(value_ref)):
        return [(f"{target}.values", "bit-equal", "diverged", detail)]
    return []


# ---------------------------------------------------------------------------
# kernel-backend: scalar vs compiled replay/timing/Belady engines
# ---------------------------------------------------------------------------

_BACKENDS = ("scalar", "compiled")

_KERNEL_STAT_FIELDS = _STAT_FIELDS


def _kernel_backend_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 1, 4)
    # pinned: (a) a classifier-free direct-mapped write sweep — the only
    # configuration that reaches the compiled one-way kernel's
    # write-allocate handling, so a dropped-allocation fault there cannot
    # dodge the sweep; (b) an over-capacity random OPT case with dead
    # lines, where a Belady kernel that mistreats the never-reused
    # sentinel pins the wrong lines every run; (c) a prime CC machine on
    # the batched timing path; (d) an MM machine on prime-interleaved
    # banks and a CC machine on skewed ones, so the timing kernels also
    # see banks that are not the address's low bits; (e) the capacity + 1
    # sweep of cache-batch, whose batched miss labels meet a stack
    # distance equal to the shadow's capacity; (f) a two-level hierarchy
    # whose L2 has fewer sets than its two-way L1, so L2 victims' L1
    # copies sit in other sets than the promoted lines and inclusion
    # depends on back-invalidation.
    cases = [
        {"kind": "replay", "cache": "direct", "c": 5, "lines": 32,
         "line_size": 1, "classify": False, "write_allocate": True,
         "pattern": "strided", "length": 64, "stride": 3, "sweeps": 2,
         "span": 64, "write_frac": 0.25, "seed": 0},
        {"kind": "replay", **_CAPACITY_PLUS_ONE_SWEEP},
        {"kind": "replay", "cache": "two-level", "l1_sets": 8,
         "l1_ways": 2, "l2_sets": 4, "l2_ways": 8,
         "line_size": 1, "classify": True, "write_allocate": True,
         "pattern": "random", "length": 256, "stride": 1, "sweeps": 1,
         "span": 96, "write_frac": 0.25, "seed": 0},
        {"kind": "belady", "total_lines": 16, "num_sets": 4,
         "line_size": 1, "pattern": "random", "length": 256,
         "span": 128, "write_frac": 0.25, "stride": 1, "sweeps": 1,
         "seed": 0},
        {"kind": "machine", "machine": "cc-prime", "banks": 8, "t_m": 12,
         "lines": 128, "c": 7, "write_buffer_depth": None,
         "interleave": "low-order", "trace_len": 2000, "span": 4096,
         "write_frac": 0.25, "seed": 0},
        {"kind": "machine", "machine": "mm", "banks": 7, "t_m": 12,
         "lines": 128, "c": 7, "write_buffer_depth": None,
         "interleave": "prime", "trace_len": 2000, "span": 4096,
         "write_frac": 0.25, "seed": 1},
        {"kind": "machine", "machine": "cc-direct", "banks": 8, "t_m": 12,
         "lines": 128, "c": 7, "write_buffer_depth": None,
         "interleave": "skewed", "trace_len": 2000, "span": 4096,
         "write_frac": 0.25, "seed": 2},
    ]
    for _ in range(rounds):
        for kind in _CACHE_KINDS:
            cases.append({
                "kind": "replay",
                "cache": kind,
                "c": rng.choice((5, 7)),
                "lines": rng.choice((32, 128)),
                "line_size": rng.choice((1, 4)),
                "classify": rng.random() < 0.5,
                "write_allocate": rng.random() < 0.75,
                "pattern": rng.choice(("strided", "random", "multistride")),
                "length": rng.choice((64, 256)),
                "stride": rng.randint(1, 200),
                "sweeps": rng.randint(1, 3),
                "span": rng.choice((64, 1024)),
                "write_frac": rng.choice((0.0, 0.25)),
                "seed": rng.randrange(1 << 30),
            })
        cases.append({
            "kind": "belady",
            "total_lines": rng.choice((16, 32)),
            "num_sets": rng.choice((1, 4)),
            "line_size": rng.choice((1, 4)),
            "pattern": rng.choice(("strided", "random")),
            "length": 256,
            "stride": rng.randint(1, 40),
            "sweeps": 2,
            "span": rng.choice((128, 512)),
            "write_frac": rng.choice((0.0, 0.25)),
            "seed": rng.randrange(1 << 30),
        })
        for machine in ("mm", "cc-direct", "cc-prime"):
            cases.append({
                "kind": "machine",
                "machine": machine,
                "banks": rng.choice((8, 16)),
                "t_m": rng.choice((4, 12)),
                "lines": 128,
                "c": 7,
                "write_buffer_depth": None,
                "interleave": "low-order",
                "trace_len": 2000,
                "span": 4096,
                "write_frac": rng.choice((0.0, 0.25)),
                "seed": rng.randrange(1 << 30),
            })
    return cases


def _backend_divergence(results: dict, detail: str):
    """First divergence of the compiled result dict from the scalar one."""
    expected, actual = results["scalar"], results["compiled"]
    for metric in expected:
        if expected[metric] != actual[metric]:
            return [(f"compiled-vs-scalar.{metric}",
                     expected[metric], actual[metric], detail)]
    return None


def _check_kernel_replay(config: dict) -> list[Divergence]:
    addresses, writes = _case_trace(config)
    address_arr = np.asarray(addresses, dtype=np.int64)
    write_arr = None if writes is None else np.asarray(writes, dtype=bool)
    # the scalar backend labels misses per access, the compiled one with
    # a stack-distance pass after the residency kernels
    want_kinds = config["classify"]
    results = {}
    for backend in _BACKENDS:
        cache = _make_case_cache(config)
        batch = cache.access_many(
            address_arr, write_arr, return_hits=True,
            return_kinds=want_kinds, backend=backend)
        record = {field: getattr(cache.stats, field)
                  for field in _KERNEL_STAT_FIELDS}
        record["hits_stream"] = batch.hits.tolist()
        if want_kinds:
            record["kinds_stream"] = batch.miss_kinds.tolist()
        record["resident"] = sorted(cache.resident_lines())
        if isinstance(cache, TwoLevelCache):
            record["l1_hits"] = cache.l1_hits
            record["l2_hits"] = cache.l2_hits
            record["l1_resident"] = sorted(cache.l1.resident_lines())
        results[backend] = record
    diverged = _backend_divergence(
        results,
        "Cache.access_many backend engines (repro/cache/base.py, "
        "repro/kernels/)")
    return diverged or []


def _check_kernel_belady(config: dict) -> list[Divergence]:
    from repro.cache.belady import simulate_opt
    from repro.trace.records import Trace

    addresses, writes = _case_trace(config)
    trace = Trace()
    trace.append_block(
        np.asarray(addresses, dtype=np.int64),
        write=False if writes is None else np.asarray(writes, dtype=bool))
    results = {}
    for backend in _BACKENDS:
        outcome = simulate_opt(
            trace, config["total_lines"], num_sets=config["num_sets"],
            line_size_words=config["line_size"], backend=backend)
        results[backend] = {
            "hits": outcome.stats.hits,
            "misses": outcome.stats.misses,
            "accesses": outcome.stats.accesses,
            "reads": outcome.stats.reads,
            "writes": outcome.stats.writes,
            "evictions": outcome.evictions,
        }
    diverged = _backend_divergence(
        results,
        "Belady OPT backend engines (repro/cache/belady.py, "
        "repro/kernels/)")
    return diverged or []


def _check_kernel_machine(config: dict) -> list[Divergence]:
    from repro.machine.trace_runner import run_trace
    from repro.trace.records import Trace

    rng = random.Random(config["seed"])
    span, length = config["span"], config["trace_len"]
    write_frac = config["write_frac"]
    trace = Trace()
    for _ in range(length):
        trace.append(rng.randrange(span), write=rng.random() < write_frac)

    def build(backend: str):
        banks, t_m = config["banks"], config["t_m"]
        scheme = {"low-order": LowOrderInterleave, "prime": PrimeInterleave,
                  "skewed": SkewedInterleave}[config["interleave"]](banks)
        if config["machine"] == "mm":
            # a prime bank count is outside MachineConfig's power-of-two
            # geometry, so the memory is built directly (the MM machine
            # reads the config's bank count only for its stride range)
            return MMMachine(
                MachineConfig(num_banks=8, memory_access_time=t_m),
                memory=InterleavedMemory(banks, t_m, scheme),
                backend=backend)
        machine_config = MachineConfig(
            num_banks=banks, memory_access_time=t_m,
            cache_lines=config["lines"])
        if config["machine"] == "cc-direct":
            cache = DirectMappedCache(num_lines=config["lines"])
        else:
            cache = PrimeMappedCache(c=config["c"])
            machine_config = machine_config.with_(
                cache_lines=cache.total_lines)
        return CCMachine(machine_config, cache, scheme, backend=backend)

    results = {}
    for backend in _BACKENDS:
        machine = build(backend)
        ops_report = machine.execute(_case_ops(config))
        trace_report = run_trace(machine, trace, backend=backend)
        record = {}
        for field in _REPORT_FIELDS:
            record[f"ops.{field}"] = getattr(ops_report, field)
            record[f"trace.{field}"] = getattr(trace_report, field)
        record["cycle"] = machine.cycle
        record["memory.accesses"] = machine.memory.stats.accesses
        record["memory.stall_cycles"] = machine.memory.stats.stall_cycles
        record["memory.bank_accesses"] = machine.memory.stats.bank_accesses
        results[backend] = record
    diverged = _backend_divergence(
        results,
        "machine timing backend engines (repro/machine/trace_runner.py, "
        "repro/machine/vector_machine.py, repro/kernels/)")
    return diverged or []


def _check_kernel_backend(config: dict) -> list[Divergence]:
    kind = config["kind"]
    if kind == "replay":
        return _check_kernel_replay(config)
    if kind == "belady":
        return _check_kernel_belady(config)
    if kind == "machine":
        return _check_kernel_machine(config)
    raise ValueError(f"unknown kernel-backend case kind {kind!r}")


# ---------------------------------------------------------------------------
# analytical-batched: the vectorised surrogate engine vs the scalar stack
# ---------------------------------------------------------------------------

_BATCHED_MODEL_GRID = (
    ("direct", 64, 1), ("direct", 8192, 1), ("prime", 127, 1),
    ("prime", 8191, 1), ("assoc", 64, 2), ("assoc", 8192, 4),
)

#: CC output metrics compared element-wise against the scalar models.
_BATCHED_CC_KEYS = (
    "element_time", "initial_block_time", "cached_block_time",
    "cycles_per_result", "mm_cycles_per_result", "sweep_misses",
    "miss_ratio",
)


def _analytical_batched_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 2, 8)
    # pinned: a prime grid batching three distinct t_m values with a
    # random second stream — the exact surface where a broadcast
    # collapse (every grid point scored with the first t_m) diverges
    # regardless of what the random grid draws
    cases = [
        {"kind": "cc", "mapping": "prime", "lines": 8191, "ways": 1,
         "banks": 32, "t_m_values": [4, 16, 64], "block": 4096,
         "reuse": 4096.0, "p_ds": 0.1, "footprint_mode": "simple",
         "seed": 0},
        # pinned: a set-associative point whose gcd-class sums all count,
        # odd strides included (B > C over-subscribes their sets, and the
        # expected footprint feeds the cross-interference term)
        {"kind": "cc", "mapping": "assoc", "lines": 64, "ways": 2,
         "banks": 32, "t_m_values": [8, 32], "block": 1024,
         "reuse": 8.0, "p_ds": 0.1, "footprint_mode": "expected",
         "seed": 0},
        {"kind": "congruence-batch", "count": 64, "seed": 0},
    ]
    for _ in range(rounds):
        mapping, lines, ways = rng.choice(_BATCHED_MODEL_GRID)
        cases.append({
            "kind": "cc",
            "mapping": mapping, "lines": lines, "ways": ways,
            "banks": rng.choice((8, 32, 64)),
            "t_m_values": sorted(rng.sample((4, 8, 16, 32, 64), 2)),
            "block": rng.choice((64, 1024, 4096)),
            "reuse": rng.choice((1.0, 8.0, 64.0)),
            "p_ds": rng.choice((0.0, 0.1)),
            "footprint_mode": rng.choice(("simple", "expected")),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "mm",
            "banks": rng.choice((8, 32, 64)),
            "t_m_values": sorted(rng.sample((4, 8, 16, 31, 64), 2)),
            "block": rng.choice((64, 4096)),
            "reuse": rng.choice((1.0, 8.0)),
            "p_ds": rng.choice((0.0, 0.1)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({"kind": "congruence-batch", "count": 48,
                      "seed": rng.randrange(1 << 30)})
        cases.append({
            "kind": "bandwidth",
            "banks": rng.choice((2, 8, 64)),
            "t_m": rng.choice((2, 16, 40)),
            "p_stride1": rng.choice((0.0, 0.25, 1.0)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "blocking",
            "mapping": mapping, "lines": lines, "ways": ways,
            "t_m": rng.choice((4, 16, 64)),
            "block": rng.choice((1024, 4096)),
            "p_ds": rng.choice((0.0, 0.1)),
            "seed": rng.randrange(1 << 30),
        })
    return cases


class StrideEnumeratedAssocModel(SetAssociativeModel):
    """:class:`SetAssociativeModel` with its random-stride sums taken
    stride by stride over ``2 .. C``: the reference for the gcd-class
    sums the model itself evaluates (:mod:`repro.analytical.batched`)."""

    def self_interference(self, block, p_stride1, stride):
        if stride != "random" or block < 1:
            return super().self_interference(block, p_stride1, stride)
        c_lines = self.config.cache_lines
        total = sum(self.self_stalls_for_stride(block, s)
                    for s in range(2, c_lines + 1))
        return (1.0 - p_stride1) * total / (c_lines - 1)

    def expected_footprint(self, block, p_stride1):
        c_lines = self.config.cache_lines
        resident = 0
        for s in range(2, c_lines + 1):
            occupied, full, extra = self._per_set_split(int(block), s)
            resident += (extra * min(full + 1, self.ways)
                         + (occupied - extra) * min(full, self.ways))
        return (p_stride1 * min(block, float(c_lines))
                + (1 - p_stride1) * (resident / (c_lines - 1)))


def _batched_scalar_model(mapping: str, config, ways: int,
                          footprint_mode: str = "simple"):
    from repro.analytical.cc import DirectMappedModel, PrimeMappedModel

    if mapping == "direct":
        return DirectMappedModel(config, footprint_mode=footprint_mode)
    if mapping == "prime":
        return PrimeMappedModel(config, footprint_mode=footprint_mode)
    return StrideEnumeratedAssocModel(config, ways,
                                      footprint_mode=footprint_mode)


def _check_analytical_batched(config: dict) -> list[Divergence]:
    from repro.analytical import batched
    from repro.analytical.bandwidth import (
        effective_bandwidth_for_stride,
        expected_effective_bandwidth,
    )
    from repro.analytical.missratio import (
        scalar_cached_sweep_misses,
        scalar_workload_miss_ratio,
    )
    from repro.analytical.optimize import optimal_blocking_factor

    kind = config["kind"]
    if kind == "cc":
        # one batched call over every t_m, so a collapsed axis diverges
        mapping, ways = config["mapping"], config["ways"]
        lines, banks = config["lines"], config["banks"]
        t_m = np.array(config["t_m_values"])
        vcm = VCM(blocking_factor=config["block"],
                  reuse_factor=config["reuse"], p_ds=config["p_ds"],
                  s2=("random" if config["p_ds"] else None))
        out = batched.cc_outputs_batch(
            mapping, cache_lines=lines, num_banks=banks, t_m=t_m,
            ways=ways, blocking_factor=vcm.blocking_factor,
            reuse_factor=vcm.reuse_factor, p_ds=vcm.p_ds,
            s2=vcm.s2, footprint_mode=config["footprint_mode"])
        for i, t in enumerate(config["t_m_values"]):
            machine = MachineConfig(num_banks=banks, memory_access_time=t,
                                    cache_lines=lines)
            model = _batched_scalar_model(mapping, machine, ways,
                                          config["footprint_mode"])
            expected = {
                "element_time": model.element_time(vcm),
                "initial_block_time": model.initial_block_time(vcm),
                "cached_block_time": model.cached_block_time(vcm),
                "cycles_per_result": model.cycles_per_result(vcm),
                "mm_cycles_per_result":
                    MMModel(machine).cycles_per_result(vcm),
                "sweep_misses": scalar_cached_sweep_misses(model, vcm),
                "miss_ratio": scalar_workload_miss_ratio(model, vcm),
            }
            for key in _BATCHED_CC_KEYS:
                actual = float(np.broadcast_to(out[key], t_m.shape)[i])
                if not math.isclose(expected[key], actual,
                                    rel_tol=1e-9, abs_tol=1e-12):
                    return [(f"cc.{mapping}.{key}[t_m={t}]",
                             expected[key], actual,
                             "analytical/batched.cc_outputs_batch vs the "
                             "scalar CC/MM models")]
        return []
    if kind == "mm":
        banks = config["banks"]
        t_m = np.array(config["t_m_values"])
        vcm = VCM(blocking_factor=config["block"],
                  reuse_factor=config["reuse"], p_ds=config["p_ds"],
                  s2=("random" if config["p_ds"] else None))
        got = batched.mm_cycles_per_result_batch(
            num_banks=banks, t_m=t_m, mvl=64,
            blocking_factor=vcm.blocking_factor,
            reuse_factor=vcm.reuse_factor, p_ds=vcm.p_ds,
            p_stride1_s1=vcm.p_stride1_s1,
            p_stride1_s2=vcm.p_stride1_s2, s2=vcm.s2)
        for i, t in enumerate(config["t_m_values"]):
            model = MMModel(MachineConfig(num_banks=banks,
                                          memory_access_time=t))
            expected = model.cycles_per_result(vcm)
            actual = float(np.broadcast_to(got, t_m.shape)[i])
            if not math.isclose(expected, actual, rel_tol=1e-9):
                return [(f"mm.cycles_per_result[t_m={t}]", expected, actual,
                         "analytical/batched.mm_cycles_per_result_batch vs "
                         "analytical/mm.MMModel")]
        return []
    if kind == "congruence-batch":
        rng = random.Random(config["seed"])
        count = config["count"]
        triples = [(rng.randrange(64), rng.randrange(64),
                    rng.randrange(1, 64)) for _ in range(count)]
        a, b, m = (np.array(col) for col in zip(*triples))
        counts = batched.solution_count_batch(a, b, m).tolist()
        for triple, actual in zip(triples, counts):
            expected = len(congruence.solve_linear_congruence(*triple))
            if expected != actual:
                return [(f"solution_count_batch{triple}", expected, actual,
                         "analytical/batched.solution_count_batch vs "
                         "analytical/congruence.solve_linear_congruence")]
        cross = [(rng.randrange(33), rng.randrange(33), rng.randrange(33),
                  rng.choice((2, 8, 32)), rng.choice((4, 16, 64)),
                  rng.choice((2, 7, 16))) for _ in range(count)]
        arrays = [np.array(col) for col in zip(*cross)]
        got = batched.cross_stalls_batch(*arrays)
        for case, actual in zip(cross, got.tolist()):
            expected = congruence.cross_stalls(*case)
            if not math.isclose(expected, actual, rel_tol=1e-9,
                                abs_tol=1e-9):
                return [(f"cross_stalls_batch{case}", expected, actual,
                         "analytical/batched.cross_stalls_batch vs "
                         "analytical/congruence.cross_stalls")]
        return []
    if kind == "bandwidth":
        banks, t_m = config["banks"], config["t_m"]
        machine = MachineConfig(num_banks=banks, memory_access_time=t_m)
        strides = np.array([0, 1, 2, 5, 8, -3])
        got = batched.effective_bandwidth_for_stride_batch(
            strides, banks, t_m)
        for s, actual in zip(strides.tolist(), got.tolist()):
            expected = effective_bandwidth_for_stride(s, machine)
            if not math.isclose(expected, actual, rel_tol=1e-9):
                return [(f"effective_bandwidth[stride={s}]", expected,
                         actual, "analytical/batched vs "
                         "analytical/bandwidth (fixed stride)")]
        p1 = config["p_stride1"]
        expected = expected_effective_bandwidth(machine, p_stride1=p1)
        actual = float(batched.expected_effective_bandwidth_batch(
            np.array([banks]), np.array([t_m]), p_stride1=p1)[0])
        if not math.isclose(expected, actual, rel_tol=1e-9):
            return [("expected_effective_bandwidth", expected, actual,
                     "analytical/batched vs analytical/bandwidth "
                     "(expected over random strides)")]
        return []
    if kind == "blocking":
        mapping, ways = config["mapping"], config["ways"]
        lines, t_m = config["lines"], config["t_m"]
        machine = MachineConfig(num_banks=32, memory_access_time=t_m,
                                cache_lines=lines)
        want = optimal_blocking_factor(
            _batched_scalar_model(mapping, machine, ways))
        got = batched.optimal_blocking_factor_batch(
            mapping, cache_lines=np.array([lines]),
            num_banks=np.array([32]), t_m=np.array([t_m]), ways=ways)
        # compare the achieved optimum, not B: ties may pick either arm
        actual = float(got["cycles_per_result"][0])
        if not math.isclose(want.cycles_per_result, actual, rel_tol=1e-9):
            return [("optimal_blocking.cycles_per_result",
                     want.cycles_per_result, actual,
                     "analytical/batched.optimal_blocking_factor_batch vs "
                     "analytical/optimize.optimal_blocking_factor")]
        from repro.analytical.optimize import crossover_memory_time

        block, p_ds = config["block"], config["p_ds"]
        vcm = VCM(blocking_factor=block, reuse_factor=float(block),
                  p_ds=p_ds, s2=("random" if p_ds else None))
        expected = crossover_memory_time(
            lambda t: vcm,
            cache_model_factory=lambda t: _batched_scalar_model(
                mapping, MachineConfig(num_banks=32, memory_access_time=t,
                                       cache_lines=lines), ways),
            mm_model_factory=lambda t: MMModel(
                MachineConfig(num_banks=32, memory_access_time=t,
                              cache_lines=lines)))
        crossover = int(batched.crossover_memory_time_batch(
            mapping, cache_lines=np.array([lines]),
            num_banks=np.array([32]), ways=ways,
            blocking_factor=np.array([block]),
            reuse_factor=np.array([float(block)]),
            p_ds=np.array([p_ds]))[0])
        if crossover != (-1 if expected is None else expected):
            return [("crossover_memory_time", expected, crossover,
                     "analytical/batched.crossover_memory_time_batch vs "
                     "analytical/optimize.crossover_memory_time")]
        return []
    raise ValueError(f"unknown analytical-batched case kind {kind!r}")


# ---------------------------------------------------------------------------
# cache-zoo: bicameral routing, hashed indexing, two-level hierarchies
# ---------------------------------------------------------------------------

def _zoo_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 1, 4)
    # pinned: (a) boundary-routing probes — each vector-range edge is
    # probed, evict-conflicted in the scalar half, and re-probed, so a
    # routing fault at either edge flips a hit deterministically; (b) a
    # nonzero hash seed with reuse, so a batch mapping that drops the
    # seed fold diverges from the seeded scalar set_of; (c) the two
    # collision-law points whose closed-form-vs-measured margins were
    # sized against the hash's real bias; (d) the L1/L2 timing law; (e)
    # an L1/L2 replay with a two-way L1, so an L2 victim's L1 copy often
    # shares its set with a line the promotion keeps, and only
    # back-invalidation preserves inclusion.
    cases = [
        {"kind": "bicameral-replay", "scalar_sets": 4, "vector_c": 3,
         "vector_ways": 1, "scalar_ways": 1, "vector_mapping": "prime",
         "classify": True, "write_allocate": True,
         "ranges": [[1000, 1100], [4000, 4600]],
         "length": 96, "write_frac": 0.25, "seed": 0},
        {"kind": "hashed-replay", "sets": 37, "ways": 1, "line_size": 1,
         "hash_seed": 0x5EED, "classify": True, "write_allocate": True,
         "pattern": "strided", "length": 128, "stride": 37, "sweeps": 2,
         "span": 2048, "write_frac": 0.25, "seed": 0},
        {"kind": "hashed-collision", "sets": 4, "lines": 4,
         "num_seeds": 16384, "base_seed": 0, "tolerance": 0.15, "seed": 0},
        {"kind": "hashed-collision", "sets": 8, "lines": 8,
         "num_seeds": 16384, "base_seed": 101, "tolerance": 0.20,
         "seed": 0},
        {"kind": "l1l2-machine", "banks": 8, "t_m": 12, "l1_sets": 4,
         "l2_sets": 64, "l2_hit_time": 4, "block": 16, "seed": 0},
        {"kind": "bicameral-isolation", "scalar_sets": 8, "vector_c": 5,
         "hammer": 400, "seed": 0},
        {"kind": "l1l2-replay", "l1_sets": 8, "l1_ways": 2, "l2_sets": 64,
         "write_allocate": True, "pattern": "random", "length": 512,
         "stride": 1, "sweeps": 1, "span": 256, "write_frac": 0.25,
         "seed": 0},
    ]
    for _ in range(rounds):
        lo = rng.randrange(1 << 10, 1 << 14)
        cases.append({
            "kind": "bicameral-replay",
            "scalar_sets": rng.choice((4, 16)),
            "vector_c": rng.choice((3, 5)),
            "vector_ways": rng.choice((1, 2)),
            "scalar_ways": rng.choice((1, 2)),
            "vector_mapping": rng.choice(("prime", "direct")),
            "classify": rng.random() < 0.75,
            "write_allocate": rng.random() < 0.75,
            "ranges": [[lo, lo + rng.randrange(32, 512)]],
            "length": rng.choice((64, 192)),
            "write_frac": rng.choice((0.0, 0.25)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "hashed-replay",
            "sets": rng.choice((32, 61, 128)),
            "ways": rng.choice((1, 2)),
            "line_size": rng.choice((1, 4)),
            "hash_seed": rng.randrange(1, 1 << 40),
            "classify": rng.random() < 0.75,
            "write_allocate": rng.random() < 0.75,
            "pattern": rng.choice(("strided", "random", "multistride")),
            "length": rng.choice((64, 256)),
            "stride": rng.randint(1, 200),
            "sweeps": rng.randint(1, 3),
            "span": rng.choice((64, 1024)),
            "write_frac": rng.choice((0.0, 0.25)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "l1l2-replay",
            "l1_sets": rng.choice((4, 8, 16)),
            "l1_ways": rng.choice((1, 2)),
            "l2_sets": rng.choice((64, 128)),
            "write_allocate": rng.random() < 0.75,
            "pattern": rng.choice(("strided", "random", "multistride")),
            "length": rng.choice((256, 512)),
            "stride": rng.randint(1, 64),
            "sweeps": rng.randint(1, 3),
            "span": rng.choice((256, 512)),
            "write_frac": rng.choice((0.0, 0.25)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "collision-exact",
            "sets": rng.choice((5, 16, 64)),
            "lines": rng.randint(2, 96),
            "hash_seed": rng.randrange(1 << 40),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "l1l2-machine",
            "banks": rng.choice((8, 16)),
            "t_m": rng.choice((8, 16)),
            "l1_sets": rng.choice((4, 8)),
            "l2_sets": 128,
            "l2_hit_time": rng.choice((2, 4, 6)),
            "block": rng.choice((16, 48)),
            "seed": rng.randrange(1 << 30),
        })
        cases.append({
            "kind": "bicameral-isolation",
            "scalar_sets": rng.choice((4, 8, 16)),
            "vector_c": rng.choice((3, 5, 7)),
            "hammer": rng.choice((200, 800)),
            "seed": rng.randrange(1 << 30),
        })
    return cases


def _bicameral_case_trace(config: dict) -> tuple[list[int], list[bool] | None]:
    """Boundary probes + in-range sweeps + a scalar tail, all word addrs.

    Every range edge is probed, conflicted against the scalar set it
    would misroute into, and re-probed — the reprobe's hit flips if the
    routing boundary moves by one line.
    """
    rng = random.Random(config["seed"])
    scalar_sets = config["scalar_sets"]
    addresses: list[int] = []
    for lo, hi in config["ranges"]:
        for probe in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1):
            if probe < 0:
                continue
            conflict = (probe % scalar_sets) + scalar_sets
            addresses.extend((probe, conflict, probe))
    for lo, hi in config["ranges"]:
        span = hi - lo
        stride = rng.randint(1, max(1, span // 8))
        vector = [lo + (i * stride) % span
                  for i in range(config["length"] // 2)]
        addresses.extend(vector * 2)
    addresses.extend(rng.randrange(512) for _ in range(config["length"]))
    write_frac = config["write_frac"]
    if write_frac == 0:
        return addresses, None
    return addresses, [rng.random() < write_frac for _ in addresses]


def _check_zoo(config: dict) -> list[Divergence]:
    from repro.analytical.hashed import (
        exact_colliding_lines,
        expected_colliding_lines,
        mean_colliding_lines,
        second_sweep_misses,
    )
    from repro.cache import BicameralCache, HashedIndexCache

    kind = config["kind"]
    if kind == "bicameral-replay":
        def build() -> BicameralCache:
            cache = BicameralCache(
                scalar_sets=config["scalar_sets"],
                vector_c=config["vector_c"],
                scalar_ways=config["scalar_ways"],
                vector_ways=config["vector_ways"],
                vector_mapping=config["vector_mapping"],
                classify_misses=config["classify"],
                write_allocate=config["write_allocate"])
            for lo, hi in config["ranges"]:
                cache.mark_vector(lo, hi)
            return cache

        addresses, writes = _bicameral_case_trace(config)
        return _diff_batch_vs_scalar(
            build, addresses, writes,
            "BicameralCache batched routing vs scalar set_of "
            "(repro/cache/bicameral.py)")
    if kind == "hashed-replay":
        def build() -> HashedIndexCache:
            return HashedIndexCache(
                num_sets=config["sets"], num_ways=config["ways"],
                line_size_words=config["line_size"],
                seed=config["hash_seed"],
                classify_misses=config["classify"],
                write_allocate=config["write_allocate"])

        addresses, writes = _case_trace(config)
        return _diff_batch_vs_scalar(
            build, addresses, writes,
            "HashedIndexCache batched hash mapping vs scalar set_of "
            "(repro/cache/hashed.py)")
    if kind == "l1l2-replay":
        hierarchy = TwoLevelCache(
            l1_sets=config["l1_sets"], l2_sets=config["l2_sets"],
            l1_ways=config["l1_ways"], classify_misses=False,
            write_allocate=config["write_allocate"])
        solo = SetAssociativeCache(
            num_sets=config["l2_sets"], num_ways=1, classify_misses=False,
            write_allocate=config["write_allocate"])
        addresses, writes = _case_trace(config)
        address_arr = np.asarray(addresses, dtype=np.int64)
        write_arr = None if writes is None else np.asarray(writes,
                                                           dtype=bool)
        hierarchy.access_many(address_arr, write_arr)
        solo.access_many(address_arr, write_arr)
        detail = ("TwoLevelCache invariants (repro/cache/hierarchy.py): "
                  "inclusion, per-level counters, direct-L2 equivalence")
        orphans = hierarchy.l1.resident_lines() - hierarchy.l2.resident_lines()
        if orphans:
            return [("l1l2.inclusion", "L1 subset of L2",
                     f"{len(orphans)} L1 lines absent from L2", detail)]
        per_level = hierarchy.l1_hits + hierarchy.l2_hits
        if per_level != hierarchy.stats.hits:
            return [("l1l2.hit_accounting", hierarchy.stats.hits,
                     per_level, detail)]
        # a direct-mapped L2 behind any L1 serves exactly the hit set of
        # the standalone direct-mapped cache (inclusion + strict back-
        # invalidation make residency identical)
        for field in ("hits", "misses"):
            expected = getattr(solo.stats, field)
            actual = getattr(hierarchy.stats, field)
            if expected != actual:
                return [(f"l1l2.{field}", expected, actual, detail)]
        return []
    if kind == "collision-exact":
        sets, lines = config["sets"], config["lines"]
        seed = config["hash_seed"]
        law = exact_colliding_lines(lines, sets, seed)
        measured = second_sweep_misses(lines, sets, seed)
        if law != measured:
            return [("collision.exact_law", measured, law,
                     "analytical/hashed.exact_colliding_lines vs a real "
                     "HashedIndexCache double sweep")]
        return []
    if kind == "hashed-collision":
        sets, lines = config["sets"], config["lines"]
        expected = float(expected_colliding_lines(lines, sets))
        mean = mean_colliding_lines(lines, sets, config["num_seeds"],
                                    base_seed=config["base_seed"])
        if abs(mean - expected) > config["tolerance"]:
            return [("collision.birthday_mean",
                     f"within {config['tolerance']} of {expected:.4f}",
                     mean,
                     "analytical/hashed.expected_colliding_lines vs the "
                     "seed-averaged measured placement")]
        return []
    if kind == "l1l2-machine":
        l1_sets, l2_sets = config["l1_sets"], config["l2_sets"]
        l2_time, block = config["l2_hit_time"], config["block"]
        assert 2 * l1_sets <= block <= l2_sets

        def run(backend: str):
            machine = CCMachine(
                MachineConfig(num_banks=config["banks"],
                              memory_access_time=config["t_m"],
                              cache_lines=l2_sets),
                TwoLevelCache(l1_sets=l1_sets, l2_sets=l2_sets,
                              l2_hit_time=l2_time, classify_misses=False),
                backend=backend)
            return machine.execute([
                VectorLoad(base=0, stride=1, length=block),
                VectorLoad(base=0, stride=1, length=block,
                           expect_cached=True),
            ])

        report = run("compiled")
        detail = ("L1/L2 timing law through the CC machine "
                  "(repro/machine/vector_machine.py, "
                  "repro/cache/hierarchy.py)")
        # the second sweep of B >= 2*L1 stride-1 lines misses the direct
        # L1 everywhere and hits the inclusive L2 everywhere: exactly B
        # L2 hits, each a non-pipelined l2_hit_time stall
        if report.l2_hits != block:
            return [("l1l2.report.l2_hits", block, report.l2_hits, detail)]
        if report.miss_stall_cycles != block * l2_time:
            return [("l1l2.report.miss_stall_cycles", block * l2_time,
                     report.miss_stall_cycles, detail)]
        slow = run("scalar")
        for field in _REPORT_FIELDS + ("l2_hits",):
            expected = getattr(slow, field)
            actual = getattr(report, field)
            if expected != actual:
                return [(f"l1l2.parity.{field}", expected, actual,
                         detail + "; compiled vs scalar backend")]
        return []
    if kind == "bicameral-isolation":
        rng = random.Random(config["seed"])
        cache = BicameralCache(
            scalar_sets=config["scalar_sets"],
            vector_c=config["vector_c"], classify_misses=False)
        value = cache.vector.num_sets
        base = 1 << 16
        cache.mark_vector(base, base + value)
        vector = np.arange(base, base + value, dtype=np.int64)
        cache.access_many(vector)
        hammer = np.asarray(
            [rng.randrange(1 << 12) for _ in range(config["hammer"])],
            dtype=np.int64)
        cache.access_many(hammer)
        before = cache.stats.misses
        cache.access_many(vector)
        evicted = cache.stats.misses - before
        if evicted:
            return [("bicameral.isolation", 0, evicted,
                     "scalar hammering must never evict vector-half "
                     "lines (repro/cache/bicameral.py)")]
        return []
    raise ValueError(f"unknown cache-zoo case kind {kind!r}")


# ---------------------------------------------------------------------------
# lru-stack: Mattson stack distances vs the LRU cache engines
# ---------------------------------------------------------------------------

_LRU_STACK_KINDS = ("direct", "prime", "hashed", "set2", "set4")


def _lru_stack_cases(mode: str, rng: random.Random) -> list[dict]:
    rounds = _case_counts(mode, 2, 8)
    # pinned: random references over a span a little larger than a small
    # 2-way cache, so sets overflow while lines are still being reused
    # and an LRU that stopped refreshing on hits (FIFO) misses where the
    # witness hits
    cases = [{
        "cache": "set2", "c": 5, "lines": 32, "line_size": 1,
        "classify": False, "write_allocate": True, "pattern": "random",
        "length": 256, "stride": 1, "sweeps": 1, "span": 48,
        "write_frac": 0.0, "seed": 0,
    }]
    for _ in range(rounds):
        for kind in _LRU_STACK_KINDS:
            cases.append({
                "cache": kind,
                "c": rng.choice((5, 7)),
                "lines": rng.choice((32, 128)),
                "line_size": rng.choice((1, 4)),
                "classify": rng.random() < 0.5,
                "write_allocate": True,
                "pattern": rng.choice(("strided", "random", "multistride")),
                "length": rng.choice((64, 256)),
                "stride": rng.randint(1, 200),
                "sweeps": rng.randint(2, 3),
                "span": rng.choice((64, 256, 1024)),
                "write_frac": 0.0,
                "seed": rng.randrange(1 << 30),
            })
    return cases


def _stack_providers() -> list:
    """Every kernel provider this host can run: the pure-Python one, and
    generated C when it builds."""
    from repro.kernels import cext, reference

    compiled = cext.load()
    return [reference] if compiled is None else [reference, compiled]


def _check_lru_stack(config: dict) -> list[Divergence]:
    addresses, _ = _case_trace(config)
    cache = _make_case_cache(config)
    lines = [cache.line_of(address) for address in addresses]
    # an LRU set is an LRU stack of ``ways`` lines over the references
    # that map to it: group them by the scalar index function, in order
    sets = np.asarray([cache.set_of(line) for line in lines], dtype=np.int64)
    order = np.argsort(sets, kind="stable")
    by_set = np.asarray(lines, dtype=np.int64)[order]
    groups = np.split(np.arange(len(lines)),
                      np.flatnonzero(np.diff(sets[order])) + 1)
    batch = cache.access_many(np.asarray(addresses, dtype=np.int64),
                              return_hits=True)
    engine = batch.hits[order].tolist()
    empty = np.empty(0, dtype=np.int64)
    for provider in _stack_providers():
        witness = np.empty(len(lines), dtype=bool)
        for group in groups:
            witness[group] = provider.stack_hits(
                by_set[group], empty, cache.num_ways, None)[0]
        for i, (expected, actual) in enumerate(zip(witness.tolist(),
                                                   engine)):
            if expected != actual:
                return [(f"hits[{int(order[i])}]", expected, actual,
                         f"Mattson stack distance < {cache.num_ways} "
                         f"({provider.name} stack_hits) vs "
                         f"Cache.access_many (repro/cache/, "
                         f"repro/kernels/)")]
    return []


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "cache-batch",
            "batched Cache.access_many vs the scalar access state machine",
            _cache_batch_cases, _check_cache_batch),
        Oracle(
            "machine-timing",
            "op-table timing kernel vs the scalar machine reference loop",
            _machine_timing_cases, _check_machine_timing),
        Oracle(
            "analytical-vs-simulated",
            "analytical CC/MM stall formulas vs executable caches and "
            "banks",
            _analytical_cases, _check_analytical),
        Oracle(
            "congruence",
            "congruence closed forms vs brute-force enumeration",
            _congruence_cases, _check_congruence),
        Oracle(
            "prime-geometry",
            "prime-mapping stride footprint vs enumerated line visits",
            _prime_geometry_cases, _check_prime_geometry),
        Oracle(
            "trace-columnar",
            "columnar trace generators and kernels vs the retained scalar "
            "reference paths",
            _trace_columnar_cases, _check_trace_columnar),
        Oracle(
            "kernel-backend",
            "scalar vs compiled replay, Belady and machine-timing engines, "
            "bit-for-bit",
            _kernel_backend_cases, _check_kernel_backend),
        Oracle(
            "analytical-batched",
            "vectorised surrogate engine vs the scalar analytical stack "
            "(set-associative sums enumerated stride by stride), "
            "element-wise over multi-t_m grids",
            _analytical_batched_cases, _check_analytical_batched),
        Oracle(
            "lru-stack",
            "Mattson stack distances vs the LRU hit bitmaps of direct, "
            "prime, hashed and set-associative caches",
            _lru_stack_cases, _check_lru_stack),
        Oracle(
            "cache-zoo",
            "bicameral routing, hashed indexing, collision laws and L1/L2 "
            "hierarchies vs their scalar references and closed forms",
            _zoo_cases, _check_zoo),
    )
}


def default_oracles() -> list[Oracle]:
    """The full registry, in deterministic order."""
    return [ORACLES[name] for name in sorted(ORACLES)]
