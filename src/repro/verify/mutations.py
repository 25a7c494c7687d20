"""Mutation self-check: inject known faults and prove the net catches
them.

A differential harness that has never seen a failure proves nothing —
the oracles could all be vacuous.  This module keeps a catalogue of
representative faults (the bugs this codebase has actually had, or
almost had: an off-by-one in the Mersenne index fold, a dropped
bank-busy stall in the machines' timing kernel, a wrong modulus in the
prime-cache stall formula, a congruence solver that loses the
multi-solution family, a phase-collapsed stride footprint, a columnar
trace recorder that drops the last reference of every block, a compiled
replay kernel that drops write-allocation, a Belady kernel that
mistakes the never-reused sentinel for an immediate reuse, a batched
analytical kernel that collapses the ``t_m`` broadcast axis onto its
first value, a hashed-index batch mapping that drops the seed fold, a
bicameral routing mask with the wrong half-open-interval side, a
birthday-paradox expectation with an off-by-one exponent, an LRU that
stops refreshing recency on hits in every engine at once, a stack
distance test that counts a distance equal to the capacity as a shadow
hit, a two-level replay kernel that leaves an L2 victim's L1 copy
resident, a set-associative gcd-class count that keeps stride 1 among
the random strides) and, for
each, temporarily monkey-patches the fault in, re-runs the oracle
sweep, and records which oracles noticed.  A mutation nobody catches is
a *hole* in the verification net and fails the run.

Faults are injected by swapping attributes on the real classes/modules
(and restored in a ``finally``), so both the mutated code and the
oracles exercise exactly the import paths production uses.
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.verify.result import MutationOutcome

__all__ = ["MUTATIONS", "Mutation", "mutation_active", "run_selfcheck"]

#: Names of the faults currently injected (a stack: ``Mutation.active``
#: contexts nest).  ``repro.orchestrate.compute_figures`` consults this
#: to bypass the result cache while any fault is live, so mutated runs
#: can neither read stale un-mutated results nor poison the store.
_ACTIVE: list[str] = []


def mutation_active() -> bool:
    """True while a catalogued fault is injected via :meth:`Mutation.active`."""
    return bool(_ACTIVE)


@contextmanager
def _patched(obj, attr: str, replacement):
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    try:
        yield
    finally:
        setattr(obj, attr, original)


@dataclass(frozen=True)
class Mutation:
    """One catalogued fault.

    Attributes:
        name: catalogue key.
        description: what the fault breaks, in implementation terms.
        expected_oracles: the oracles designed to catch it (the
            self-check only *requires* one catcher, but tests pin these).
        apply: context manager injecting the fault while active.
    """

    name: str
    description: str
    expected_oracles: tuple[str, ...]
    apply: Callable

    @contextmanager
    def active(self):
        """Inject the fault and mark it live for cache-bypass checks."""
        _ACTIVE.append(self.name)
        try:
            with self.apply():
                yield
        finally:
            _ACTIVE.pop()


@contextmanager
def _fold_modulus_off_by_one():
    from repro.cache.prime import PrimeMappedCache

    def bad_map_sets_batch(self, lines):
        # the classic fold bug: modulus constant off by one, so the
        # batched index fold disagrees with the scalar set_of
        return lines % (self.modulus.value - 1)

    with _patched(PrimeMappedCache, "_map_sets_batch", bad_map_sets_batch):
        yield


@contextmanager
def _dropped_bank_busy_stall():
    from repro import kernels

    original = kernels.op_timing

    def bad_op_timing(*args):
        state = args[-1]
        bank_stall = int(state[4])
        original(*args)
        # the timing kernel "forgets" that busy banks stall the pipeline
        state[0] -= int(state[4]) - bank_stall
        state[4] = bank_stall

    with _patched(kernels, "op_timing", bad_op_timing):
        yield


@contextmanager
def _wrong_mersenne_modulus():
    from repro.analytical.cc import PrimeMappedModel

    def bad_self_stalls(self, block, stride):
        # folding by 2^c instead of the Mersenne prime 2^c - 1 destroys
        # the conflict-freedom law the whole design rests on
        wrong = self.config.cache_lines + 1
        if stride != 0 and stride % wrong != 0:
            footprint = wrong // math.gcd(wrong, abs(stride))
            misses = max(0.0, block - footprint)
        else:
            misses = max(0.0, block - 1)
        return misses * self.config.t_m

    with _patched(PrimeMappedModel, "self_stalls_for_stride",
                  bad_self_stalls):
        yield


@contextmanager
def _congruence_lost_solutions():
    from repro.analytical import congruence

    original = congruence.solve_linear_congruence

    def bad_solve(a, b, m):
        # keeps only the principal solution, dropping the other
        # gcd(a, m) - 1 members of the solution family
        return original(a, b, m)[:1]

    with _patched(congruence, "solve_linear_congruence", bad_solve):
        yield


@contextmanager
def _columnar_block_off_by_one():
    import numpy as np

    from repro.trace.records import Trace

    original = Trace.append_block

    def bad_append_block(self, addresses, *, write=False):
        # the classic block-boundary bug: the columnar recorder drops the
        # last reference of every appended block
        block = np.asarray(addresses, dtype=np.int64).reshape(-1)[:-1]
        if not isinstance(write, (bool, np.bool_)):
            write = np.asarray(write, dtype=bool).reshape(-1)[:-1]
        original(self, block, write=write)

    with _patched(Trace, "append_block", bad_append_block):
        yield


@contextmanager
def _kernel_write_allocate_dropped():
    from repro import kernels

    original = kernels.replay_oneway

    def bad_replay_oneway(lines, sets, writes, write_allocate, current,
                          dirty, hits_out):
        # the compiled one-way replay kernel "forgets" the write-allocate
        # policy and treats every store miss as no-allocate
        return original(lines, sets, writes, False, current, dirty,
                        hits_out)

    with _patched(kernels, "replay_oneway", bad_replay_oneway):
        yield


@contextmanager
def _kernel_belady_sentinel_pinned():
    import numpy as np

    from repro import kernels

    original = kernels.belady_opt

    def bad_belady_opt(lines, sets, next_use, num_ways, tags, nu, ins):
        # the classic sentinel confusion: never-reused references (whose
        # next use is the sentinel n) are treated as needed immediately,
        # so OPT pins dead lines and evicts live ones
        clipped = np.where(next_use == lines.size, 0, next_use)
        return original(lines, sets, clipped, num_ways, tags, nu, ins)

    with _patched(kernels, "belady_opt", bad_belady_opt):
        yield


@contextmanager
def _phase_collapsed_footprint():
    from repro.cache.prime import PrimeMappedCache

    def bad_lines_touched(self, stride):
        # ignores the line-offset phases of fractional-line strides and
        # reports the single-phase count
        if stride == 0:
            return 1
        word_stride = abs(stride)
        g = math.gcd(word_stride, self.line_size_words)
        line_stride = word_stride // g
        value = self.modulus.value
        return value // math.gcd(value, line_stride)

    with _patched(PrimeMappedCache, "lines_touched_by_stride",
                  bad_lines_touched):
        yield


@contextmanager
def _batched_broadcast_collapse():
    import numpy as np

    from repro.analytical import batched

    original = batched.mm_random_self_stalls_batch

    def bad_random_stalls(num_banks, t_m, mvl):
        # the classic broadcast bug: a stray scalarisation scores every
        # grid point with the first t_m's stall count instead of its own
        collapsed = np.asarray(t_m).flat[0]
        shape = np.broadcast_shapes(np.shape(num_banks), np.shape(t_m),
                                    np.shape(mvl))
        return np.broadcast_to(
            original(num_banks, collapsed, mvl), shape).copy()

    with _patched(batched, "mm_random_self_stalls_batch",
                  bad_random_stalls):
        yield


@contextmanager
def _hashed_seed_fold_dropped():
    from repro.cache import hashed
    from repro.cache.hashed import HashedIndexCache

    def bad_map_sets_batch(self, lines):
        # the batched hash mapping "forgets" to fold the seed in, so a
        # seeded cache's batch replay disagrees with its scalar set_of
        return hashed.hash_sets(lines, 0, self.num_sets)

    with _patched(HashedIndexCache, "_map_sets_batch", bad_map_sets_batch):
        yield


@contextmanager
def _bicameral_boundary_misrouted():
    import numpy as np

    from repro.cache.bicameral import BicameralCache

    def bad_line_vector_mask(self, lines):
        # the classic half-open-interval bug: the batched routing mask
        # uses the wrong searchsorted side, shifting both edges of every
        # vector range by one line relative to the scalar set_of
        slots = np.searchsorted(self._vector_bounds, lines, side="left")
        return (slots & 1).astype(bool)

    with _patched(BicameralCache, "_line_vector_mask",
                  bad_line_vector_mask):
        yield


@contextmanager
def _collision_exponent_off_by_one():
    import numpy as np

    from repro.analytical import hashed

    def bad_expected_colliding(num_lines, num_sets):
        # singleton probability raised to B instead of B - 1: each line
        # "collides with itself", inflating the expectation
        b = np.asarray(num_lines, dtype=np.float64)
        s = np.asarray(num_sets, dtype=np.float64)
        return b * -np.expm1(b * np.log1p(-1.0 / s))

    with _patched(hashed, "expected_colliding_lines",
                  bad_expected_colliding):
        yield


@contextmanager
def _lru_refresh_dropped():
    from repro import kernels
    from repro.cache.replacement import LRUPolicy

    original = kernels.replay_assoc
    original_two_level = kernels.replay_two_level

    def bad_replay_assoc(lines, sets, writes, num_ways, write_allocate, lru,
                         tick, tags, stamps, dirty, hits_out):
        # hits no longer restamp their way: the kernel's LRU is FIFO
        return original(lines, sets, writes, num_ways, write_allocate,
                        False, tick, tags, stamps, dirty, hits_out)

    def bad_replay_two_level(lines, sets, writes, write_allocate, l1, l2,
                             hits_out):
        # ... at both levels of the hierarchy kernel too
        fifo = [(ways, False, *rest) for ways, _, *rest in (l1, l2)]
        return original_two_level(lines, sets, writes, write_allocate,
                                  *fifo, hits_out)

    def bad_on_hit(self, resident, line):
        # ... and so is the scalar policy's: a hit leaves the order alone
        pass

    with _patched(kernels, "replay_assoc", bad_replay_assoc), \
            _patched(kernels, "replay_two_level", bad_replay_two_level), \
            _patched(LRUPolicy, "on_hit", bad_on_hit):
        yield


@contextmanager
def _stack_capacity_off_by_one():
    from repro import kernels

    original = kernels.stack_hits

    def bad_stack_hits(lines, recent, capacity, cold_out=None):
        # the distance test says <= capacity instead of < capacity; the
        # shadow handed to the next batch stays right
        hits, _ = original(lines, recent, capacity + 1, cold_out)
        return hits, original(lines, recent, capacity)[1]

    with _patched(kernels, "stack_hits", bad_stack_hits):
        yield


@contextmanager
def _two_level_back_invalidation_dropped():
    from repro import kernels
    from repro.kernels import reference

    def bad_replay_two_level(lines, sets, writes, write_allocate, l1, l2,
                             hits_out):
        # the hierarchy kernel forgets inclusion: an L2 victim's L1 copy
        # stays resident (the pure-Python form with its back-invalidation
        # step removed, whichever provider is live)
        with _patched(reference, "_back_invalidate", lambda *args: None):
            return reference.replay_two_level(
                kernels._i64(lines), kernels._i64(sets), kernels._u8(writes),
                int(bool(write_allocate)), kernels._level(*l1),
                kernels._level(*l2), kernels._u8(hits_out))

    with _patched(kernels, "replay_two_level", bad_replay_two_level):
        yield


@contextmanager
def _assoc_class_count_shifted():
    import numpy as np

    from repro.analytical import batched

    original = batched._assoc_class_axes

    def bad_class_axes(cache_lines, ways):
        # class 0 counts every odd stride up to C, stride 1 included,
        # though the random strides run over 2 .. C
        k, count, occupied, valid = original(cache_lines, ways)
        return k, count + np.where(k == 0, 1, 0), occupied, valid

    with _patched(batched, "_assoc_class_axes", bad_class_axes):
        yield


MUTATIONS: dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "fold-modulus-off-by-one",
            "batched Mersenne index fold uses modulus 2^c - 2 while the "
            "scalar set_of folds by 2^c - 1",
            ("cache-batch",),
            _fold_modulus_off_by_one),
        Mutation(
            "dropped-bank-busy-stall",
            "the op-table timing kernel forgets the cycles a reference "
            "waits for its busy bank",
            ("machine-timing", "kernel-backend"),
            _dropped_bank_busy_stall),
        Mutation(
            "wrong-mersenne-modulus",
            "PrimeMappedModel.self_stalls_for_stride folds strides by "
            "2^c instead of the Mersenne prime 2^c - 1",
            ("analytical-vs-simulated",),
            _wrong_mersenne_modulus),
        Mutation(
            "congruence-lost-solutions",
            "solve_linear_congruence returns only the principal solution "
            "of a*x === b (mod m)",
            ("congruence",),
            _congruence_lost_solutions),
        Mutation(
            "phase-collapsed-footprint",
            "lines_touched_by_stride ignores the line-offset phases of "
            "fractional-line strides",
            ("prime-geometry",),
            _phase_collapsed_footprint),
        Mutation(
            "kernel-write-allocate-dropped",
            "the compiled one-way replay kernel treats every store miss "
            "as no-allocate regardless of the cache's policy",
            ("kernel-backend",),
            _kernel_write_allocate_dropped),
        Mutation(
            "kernel-belady-sentinel-pinned",
            "the compiled Belady OPT kernel treats the never-reused "
            "sentinel as an immediate next use, pinning dead lines",
            ("kernel-backend",),
            _kernel_belady_sentinel_pinned),
        Mutation(
            "columnar-block-off-by-one",
            "Trace.append_block drops the last reference of every "
            "recorded address block",
            ("trace-columnar",),
            _columnar_block_off_by_one),
        Mutation(
            "batched-broadcast-collapse",
            "mm_random_self_stalls_batch collapses the t_m broadcast "
            "axis, scoring every grid point with the first t_m's stalls",
            ("analytical-batched",),
            _batched_broadcast_collapse),
        Mutation(
            "hashed-seed-fold-dropped",
            "HashedIndexCache._map_sets_batch ignores the hash seed, so "
            "seeded batch replays disagree with the scalar set_of",
            ("cache-zoo",),
            _hashed_seed_fold_dropped),
        Mutation(
            "bicameral-boundary-misrouted",
            "the bicameral batched routing mask uses searchsorted "
            "side='left', shifting both edges of every vector range",
            ("cache-zoo",),
            _bicameral_boundary_misrouted),
        Mutation(
            "collision-exponent-off-by-one",
            "expected_colliding_lines raises the singleton probability "
            "to B instead of B - 1, counting self-collisions",
            ("cache-zoo",),
            _collision_exponent_off_by_one),
        Mutation(
            "lru-refresh-dropped",
            "LRU hits stop refreshing recency in LRUPolicy.on_hit and the "
            "replay_assoc and replay_two_level kernels, so every engine "
            "replays FIFO",
            ("lru-stack",),
            _lru_refresh_dropped),
        Mutation(
            "stack-capacity-off-by-one",
            "the stack-distance kernel counts a distance equal to the "
            "shadow's capacity as a shadow hit (conflict, not capacity)",
            ("cache-batch", "kernel-backend"),
            _stack_capacity_off_by_one),
        Mutation(
            "two-level-back-invalidation-dropped",
            "the two-level replay kernel leaves an L2 victim's L1 copy "
            "resident, breaking the hierarchy's inclusion",
            ("cache-zoo", "kernel-backend"),
            _two_level_back_invalidation_dropped),
        Mutation(
            "assoc-class-count-shifted",
            "the set-associative gcd-class sums count stride 1 in the odd "
            "class, though random strides run over 2 .. C",
            ("analytical-batched",),
            _assoc_class_count_shifted),
    )
}


def run_selfcheck(*, seed: int = 0, mode: str = "quick",
                  mutations: list[str] | None = None) -> list[MutationOutcome]:
    """Inject each catalogued fault and record which oracles catch it.

    Runs the full oracle sweep (same seed and depth as the main run)
    under each fault in turn, so the self-check certifies the *actual*
    net, not a special-cased one.
    """
    from repro.verify.runner import DifferentialRunner

    runner = DifferentialRunner(seed=seed)
    outcomes = []
    for name in mutations or sorted(MUTATIONS):
        mutation = MUTATIONS[name]
        with ExitStack() as stack:
            stack.enter_context(mutation.active())
            swept = runner.run(mode)
        outcomes.append(MutationOutcome(
            mutation=mutation.name,
            description=mutation.description,
            expected_oracles=mutation.expected_oracles,
            caught_by=[o.oracle for o in swept if o.mismatches]))
    return outcomes
