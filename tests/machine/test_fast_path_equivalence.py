"""Property test: the op-table kernel path matches the scalar loop.

The op-table timing kernel (``backend="compiled"``, the default) must
reproduce the per-element reference loop (``backend="scalar"``) bit for
bit — not just total cycles, but the full
:class:`~repro.machine.report.ExecutionReport` split, the
memory/bank/bus/write-buffer state (each read bus's transfers and next
free cycle included), and the cache contents — across MM/CC machines,
strides (including 0 and negative), double-stream :class:`LoadPair` ops
with mismatched lengths, finite write buffers, and both cache
organisations.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analytical.base import MachineConfig
from repro.analytical.vcm import VCM
from repro.cache import DirectMappedCache, PrimeMappedCache
from repro.machine import VCMDriver, vector_machine
from repro.machine.ops import LoadPair, VectorCompute, VectorLoad, VectorStore
from repro.machine.vector_machine import CCMachine, MMMachine

MVLS = (4, 16, 32)


def _backend(fast: bool) -> str:
    """The machines' op-table kernels, or their per-element reference."""
    return "compiled" if fast else "scalar"


def _load(mvl: int, *, counts_results: bool = True) -> st.SearchStrategy:
    lengths = st.sampled_from(
        (1, 2, 3, mvl - 1, mvl, mvl + 1, 2 * mvl + 5)
    ) | st.integers(1, 3 * mvl)
    strides = st.sampled_from((0, 1, 2, 3, 4, 8, 64)) | st.integers(-32, 64)
    return st.builds(
        _nonnegative_load,
        st.integers(0, 1 << 20),
        strides,
        lengths,
        st.booleans(),
        st.just(counts_results),
    )


def _nonnegative_load(base, stride, length, expect_cached, counts_results):
    if stride < 0:
        base += length * -stride  # keep every element address >= 0
    return VectorLoad(base=base, stride=stride, length=length,
                      expect_cached=expect_cached,
                      counts_results=counts_results)


def _store(mvl: int) -> st.SearchStrategy:
    return st.builds(
        lambda base, stride, length: VectorStore(
            base=base + (length * -stride if stride < 0 else 0),
            stride=stride, length=length),
        st.integers(0, 1 << 20),
        st.sampled_from((0, 1, 2, 8, -3)) | st.integers(-16, 64),
        st.integers(1, 3 * mvl),
    )


def _op(mvl: int) -> st.SearchStrategy:
    return st.one_of(
        _load(mvl),
        _store(mvl),
        st.builds(VectorCompute, st.integers(1, 2 * mvl)),
        st.builds(LoadPair, _load(mvl),
                  _load(mvl, counts_results=False)),
    )


@st.composite
def _scenario(draw):
    mvl = draw(st.sampled_from(MVLS))
    config = MachineConfig(
        num_banks=draw(st.sampled_from((4, 16, 64))),
        memory_access_time=draw(st.sampled_from((1, 2, 4, 7, 32))),
        mvl=mvl,
        cache_lines=31,
    )
    spec = draw(st.sampled_from(("mm", "cc-direct", "cc-prime")))
    depth = draw(st.sampled_from((None, 1, 2, 8)))
    line = draw(st.sampled_from((1, 4)))
    ops = draw(st.lists(_op(mvl), min_size=1, max_size=6))
    blocks = draw(st.integers(1, 3))
    return config, spec, depth, line, ops, blocks


def _build(fast: bool, config, spec, depth, line):
    if spec == "mm":
        if depth is None:
            return MMMachine(config, backend=_backend(fast))
        return MMMachine(config, write_buffer_depth=depth,
                         backend=_backend(fast))
    if spec == "cc-direct":
        cache = DirectMappedCache(32, line_size_words=line,
                                  classify_misses=False)
    else:
        cache = PrimeMappedCache(c=5, line_size_words=line,
                                 classify_misses=False)
    return CCMachine(config, cache, write_buffer_depth=depth,
                     backend=_backend(fast))


def _full_state(machine):
    state = {
        "cycle": machine._cycle,
        "bank_free": list(machine.memory._bank_free_at),
        "memory": (machine.memory.stats.accesses,
                   machine.memory.stats.stall_cycles,
                   dict(machine.memory.stats.bank_accesses)),
        "read_buses": [(b.transfers, b.wait_cycles, b._next_free)
                       for b in machine.buses.read_buses],
        "write_bus": (machine.buses.write_bus.transfers,
                      machine.buses.write_bus.wait_cycles,
                      machine.buses.write_bus._next_free),
    }
    cache = getattr(machine, "cache", None)
    if cache is not None:
        state["cache"] = (cache.stats.hits, cache.stats.misses,
                          cache.stats.evictions,
                          sorted(cache.resident_lines()))
    buffer = getattr(machine, "write_buffer", None)
    if buffer is not None:
        state["write_buffer"] = (buffer.stats.stores,
                                 buffer.stats.processor_stall_cycles,
                                 buffer.occupancy,
                                 list(buffer._pending),
                                 buffer._drained_up_to)
    return state


@settings(max_examples=60, deadline=None)
@given(_scenario())
def test_fast_path_is_bit_for_bit_equivalent(scenario):
    config, spec, depth, line, ops, blocks = scenario
    scalar = _build(False, config, spec, depth, line)
    fast = _build(True, config, spec, depth, line)
    for block in range(blocks):
        scalar_report = scalar.execute(ops, add_loop_overhead=block == 0)
        fast_report = fast.execute(ops, add_loop_overhead=block == 0)
        assert fast_report == scalar_report
    assert _full_state(fast) == _full_state(scalar)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from((0, 1, 3, 17)),
    st.integers(1, 80),
    st.sampled_from((4, 8, 32)),
)
def test_finite_write_buffer_stalls_match_scalar(depth, stride, length, t_m):
    """Satellite check: push-back stalls of a shallow write buffer are
    identical on both store paths and surface in the report."""
    config = MachineConfig(num_banks=4, memory_access_time=t_m, mvl=16)
    ops = [VectorStore(base=0, stride=stride, length=length)] * 3
    scalar = MMMachine(config, write_buffer_depth=depth, backend="scalar")
    fast = MMMachine(config, write_buffer_depth=depth, backend="compiled")
    scalar_report = scalar.execute(ops)
    fast_report = fast.execute(ops)
    assert fast_report == scalar_report
    assert (fast_report.store_stall_cycles
            == scalar.write_buffer.stats.processor_stall_cycles)
    assert _full_state(fast) == _full_state(scalar)
    if stride == 0 and t_m == 32 and length > 10:
        # same-bank store storm: a depth-limited buffer must stall
        assert fast_report.store_stall_cycles > 0


@st.composite
def _long_stream(draw):
    """Long loads and pairs (self-stalling loads and second-stream tails)
    cut into chunks far smaller than the default bound, on a CC machine
    whose cached and pipelined strips may cost the same."""
    t_m = draw(st.sampled_from((2, 4, 16, 32)))
    config = MachineConfig(num_banks=draw(st.sampled_from((16, 64))),
                           memory_access_time=t_m, mvl=16, cache_lines=31)
    spec = draw(st.sampled_from(("mm", "cc-direct", "cc-prime")))
    loads = st.builds(
        _nonnegative_load,
        st.integers(0, 1 << 20),
        st.sampled_from((1, 2, 3, 8, 16, 64)) | st.integers(-8, 70),
        st.integers(1, 300),
        st.booleans(),
        st.just(True),
    )
    seconds = st.builds(
        _nonnegative_load,
        st.integers(0, 1 << 20),
        st.integers(-8, 70),
        st.integers(1, 300),
        st.just(False),
        st.just(False),
    )
    ops = draw(st.lists(loads | st.builds(LoadPair, loads, seconds),
                        min_size=2, max_size=8))
    chunk_refs = draw(st.sampled_from((64, 500, 1 << 14)))
    return config, spec, ops, chunk_refs


@settings(max_examples=60, deadline=None)
@given(_long_stream())
def test_chunked_long_streams_match_scalar(case):
    """Chunk boundaries and probe offsets stay exact for long ops, and for
    rows longer than a chunk; the CC machine re-folds start addresses at
    a cost equal to the ``t_m`` a cached strip saves, so loads with and
    without ``expect_cached`` share a strip overhead and differ only in
    their miss rule."""
    config, spec, ops, chunk_refs = case
    machines = []
    for fast in (False, True):
        if spec == "mm":
            machines.append(MMMachine(config, backend=_backend(fast)))
            continue
        cache = (DirectMappedCache(32, classify_misses=False)
                 if spec == "cc-direct"
                 else PrimeMappedCache(c=5, classify_misses=False))
        machines.append(CCMachine(config, cache, start_registers=False,
                                  start_recalc_cycles=config.t_m,
                                  backend=_backend(fast)))
    scalar, fast = machines
    with mock.patch.object(vector_machine, "CHUNK_REFS", chunk_refs):
        for _ in range(2):
            assert fast.execute(iter(ops)) == scalar.execute(ops)
    assert _full_state(fast) == _full_state(scalar)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(("mm", "cc-direct", "cc-prime")),
    st.sampled_from((2, 8, 32)),
    st.integers(20, 90),
    st.integers(1, 3),
    st.sampled_from((0.0, 0.1, 0.3)),
    st.integers(0, 1 << 16),
)
def test_vcm_tables_match_scalar(spec, t_m, block, reuse, p_ds, seed):
    """VCMDriver's op tables (pairs with tails, reused sweeps) time the
    same on the kernels as on the reference, which replays them as ops."""
    config = MachineConfig(num_banks=16, memory_access_time=t_m, mvl=16,
                           cache_lines=31)
    vcm = VCM(blocking_factor=block, reuse_factor=reuse, p_ds=p_ds,
              s2=None if p_ds == 0 else "random")
    machines = [_build(fast, config, spec, None, 1) for fast in (False, True)]
    reports = [VCMDriver(machine, seed=seed).run(vcm, 2 * block).report
               for machine in machines]
    assert reports[0] == reports[1]
    assert _full_state(machines[0]) == _full_state(machines[1])


@pytest.mark.parametrize("bus, busy_until", [("read0", 70), ("read1", 70),
                                             ("write", 400)])
@pytest.mark.parametrize("spec", ["mm", "cc-direct", "cc-prime"])
def test_buses_busy_past_the_clock_take_the_reference(spec, bus, busy_until):
    """A hand-driven substrate whose bus runs ahead of the clock is
    outside the kernel's precondition; the compiled backend then runs the
    reference loop and stays exact."""
    config = MachineConfig(num_banks=16, memory_access_time=8, mvl=16,
                           cache_lines=31)
    ops = [LoadPair(VectorLoad(base=0, stride=3, length=40),
                    VectorLoad(base=512, stride=1, length=50,
                               counts_results=False)),
           VectorStore(base=64, stride=2, length=20)]
    machines = [_build(fast, config, spec, None, 1) for fast in (False, True)]
    for machine in machines:
        buses = machine.buses
        target = {"read0": buses.read_buses[0], "read1": buses.read_buses[1],
                  "write": buses.write_bus}[bus]
        target._next_free = busy_until
    reports = [machine.execute(ops) for machine in machines]
    assert reports[0] == reports[1]
    assert _full_state(machines[0]) == _full_state(machines[1])
