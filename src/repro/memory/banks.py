"""Interleaved main memory with bank busy-time conflicts.

Both machine models of the paper (Figures 2 and 3) sit on ``M = 2^m``
low-order-bit interleaved memory banks, each busy for ``t_m`` processor
cycles per access.  A vector access stream issues one element per cycle;
an element whose bank is still busy stalls the stream until the bank
recovers.  For a stride-``s`` sweep the stream visits ``M / gcd(M, s)``
banks before revisiting the first, so conflicts appear exactly when
``t_m > M / gcd(M, s)`` — the fact Section 3.2's ``I_s^M`` formula counts.

The bank-selection function is pluggable so the Budnik–Kuck/BSP
*prime-number memory* (the historical ancestor of the prime-mapped cache)
can be swapped in as an ablation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InterleaveScheme",
    "LowOrderInterleave",
    "PrimeInterleave",
    "SkewedInterleave",
    "MemoryStats",
    "BatchReply",
    "InterleavedMemory",
]


class InterleaveScheme(ABC):
    """Maps a word address to a memory bank."""

    def __init__(self, num_banks: int) -> None:
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks

    @abstractmethod
    def bank_of(self, address: int) -> int:
        """Bank index in ``0 .. num_banks - 1`` serving ``address``."""

    def bank_of_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bank_of` over an address array.

        The generic fallback loops; purely arithmetic schemes override it
        with array expressions.
        """
        bank_of = self.bank_of
        return np.fromiter(
            (bank_of(a) for a in addresses.tolist()),
            dtype=np.int64,
            count=addresses.size,
        )

    def exact_stride_period(self, stride: int) -> int | None:
        """Exact bank-sequence period of a stride-``stride`` sweep, or
        ``None``.

        A non-``None`` return ``P`` guarantees, for *every* base address:
        the bank sequence ``bank_of(base + k * stride)`` repeats with
        period exactly ``P``, and the ``P`` banks inside one period are
        pairwise distinct.  Those two facts are what make the batched
        busy-window recurrence of :meth:`InterleavedMemory.service_many`
        closed-form; schemes that cannot promise them (e.g. row-skewed
        interleave, whose bank function is not modular in the address)
        return ``None`` and fall back to the exact sequential loop.
        """
        return None

    def banks_visited_by_stride(self, stride: int) -> int:
        """Distinct banks a long stride-``stride`` sweep cycles through."""
        if stride == 0:
            return 1
        period = self._stride_period(abs(stride))
        return period

    def _stride_period(self, stride: int) -> int:
        """Default: simulate one period (schemes with closed forms override)."""
        seen: set[int] = set()
        address = 0
        for _ in range(self.num_banks + 1):
            bank = self.bank_of(address)
            if bank in seen and address // stride >= len(seen):
                break
            seen.add(bank)
            address += stride
        return len(seen)


class LowOrderInterleave(InterleaveScheme):
    """Classic ``address mod M`` interleave; ``M`` must be a power of two."""

    def __init__(self, num_banks: int) -> None:
        super().__init__(num_banks)
        if num_banks & (num_banks - 1):
            raise ValueError("low-order interleave needs a power-of-two bank count")

    def bank_of(self, address: int) -> int:
        return address & (self.num_banks - 1)

    def bank_of_batch(self, addresses: np.ndarray) -> np.ndarray:
        return addresses & (self.num_banks - 1)

    def _stride_period(self, stride: int) -> int:
        return self.num_banks // math.gcd(self.num_banks, stride)

    def exact_stride_period(self, stride: int) -> int | None:
        # address mod M is modular, so the period divides M and the banks
        # of one period are distinct ((k - j)*s === 0 mod M iff P | k - j)
        return self.num_banks // math.gcd(self.num_banks, abs(stride))


class PrimeInterleave(InterleaveScheme):
    """Budnik–Kuck / BSP prime-number memory: ``address mod p``, ``p`` prime.

    With a prime bank count every stride that is not a multiple of ``p``
    cycles through all ``p`` banks — the same number theory the prime-mapped
    cache applies one level down the hierarchy.  The price in a real
    machine is the mod-``p`` address computation on every access, which the
    BSP paid with special hardware; as a simulation ablation it shows what
    the MM-model could gain without a cache.
    """

    def __init__(self, num_banks: int) -> None:
        super().__init__(num_banks)
        if num_banks < 2 or any(
            num_banks % d == 0 for d in range(2, int(math.isqrt(num_banks)) + 1)
        ):
            raise ValueError("prime interleave needs a prime bank count")

    def bank_of(self, address: int) -> int:
        return address % self.num_banks

    def bank_of_batch(self, addresses: np.ndarray) -> np.ndarray:
        return addresses % self.num_banks

    def _stride_period(self, stride: int) -> int:
        return self.num_banks // math.gcd(self.num_banks, stride)

    def exact_stride_period(self, stride: int) -> int | None:
        return self.num_banks // math.gcd(self.num_banks, abs(stride))


class SkewedInterleave(InterleaveScheme):
    """Row-skewed interleave: ``(address + address // M) mod M``.

    A classic compromise (Harper-style skewing) that breaks up power-of-two
    stride pathologies without a prime modulus; included as a second
    MM-model ablation point.
    """

    def __init__(self, num_banks: int) -> None:
        super().__init__(num_banks)
        if num_banks & (num_banks - 1):
            raise ValueError("skewed interleave needs a power-of-two bank count")

    def bank_of(self, address: int) -> int:
        return (address + address // self.num_banks) % self.num_banks

    def bank_of_batch(self, addresses: np.ndarray) -> np.ndarray:
        # note: no exact_stride_period — the row term makes the bank
        # sequence of a strided sweep aperiodic in general
        return (addresses + addresses // self.num_banks) % self.num_banks


class MemoryStats:
    """Counters for one memory instance.

    Per-bank counts live in two dense per-bank accumulators — a plain
    list the scalar ``access`` path bumps cheaply, and a numpy array the
    batched service calls merge into with one fancy-indexed add;
    :attr:`bank_accesses` presents their sum as the familiar sparse-dict
    view.
    """

    __slots__ = ("accesses", "stall_cycles", "_bank_counts",
                 "_bank_counts_batched")

    def __init__(self, num_banks: int = 0) -> None:
        self.accesses = 0
        self.stall_cycles = 0
        self._bank_counts = [0] * num_banks
        self._bank_counts_batched = np.zeros(num_banks, dtype=np.int64)

    @property
    def bank_accesses(self) -> dict[int, int]:
        """Access count per bank, for banks referenced at least once."""
        batched = self._bank_counts_batched.tolist()
        return {
            bank: count + batched[bank]
            for bank, count in enumerate(self._bank_counts)
            if count + batched[bank]
        }

    @property
    def stalls_per_access(self) -> float:
        """Average stall cycles per access; 0.0 before any access."""
        return self.stall_cycles / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.accesses = 0
        self.stall_cycles = 0
        self._bank_counts = [0] * len(self._bank_counts)
        self._bank_counts_batched[:] = 0


@dataclass(frozen=True)
class BatchReply:
    """Timing of one batched access stream (see ``service_many``).

    Attributes:
        accesses: elements serviced.
        stall_cycles: total cycles the *stream* waited for busy banks.
        final_cycle: pipeline cycle after the last element's issue slot
            (``start_cycle + accesses + stall_cycles`` for a pipelined
            stream; for :meth:`InterleavedMemory.service_at` it is the
            last access's issue cycle plus one).
    """

    accesses: int
    stall_cycles: int
    final_cycle: int


@dataclass(frozen=True)
class MemoryReply:
    """Timing of one memory access.

    Attributes:
        bank: bank that served the access.
        issue_cycle: cycle the access actually entered the bank (after any
            stall waiting for the bank to free up).
        ready_cycle: cycle the data is available (``issue + t_m``).
        stall_cycles: cycles the requester waited for the bank.
    """

    bank: int
    issue_cycle: int
    ready_cycle: int
    stall_cycles: int


class InterleavedMemory:
    """``M`` banks, each busy ``t_m`` cycles per access, behind a scheme.

    Args:
        num_banks: bank count ``M``.
        access_time: bank busy/occupancy time ``t_m`` in processor cycles.
        scheme: bank-selection scheme; defaults to low-order interleave
            (requires power-of-two ``num_banks``).

    Example:
        >>> memory = InterleavedMemory(num_banks=4, access_time=8)
        >>> memory.access(0, cycle=0).stall_cycles
        0
        >>> memory.access(4, cycle=1).stall_cycles   # bank 0 busy again
        7
    """

    def __init__(
        self,
        num_banks: int,
        access_time: int,
        scheme: InterleaveScheme | None = None,
    ) -> None:
        if access_time <= 0:
            raise ValueError("access_time must be positive")
        self.scheme = scheme if scheme is not None else LowOrderInterleave(num_banks)
        if self.scheme.num_banks != num_banks:
            raise ValueError("scheme bank count does not match memory")
        self.num_banks = num_banks
        self.access_time = access_time
        self.stats = MemoryStats(num_banks)
        self._bank_free_at = [0] * num_banks

    def access(self, address: int, cycle: int) -> MemoryReply:
        """Issue one word access at ``cycle``; returns its timing."""
        if address < 0:
            raise ValueError("addresses must be non-negative")
        bank = self.scheme.bank_of(address)
        free_at = self._bank_free_at[bank]
        stall = max(0, free_at - cycle)
        issue = cycle + stall
        self._bank_free_at[bank] = issue + self.access_time
        self.stats.accesses += 1
        self.stats.stall_cycles += stall
        self.stats._bank_counts[bank] += 1
        return MemoryReply(bank, issue, issue + self.access_time, stall)

    def peek_stall(self, address: int, cycle: int) -> int:
        """Stall an access at ``cycle`` would incur, without issuing it."""
        bank = self.scheme.bank_of(address)
        return max(0, self._bank_free_at[bank] - cycle)

    # -- batched service (the strip-level timing engine's memory leg) --------

    def _record_batch(self, banks, counts, accesses: int, stall: int) -> None:
        """Merge one batch's counters into :attr:`stats`.

        ``banks`` must not repeat within one call (every batched service
        path aggregates per bank before recording), which is what lets
        the array form use a plain fancy-indexed add.
        """
        self.stats.accesses += accesses
        self.stats.stall_cycles += stall
        stats = self.stats
        if isinstance(banks, np.ndarray):
            stats._bank_counts_batched[banks] += counts
        else:
            bank_counts = stats._bank_counts
            for bank, count in zip(banks, counts):
                bank_counts[bank] += count

    def _service_many_flat(self, banks, start_cycle: int) -> BatchReply:
        """Exact sequential fallback of :meth:`service_many` (local-state
        loop, no per-access ``MemoryReply`` allocation)."""
        free = self._bank_free_at
        t_m = self.access_time
        cycle = start_cycle
        total = 0
        counts: dict[int, int] = {}
        for bank in banks:
            ready = free[bank]
            if ready > cycle:
                total += ready - cycle
                cycle = ready
            free[bank] = cycle + t_m
            cycle += 1
            counts[bank] = counts.get(bank, 0) + 1
        self._record_batch(counts.keys(), counts.values(), len(banks), total)
        return BatchReply(len(banks), total, cycle)

    def service_many(
        self, addresses, start_cycle: int, *, stride: int | None = None
    ) -> BatchReply:
        """Service a pipelined one-element-per-cycle stream in one call.

        The ``machine-timing`` and ``analytical-vs-simulated`` oracles of
        :mod:`repro.verify` sweep this closed form against the sequential
        recurrence and the Eq. (1)–(3) stall formulas.

        Semantically identical to::

            cycle, total = start_cycle, 0
            for a in addresses:
                reply = self.access(a, cycle)
                total += reply.stall_cycles
                cycle += 1 + reply.stall_cycles

        i.e. each element issues the cycle after its predecessor entered
        its bank, and a busy bank stalls the whole stream — the paper's
        vector-access rule.  When ``stride`` is given and the scheme's
        :meth:`~InterleaveScheme.exact_stride_period` knows the bank
        sequence's exact period ``P``, the whole recurrence collapses to
        closed numpy form; otherwise an exact sequential loop runs.

        The closed form: with issue cycles ``I_k`` and ``J_k = I_k - k``,
        the busy-window recurrence ``I_k = max(I_{k-1} + 1, I_{k-P} + t_m)``
        becomes ``J_k = max(J_{k-1}, J_{k-P} + d)`` with ``d = t_m - P``.
        The first period seeds ``J`` from residual bank state via a running
        maximum, and every later ``J_k`` is a max over at most two
        seed-plus-multiple-of-``d`` terms (``d <= 0`` means the stream
        out-runs the banks and ``J`` freezes — the ``t_m <= M / gcd(M, s)``
        no-conflict fact of Section 3.2).
        """
        addrs = np.ascontiguousarray(addresses, dtype=np.int64)
        n = addrs.size
        if n == 0:
            return BatchReply(0, 0, start_cycle)
        if int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        banks = self.scheme.bank_of_batch(addrs)
        period = (
            self.scheme.exact_stride_period(stride)
            if stride is not None else None
        )
        if period is None:
            return self._service_many_flat(banks.tolist(), start_cycle)

        t_m = self.access_time
        free = self._bank_free_at
        p_seen = min(period, n)
        first_banks = banks[:p_seen]
        first_list = first_banks.tolist()
        ready0 = np.array([free[b] for b in first_list], dtype=np.int64)
        offsets = np.arange(p_seen, dtype=np.int64)
        j0 = np.maximum.accumulate(np.maximum(ready0 - offsets, start_cycle))
        j_top = int(j0[-1])

        # J at the last visit of each of the p_seen banks, and at element
        # n-1 (the stream's total stall is J_{n-1} - start_cycle).
        if n <= period:
            last_j = j0
            last_k = offsets
            j_final = j_top
        else:
            last_k = offsets + period * ((n - 1 - offsets) // period)
            d = t_m - period
            if d <= 0:
                last_j = np.where(last_k < period, j0, j_top)
                j_final = j_top
            else:
                q = last_k // period
                last_j = np.where(
                    last_k < period, j0,
                    np.maximum(j0 + q * d, j_top + (q - 1) * d),
                )
                q_final, r_final = divmod(n - 1, period)
                j_final = int(max(j0[r_final] + q_final * d,
                                  j_top + (q_final - 1) * d))

        total = j_final - start_cycle
        new_free = (last_j + last_k + t_m).tolist()
        for bank, value in zip(first_list, new_free):
            free[bank] = value
        self._record_batch(first_banks, (n - 1 - offsets) // period + 1,
                           n, total)
        return BatchReply(n, total, start_cycle + n + total)

    def _service_at_flat(self, banks, cycles) -> BatchReply:
        """Exact sequential fallback of :meth:`service_at`."""
        free = self._bank_free_at
        t_m = self.access_time
        delay = 0
        total = 0
        counts: dict[int, int] = {}
        issue = 0
        for bank, base in zip(banks, cycles):
            cycle = base + delay
            ready = free[bank]
            if ready > cycle:
                total += ready - cycle
                delay += ready - cycle
                cycle = ready
            issue = cycle
            free[bank] = cycle + t_m
            counts[bank] = counts.get(bank, 0) + 1
        self._record_batch(counts.keys(), counts.values(), len(banks), total)
        return BatchReply(len(banks), total, issue + 1)

    def service_at(self, addresses, cycles) -> BatchReply:
        """Service accesses at given no-stall cycles; stalls accumulate.

        Semantically identical to::

            delay, total = 0, 0
            for a, c in zip(addresses, cycles):
                reply = self.access(a, c + delay)
                total += reply.stall_cycles
                delay += reply.stall_cycles

        — every bank stall pushes all later accesses back by the same
        amount (the machines' one-issue-pipeline rule, both for pipelined
        streams and for the CC-machine's non-pipelined conflict misses).

        When every access's ``cycles`` entry is at least ``t_m`` after
        that of the previous access to the *same bank* in the call, an
        access can never wait on an earlier access of the call: delays
        only grow, so stalls only widen those gaps, and the bank has
        freed before the access's nominal slot.  Only the banks' state
        at call entry can stall, and the cumulative delay is a running
        maximum in closed form.  Consecutive entries at least ``t_m``
        apart (conflict-miss sweeps) pass the test outright; otherwise
        a stable sort by bank measures the same-bank gaps (strided
        streams whose bank period covers ``t_m``, with strip overheads in
        between).  Any shorter same-bank gap takes the exact loop.
        """
        addrs = np.ascontiguousarray(addresses, dtype=np.int64)
        n = addrs.size
        if n == 0:
            return BatchReply(0, 0, 0)
        if int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        cyc = np.ascontiguousarray(cycles, dtype=np.int64)
        if cyc.shape != addrs.shape:
            raise ValueError("cycles must match addresses in shape")
        banks = self.scheme.bank_of_batch(addrs)
        t_m = self.access_time
        # The closed form costs a fixed ~dozen numpy calls; below a few
        # dozen elements the exact loop is cheaper, so take it outright.
        if n <= 32 or (int(np.diff(cyc).min()) < t_m
                       and not self._same_bank_gaps_clear(banks, cyc)):
            return self._service_at_flat(banks.tolist(), cyc.tolist())

        free_arr = np.asarray(self._bank_free_at, dtype=np.int64)
        delays = np.maximum.accumulate(free_arr[banks] - cyc)
        delays = np.maximum(delays, 0)
        total = int(delays[-1])
        issues = cyc + delays
        np.maximum.at(free_arr, banks, issues + t_m)
        self._bank_free_at = free_arr.tolist()
        counts = np.bincount(banks, minlength=self.num_banks)
        touched = np.flatnonzero(counts)
        self._record_batch(touched, counts[touched], n, total)
        return BatchReply(n, total, int(issues[-1]) + 1)

    def _same_bank_gaps_clear(self, banks, cycles) -> bool:
        """Whether each access comes at least ``t_m`` cycles after the
        previous access to its bank (the closed-form condition of
        :meth:`service_at`)."""
        # a stable sort groups accesses by bank in call order; a narrow
        # key lets numpy use its linear-time radix sort
        key = banks.astype(np.uint16) if self.num_banks <= 1 << 16 else banks
        order = np.argsort(key, kind="stable")
        grouped = banks[order]
        gaps = np.diff(cycles[order])
        return not bool(((grouped[1:] == grouped[:-1])
                         & (gaps < self.access_time)).any())

    def service_writes(
        self, addresses, start_cycle: int, *, stride: int | None = None
    ) -> int:
        """Queue one store per cycle into the banks; pipeline never waits.

        Semantically identical to::

            for k, a in enumerate(addresses):
                self.access(a, start_cycle + k)

        with every reply discarded — the buffered-store rule: the access
        stream occupies banks (whose busy windows queue up back-to-back)
        but the issuing pipeline advances one store per cycle regardless.
        Returns the total *bank-side* queueing delay recorded in
        :attr:`stats` (the processor never sees it).

        With an exact stride period the per-bank queues are independent
        arithmetic sequences: bank ``i`` receives stores at
        ``start + i + q*P``, and its busy frontier is
        ``f_q = max(f_{q-1}, c_q) + t_m`` — a running maximum of two
        linear ramps, evaluated directly.
        """
        addrs = np.ascontiguousarray(addresses, dtype=np.int64)
        n = addrs.size
        if n == 0:
            return 0
        if int(addrs.min()) < 0:
            raise ValueError("addresses must be non-negative")
        banks = self.scheme.bank_of_batch(addrs)
        period = (
            self.scheme.exact_stride_period(stride)
            if stride is not None else None
        )
        if period is None:
            total = 0
            free = self._bank_free_at
            t_m = self.access_time
            counts: dict[int, int] = {}
            for k, bank in enumerate(banks.tolist()):
                cycle = start_cycle + k
                ready = free[bank]
                if ready > cycle:
                    total += ready - cycle
                    cycle = ready
                free[bank] = cycle + t_m
                counts[bank] = counts.get(bank, 0) + 1
            self._record_batch(counts.keys(), counts.values(), n, total)
            return total

        t_m = self.access_time
        free = self._bank_free_at
        p_seen = min(period, n)
        first_list = banks[:p_seen].tolist()
        offsets = np.arange(p_seen, dtype=np.int64)
        ready0 = np.array([free[b] for b in first_list], dtype=np.int64)
        depth = (n - 1 - offsets) // period + 1        # stores per bank
        q_max = int(depth.max())
        q = np.arange(q_max, dtype=np.int64)
        c = start_cycle + offsets[:, None] + q[None, :] * period
        if period >= t_m:
            frontier = np.maximum(
                ready0[:, None] + (q[None, :] + 1) * t_m, c + t_m
            )
        else:
            frontier = (
                np.maximum(ready0, start_cycle + offsets)[:, None]
                + (q[None, :] + 1) * t_m
            )
        valid = q[None, :] < depth[:, None]
        stalls = np.maximum(frontier[:, :-1] - c[:, 1:], 0)
        stalls = np.where(valid[:, 1:], stalls, 0)
        total = int(stalls.sum())
        total += int(np.maximum(ready0 - c[:, 0], 0).sum())
        final = frontier[np.arange(p_seen), depth - 1].tolist()
        for bank, value in zip(first_list, final):
            free[bank] = value
        self._record_batch(first_list, depth.tolist(), n, total)
        return total

    def reset(self) -> None:
        """Free all banks and zero statistics."""
        self._bank_free_at = [0] * self.num_banks
        self.stats.reset()
