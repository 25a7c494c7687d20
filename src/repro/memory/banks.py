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

:meth:`InterleavedMemory.access` is the per-access reference.  The
machines' compiled timing kernels (:mod:`repro.kernels`) run the same
busy-window rule over a scheme's :meth:`InterleaveScheme.bank_of_batch`
array and write the bank free times and counters back into the memory.
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
        return (addresses + addresses // self.num_banks) % self.num_banks


class MemoryStats:
    """Counters for one memory instance.

    Per-bank counts live in two dense per-bank accumulators — a plain
    list the scalar ``access`` path bumps cheaply, and a numpy array the
    compiled timing kernels' per-bank counts are added into;
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

    def reset(self) -> None:
        """Free all banks and zero statistics."""
        self._bank_free_at = [0] * self.num_banks
        self.stats.reset()
