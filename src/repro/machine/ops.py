"""Vector instruction stream representation.

The machine simulators execute small programs made of three operations:

* :class:`VectorLoad` — load ``length`` words starting at ``base`` with a
  constant ``stride`` into a vector register.
* :class:`VectorStore` — the mirror image; per the paper's model, stores
  are fully buffered (write bus + write buffers) and never stall the
  pipeline, but they do occupy banks and the write bus.
* :class:`VectorCompute` — an arithmetic chime over register operands;
  costs one cycle per element, overlapped with nothing (the models fold
  chaining into the one-cycle-per-element ideal).

A :class:`LoadPair` bundles two loads issued simultaneously — the model's
*double-stream* access — so the simulator can interleave their element
streams on the two read buses the way the hardware would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["VectorLoad", "VectorStore", "VectorCompute", "LoadPair", "Operation"]


@dataclass(frozen=True)
class VectorLoad:
    """Load a strided vector.

    Attributes:
        base: word address of the first element.
        stride: distance between consecutive elements, in words.
        length: element count.
        expect_cached: the sweep re-reads data loaded earlier, so every
            miss is a *conflict* the processor must stall out
            (non-pipelined, ``t_m`` cycles).  When ``False`` this is an
            initial loading sweep: misses are compulsory and stream
            through the pipelined memory like the MM-model's accesses.
        counts_results: whether this stream's elements count as results
            for the cycles-per-result measure (the second stream of a
            double-stream access does not).
    """

    base: int
    stride: int
    length: int
    expect_cached: bool = False
    counts_results: bool = True

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("vector length must be positive")
        if self.base < 0:
            raise ValueError("base address must be non-negative")

    def addresses(self) -> list[int]:
        """The element addresses, in issue order."""
        return [self.base + i * self.stride for i in range(self.length)]

    def address_array(self) -> np.ndarray:
        """The element addresses as a read-only int64 array, in issue order.

        Built once per load: a blocked loop re-issues the same load in
        every reuse sweep, so repeat executions share one array.
        """
        return self._address_array

    @cached_property
    def _address_array(self) -> np.ndarray:
        array = self.base + np.arange(self.length, dtype=np.int64) * self.stride
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class VectorStore:
    """Store a strided vector (buffered: occupies banks, never stalls)."""

    base: int
    stride: int
    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("vector length must be positive")
        if self.base < 0:
            raise ValueError("base address must be non-negative")

    def addresses(self) -> list[int]:
        """The element addresses, in issue order."""
        return [self.base + i * self.stride for i in range(self.length)]

    def address_array(self) -> np.ndarray:
        """The element addresses as an int64 array, in issue order."""
        return self.base + np.arange(self.length, dtype=np.int64) * self.stride


@dataclass(frozen=True)
class VectorCompute:
    """An arithmetic chime: one cycle per element, register-to-register."""

    length: int

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("vector length must be positive")


@dataclass(frozen=True)
class LoadPair:
    """Two vector loads issued simultaneously (a double-stream access).

    The streams may have different lengths: the machine interleaves both
    element-by-element for ``min`` of the two lengths per strip, and the
    longer stream's tail elements are replayed as a standalone
    :class:`VectorLoad` after the shared strips finish, so no element is
    ever dropped regardless of which stream is longer.
    """

    first: VectorLoad
    second: VectorLoad

    def __post_init__(self) -> None:
        if not self.second or not self.first:
            raise ValueError("both loads of a pair are required")


Operation = VectorLoad | VectorStore | VectorCompute | LoadPair
