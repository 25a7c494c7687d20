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

An :class:`OpTable` holds the same instruction stream as one int64 row
per operation, the form the machines' timing kernel consumes and the
:class:`~repro.machine.vcm_driver.VCMDriver` emits directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VectorLoad", "VectorStore", "VectorCompute", "LoadPair", "Operation",
    "OpTable",
]


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
    element-by-element for ``min`` of the two lengths per strip, a longer
    first stream finishes its strips alone, and a longer second stream's
    :meth:`tail` is replayed as a standalone :class:`VectorLoad` after
    the shared strips finish, so no element is ever dropped regardless of
    which stream is longer.
    """

    first: VectorLoad
    second: VectorLoad

    def __post_init__(self) -> None:
        if not self.second or not self.first:
            raise ValueError("both loads of a pair are required")

    def tail(self) -> VectorLoad | None:
        """The second stream beyond the first stream's length (or
        ``None``), which runs as a load of its own after the pair."""
        first, second = self.first, self.second
        if second.length <= first.length:
            return None
        return VectorLoad(
            base=second.base + first.length * second.stride,
            stride=second.stride,
            length=second.length - first.length,
            expect_cached=second.expect_cached,
            counts_results=second.counts_results,
        )


Operation = VectorLoad | VectorStore | VectorCompute | LoadPair

#: :attr:`OpTable.rows` kinds
LOAD, STORE, COMPUTE = 0, 1, 2

#: :attr:`OpTable.rows` column indexes (see :attr:`OpTable.COLUMNS`)
(KIND, LENGTH, PAIRED, BASE1, STRIDE1, BASE2, STRIDE2,
 EXPECT1, COUNTS1, EXPECT2, COUNTS2) = range(11)


class OpTable:
    """An instruction stream as one int64 row per operation.

    The columns (:attr:`COLUMNS`) are the row's ``kind`` (:data:`LOAD`,
    :data:`STORE` or :data:`COMPUTE`); its ``length`` (elements of the
    first stream, or the chime length of a compute); ``paired``, the
    number of leading slots that also issue a second stream (0 for a
    single stream); the ``base``/``stride`` of each stream; and each
    stream's ``expect_cached``/``counts_results`` flags as 0 or 1.
    Columns a row does not use hold 0.

    A pair row never holds more paired slots than first-stream elements:
    when a pair's second stream is the longer one, its :meth:`LoadPair.tail`
    follows the pair as a load row of its own.

    Example:
        >>> table = OpTable.from_ops([VectorLoad(base=8, stride=2, length=3),
        ...                           VectorCompute(length=4)])
        >>> table.refs().tolist()
        [3, 0]
        >>> table.to_ops()[0]
        VectorLoad(base=8, stride=2, length=3, expect_cached=False, counts_results=True)
    """

    COLUMNS = ("kind", "length", "paired", "base1", "stride1", "base2",
               "stride2", "expect1", "counts1", "expect2", "counts2")

    def __init__(self, rows) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.COLUMNS):
            raise ValueError(
                f"op table rows must have shape (n, {len(self.COLUMNS)})")
        kind, length, paired = rows[:, KIND], rows[:, LENGTH], rows[:, PAIRED]
        # the kernels size their arrays from these columns
        if ((kind < LOAD) | (kind > COMPUTE) | (length <= 0) | (paired < 0)
                | (paired > np.where(kind == LOAD, length, 0))).any():
            raise ValueError("op table rows need a known kind, a positive "
                             "length and 0 <= paired <= length (loads only)")
        self.rows = rows

    def refs(self) -> np.ndarray:
        """Memory references of each row: both streams of a load, every
        element of a store, none for a compute."""
        rows = self.rows
        return np.where(rows[:, KIND] == COMPUTE, 0,
                        rows[:, LENGTH] + rows[:, PAIRED])

    @classmethod
    def from_ops(cls, operations) -> "OpTable":
        """Build a table from an iterable of :data:`Operation` objects."""
        rows = []
        for op in operations:
            if isinstance(op, VectorLoad):
                rows.append(_load_row(op, None))
            elif isinstance(op, LoadPair):
                rows.append(_load_row(op.first, op.second))
                tail = op.tail()
                if tail is not None:
                    rows.append(_load_row(tail, None))
            elif isinstance(op, VectorStore):
                rows.append((STORE, op.length, 0, op.base, op.stride,
                             0, 0, 0, 0, 0, 0))
            elif isinstance(op, VectorCompute):
                rows.append((COMPUTE, op.length, 0, 0, 0, 0, 0, 0, 0, 0, 0))
            else:
                raise TypeError(f"unknown operation {op!r}")
        return cls(np.array(rows, dtype=np.int64).reshape(-1,
                                                          len(cls.COLUMNS)))

    def to_ops(self) -> list[Operation]:
        """The rows as :data:`Operation` objects (a pair's tail stays the
        separate load it is in the table)."""
        ops: list[Operation] = []
        for (kind, length, paired, base1, stride1, base2, stride2,
             expect1, counts1, expect2, counts2) in self.rows.tolist():
            if kind == LOAD:
                op = VectorLoad(base1, stride1, length, bool(expect1),
                                bool(counts1))
                if paired:
                    op = LoadPair(op, VectorLoad(base2, stride2, paired,
                                                 bool(expect2),
                                                 bool(counts2)))
            elif kind == STORE:
                op = VectorStore(base1, stride1, length)
            else:
                op = VectorCompute(length)
            ops.append(op)
        return ops


def _load_row(first: VectorLoad, second: VectorLoad | None) -> tuple:
    if second is None:
        return (LOAD, first.length, 0, first.base, first.stride, 0, 0,
                int(first.expect_cached), int(first.counts_results), 0, 0)
    return (LOAD, first.length, min(first.length, second.length),
            first.base, first.stride, second.base, second.stride,
            int(first.expect_cached), int(first.counts_results),
            int(second.expect_cached), int(second.counts_results))
