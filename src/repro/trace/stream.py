"""Synthetic reference streams with O(chunk) memory — no materialisation.

A billion-reference replay through :class:`~repro.trace.records.Trace`
would need 8 GB just for the address column.  The streams here exploit
what makes synthetic traces synthetic: a strided sweep folded over a
fixed window is **periodic**, so the whole stream is one small template
tiled end to end.  :class:`StridedStream` precomputes a single period of
addresses plus one chunk-sized tiling of it, then serves every
``iter_blocks`` chunk as a zero-copy *view* into that buffer — peak
memory is O(chunk + period) no matter how many references the stream
claims, which is what lets ``tests/trace/test_stream.py`` push 10^9
references through the compiled replay kernels inside a bounded RSS.

The class duck-types the slice of the :class:`~repro.trace.records.Trace`
API the streaming consumers use (``iter_blocks``, ``__len__``,
``description``, per-:class:`~repro.trace.records.Access` iteration,
and ``distinct_lines``, which
:func:`repro.trace.replay._compulsory_estimate` consults).  Its
``distinct_lines`` works from the period alone, so the compulsory-miss
count of an unclassified replay never touches an O(length) allocation
on any backend.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.trace.records import Access

__all__ = ["StridedStream"]

#: ``as_arrays`` compatibility cap: above this the caller almost
#: certainly wanted the streaming API, and materialising would defeat
#: the bounded-memory contract, so it refuses instead.
_MATERIALISE_CAP = 1 << 26


class StridedStream:
    """A stride-``s`` sweep folded over a window, served without storage.

    Reference ``i`` has address ``base + (i * stride) mod window`` — the
    same shape as the strided patterns of :mod:`repro.trace.patterns`,
    but generated lazily from one precomputed period of
    ``window / gcd(stride, window)`` addresses instead of being recorded.

    Args:
        length: total references in the stream (any size; memory does
            not depend on it).
        stride: word stride of the sweep (positive).
        window: fold window in words (positive); together with ``stride``
            it fixes the period and the working set.
        base: word address the window starts at.
        chunk: references per ``iter_blocks`` chunk (the unit of replay
            batching and the memory high-water mark).

    Example:
        >>> stream = StridedStream(10, stride=3, window=8)
        >>> [access.address for access in stream]
        [0, 3, 6, 1, 4, 7, 2, 5, 0, 3]
        >>> stream.distinct_lines()
        8
    """

    def __init__(
        self,
        length: int,
        *,
        stride: int = 1,
        window: int = 1 << 20,
        base: int = 0,
        chunk: int = 1 << 20,
        description: str | None = None,
    ) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if stride <= 0 or window <= 0 or chunk <= 0:
            raise ValueError("stride, window and chunk must be positive")
        if base < 0:
            raise ValueError("base must be non-negative")
        self._length = int(length)
        self.stride = int(stride)
        self.window = int(window)
        self.base = int(base)
        self.chunk = int(chunk)
        self.period = self.window // math.gcd(self.stride, self.window)
        self.description = description if description is not None else (
            f"strided stream: {length} refs, stride {stride}, "
            f"window {window}"
        )
        # one period of the sweep in issue order...
        template = (
            self.base
            + (np.arange(self.period, dtype=np.int64) * self.stride)
            % self.window
        )
        self._template = template
        # ...tiled just far enough that any chunk-sized run starting at
        # any phase of the period is a contiguous slice of the buffer
        reps = -(-(self.chunk + self.period - 1) // self.period)
        self._tiled = template if reps == 1 else np.tile(template, reps)

    # -- Trace-compatible surface ----------------------------------------

    def __len__(self) -> int:
        return self._length

    def iter_blocks(self) -> Iterator[tuple[np.ndarray, None]]:
        """Yield ``(addresses, writes)`` chunks, each a zero-copy view.

        Chunks are ``self.chunk`` references (the final one shorter);
        ``writes`` is always ``None`` — the stream models a load sweep.
        Consumers must treat the address views as read-only.
        """
        produced = 0
        while produced < self._length:
            take = min(self.chunk, self._length - produced)
            start = produced % self.period
            yield self._tiled[start:start + take], None
            produced += take

    def __iter__(self) -> Iterator[Access]:
        for addresses, _ in self.iter_blocks():
            for address in addresses.tolist():
                yield Access(address)

    def as_arrays(self) -> tuple[np.ndarray, None]:
        """Materialise the stream (compatibility; refuses huge lengths).

        The streaming consumers never call this — it exists so short
        streams interoperate with whole-trace tooling.  Lengths beyond
        ``2**26`` raise instead of silently allocating gigabytes.
        """
        if self._length > _MATERIALISE_CAP:
            raise ValueError(
                f"refusing to materialise {self._length} references; "
                "use iter_blocks() to stream"
            )
        if self._length == 0:
            return np.empty(0, dtype=np.int64), None
        parts = [chunk for chunk, _ in self.iter_blocks()]
        return (parts[0].copy() if len(parts) == 1
                else np.concatenate(parts)), None

    # -- closed-form footprint -------------------------------------------

    def distinct_lines(self, line_shift: int = 0) -> int:
        """Distinct cache lines the stream touches, from the period alone.

        Once the stream runs a full period it has visited every address
        it ever will (the sweep repeats exactly), so the footprint is a
        unique-count over at most ``period`` addresses — O(period) work
        for any ``length``.  :func:`repro.trace.replay.replay` uses this
        for the compulsory-miss estimate of classifier-free caches.
        """
        visited = self._template[: min(self._length, self.period)]
        if visited.size == 0:
            return 0
        return int(
            np.unique(visited >> line_shift if line_shift else visited).size
        )

    def __repr__(self) -> str:
        return (
            f"StridedStream({self._length} refs, stride={self.stride}, "
            f"window={self.window}, period={self.period})"
        )
