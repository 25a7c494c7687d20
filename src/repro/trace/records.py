"""Address traces: the lingua franca between workloads and caches.

A :class:`Trace` is an ordered sequence of word-granular memory references
with optional read/write flags, tagged with a human-readable description of
the access pattern that produced it.  Pattern generators
(:mod:`repro.trace`) and real kernels (:mod:`repro.workloads`) both emit
traces; :mod:`repro.trace.replay` feeds them to cache models and the
machine simulators.

Storage is **columnar**: the reference stream lives in chunked ``int64``
numpy address buffers paired with packed write-flag bitmaps (one bit per
reference, absent entirely for all-read chunks), not in per-reference
objects.  :meth:`Trace.append_block` is the primary recording API — one
call per address block — and :meth:`Trace.iter_blocks` hands the sealed
chunks to replay consumers zero-copy.  The per-:class:`Access` surface
(``append``, iteration, the ``accesses`` view) is kept as a compatibility
layer materialised lazily on demand; it is exact but costs one object per
reference, so hot paths should stay on the block API.  See
``docs/trace-engine.md`` for the full layout story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Access", "Trace"]

#: Sealed-chunk target: small appended blocks are coalesced until the
#: staging area reaches this many references, so replay consumers always
#: see batch-friendly chunks no matter how fine-grained generation was.
_CHUNK_TARGET = 1 << 16

#: Merged descriptions stop growing past this length (a trailing marker
#: is added once); extend() must not turn provenance into a novel.
_DESCRIPTION_CAP = 160


@dataclass(frozen=True)
class Access:
    """One memory reference.

    Attributes:
        address: word-granular address.
        write: ``True`` for a store.
    """

    address: int
    write: bool = False

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("addresses must be non-negative")


def _unpack(bits: np.ndarray, count: int) -> np.ndarray:
    """Unpack a write bitmap back into a bool array of ``count`` flags."""
    return np.unpackbits(bits, count=count).view(bool)


class Trace:
    """An ordered reference stream with provenance, stored columnar.

    Attributes:
        description: what produced this trace (shown in reports).
        accesses: lazy list-of-:class:`Access` compatibility view.
    """

    def __init__(self, accesses: Iterable[Access] | None = None,
                 description: str = "") -> None:
        self.description = description
        self._chunks: list[np.ndarray] = []       # sealed int64 buffers
        self._bitmaps: list[np.ndarray | None] = []  # packed write flags
        self._small: list[tuple[np.ndarray, np.ndarray | None]] = []
        self._small_size = 0
        self._pend_addr: list[int] = []
        self._pend_write: list[bool] = []
        self._pend_has_write = False
        self._length = 0
        self._arrays_cache: tuple[np.ndarray, np.ndarray | None] | None = None
        self._view_cache: list[Access] | None = None
        self._distinct: dict[int, int] | None = None   # line shift -> count
        if accesses:
            for access in accesses:
                self.append(access.address, write=access.write)

    # -- primary (columnar) API ------------------------------------------

    def append_block(self, addresses, *, write=False) -> None:
        """Record one address block — the hot-path recording primitive.

        Args:
            addresses: 1-D array-like of non-negative word addresses.  An
                ``int64`` numpy array is adopted zero-copy (the trace
                takes ownership; do not mutate it afterwards).
            write: ``False`` for an all-read block, ``True`` for an
                all-store block, or a bool array flagging the stores.

        Raises:
            ValueError: on negative addresses or a flag-length mismatch.
        """
        block = np.asarray(addresses, dtype=np.int64)
        if block.ndim != 1:
            block = block.reshape(-1)
        if block.size == 0:
            return
        if int(block.min()) < 0:
            raise ValueError("addresses must be non-negative")
        if isinstance(write, (bool, np.bool_)):
            flags = np.ones(block.size, dtype=bool) if write else None
        else:
            flags = np.asarray(write, dtype=bool)
            if flags.ndim != 1:
                flags = flags.reshape(-1)
            if flags.size != block.size:
                raise ValueError("write flags must match addresses in length")
            if not flags.any():
                flags = None
        self._flush_pending()
        self._push_block(block, flags)
        self._length += block.size
        self._invalidate()

    def iter_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield ``(addresses, writes)`` chunks for streaming replay.

        Addresses are the sealed internal ``int64`` buffers, zero-copy;
        ``writes`` is a bool array or ``None`` for an all-read chunk.
        Consumers must treat both as read-only.
        """
        self._seal()
        for chunk, bitmap in zip(self._chunks, self._bitmaps):
            if bitmap is None:
                yield chunk, None
            else:
                yield chunk, _unpack(bitmap, chunk.size)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The whole trace as numpy arrays for the batched replay path.

        Returns ``(addresses, writes)`` — an ``int64`` address array plus
        a bool write-flag array, or ``None`` in place of the flags for an
        all-read trace (the common case, which lets replays skip per-access
        write handling entirely).  Built in a single pass over the chunks
        and cached until the trace is next mutated; treat as read-only.
        """
        if self._arrays_cache is None:
            self._seal()
            if not self._chunks:
                self._arrays_cache = (np.empty(0, dtype=np.int64), None)
            elif len(self._chunks) == 1:
                chunk, bitmap = self._chunks[0], self._bitmaps[0]
                writes = None if bitmap is None else _unpack(bitmap, chunk.size)
                self._arrays_cache = (chunk, writes)
            else:
                addresses = np.concatenate(self._chunks)
                if all(bitmap is None for bitmap in self._bitmaps):
                    writes = None
                else:
                    writes = np.zeros(addresses.size, dtype=bool)
                    offset = 0
                    for chunk, bitmap in zip(self._chunks, self._bitmaps):
                        if bitmap is not None:
                            writes[offset:offset + chunk.size] = _unpack(
                                bitmap, chunk.size)
                        offset += chunk.size
                self._arrays_cache = (addresses, writes)
        return self._arrays_cache

    # -- compatibility (per-Access) surface ------------------------------

    @classmethod
    def from_addresses(
        cls, addresses: Iterable[int], *, write: bool = False, description: str = ""
    ) -> "Trace":
        """Build a read-only (or write-only) trace from raw addresses."""
        trace = cls(description=description)
        if isinstance(addresses, np.ndarray):
            block = addresses
        else:
            block = np.array(list(addresses), dtype=np.int64)
        trace.append_block(block, write=write)
        return trace

    def append(self, address: int, *, write: bool = False) -> None:
        """Record one reference (scalar compatibility path)."""
        address = int(address)
        if address < 0:
            raise ValueError("addresses must be non-negative")
        self._pend_addr.append(address)
        self._pend_write.append(bool(write))
        if write:
            self._pend_has_write = True
        self._length += 1
        self._invalidate()
        if len(self._pend_addr) >= _CHUNK_TARGET:
            self._flush_pending()

    def extend(self, other: "Trace") -> "Trace":
        """Concatenate another trace onto this one (returns self).

        Chunks are shared zero-copy (sealed buffers are never mutated),
        and the descriptions are merged rather than silently keeping only
        the left-hand one: an empty description adopts the other side's,
        and two distinct non-empty descriptions are joined (bounded, and
        without repeating a part already present).
        """
        self._seal()
        other._seal()
        self._chunks.extend(other._chunks)
        self._bitmaps.extend(other._bitmaps)
        self._length += other._length
        self._merge_description(other.description)
        self._invalidate()
        return self

    @property
    def accesses(self) -> list[Access]:
        """The reference list as :class:`Access` objects (lazy, read-only).

        Materialised on demand from the columnar store and cached until
        the next mutation; mutating the returned list does not change the
        trace.
        """
        if self._view_cache is None:
            addresses, writes = self.as_arrays()
            if writes is None:
                self._view_cache = [Access(a) for a in addresses.tolist()]
            else:
                self._view_cache = [
                    Access(a, w)
                    for a, w in zip(addresses.tolist(), writes.tolist())
                ]
        return self._view_cache

    def addresses(self) -> list[int]:
        """Just the address stream."""
        return self.as_arrays()[0].tolist()

    def reads(self) -> "Trace":
        """The read-only sub-trace."""
        addresses, writes = self.as_arrays()
        out = Trace(description=f"{self.description} (reads)")
        out.append_block(addresses if writes is None else addresses[~writes])
        return out

    def writes(self) -> "Trace":
        """The write-only sub-trace."""
        addresses, writes = self.as_arrays()
        out = Trace(description=f"{self.description} (writes)")
        if writes is not None:
            out.append_block(addresses[writes], write=True)
        return out

    def distinct_lines(self, line_shift: int = 0) -> int:
        """Distinct lines of ``2**line_shift`` words the trace touches.

        Memoised per shift until the trace is next mutated, so replaying
        one trace through several caches counts its footprint once.
        """
        if self._distinct is None:
            self._distinct = {}
        count = self._distinct.get(line_shift)
        if count is None:
            addresses, _ = self.as_arrays()
            count = int(np.unique(addresses >> line_shift).size)
            self._distinct[line_shift] = count
        return count

    def unique_addresses(self) -> set[int]:
        """Distinct addresses touched (the trace's working set)."""
        return set(np.unique(self.as_arrays()[0]).tolist())

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Access]:
        for chunk, flags in self.iter_blocks():
            if flags is None:
                for address in chunk.tolist():
                    yield Access(address)
            else:
                for address, write in zip(chunk.tolist(), flags.tolist()):
                    yield Access(address, write)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self.description != other.description or len(self) != len(other):
            return False
        mine, mine_w = self.as_arrays()
        theirs, theirs_w = other.as_arrays()
        if not np.array_equal(mine, theirs):
            return False
        if mine_w is None and theirs_w is None:
            return True
        if mine_w is None:
            return not theirs_w.any()
        if theirs_w is None:
            return not mine_w.any()
        return np.array_equal(mine_w, theirs_w)

    def __repr__(self) -> str:
        return f"Trace({self._length} accesses, {self.description!r})"

    # -- internals --------------------------------------------------------

    def _invalidate(self) -> None:
        self._arrays_cache = None
        self._view_cache = None
        self._distinct = None

    def _flush_pending(self) -> None:
        """Move buffered scalar appends into the small-block staging area."""
        if not self._pend_addr:
            return
        block = np.array(self._pend_addr, dtype=np.int64)
        flags = (np.array(self._pend_write, dtype=bool)
                 if self._pend_has_write else None)
        self._pend_addr = []
        self._pend_write = []
        self._pend_has_write = False
        self._push_block(block, flags)

    def _push_block(self, block: np.ndarray,
                    flags: np.ndarray | None) -> None:
        """Stage one validated block, sealing when enough has accumulated.

        Large blocks with an empty staging area seal directly (zero-copy);
        small blocks coalesce so downstream chunks stay batch-sized.
        """
        if not self._small and block.size >= _CHUNK_TARGET:
            self._chunks.append(block)
            self._bitmaps.append(None if flags is None else np.packbits(flags))
            return
        self._small.append((block, flags))
        self._small_size += block.size
        if self._small_size >= _CHUNK_TARGET:
            self._seal_small()

    def _seal_small(self) -> None:
        if not self._small:
            return
        if len(self._small) == 1:
            chunk, flags = self._small[0]
        else:
            chunk = np.concatenate([block for block, _ in self._small])
            if all(flags is None for _, flags in self._small):
                flags = None
            else:
                flags = np.zeros(chunk.size, dtype=bool)
                offset = 0
                for block, block_flags in self._small:
                    if block_flags is not None:
                        flags[offset:offset + block.size] = block_flags
                    offset += block.size
        self._chunks.append(chunk)
        self._bitmaps.append(None if flags is None else np.packbits(flags))
        self._small = []
        self._small_size = 0

    def _seal(self) -> None:
        """Finalise all staged references into sealed chunks."""
        self._flush_pending()
        self._seal_small()

    def _merge_description(self, other: str) -> None:
        if not other or other == self.description:
            return
        if not self.description:
            self.description = other
        elif other in self.description:
            return
        elif len(self.description) >= _DESCRIPTION_CAP:
            if not self.description.endswith(" + ..."):
                self.description += " + ..."
        else:
            self.description = f"{self.description} + {other}"

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the trace to a text file.

        Format: a ``#``-prefixed description line, then one access per
        line as ``R <address>`` or ``W <address>`` — trivially diffable
        and greppable, which matters more for traces than compactness.
        """
        addresses, writes = self.as_arrays()
        with open(path, "w") as handle:
            handle.write(f"# {self.description}\n")
            if writes is None:
                handle.writelines(
                    f"R {address}\n" for address in addresses.tolist())
            else:
                handle.writelines(
                    f"{'W' if write else 'R'} {address}\n"
                    for address, write in zip(addresses.tolist(),
                                              writes.tolist()))

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a trace written by :meth:`save`.

        Raises:
            ValueError: on a malformed line.
        """
        trace = cls()
        addresses: list[int] = []
        writes: list[bool] = []
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line_number == 1:
                        trace.description = line[1:].strip()
                    continue
                parts = line.split()
                if len(parts) != 2 or parts[0] not in ("R", "W"):
                    raise ValueError(
                        f"{path}:{line_number}: malformed trace line {line!r}"
                    )
                addresses.append(int(parts[1]))
                writes.append(parts[0] == "W")
        trace.append_block(np.array(addresses, dtype=np.int64),
                           write=np.array(writes, dtype=bool))
        return trace
