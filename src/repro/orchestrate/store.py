"""The content-addressed on-disk result cache.

Layout (under ``~/.cache/repro`` by default, ``REPRO_CACHE_DIR`` or
``--cache-dir`` to relocate)::

    <root>/objects/<key[:2]>/<key>.pkl   # pickle of {"meta": ..., "result": ...}
    <root>/logs/…                        # JSONL run logs (see runlog.py)

Entries are written atomically and durably (temp file + ``fsync`` +
``os.replace``), so a sweep killed mid-write — or a machine losing power
right after the rename — never leaves a half entry; the resume pass
simply recomputes the missing key.  Temp files orphaned by a hard-killed
writer are swept when the store is opened (only once they are old enough
that no live writer can still own them).

Reads distinguish *content corruption* (truncated pickle, garbage bytes,
wrong schema) from *transient environment failures* (permissions, EIO, a
concurrent reader exhausting descriptors).  Corruption evicts the entry
so the job recomputes cleanly; transient failures are reported as a
plain miss and the entry is left in place for the next reader — several
processes may share one store concurrently.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

__all__ = ["STALE_TEMP_AGE_S", "CacheEntry", "ResultStore",
           "default_cache_dir"]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class CacheEntry:
    """One cached result plus its provenance metadata."""

    key: str
    result: Any
    meta: dict


#: Exceptions that mean the entry's *content* is corrupt (the documented
#: unpickling failure modes, plus the schema lookups below).  Anything
#: else — PermissionError, EIO, EMFILE — may be transient and must not
#: evict a good entry out from under concurrent readers.
_CORRUPTION_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
)

#: Temp files younger than this are presumed to belong to a live writer
#: and are left alone by the open-time sweep.
STALE_TEMP_AGE_S = 3600.0


class ResultStore:
    """Content-addressed pickle store; safe against corrupt entries and
    concurrent multi-process use."""

    def __init__(self, root: Path | None = None, *,
                 stale_temp_age_s: float = STALE_TEMP_AGE_S) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stale_temp_age_s = stale_temp_age_s
        self.sweep_stale_temps()

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def sweep_stale_temps(self) -> list[Path]:
        """Remove orphaned ``.<key[:8]>-*`` temp files from dead writers.

        A process hard-killed between creating its temp file and the
        ``os.replace`` leaks the temp forever.  Anything older than
        ``stale_temp_age_s`` cannot belong to a live write (writes are
        seconds, not hours), so it is safe to unlink; younger files are
        left for their (possibly live) owners.  Returns what it removed.
        """
        removed: list[Path] = []
        if not self.objects_dir.exists():
            return removed
        cutoff = time.time() - self.stale_temp_age_s
        for path in self.objects_dir.glob("??/.*"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed.append(path)
            except OSError:
                pass  # raced with another sweep or the owner's replace
        return removed

    def path_for(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str) -> CacheEntry | None:
        """Fetch an entry; corruption evicts, transient failures miss."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            return CacheEntry(key=key, result=payload["result"],
                              meta=dict(payload["meta"]))
        except FileNotFoundError:
            return None
        except _CORRUPTION_ERRORS:
            self.discard(key)
            return None
        except Exception:  # noqa: BLE001 - transient (perms, EIO, ...)
            # the entry may be perfectly good; leave it for the next
            # reader and let the caller recompute this once
            return None

    def save(self, key: str, result: Any, meta: dict) -> Path:
        """Atomically and durably persist one entry; returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"key": key, "stored_at": time.time(), **meta}
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, prefix=f".{key[:8]}-", delete=False)
        try:
            with handle:
                pickle.dump({"meta": meta, "result": result}, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                # a crash after os.replace must not surface a zero-length
                # or partial entry: the bytes go to disk before the rename
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass  # a concurrent sweep may have taken it already
            raise
        return path

    def discard(self, key: str) -> None:
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def keys(self) -> Iterator[str]:
        if not self.objects_dir.exists():
            return
        for path in sorted(self.objects_dir.glob("??/*.pkl")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())
