"""Structured JSONL run logs.

Every sweep appends one JSON object per line: a ``run_start`` header,
one ``job_start`` / ``job_cached`` / ``job_done`` / ``job_failed`` /
``job_skipped`` event per job, a ``worker_died`` event per pool break
(the jobs it took down, and the one charged with it, if any), and a
``run_end`` trailer with totals.
The log is the machine-readable account of what ran, what the cache
answered, and what each job cost — CI uploads it as an artifact, and
``repro sweep --status`` summarises the cache side of the same story.

Every record is flushed *and fsynced* before :meth:`RunLog.emit`
returns: the crash-resume tests (and any post-mortem of a killed sweep)
read the log to establish partial progress, so a record must never sit
in a userspace or kernel buffer when the process is SIGKILLed or the
machine dies.  ``emit`` is thread-safe, so one log may be shared by
threads.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO

__all__ = ["RunLog", "read_events"]


class RunLog:
    """Appends timestamped JSONL events to ``path`` (or swallows them)."""

    def __init__(self, path: Path | str | None) -> None:
        self.path = Path(path) if path is not None else None
        self._handle: IO[str] | None = None
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")

    def emit(self, event: str, **fields) -> None:
        if self._handle is None:
            return
        record = {"event": event, "ts": time.time(), **fields}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._handle is None:  # closed by another thread
                return
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: Path | str) -> list[dict]:
    """Parse a JSONL run log back into event dicts."""
    events = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events
