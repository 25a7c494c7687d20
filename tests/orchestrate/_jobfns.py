"""Pure job functions for the orchestrator tests.

Jobs reference their function as an importable ``"module:attr"`` string,
so the test graph's functions live in a real module (this one) rather
than as closures — exactly like production jobs, and picklable into
pool workers.  Every function's *return value* is pure in its
parameters — the cache key contract — while side effects (appended log
lines, marker files, a deliberate ``SIGKILL``) exist solely so tests can
count and order executions and inject worker deaths.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time


def leaf(value: int = 1) -> int:
    return value


def add(inputs: dict, bonus: int = 0) -> int:
    return sum(inputs.values()) + bonus


def boom() -> None:
    raise RuntimeError("deliberate test failure")


def render_int(result: int) -> str:
    return f"value: {result}"


def tally(path: str, value: int = 0) -> int:
    """Append one line to ``path`` per execution; returns ``value``.

    The side effect exists to let tests count *executions* (as opposed
    to cache hits); the returned result is still pure in the params.
    """
    with open(path, "a") as handle:
        handle.write("x\n")
    return value


def slow_tally(path: str, value: int = 0, delay_s: float = 0.3) -> int:
    """Like :func:`tally`, but slow enough for duplicates to pile up.

    The serve tests fire concurrent identical requests while the first
    is still inside this sleep; single-flight must fold them into one
    execution (one appended line).
    """
    import time

    time.sleep(delay_s)
    return tally(path, value)


def executions(path: str) -> int:
    target = pathlib.Path(path)
    if not target.exists():
        return 0
    return len(target.read_text().splitlines())


def interrupt_unless(marker: str, value: int = 7) -> int:
    """Simulate Ctrl-C mid-sweep until ``marker`` exists."""
    if not pathlib.Path(marker).exists():
        raise KeyboardInterrupt
    return value


def logged_leaf(path: str, name: str, value: int = 1,
                delay_s: float = 0.0) -> int:
    """Leaf job that appends ``start <name> <pid>``/``end <name>`` lines."""
    _append(path, f"start {name} {os.getpid()}")
    if delay_s:
        time.sleep(delay_s)
    _append(path, f"end {name}")
    return value


def logged_add(inputs: dict, path: str, name: str, bonus: int = 0) -> int:
    """Dependent job: logs like :func:`logged_leaf`, sums its inputs."""
    _append(path, f"start {name} {os.getpid()}")
    total = sum(inputs.values()) + bonus
    _append(path, f"end {name}")
    return total


def read_log(path: str) -> list[str]:
    target = pathlib.Path(path)
    if not target.exists():
        return []
    return target.read_text().splitlines()


def kill_self_unless(marker: str, value: int = 3,
                     delay_s: float = 0.05) -> int:
    """SIGKILL the executing process on the first attempt.

    The first execution drops ``marker`` and then kills its own process
    — uncatchable, mid-job, exactly like a crashed worker.  Once the
    marker exists (the re-run, or a later serial run), the function
    returns ``value`` normally, so the recomputed result is
    byte-identical to an undisturbed run.
    """
    flag = pathlib.Path(marker)
    if not flag.exists():
        flag.write_text("armed\n")
        time.sleep(delay_s)
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def kill_self_always(delay_s: float = 0.05) -> int:
    """Poison job: every attempt SIGKILLs whatever worker runs it."""
    time.sleep(delay_s)
    os.kill(os.getpid(), signal.SIGKILL)
    return 0  # unreachable


def _append(path: str, line: str) -> None:
    # one small O_APPEND write per line: atomic enough that concurrent
    # workers never interleave characters within a line
    with open(path, "a") as handle:
        handle.write(line + "\n")
