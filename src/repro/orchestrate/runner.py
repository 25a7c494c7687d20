"""The job-graph runner: dependency ordering, a process pool, the cache.

The runner is the only component with side effects.  For every selected
job (plus its transitive dependencies) it

1. computes the content-addressed cache key (dependency keys folded in,
   so keys are computed in topological order),
2. answers from the :class:`~repro.orchestrate.store.ResultStore` when
   the key is present (``--force`` skips the lookup, never the save),
3. otherwise executes the job — inline (``workers <= 1``) or on a
   :class:`WorkerPool` (``workers > 1``) — recording wall time and peak
   RSS, and persists the result,
4. materialises the job's declared artifact under ``results_dir``
   (skipping the write when the bytes are already identical), and
5. appends structured events to the JSONL run log.

Crash-resumability falls out of 1–3: a killed sweep has already
persisted every finished job under its key, so the next run re-executes
only the missing or invalidated ones.  ``KeyboardInterrupt`` is
deliberately not swallowed — finished work is on disk, the rest resumes.

A worker process that dies (a crash, the OOM killer, an outside
``SIGKILL``) breaks the whole pool: every job in flight fails with
``BrokenProcessPool``.  The runner replaces the pool and re-runs those
jobs one at a time; only a job that kills its worker while running
alone is charged the death, and a job charged :data:`WORKER_DEATHS`
deaths fails instead of crash-looping.
"""

from __future__ import annotations

import os
import tempfile
import time
import uuid
from collections import Counter, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.orchestrate.fingerprint import (
    FingerprintCache,
    cache_key,
    canonical_params,
)
from repro.orchestrate.job import Job
from repro.orchestrate.runlog import RunLog
from repro.orchestrate.store import ResultStore

__all__ = ["JobOutcome", "RunSummary", "Runner", "WORKER_DEATHS",
           "WorkerPool"]

#: Pool breaks a job may cause, or a flight may see, before it is given
#: up on: the runner fails a job charged this many worker deaths, the
#: service answers a flight that saw this many breaks with a 503.
WORKER_DEATHS = 2


class WorkerPool:
    """A ``ProcessPoolExecutor`` replaced whenever one of its workers dies.

    A dead worker breaks its executor for good: every future in flight
    fails with ``BrokenProcessPool`` and every later ``submit`` raises
    it.  Whoever sees the break calls :meth:`replace` with the executor
    it submitted to; only the first such call swaps in a fresh one, so
    submissions that fail together replace it once and :attr:`deaths`
    counts each break once.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor = ProcessPoolExecutor(max_workers=workers)
        #: how many broken executors have been replaced
        self.deaths = 0

    def submit(self, fn, /, *args) -> Future:
        return self.executor.submit(fn, *args)

    def replace(self, broken: ProcessPoolExecutor) -> None:
        """Swap in a fresh executor unless ``broken`` was already replaced."""
        if broken is not self.executor:
            return
        self.deaths += 1
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        broken.shutdown(wait=False)

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        self.executor.shutdown(wait=wait, cancel_futures=cancel_futures)


def _execute(job: Job, inputs: dict[str, Any] | None):
    """Run one job, measuring wall time and peak RSS (pool-side too)."""
    start = time.perf_counter()
    result = job.execute(inputs)
    elapsed = time.perf_counter() - start
    try:
        import resource

        max_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # pragma: no cover - non-Unix fallback
        max_rss_kb = 0
    return result, elapsed, max_rss_kb


@dataclass(frozen=True)
class JobOutcome:
    """What happened to one job in one run.

    ``status`` is ``"hit"`` (cache answered), ``"ran"`` (executed and
    stored), ``"failed"`` (raised), or ``"skipped"`` (an upstream job
    failed).
    """

    name: str
    key: str
    status: str
    elapsed_s: float = 0.0
    max_rss_kb: int = 0
    error: str | None = None


@dataclass
class RunSummary:
    """One sweep's account: per-job outcomes plus the results themselves."""

    run_id: str
    outcomes: list[JobOutcome] = field(default_factory=list)
    results: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def ok(self) -> bool:
        return all(o.status in ("hit", "ran") for o in self.outcomes)

    def outcome(self, name: str) -> JobOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no outcome for job {name!r}")

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "elapsed_s": self.elapsed_s,
            "ok": self.ok,
            "counts": {s: self.count(s)
                       for s in ("hit", "ran", "failed", "skipped")},
            "jobs": [
                {"name": o.name, "key": o.key, "status": o.status,
                 "elapsed_s": o.elapsed_s, "max_rss_kb": o.max_rss_kb,
                 **({"error": o.error} if o.error else {})}
                for o in self.outcomes
            ],
        }


class Runner:
    """Schedules a job dict through the cache and (optionally) a pool.

    Args:
        jobs: the graph (any iterable of :class:`Job`; names must be
            unique and every dep must name a job in the set).
        store: the result cache (default: the default cache dir).
        workers: ``<= 1`` runs inline; ``N > 1`` fans independent jobs
            out over a :class:`WorkerPool` of ``N`` processes.
        force: execute every job even on a warm cache (results are
            still saved, refreshing the entries).
        results_dir: where job artifacts are materialised; ``None``
            disables artifact writing.
        log_path: JSONL run-log destination (``None`` disables logging).
    """

    def __init__(self, jobs: Iterable[Job], *,
                 store: ResultStore | None = None,
                 workers: int = 1, force: bool = False,
                 results_dir: Path | str | None = None,
                 log_path: Path | str | None = None) -> None:
        self.jobs: dict[str, Job] = {}
        for job in jobs:
            if job.name in self.jobs:
                raise ValueError(f"duplicate job name {job.name!r}")
            self.jobs[job.name] = job
        for job in self.jobs.values():
            unknown = [d for d in job.deps if d not in self.jobs]
            if unknown:
                raise ValueError(
                    f"job {job.name!r} depends on unknown jobs {unknown}")
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self.force = force
        self.results_dir = (Path(results_dir)
                            if results_dir is not None else None)
        self.log_path = log_path

    # ------------------------------------------------------------------
    # planning

    def plan(self, names: Iterable[str] | None = None
             ) -> tuple[list[Job], dict[str, str]]:
        """Dependency-closed topological order plus cache keys.

        Returns ``(ordered_jobs, keys)`` where every dep precedes its
        consumers and ``keys`` maps job name → content-addressed key.
        """
        wanted = list(names) if names is not None else sorted(self.jobs)
        unknown = [n for n in wanted if n not in self.jobs]
        if unknown:
            raise KeyError(f"unknown jobs {unknown}; "
                           f"choose from {sorted(self.jobs)}")
        order: list[Job] = []
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(name: str, chain: tuple[str, ...]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                cycle = " -> ".join((*chain, name))
                raise ValueError(f"dependency cycle: {cycle}")
            state[name] = 1
            for dep in self.jobs[name].deps:
                visit(dep, (*chain, name))
            state[name] = 2
            order.append(self.jobs[name])

        for name in wanted:
            visit(name, ())

        fingerprints = FingerprintCache()
        keys: dict[str, str] = {}
        for job in order:
            keys[job.name] = cache_key(job, keys, fingerprints)
        return order, keys

    def status(self, names: Iterable[str] | None = None) -> list[dict]:
        """Cache status per planned job (no execution)."""
        order, keys = self.plan(names)
        rows = []
        for job in order:
            entry = self.store.load(keys[job.name])
            row = {"name": job.name, "key": keys[job.name],
                   "cached": entry is not None}
            if entry is not None:
                row["elapsed_s"] = entry.meta.get("elapsed_s")
                row["stored_at"] = entry.meta.get("stored_at")
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # execution

    def run(self, names: Iterable[str] | None = None) -> RunSummary:
        """Execute the selection (plus deps); returns the summary."""
        order, keys = self.plan(names)
        summary = RunSummary(run_id=uuid.uuid4().hex[:12])
        started = time.perf_counter()
        with RunLog(self.log_path) as log:
            log.emit("run_start", run_id=summary.run_id,
                     jobs=[j.name for j in order], workers=self.workers,
                     force=self.force)
            try:
                if self.workers > 1:
                    self._run_pool(order, keys, summary, log)
                else:
                    self._run_serial(order, keys, summary, log)
            finally:
                summary.elapsed_s = time.perf_counter() - started
                log.emit("run_end", run_id=summary.run_id,
                         elapsed_s=summary.elapsed_s,
                         hit=summary.count("hit"), ran=summary.count("ran"),
                         failed=summary.count("failed"),
                         skipped=summary.count("skipped"))
        return summary

    # -- shared helpers -------------------------------------------------

    def _try_cache(self, job: Job, key: str):
        if self.force:
            return None
        return self.store.load(key)

    def _record(self, summary: RunSummary, log: RunLog, job: Job, key: str,
                status: str, *, result: Any = None, elapsed: float = 0.0,
                rss: int = 0, error: str | None = None) -> None:
        outcome = JobOutcome(name=job.name, key=key, status=status,
                             elapsed_s=elapsed, max_rss_kb=rss, error=error)
        summary.outcomes.append(outcome)
        if status in ("hit", "ran"):
            summary.results[job.name] = result
            self._materialise(job, result)
        event = {"hit": "job_cached", "ran": "job_done",
                 "failed": "job_failed", "skipped": "job_skipped"}[status]
        log.emit(event, job=job.name, key=key, elapsed_s=elapsed,
                 max_rss_kb=rss, **({"error": error} if error else {}))

    def _store_result(self, job: Job, key: str, result: Any,
                      elapsed: float, rss: int) -> None:
        self.store.save(key, result, {
            "job": job.name, "fn": job.fn,
            "params": canonical_params(job.params),
            "elapsed_s": elapsed, "max_rss_kb": rss,
        })

    def _materialise(self, job: Job, result: Any) -> None:
        """(Re)write the job's artifact; no-op when bytes already match."""
        if job.artifact is None or self.results_dir is None:
            return
        text = job.render_result(result)
        if not text.endswith("\n"):
            text += "\n"
        path = self.results_dir / job.artifact
        path.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode()
        try:
            if path.read_bytes() == data:
                return
        except OSError:
            pass
        # temp + replace: a concurrent reader (or a second runner sharing
        # the results dir) never observes a partially written artifact
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=path.parent, prefix=f".{path.name}-",
            delete=False)
        try:
            with handle:
                handle.write(data)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def _blocked(self, job: Job, summary: RunSummary) -> bool:
        """Whether an upstream failure/skip blocks this job."""
        bad = {o.name for o in summary.outcomes
               if o.status in ("failed", "skipped")}
        return any(dep in bad for dep in job.deps)

    def _inputs(self, job: Job, summary: RunSummary) -> dict[str, Any] | None:
        if not job.deps:
            return None
        return {dep: summary.results[dep] for dep in job.deps}

    # -- serial path ----------------------------------------------------

    def _run_serial(self, order: list[Job], keys: dict[str, str],
                    summary: RunSummary, log: RunLog) -> None:
        for job in order:
            key = keys[job.name]
            if self._blocked(job, summary):
                self._record(summary, log, job, key, "skipped")
                continue
            entry = self._try_cache(job, key)
            if entry is not None:
                self._record(summary, log, job, key, "hit",
                             result=entry.result,
                             elapsed=entry.meta.get("elapsed_s", 0.0))
                continue
            log.emit("job_start", job=job.name, key=key)
            try:
                result, elapsed, rss = _execute(
                    job, self._inputs(job, summary))
            except KeyboardInterrupt:
                raise  # finished jobs are already cached: resumable
            except Exception as exc:  # noqa: BLE001 - fold into outcome
                self._record(summary, log, job, key, "failed",
                             error=f"{type(exc).__name__}: {exc}")
                continue
            self._store_result(job, key, result, elapsed, rss)
            self._record(summary, log, job, key, "ran", result=result,
                         elapsed=elapsed, rss=rss)

    # -- pool path ------------------------------------------------------

    def _run_pool(self, order: list[Job], keys: dict[str, str],
                  summary: RunSummary, log: RunLog) -> None:
        """Fan ready jobs out over a :class:`WorkerPool`.

        At most ``workers`` jobs are in flight, so every one of them is
        really running.  When the pool breaks, every job in flight is a
        suspect: the pool is replaced and the suspects re-run one at a
        time before any other ready job is dispatched.  A job that
        breaks the pool while it runs alone is charged the death, and a
        job charged :data:`WORKER_DEATHS` deaths fails, skipping its
        dependents.
        """
        waiting = {job.name: len(job.deps) for job in order}
        dependents: dict[str, list[Job]] = {job.name: [] for job in order}
        for job in order:
            for dep in job.deps:
                dependents[dep].append(job)
        ready = deque(job for job in order if not job.deps)
        suspects: deque[Job] = deque()
        deaths: Counter[str] = Counter()
        running: dict[Future, Job] = {}

        def finish(job: Job) -> None:
            for child in dependents[job.name]:
                waiting[child.name] -= 1
                if not waiting[child.name]:
                    ready.append(child)

        def submit(job: Job, queue: deque) -> bool:
            """Start ``job``; False (and ``job`` requeued) on a broken pool."""
            try:
                future = pool.submit(_execute, job,
                                     self._inputs(job, summary))
            except BrokenProcessPool:  # a worker died between jobs
                queue.appendleft(job)
                return False
            log.emit("job_start", job=job.name, key=keys[job.name])
            running[future] = job
            return True

        def collect(future: Future, job: Job) -> bool:
            """Record a finished job; False if the pool broke under it."""
            key = keys[job.name]
            try:
                result, elapsed, rss = future.result()
            except BrokenProcessPool:
                return False
            except KeyboardInterrupt:
                raise
            except Exception as exc:  # noqa: BLE001
                self._record(summary, log, job, key, "failed",
                             error=f"{type(exc).__name__}: {exc}")
            else:
                self._store_result(job, key, result, elapsed, rss)
                self._record(summary, log, job, key, "ran",
                             result=result, elapsed=elapsed, rss=rss)
            finish(job)
            return True

        pool = WorkerPool(self.workers)
        try:
            while ready or suspects or running:
                intact = True
                if suspects and not running:
                    intact = submit(suspects.popleft(), suspects)
                while (intact and ready and not suspects
                       and len(running) < self.workers):
                    job = ready.popleft()
                    key = keys[job.name]
                    if self._blocked(job, summary):
                        self._record(summary, log, job, key, "skipped")
                        finish(job)
                        continue
                    entry = self._try_cache(job, key)
                    if entry is not None:
                        self._record(summary, log, job, key, "hit",
                                     result=entry.result,
                                     elapsed=entry.meta.get("elapsed_s",
                                                            0.0))
                        finish(job)
                        continue
                    intact = submit(job, ready)
                if intact:
                    if not running:
                        continue
                    done, _ = wait(running, return_when=FIRST_COMPLETED)
                    if not any(isinstance(future.exception(),
                                          BrokenProcessPool)
                               for future in done):
                        for future in [f for f in running if f in done]:
                            collect(future, running.pop(future))
                        continue
                # the pool broke, and it fails every job still in flight
                wait(running)
                lost = [job for future, job in running.items()
                        if not collect(future, job)]
                running.clear()
                pool.replace(pool.executor)
                charged = lost[0].name if len(lost) == 1 else None
                if charged is not None:
                    deaths[charged] += 1
                log.emit("worker_died", jobs=[job.name for job in lost],
                         charged=charged)
                for job in lost:
                    if deaths[job.name] < WORKER_DEATHS:
                        suspects.append(job)
                        continue
                    self._record(
                        summary, log, job, keys[job.name], "failed",
                        error=f"WorkerDied: its worker process died "
                              f"{deaths[job.name]} times while it ran "
                              f"alone")
                    finish(job)
        finally:
            pool.shutdown()
