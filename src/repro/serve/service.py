"""The serving core: plan, answer warm, coalesce, dispatch cold work.

:class:`JobService` is the asynchronous face of the orchestrator.  For
each normalised :class:`~repro.serve.protocol.Query` it

1. plans the dependency closure and computes content-addressed cache
   keys (same recipe as :class:`~repro.orchestrate.runner.Runner`, with
   a service-lifetime fingerprint memo — restart the daemon to pick up
   code edits),
2. answers warm keys straight from the shared
   :class:`~repro.orchestrate.store.ResultStore` (milliseconds),
3. coalesces identical in-flight keys through
   :class:`~repro.serve.singleflight.SingleFlight` so a stampede of
   duplicate requests computes once, and
4. dispatches cold executions to a persistent
   :class:`~repro.orchestrate.runner.WorkerPool` via ``run_in_executor``
   — the event loop never blocks on simulation work, and store I/O runs
   in worker threads.

Dependencies resolve recursively through the same path, so two requests
sharing an upstream job share its flight too.

A worker that dies breaks the pool under every flight in flight on it.
The first flight to see the break replaces the pool and each one
retries; a flight that sees :data:`~repro.orchestrate.runner.\
WORKER_DEATHS` breaks raises :class:`WorkerDied`, which the daemon
answers with a 503 that a client may retry.  Nothing is quarantined: an
innocent flight caught in that many breaks gets the 503 too.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.orchestrate.fingerprint import (
    FingerprintCache,
    cache_key,
    canonical_params,
)
from repro.orchestrate.job import Job
from repro.orchestrate.runner import WORKER_DEATHS, WorkerPool, _execute
from repro.orchestrate.store import ResultStore
from repro.serve.protocol import Query
from repro.serve.singleflight import SingleFlight

__all__ = ["JobService", "Resolution", "WorkerDied"]

#: Event callback type: receives one JSON-able progress dict.
Emit = Callable[[dict], None]


def _no_emit(_event: dict) -> None:
    return None


class WorkerDied(RuntimeError):
    """A cold job's worker process died on every attempt of its flight."""


@dataclass(frozen=True)
class Resolution:
    """Terminal outcome of one job within one request.

    ``status`` is ``"hit"`` (the store answered) or ``"computed"`` (this
    service executed it just now — possibly on behalf of several
    coalesced requests).
    """

    name: str
    key: str
    status: str
    result: Any
    elapsed_s: float


class JobService:
    """Warm-hit/coalesce/compute engine shared by every connection."""

    def __init__(self, registry: Mapping[str, Job] | None = None,
                 store: ResultStore | None = None,
                 workers: int = 1) -> None:
        if registry is None:
            from repro.orchestrate.jobs import all_jobs

            registry = all_jobs()
        self.registry: dict[str, Job] = dict(registry)
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self.pool = WorkerPool(self.workers)
        self.flight = SingleFlight()
        self.fingerprints = FingerprintCache()
        self.started_at = time.time()
        self.requests = 0
        self.hits = 0
        self.computed = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # planning

    def plan(self, query: Query) -> tuple[list[Job], dict[str, str]]:
        """Topological dependency closure plus cache keys for a query."""
        jobs = query.jobs
        order: list[Job] = []
        state: dict[str, int] = {}

        def visit(name: str, chain: tuple[str, ...]) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                cycle = " -> ".join((*chain, name))
                raise ValueError(f"dependency cycle: {cycle}")
            state[name] = 1
            for dep in jobs[name].deps:
                visit(dep, (*chain, name))
            state[name] = 2
            order.append(jobs[name])

        for name in query.names:
            visit(name, ())
        keys: dict[str, str] = {}
        for job in order:
            keys[job.name] = cache_key(job, keys, self.fingerprints)
        return order, keys

    # ------------------------------------------------------------------
    # resolution

    async def resolve(self, query: Query,
                      emit: Emit = _no_emit) -> list[Resolution]:
        """Resolve every name in the query; returns request-order results."""
        self.requests += 1
        _, keys = await asyncio.to_thread(self.plan, query)
        emit({"event": "planned",
              "keys": {name: keys[name] for name in query.names}})
        try:
            return list(await asyncio.gather(
                *(self._resolve(name, query.jobs, keys, emit)
                  for name in query.names)))
        except Exception:
            self.errors += 1
            raise

    async def _resolve(self, name: str, jobs: Mapping[str, Job],
                       keys: Mapping[str, str], emit: Emit) -> Resolution:
        job = jobs[name]
        key = keys[name]

        async def compute() -> Resolution:
            entry = await asyncio.to_thread(self.store.load, key)
            if entry is not None:
                self.hits += 1
                emit({"event": "hit", "job": name, "key": key})
                return Resolution(name=name, key=key, status="hit",
                                  result=entry.result,
                                  elapsed_s=entry.meta.get("elapsed_s", 0.0))
            inputs = None
            if job.deps:
                upstream = await asyncio.gather(
                    *(self._resolve(dep, jobs, keys, emit)
                      for dep in job.deps))
                inputs = {r.name: r.result for r in upstream}
            emit({"event": "job_start", "job": name, "key": key})
            result, elapsed, rss = await self._run_cold(job, inputs)
            await asyncio.to_thread(self.store.save, key, result, {
                "job": job.name, "fn": job.fn,
                "params": canonical_params(job.params),
                "elapsed_s": elapsed, "max_rss_kb": rss,
            })
            self.computed += 1
            emit({"event": "job_done", "job": name, "key": key,
                  "elapsed_s": elapsed, "max_rss_kb": rss})
            return Resolution(name=name, key=key, status="computed",
                              result=result, elapsed_s=elapsed)

        return await self.flight.run(key, compute)

    async def _run_cold(self, job: Job, inputs: dict[str, Any] | None):
        """Run one job on the pool, replacing the pool each time it breaks."""
        loop = asyncio.get_running_loop()
        for _ in range(WORKER_DEATHS):
            executor = self.pool.executor
            try:
                return await loop.run_in_executor(self.pool, _execute, job,
                                                  inputs)
            except BrokenProcessPool:
                self.pool.replace(executor)
        raise WorkerDied(f"job {job.name!r}: the worker process died on "
                         f"each of {WORKER_DEATHS} attempts")

    # ------------------------------------------------------------------
    # introspection / lifecycle

    def stats(self) -> dict:
        """Counter snapshot for ``GET /stats``."""
        return {
            "uptime_s": time.time() - self.started_at,
            "workers": self.workers,
            "requests": self.requests,
            "hits": self.hits,
            "computed": self.computed,
            "errors": self.errors,
            "worker_deaths": self.pool.deaths,
            "coalesced": self.flight.coalesced,
            "flights_led": self.flight.leaders,
            "inflight": self.flight.inflight,
            "cache_dir": str(self.store.root),
        }

    def close(self, *, drain: bool = True) -> None:
        """Shut the cold-job executor down (draining in-flight work)."""
        self.pool.shutdown(wait=drain, cancel_futures=not drain)
