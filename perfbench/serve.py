"""The ``serve`` workload: the query service under one closed-loop client.

``repro serve`` runs in its own process (default flags, a free port, a
private ``--cache-dir``), launched through :mod:`perfbench.daemon`.  One
client sends a seeded mix of all five query kinds and waits for each
answer, as :class:`repro.serve.client.ServeClient` callers do.  Most
requests repeat a body from a fixed pool and are warm hits, including
permuted and duplicated ``vcm_batch`` bodies that normalise to one batch
key; a steady share are fresh ``vcm``, ``vcm_batch`` and small ``trace``
bodies, computed through the daemon's pool.  No recorded use of the
service backs the mix: the hit kinds take equal turns, and so do the
miss kinds.

Set-up is measured :data:`SETUP_REPS` times, each on a fresh daemon and
store: spawn until ``/healthz`` answers, plus one warm-up request per
query kind.  Half the samples come before the timed phase and half
after it, so they span the run's drift in host speed rather than one
window of a few seconds.  Every answer is checked afterwards against
the same query computed in-process.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from perfbench import common

SETUP_REPS = 7
KINDS = ("job", "sweep", "vcm", "vcm_batch", "trace")
MISS_KINDS = ("vcm", "vcm_batch", "trace")
MISS_SHARE = 0.1
#: Throughput is the median over one-second windows of the timed phase,
#: so a host stall or a run of misses in one window does not move it.
WINDOW_NS = 1_000_000_000
FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
           "fig11a", "fig11b")
JOBS = ("fig4", "fig6", "fig9", "fig11a", "ext-missratio", "ext-bandwidth",
        "subblock", "ablation-interleave")
BATCH_POINTS = 64
TRACE_STRIDES = (1, 2, 3, 8, 16, 64, 127, 128, 512)
WARMUP = (
    {"job": "fig5"},
    {"sweep": ["fig7", "fig8", "fig10", "fig11b", "fig5"]},
    {"vcm": {"t_m": 24, "banks": 32}},
    {"vcm_batch": [{"t_m": 8 + i, "blocking_factor": 512}
                   for i in range(BATCH_POINTS)]},
    {"trace": {"stride": 5, "length": 2048, "organisation": "direct"}},
)


def _vcm_point(rng: random.Random, reuse: float | None = None) -> dict:
    return {"t_m": rng.choice((8, 16, 32, 64)),
            "banks": rng.choice((16, 32, 64)),
            "blocking_factor": rng.choice((256, 512, 1024, 2048)),
            "reuse_factor": (reuse if reuse is not None
                             else float(rng.choice((4, 8, 16, 32)))),
            "mapping": rng.choice(("prime", "direct"))}


def _trace_spec(rng: random.Random, base: int) -> dict:
    return {"stride": rng.choice(TRACE_STRIDES), "base": base,
            "length": rng.choice((1024, 2048, 4096)),
            "sweeps": rng.choice((1, 2)),
            "organisation": rng.choice(("prime", "direct"))}


def hit_pool(seed: int) -> dict[str, list[dict]]:
    """The bodies warm hits repeat, per kind."""
    rng = random.Random(f"{seed}/pool")
    batches = [[_vcm_point(rng) for _ in range(BATCH_POINTS - 4)]
               for _ in range(4)]
    variants = []
    for points in batches:
        shuffled = points[:]
        rng.shuffle(shuffled)
        # two permutations with different duplicates: one batch key, and
        # the same size, so every vcm_batch hit costs about the same
        variants.append({"vcm_batch": points + points[:4]})
        variants.append({"vcm_batch": shuffled + shuffled[:4]})
    return {
        "job": [{"job": name} for name in JOBS],
        "sweep": [{"sweep": rng.sample(FIGURES, 5)} for _ in range(3)],
        "vcm": [{"vcm": _vcm_point(rng)} for _ in range(16)],
        "vcm_batch": variants,
        "trace": [{"trace": _trace_spec(rng, rng.randrange(1 << 20))}
                  for _ in range(12)],
    }


def miss_body(kind: str, index: int, rng: random.Random) -> dict:
    """A body no earlier request used: its parameters carry ``index``."""
    unique = 1.0 + (index + 1) / 4099.0
    if kind == "vcm":
        return {"vcm": _vcm_point(rng, reuse=unique)}
    if kind == "vcm_batch":
        return {"vcm_batch": [_vcm_point(rng, reuse=unique + i)
                              for i in range(BATCH_POINTS)]}
    return {"trace": _trace_spec(rng, (1 << 24) + index * 64)}


def requests(seed: int, pool: dict):
    """The seeded request stream: ``(kind, is_miss, body)`` forever.

    Hits cycle through :data:`KINDS` and misses through
    :data:`MISS_KINDS`; the seed draws which requests miss and the body
    of each.
    """
    rng = random.Random(f"{seed}/requests")
    hits = misses = 0
    while True:
        if rng.random() < MISS_SHARE:
            kind = MISS_KINDS[misses % len(MISS_KINDS)]
            yield kind, True, miss_body(kind, misses, rng)
            misses += 1
        else:
            kind = KINDS[hits % len(KINDS)]
            yield kind, False, rng.choice(pool[kind])
            hits += 1


def canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def digest(results: list) -> str:
    """Digest of ``[[name, result], ...]`` parsed from JSON."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Daemon:
    """One ``repro serve`` process with a private store."""

    def __init__(self, run_dir: Path, index: int,
                 spans_dir: Path | None = None) -> None:
        from repro.serve.client import ServeClient

        home = run_dir / f"daemon{index}"
        home.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "perfbench.daemon"]
        if spans_dir is not None:
            command += ["--spans-dir", str(spans_dir)]
        command += ["--", "--port", "0", "--cache-dir", str(home / "cache")]
        self.client = None
        self._log = open(home / "stderr.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log)
        port = None
        for raw in self.process.stdout:
            found = re.search(rb"listening on http://[^:]+:(\d+)", raw)
            if found:
                port = int(found.group(1))
                break
        if port is None:
            self.stop()
            raise RuntimeError(f"daemon did not start; see {home}")
        self.client = ServeClient(port=port, timeout=60.0)
        self.client.healthz()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus each of its pool workers."""
        pid = self.process.pid
        return common.vm_hwm_mb(pid) + sum(
            common.vm_hwm_mb(child) for child in common.child_pids(pid))

    def stop(self) -> None:
        """Drain and stop the daemon, waiting until it has exited."""
        if self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=60)
            except Exception:  # noqa: BLE001 - never started, or stuck
                self.process.kill()
                self.process.wait(timeout=60)
        self.process.stdout.close()
        self._log.close()


def start_daemon(run_dir: Path, index: int, spans_dir=None):
    """Spawn a daemon and warm it up; returns ``(daemon, setup_s)``."""
    spawned = time.perf_counter_ns()
    daemon = Daemon(run_dir, index, spans_dir)
    try:
        for body in WARMUP:
            daemon.client.query(body)
    except BaseException:
        daemon.stop()
        raise
    return daemon, (time.perf_counter_ns() - spawned) / 1e9


def setup_samples(run_dir: Path, first: int, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh daemons, stopped once ready."""
    samples = []
    for index in range(first, first + count):
        daemon, setup_s = start_daemon(run_dir, index)
        daemon.stop()
        samples.append(setup_s)
    return samples


def expected_digests(bodies) -> dict[str, str]:
    """In-process answer of each body, through the program's own
    normalisation and job functions."""
    from repro.orchestrate import all_jobs
    from repro.serve.app import jsonable
    from repro.serve.protocol import normalise

    registry = all_jobs()
    memo: dict = {}

    def result(jobs, name):
        if name not in memo:
            job = jobs[name]
            inputs = ({dep: result(jobs, dep) for dep in job.deps}
                      if job.deps else None)
            memo[name] = job.execute(inputs)
        return memo[name]

    digests = {}
    for key, body in bodies.items():
        query = normalise(body, registry)
        results = [[name, jsonable(result(query.jobs, name))]
                   for name in query.names]
        digests[key] = digest(json.loads(json.dumps(results)))
    return digests


def run(seed: int, seconds: float, run_dir: Path, *, traced: bool,
        tiny: bool = False) -> dict:
    """Set-up, fill, timed phase and checks; returns the raw result."""
    spans_dir = run_dir / "spans" if traced else None
    if traced:
        spans_dir.mkdir(parents=True, exist_ok=True)
    reps = 1 if traced or tiny else SETUP_REPS
    setups = setup_samples(run_dir, 0, (reps - 1) // 2)
    daemon, setup_s = start_daemon(run_dir, len(setups), spans_dir)
    setups.append(setup_s)
    recorder = None
    query = daemon.client.query
    received = [0]
    if traced:
        import http.client

        from perfbench import spans

        recorder = spans.Recorder("main")
        query = spans._wrap(recorder, "serve.http", query)
        read = http.client.HTTPResponse.read

        def counting_read(response, *args):
            data = read(response, *args)
            received[0] += len(data)
            return data

        http.client.HTTPResponse.read = counting_read
    try:
        pool = hit_pool(seed)
        bodies = {canonical(b): b for kind in KINDS for b in pool[kind]}
        for body in bodies.values():
            daemon.client.query(body)
        hits, misses = defaultdict(list), defaultdict(list)
        seen: dict[str, Counter] = defaultdict(Counter)
        failures: list[str] = []
        attempted = 0
        stats0 = daemon.client.stats()
        received_before = received[0]
        stream = requests(seed, pool)
        per_window: Counter = Counter()
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < seconds * 1e9:
            kind, miss, body = next(stream)
            key = canonical(body)
            bodies.setdefault(key, body)
            attempted += 1
            start = time.perf_counter_ns()
            try:
                payload = query(body)
            except Exception as error:  # noqa: BLE001 - a failed request
                failures.append(f"{kind}: {error}")
                continue
            done_ns = time.perf_counter_ns()
            latency = (done_ns - start) / 1e6
            per_window[(done_ns - t0) // WINDOW_NS] += 1
            results = payload["results"]
            if all(r["status"] == "hit" for r in results):
                hits[kind].append(latency)
            else:
                misses[kind].append(latency)
            seen[key][digest([[r["name"], r["result"]]
                              for r in results])] += 1
        t1 = time.perf_counter_ns()
        response_bytes = received[0] - received_before
        stats1 = daemon.client.stats()
        peak_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
        if recorder is not None:
            recorder.dump(spans_dir)

    setups += setup_samples(run_dir, len(setups), reps - len(setups))
    expected = expected_digests({key: bodies[key] for key in seen})
    for key, answers in seen.items():
        for answer, count in answers.items():
            if answer != expected[key]:
                failures += [f"wrong answer to {key[:80]}"] * count
    all_hits = [v for values in hits.values() for v in values]
    all_misses = [v for values in misses.values() for v in values]
    wall_s = (t1 - t0) / 1e9
    requests_done = len(all_hits) + len(all_misses)
    delta = {name: stats1[name] - stats0[name]
             for name in ("requests", "hits", "computed", "coalesced",
                          "errors")}
    served = delta["hits"] + delta["computed"]
    # every kind weighs the same in the gated latencies, whatever its cost
    p50 = {kind: float(np.percentile(hits[kind], 50)) for kind in KINDS}
    p90 = {kind: float(np.percentile(hits[kind], 90)) for kind in KINDS}
    detail = {f"{kind}_hit_p50_ms": p50[kind] for kind in KINDS}
    detail.update({
        "hit_p90_ms": float(np.percentile(all_hits, 90)),
        "miss_p50_ms": (float(np.percentile(all_misses, 50))
                        if all_misses else None),
        "hits": len(all_hits), "misses": len(all_misses),
    })
    return {
        "ready_ns": None, "setup_samples_s": setups,
        "t0": t0, "t1": t1,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "work_units": requests_done, "wall_s": wall_s,
        "metrics": {
            "work_per_s": statistics.median(
                [per_window[w] * 1e9 / WINDOW_NS
                 for w in range(max(1, (t1 - t0) // WINDOW_NS))]),
            "op_p50_ms": statistics.fmean(p50.values()),
            "op_p90_ms": statistics.fmean(p90.values()),
            "peak_rss_mb": peak_rss,
        },
        "detail": detail,
        "layer": {
            **{f"serve.{name}": value for name, value in delta.items()},
            "serve.hit_ratio": delta["hits"] / served if served else 0.0,
            "serve.response_bytes": response_bytes,
            "serve.hit_p99_ms": float(np.percentile(all_hits, 99)),
            "serve.hit_samples": len(all_hits),
        },
    }


def main(argv=None) -> int:
    args = common.workload_args(argv)
    result = run(args.seed, args.seconds, args.run_dir,
                 traced=bool(args.trace), tiny=args.tiny)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
