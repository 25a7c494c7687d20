"""Worker deaths on the runner's process pool.

A worker process that dies breaks the whole ``ProcessPoolExecutor``:
every job in flight fails with ``BrokenProcessPool``.  The runner must
replace the pool and re-run those jobs, so a sweep survives

* **a job that kills its worker once** — every job still ends ``ran``
  and the artifacts are byte-identical to an undisturbed serial run;
* **an outside SIGKILL** of a live worker while slow jobs run, or of an
  idle worker between two jobs;
* **a poison job** that kills every worker it touches — it alone fails
  (its dependents are skipped) after :data:`WORKER_DEATHS` deaths, and
  the run returns instead of crash-looping.
"""

from __future__ import annotations

import os
import signal
import threading
import time

from repro.orchestrate.job import Job
from repro.orchestrate.runlog import read_events
from repro.orchestrate.runner import WORKER_DEATHS, Runner
from repro.orchestrate.store import ResultStore
from tests.orchestrate._jobfns import read_log

MOD = "tests.orchestrate._jobfns"


def _fault_graph(tmp_path) -> list[Job]:
    """A diamond-ish graph whose first leaf SIGKILLs its worker once."""
    jobs = [Job(name="leaf0", fn=f"{MOD}:kill_self_unless",
                params={"marker": str(tmp_path / "killed"), "value": 1},
                render=f"{MOD}:render_int", artifact="leaf0.txt")]
    for i in range(1, 4):
        jobs.append(Job(
            name=f"leaf{i}", fn=f"{MOD}:logged_leaf",
            params={"path": str(tmp_path / "exec.log"), "name": f"leaf{i}",
                    "value": i + 1, "delay_s": 0.3},
            render=f"{MOD}:render_int", artifact=f"leaf{i}.txt"))
    jobs.append(Job(name="mid", fn=f"{MOD}:add", deps=("leaf0", "leaf1"),
                    render=f"{MOD}:render_int", artifact="mid.txt"))
    jobs.append(Job(name="top", fn=f"{MOD}:add", params={"bonus": 100},
                    deps=("mid", "leaf2", "leaf3"),
                    render=f"{MOD}:render_int", artifact="top.txt"))
    return jobs


def _artifact_bytes(results_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(results_dir.glob("*"))}


class TestWorkerKills:
    def test_sigkilled_workers_recover_and_match_serial(self, tmp_path):
        """A job kills its worker once; the sweep still converges."""
        jobs = _fault_graph(tmp_path)
        log = tmp_path / "run.jsonl"
        faulted = Runner(jobs, store=ResultStore(tmp_path / "pool-cache"),
                         results_dir=tmp_path / "pool-results",
                         workers=2, log_path=log)
        summary = faulted.run(["top"])

        assert summary.ok, [(o.name, o.error) for o in summary.outcomes]
        assert {o.status for o in summary.outcomes} == {"ran"}
        deaths = [e for e in read_events(log)
                  if e["event"] == "worker_died"]
        assert deaths and "leaf0" in deaths[0]["jobs"]

        # the marker now exists, so a serial run computes the same values
        serial = Runner(jobs, store=ResultStore(tmp_path / "serial-cache"),
                        results_dir=tmp_path / "serial-results")
        serial_summary = serial.run(["top"])
        assert serial_summary.ok
        assert serial_summary.results == summary.results
        pool_bytes = _artifact_bytes(tmp_path / "pool-results")
        serial_bytes = _artifact_bytes(tmp_path / "serial-results")
        assert len(pool_bytes) == len(jobs)
        assert pool_bytes == serial_bytes

    def test_external_sigkill_storm(self, tmp_path):
        """Kill a live worker from outside while slow jobs are in flight."""
        log_path = str(tmp_path / "exec.log")
        jobs = [Job(name=f"slow{i}", fn=f"{MOD}:logged_leaf",
                    params={"path": log_path, "name": f"slow{i}",
                            "value": i, "delay_s": 0.4})
                for i in range(4)]
        runner = Runner(jobs, store=ResultStore(tmp_path / "cache"),
                        workers=2)
        box: dict = {}
        thread = threading.Thread(
            target=lambda: box.update(summary=runner.run()))
        thread.start()
        killed = None
        deadline = time.monotonic() + 30.0
        while killed is None and time.monotonic() < deadline:
            # the worker running the first job, while it sleeps
            started = [line.split() for line in read_log(log_path)
                       if line.startswith("start slow0 ")]
            if started:
                killed = int(started[0][2])
                os.kill(killed, signal.SIGKILL)
            else:
                time.sleep(0.01)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "pooled run hung after the kill"
        assert killed is not None
        summary = box["summary"]
        assert summary.ok, [(o.name, o.error) for o in summary.outcomes]
        assert {o.status for o in summary.outcomes} == {"ran"}
        assert summary.results == {job.name: job.params["value"]
                                   for job in jobs}
        # the killed job really was re-run, in another process
        assert sum(line.startswith("start slow0 ")
                   for line in read_log(log_path)) == 2

    def test_worker_dies_between_jobs(self, tmp_path, monkeypatch):
        """An idle worker dies before the next job is submitted."""
        log_path = str(tmp_path / "exec.log")
        jobs = [Job(name="a", fn=f"{MOD}:logged_leaf",
                    params={"path": log_path, "name": "a", "value": 2}),
                Job(name="b", fn=f"{MOD}:add", params={"bonus": 1},
                    deps=("a",))]
        store_result = Runner._store_result

        def kill_then_store(self, job, *args):
            if job.name == "a":
                # the worker that ran "a" is idle now; b is not yet ready
                os.kill(int(read_log(log_path)[0].split()[2]),
                        signal.SIGKILL)
                time.sleep(0.5)  # let the pool notice the dead worker
            return store_result(self, job, *args)

        monkeypatch.setattr(Runner, "_store_result", kill_then_store)
        run_log = tmp_path / "run.jsonl"
        summary = Runner(jobs, store=ResultStore(tmp_path / "cache"),
                         workers=2, log_path=run_log).run()
        assert summary.ok, [(o.name, o.error) for o in summary.outcomes]
        assert summary.results == {"a": 2, "b": 3}
        deaths = [e for e in read_events(run_log)
                  if e["event"] == "worker_died"]
        assert len(deaths) == 1
        # the next submission found the pool broken (nothing lost), or
        # b was on it when the break showed (b charged, then re-run)
        assert deaths[0]["charged"] in (None, "b")


class TestAbort:
    def test_job_that_kills_every_host_eventually_fails(self, tmp_path):
        """A poison job must exhaust its death budget, not crash-loop."""
        log = tmp_path / "run.jsonl"
        jobs = [Job(name="poison", fn=f"{MOD}:kill_self_always"),
                Job(name="child", fn=f"{MOD}:add", deps=("poison",)),
                Job(name="beside", fn=f"{MOD}:logged_leaf",
                    params={"path": str(tmp_path / "exec.log"),
                            "name": "beside", "value": 4,
                            "delay_s": 0.3})]
        runner = Runner(jobs, store=ResultStore(tmp_path / "cache"),
                        workers=2, log_path=log)
        start = time.monotonic()
        summary = runner.run(["child", "beside"])
        assert time.monotonic() - start < 30.0
        assert not summary.ok
        assert summary.outcome("poison").status == "failed"
        assert "WorkerDied" in summary.outcome("poison").error
        assert summary.outcome("child").status == "skipped"
        assert summary.outcome("beside").status == "ran"
        assert summary.results["beside"] == 4
        charged = [e["charged"] for e in read_events(log)
                   if e["event"] == "worker_died"]
        assert charged.count("poison") == WORKER_DEATHS
        assert "beside" not in charged
