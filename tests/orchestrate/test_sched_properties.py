"""Property tests for the pooled runner (random DAGs, pool widths).

Hypothesis drives randomized job graphs — each job's dependencies drawn
from the jobs before it, so every drawn graph is a DAG — across pool
widths, asserting the runner's invariants:

* **dependency order**: a job never starts before every dependency has
  finished (observed through the shared append-only execution log);
* **exactly-once**: no job is executed twice for the same cache key
  (one ``start`` line per job);
* **completion**: every job reaches ``ran`` and its result equals the
  serial semantics of the same graph;
* **warm reruns**: a second run answers every job from the store and
  executes nothing;
* **worker deaths**: a leaf that kills its worker once changes no
  result and no status, wherever it sits in the graph.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in the image
    pytest.skip("hypothesis unavailable", allow_module_level=True)

from repro.orchestrate.job import Job
from repro.orchestrate.runner import Runner
from repro.orchestrate.store import ResultStore
from tests.orchestrate._jobfns import read_log

MOD = "tests.orchestrate._jobfns"


@st.composite
def dags(draw):
    """(job_count, deps) with every job depending only on earlier jobs."""
    count = draw(st.integers(min_value=1, max_value=7))
    deps = []
    for index in range(count):
        pool = list(range(index))
        chosen = draw(st.lists(st.sampled_from(pool), unique=True,
                               max_size=min(3, len(pool)))
                      if pool else st.just([]))
        deps.append(tuple(sorted(chosen)))
    return count, deps


def _build_jobs(count: int, deps: list[tuple[int, ...]],
                log_path: str) -> list[Job]:
    jobs = []
    for index in range(count):
        name = f"j{index}"
        if deps[index]:
            jobs.append(Job(
                name=name, fn=f"{MOD}:logged_add",
                params={"path": log_path, "name": name, "bonus": index},
                deps=tuple(f"j{d}" for d in deps[index])))
        else:
            jobs.append(Job(
                name=name, fn=f"{MOD}:logged_leaf",
                params={"path": log_path, "name": name,
                        "value": index + 1}))
    return jobs


def _serial_values(count: int, deps: list[tuple[int, ...]]) -> dict[str, int]:
    values: dict[str, int] = {}
    for index in range(count):
        name = f"j{index}"
        if deps[index]:
            values[name] = sum(values[f"j{d}"]
                               for d in deps[index]) + index
        else:
            values[name] = index + 1
    return values


class TestRandomDags:
    @settings(max_examples=25, deadline=None)
    @given(dag=dags(), workers=st.integers(min_value=2, max_value=3))
    def test_order_exactly_once_and_completion(self, dag, workers):
        count, deps = dag
        with tempfile.TemporaryDirectory(prefix="pool-prop-") as tmp:
            tmp_path = Path(tmp)
            log_path = str(tmp_path / "exec.log")
            jobs = _build_jobs(count, deps, log_path)
            summary = Runner(jobs, store=ResultStore(tmp_path / "cache"),
                             workers=workers).run()

            assert summary.ok, [(o.name, o.error)
                                for o in summary.outcomes]
            assert {o.status for o in summary.outcomes} == {"ran"}

            lines = read_log(log_path)
            starts = {line.split()[1]: i for i, line in enumerate(lines)
                      if line.startswith("start ")}
            ends = {line.split()[1]: i for i, line in enumerate(lines)
                    if line.startswith("end ")}
            # exactly-once: one execution per job
            assert sum(1 for line in lines
                       if line.startswith("start ")) == count
            # dependency order: dep finished before dependent started
            for index in range(count):
                for dep in deps[index]:
                    assert ends[f"j{dep}"] < starts[f"j{index}"], (
                        f"j{index} started before its dep j{dep} ended: "
                        f"{lines}")
            # results match the graph's serial semantics
            assert summary.results == _serial_values(count, deps)

    @settings(max_examples=10, deadline=None)
    @given(dag=dags(), workers=st.integers(min_value=2, max_value=3),
           data=st.data())
    def test_one_worker_death_changes_nothing(self, dag, workers, data):
        count, deps = dag
        killer = data.draw(st.sampled_from(
            [index for index in range(count) if not deps[index]]))
        with tempfile.TemporaryDirectory(prefix="pool-death-") as tmp:
            tmp_path = Path(tmp)
            log_path = str(tmp_path / "exec.log")
            jobs = _build_jobs(count, deps, log_path)
            jobs[killer] = Job(
                name=f"j{killer}", fn=f"{MOD}:kill_self_unless",
                params={"marker": str(tmp_path / "killed"),
                        "value": killer + 1})
            summary = Runner(jobs, store=ResultStore(tmp_path / "cache"),
                             workers=workers).run()

            assert summary.ok, [(o.name, o.error)
                                for o in summary.outcomes]
            assert {o.status for o in summary.outcomes} == {"ran"}
            assert summary.results == _serial_values(count, deps)
            # a job lost with the killer's worker starts again, but never
            # before its dependencies have ended
            lines = read_log(log_path)
            for index in range(count):
                started = [i for i, line in enumerate(lines)
                           if line.startswith(f"start j{index} ")]
                for dep in deps[index]:
                    ended = [i for i, line in enumerate(lines)
                             if line == f"end j{dep}"]
                    assert not started or not ended or \
                        max(ended) < min(started), lines

    @settings(max_examples=10, deadline=None)
    @given(dag=dags(), workers=st.integers(min_value=2, max_value=3))
    def test_warm_rerun_executes_nothing(self, dag, workers):
        count, deps = dag
        with tempfile.TemporaryDirectory(prefix="pool-warm-") as tmp:
            tmp_path = Path(tmp)
            log_path = str(tmp_path / "exec.log")
            jobs = _build_jobs(count, deps, log_path)
            store = ResultStore(tmp_path / "cache")
            first = Runner(jobs, store=store, workers=workers).run()
            assert first.ok
            executed_cold = len(read_log(log_path))
            second = Runner(jobs, store=store, workers=workers).run()
            assert second.ok
            # the warm pass resolved everything from the store: the log
            # did not grow
            assert len(read_log(log_path)) == executed_cold
            assert {o.status for o in second.outcomes} == {"hit"}
            assert second.results == first.results


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
