"""The runner's parallel mode against the serial runner.

``Runner(workers=2)`` shards a job graph over a process pool; it must be
observationally identical to the serial runner — same results, same
statuses, byte-identical artifacts — and share its cache keys, so a
store one mode warmed answers the other with hits only.
"""

from __future__ import annotations

from repro.orchestrate.job import Job
from repro.orchestrate.runner import Runner
from repro.orchestrate.store import ResultStore

MOD = "tests.orchestrate._jobfns"


def diamond():
    return [
        Job(name="a", fn=f"{MOD}:leaf", params={"value": 1},
            render=f"{MOD}:render_int", artifact="a.txt"),
        Job(name="b", fn=f"{MOD}:leaf", params={"value": 10},
            render=f"{MOD}:render_int", artifact="b.txt"),
        Job(name="mid", fn=f"{MOD}:add", deps=("a", "b"),
            render=f"{MOD}:render_int", artifact="mid.txt"),
        Job(name="top", fn=f"{MOD}:add", params={"bonus": 100},
            deps=("mid", "b"),
            render=f"{MOD}:render_int", artifact="top.txt"),
    ]


def _artifact_bytes(results_dir):
    return {path.name: path.read_bytes()
            for path in sorted(results_dir.glob("*"))}


class TestRunnerShardMode:
    def test_matches_serial_byte_for_byte(self, tmp_path):
        serial = Runner(diamond(), store=ResultStore(tmp_path / "c1"),
                        results_dir=tmp_path / "r1")
        pooled = Runner(diamond(), store=ResultStore(tmp_path / "c2"),
                        results_dir=tmp_path / "r2", workers=2)
        serial_summary = serial.run(["top"])
        pool_summary = pooled.run(["top"])
        assert serial_summary.ok and pool_summary.ok
        assert pool_summary.results == serial_summary.results
        assert {o.name: o.status for o in pool_summary.outcomes} == \
               {o.name: o.status for o in serial_summary.outcomes}
        artifacts = _artifact_bytes(tmp_path / "r1")
        assert len(artifacts) == 4
        assert artifacts == _artifact_bytes(tmp_path / "r2")
        # the summary's JSON form does not depend on the mode
        assert pool_summary.to_dict().keys() == \
            serial_summary.to_dict().keys()

    def test_warm_cache_shared_with_serial(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        cold = Runner(diamond(), store=store).run(["top"])
        warm = Runner(diamond(), store=store, workers=2).run(["top"])
        assert warm.ok
        assert {o.status for o in warm.outcomes} == {"hit"}
        assert warm.results == cold.results
