"""End-to-end daemon tests: a real socket, the blocking client.

One server per test class (module-scoped fixtures keep the suite
fast); each class gets its own cache directory and tiny job registry so
tests cannot warm each other's keys.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.orchestrate.job import Job
from repro.orchestrate.store import ResultStore
from repro.serve import ServeClient, ServeError, serve_in_thread
from repro.serve.queries import TRACE_REF_BUDGET


def tiny_registry(tally_path, slow_path) -> dict[str, Job]:
    return {
        "leaf": Job(name="leaf", fn="tests.orchestrate._jobfns:leaf",
                    params={"value": 5}),
        "counted": Job(name="counted",
                       fn="tests.orchestrate._jobfns:tally",
                       params={"path": str(tally_path), "value": 7}),
        "slow": Job(name="slow",
                    fn="tests.orchestrate._jobfns:slow_tally",
                    params={"path": str(slow_path), "value": 9,
                            "delay_s": 0.4}),
        "sum": Job(name="sum", fn="tests.orchestrate._jobfns:add",
                   params={"bonus": 100}, deps=("leaf",)),
        "boom": Job(name="boom", fn="tests.orchestrate._jobfns:boom"),
    }


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    registry = tiny_registry(tmp / "tally.txt", tmp / "slow.txt")
    handle = serve_in_thread(registry=registry,
                             store=ResultStore(tmp / "cache"), workers=2)
    handle.tally_path = tmp / "tally.txt"
    handle.slow_path = tmp / "slow.txt"
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True
        assert payload["draining"] is False

    def test_stats_shape(self, client):
        stats = client.stats()
        for field in ("uptime_s", "requests", "hits", "computed",
                      "coalesced", "errors", "worker_deaths", "inflight",
                      "cache_dir"):
            assert field in stats

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._checked("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._checked("GET", "/query")
        assert excinfo.value.status == 405

    def test_invalid_json_is_400(self, client):
        connection = client._connection()
        try:
            connection.request("POST", "/query", body=b"{not json",
                               headers={"Content-Length": "9"})
            assert connection.getresponse().status == 400
        finally:
            connection.close()


class TestQuery:
    def test_cold_then_warm(self, client):
        cold = client.query({"job": "leaf"})
        assert cold["results"][0]["status"] == "computed"
        assert cold["results"][0]["result"] == 5
        warm = client.query({"job": "leaf"})
        assert warm["results"][0]["status"] == "hit"
        assert warm["results"][0]["result"] == 5
        assert warm["results"][0]["key"] == cold["results"][0]["key"]

    def test_dependencies_resolve_through_the_cache(self, client):
        response = client.query({"job": "sum"})
        assert response["results"][0]["result"] == 105  # leaf(5) + 100

    def test_sweep_returns_request_order(self, client):
        response = client.query({"sweep": ["sum", "leaf"]})
        names = [r["name"] for r in response["results"]]
        assert names == ["sum", "leaf"]

    def test_param_override_is_a_distinct_key(self, client):
        base = client.query({"job": "leaf"})["results"][0]
        derived = client.query({"job": "leaf",
                                "params": {"value": 6}})["results"][0]
        assert derived["result"] == 6
        assert derived["key"] != base["key"]

    def test_job_failure_is_500_not_a_crash(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query({"job": "boom"})
        assert excinfo.value.status == 500
        assert "deliberate" in str(excinfo.value)
        assert client.healthz()["ok"]  # server survived

    def test_malformed_request_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query({"job": "leaf", "params": {"value": "a",
                                                    "bogus_kw": 1}})
        assert excinfo.value.status == 400


class TestCoalescing:
    def test_duplicate_inflight_requests_execute_once(self, server, client):
        before = client.stats()
        body = {"job": "slow"}

        def fire(_):
            return ServeClient(port=server.port).query(body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(fire, range(8)))
        executions = len(
            server.slow_path.read_text().splitlines())
        assert executions == 1  # the ground truth: one appended line
        assert all(r["results"][0]["result"] == 9 for r in responses)
        after = client.stats()
        assert after["computed"] - before["computed"] == 1
        assert after["coalesced"] - before["coalesced"] >= 1


class TestWorkerDeaths:
    """A job that SIGKILLs its pool worker must not take the daemon down."""

    @pytest.fixture(scope="class")
    def deaths_server(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve-deaths")
        mod = "tests.orchestrate._jobfns"
        registry = {
            "killer": Job(name="killer", fn=f"{mod}:kill_self_unless",
                          params={"marker": str(tmp / "killed"),
                                  "value": 3}),
            "poison": Job(name="poison", fn=f"{mod}:kill_self_always",
                          params={"delay_s": 0.3}),
            "leaf": Job(name="leaf", fn=f"{mod}:leaf",
                        params={"value": 5}),
            "other": Job(name="other", fn=f"{mod}:leaf",
                         params={"value": 8}),
            "killer2": Job(name="killer2", fn=f"{mod}:kill_self_unless",
                           params={"marker": str(tmp / "killed2"),
                                   "value": 4}),
            **{f"slow{i}": Job(name=f"slow{i}", fn=f"{mod}:slow_tally",
                               params={"path": str(tmp / f"slow{i}.txt"),
                                       "value": i, "delay_s": 0.5})
               for i in range(3)},
        }
        handle = serve_in_thread(registry=registry,
                                 store=ResultStore(tmp / "cache"),
                                 workers=2)
        yield handle
        handle.stop()

    def test_unrelated_query_after_a_worker_death(self, deaths_server):
        client = ServeClient(port=deaths_server.port)
        killed = client.query({"job": "killer"})  # retried on a new pool
        assert killed["results"][0]["result"] == 3
        other = client.query({"job": "other"})
        assert other["results"][0]["status"] == "computed"
        assert other["results"][0]["result"] == 8
        stats = client.stats()
        assert stats["worker_deaths"] >= 1
        assert stats["errors"] == 0

    def test_flights_broken_together_replace_the_pool_once(
            self, deaths_server):
        client = ServeClient(port=deaths_server.port)
        before = client.stats()["worker_deaths"]
        # with two workers, the killer always dies beside or ahead of a
        # slow job, so at least two flights see the same break
        response = client.query(
            {"sweep": ["killer2", "slow0", "slow1", "slow2"]})
        assert [r["result"] for r in response["results"]] == [4, 0, 1, 2]
        assert client.stats()["worker_deaths"] == before + 1

    def test_poison_answers_503_to_every_coalesced_client(
            self, deaths_server):
        client = ServeClient(port=deaths_server.port)
        before = client.stats()

        def fire(_):
            try:
                ServeClient(port=deaths_server.port).query(
                    {"job": "poison"})
            except ServeError as error:
                return error.status, str(error)
            return 200, ""

        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(fire, range(4)))
        assert [status for status, _ in answers] == [503] * 4
        assert all("WorkerDied" in message for _, message in answers)
        after = client.stats()
        assert after["coalesced"] > before["coalesced"]
        assert after["worker_deaths"] >= before["worker_deaths"] + 2
        # the daemon keeps answering, cold work included
        assert client.healthz()["ok"]
        assert client.query({"job": "leaf"})["results"][0]["result"] == 5
        # a tracked job of the same poison ends failed
        job_id = client.submit({"job": "poison"})
        events = list(client.events(job_id))
        assert events[-1]["event"] == "failed"
        assert "WorkerDied" in events[-1]["error"]
        assert client.job(job_id)["status"] == "failed"


class TestTrackedJobs:
    def test_submit_then_stream_events(self, client):
        job_id = client.submit({"job": "counted"})
        events = [e["event"] for e in client.events(job_id)]
        assert events[0] == "planned"
        assert events[-1] == "done"
        snapshot = client.job(job_id)
        assert snapshot["status"] == "done"
        assert snapshot["results"][0]["result"] == 7

    def test_submit_failure_is_reported_in_events(self, client):
        job_id = client.submit({"job": "boom"})
        events = list(client.events(job_id))
        assert events[-1]["event"] == "failed"
        assert client.job(job_id)["status"] == "failed"

    def test_unknown_job_id_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404


class TestVcmAndTrace:
    def test_vcm_query_roundtrip(self, client):
        response = client.query({"vcm": {"t_m": 16, "banks": 32,
                                         "cache_lines": 8191}})
        result = response["results"][0]["result"]
        assert result["cycles_per_result"] > 1.0
        assert result["mapping"] == "prime"

    def test_trace_query_roundtrip(self, client):
        response = client.query({"trace": {"stride": 1, "length": 64,
                                           "sweeps": 2, "c": 7}})
        result = response["results"][0]["result"]
        assert result["accesses"] == 128
        assert 0.0 <= result["hit_ratio"] <= 1.0


class TestTraceBounds:
    """Out-of-range trace bodies are answered 400 at normalisation:
    nothing is scheduled and the pool keeps serving."""

    BODIES = (
        {"trace": {"length": "x"}},
        {"trace": {"c": 3.5}},
        {"trace": {"c": 29, "organisation": "direct"}},
        {"trace": {"c": 40}},
        {"trace": {"length": TRACE_REF_BUDGET, "sweeps": 2}},
        {"trace": {"stride": -1, "length": 8}},
    )

    def test_rejected_before_scheduling(self, client):
        before = client.stats()
        for body in self.BODIES:
            with pytest.raises(ServeError) as excinfo:
                client.query(body)
            assert excinfo.value.status == 400, body
        after = client.stats()
        assert after["computed"] == before["computed"]
        assert after["worker_deaths"] == 0
        response = client.query({"trace": {"stride": 3, "length": 32,
                                           "c": 5}})
        assert response["results"][0]["status"] == "computed"
        assert response["results"][0]["result"]["accesses"] == 32


class TestVcmBounds:
    """Out-of-range ``vcm`` and ``vcm_batch`` bodies are answered 400 at
    normalisation: nothing is scheduled and the pool keeps serving."""

    BODIES = (
        {"vcm": {"t_m": -4}},
        {"vcm": {"banks": "x"}},
        {"vcm": {"t_m": 3.5}},
        {"vcm": {"cache_lines": 0}},
        {"vcm": {"mapping": "assoc"}},
        {"vcm_batch": [{"banks": 3}]},
        {"vcm_batch": [{"p_ds": 7.0}]},
        {"vcm_batch": [{"reuse_factor": -1}]},
    )

    def test_rejected_before_scheduling(self, client):
        before = client.stats()
        for body in self.BODIES:
            with pytest.raises(ServeError) as excinfo:
                client.query(body)
            assert excinfo.value.status == 400, body
        after = client.stats()
        assert after["computed"] == before["computed"]
        assert after["worker_deaths"] == 0
        response = client.query({"vcm": {"t_m": 24, "banks": 32}})
        assert response["results"][0]["result"]["banks"] == 32


class TestJobOverrides:
    def test_pool_width_is_not_a_job_param(self, tmp_path):
        """The service's pool is the only one a query can size: a
        simulated figure takes no ``workers`` override, so the body is
        a 400 before anything is scheduled."""
        with serve_in_thread(store=ResultStore(tmp_path / "cache"),
                             workers=1) as handle:
            client = ServeClient(port=handle.port)
            before = client.stats()
            with pytest.raises(ServeError) as excinfo:
                client.query({"job": "smoke-fig8-simulated",
                              "params": {"seeds": 2, "workers": 2}})
            assert excinfo.value.status == 400
            assert "workers" in str(excinfo.value)
            assert client.stats()["computed"] == before["computed"]

    def test_simulated_override_is_assembled_from_its_own_points(
            self, tmp_path):
        """An override of a canonical simulated figure derives its own
        point jobs: three samples, then the figure built from them."""
        from repro.experiments.simulated_figures import figure7_simulated
        from repro.serve.app import jsonable

        params = {"t_m_values": [8], "seeds": 1, "blocks": 1}
        body = {"job": "fig7-simulated", "params": params}
        with serve_in_thread(store=ResultStore(tmp_path / "cache"),
                             workers=2) as handle:
            client = ServeClient(port=handle.port)
            (first,) = client.query(body)["results"]
            assert first["status"] == "computed"
            assert client.stats()["computed"] == 3 + 1
            assert first["result"] == jsonable(figure7_simulated(**params))
            (again,) = client.query(body)["results"]
            assert again["status"] == "hit"
            assert again["key"] == first["key"]

    def test_simulated_override_with_bad_params_is_a_400(self, tmp_path):
        """Every integer param of a simulated figure is checked before
        the points are listed: a string or list would otherwise be
        repeated by the arithmetic on it (``block * reuse * blocks``,
        ``base_seed * 1_000_003``)."""
        bad = ({"seeds": "two"}, {"seeds": 10 ** 9}, {"seeds": 0},
               {"seeds": True}, {"blocks": "aaaa"}, {"blocks": [1, 2]},
               {"reuse": "ab"}, {"base_seed": "x"}, {"base_seed": -1},
               {"t_m": 2.5}, {"block_values": ["a"]}, {"block_values": 5})
        with serve_in_thread(store=ResultStore(tmp_path / "cache"),
                             workers=1) as handle:
            client = ServeClient(port=handle.port)
            for params in bad:
                # one small block size, so a missing check cannot build
                # a large repeated string before the test fails
                with pytest.raises(ServeError) as excinfo:
                    client.query({"job": "fig8-simulated",
                                  "params": {"block_values": [4],
                                             **params}})
                assert excinfo.value.status == 400, params
            assert client.stats()["computed"] == 0


class TestShutdown:
    def test_graceful_drain(self, tmp_path):
        registry = {"leaf": Job(name="leaf",
                                fn="tests.orchestrate._jobfns:leaf")}
        handle = serve_in_thread(registry=registry,
                                 store=ResultStore(tmp_path / "cache"))
        client = ServeClient(port=handle.port)
        assert client.query({"job": "leaf"})["ok"]
        assert client.shutdown()["draining"] is True
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()

    def test_warm_store_is_shared_across_restarts(self, tmp_path):
        registry = {"leaf": Job(name="leaf",
                                fn="tests.orchestrate._jobfns:leaf")}
        store_dir = tmp_path / "cache"
        with serve_in_thread(registry=registry,
                             store=ResultStore(store_dir)) as handle:
            first = ServeClient(port=handle.port).query({"job": "leaf"})
        assert first["results"][0]["status"] == "computed"
        with serve_in_thread(registry=dict(registry),
                             store=ResultStore(store_dir)) as handle:
            second = ServeClient(port=handle.port).query({"job": "leaf"})
        assert second["results"][0]["status"] == "hit"


class TestConcurrentMix(object):
    def test_mixed_load_keeps_counters_consistent(self, server, client):
        bodies = [{"job": "leaf"}, {"job": "sum"},
                  {"vcm": {"t_m": 24}}, {"trace": {"length": 64, "c": 7}}]
        errors_before = client.stats()["errors"]  # boom tests count too
        errors: list[Exception] = []

        def worker(index):
            local = ServeClient(port=server.port)
            try:
                for _ in range(5):
                    local.query(bodies[index % len(bodies)])
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = client.stats()
        assert stats["errors"] == errors_before
        assert stats["inflight"] == 0
