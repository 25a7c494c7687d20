"""Tests of the benchmark itself, at seconds-scale sizes.

Run from the repository root:

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import replay, serve, spans, sweep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    """The last output line of every workload, plain and traced."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_benchmark(workload, trace)
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(
                done.stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_matches_run_py():
    from perfbench import run

    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layer == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_sum_to_wall(results, workload):
    """Self times and the span-free time are added up separately; their
    sum is the wall time only if no instant is dropped or counted twice."""
    metrics = {name: m["value"]
               for name, m in results[workload, 1]["metrics"].items()}
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total > 0
    assert total + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], abs=1e-6)


def test_self_time_attribution(tmp_path):
    """Nested, concurrent and cross-process spans on one timeline."""
    ms = 1_000_000
    main = {"pid": 1, "role": "main", "main_tid": 10, "spans": [
        ["serve.http", 0, 100 * ms, -1, 10, None],
    ]}
    daemon = {"pid": 2, "role": "daemon", "main_tid": 20, "spans": [
        ["serve.resolve", 10 * ms, 80 * ms, -1, 20, None],
        ["serve.dispatch", 20 * ms, 60 * ms, 0, 20, None],
        # two store loads overlapping on pool threads
        ["orchestrate.store.load", 62 * ms, 72 * ms, -1, 21, None],
        ["orchestrate.store.load", 66 * ms, 76 * ms, -1, 22, None],
    ]}
    worker = {"pid": 3, "role": "worker", "main_tid": 30, "spans": [
        ["orchestrate.execute", 25 * ms, 55 * ms, -1, 30, None],
        ["analytical.evaluate_points", 30 * ms, 50 * ms, 0, 30,
         {"points": 7}],
    ]}
    for payload in (main, daemon, worker):
        (tmp_path / f"spans-{payload['pid']}.json").write_text(
            json.dumps(payload))
    metrics = spans.layer_metrics(tmp_path, 0, 120 * ms)
    assert metrics["traced_wall_s"] == pytest.approx(0.120)
    assert metrics["serve.http.self_s"] == pytest.approx(0.030)
    assert metrics["serve.resolve_s"] == pytest.approx(0.016)
    assert metrics["serve.dispatch_s"] == pytest.approx(0.010)
    assert metrics["orchestrate.store.load_s"] == pytest.approx(0.014)
    assert metrics["orchestrate.self_s"] == pytest.approx(0.024)
    assert metrics["analytical.self_s"] == pytest.approx(0.020)
    assert metrics["analytical.points"] == 7
    assert metrics["unattributed_s"] == pytest.approx(0.020)


def test_wrong_recorded_replay_counts_fail():
    pairs = replay.build_pairs(5, tiny=True)
    truth = replay.run(5, 0.0, tiny=True)
    assert truth["failed"] == 0
    key = pairs[0].key
    hits, misses = truth["counts"][key][1:]
    wrong = replay.run(5, 0.0, tiny=True,
                       expected={key: [hits + 1, misses - 1]})
    assert wrong["failed"] > 0


def test_recorded_replay_counts_hold():
    expected = replay.load_expected(replay.DEFAULT_SEED, tiny=False)
    seen: dict = {}
    for pair in replay.build_pairs(replay.DEFAULT_SEED)[:12]:
        refs, counts = replay.run_pair(pair)
        assert replay.pair_failure(pair, refs, counts, seen,
                                   expected) is None


def test_wrong_committed_artifact_fails(tmp_path, monkeypatch):
    import repro.orchestrate

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reference = tmp_path / "reference"
    shutil.copytree(repro.orchestrate.RESULTS_DIR, reference)
    target = reference / "fig4.txt"
    target.write_text(target.read_text() + "tampered\n")
    monkeypatch.setattr(repro.orchestrate, "RESULTS_DIR", reference)
    result = sweep.run(0.0, tmp_path / "run", tiny=True)
    assert result["failed"] == 1
    assert "fig4.txt" in result["failures"][0]


def test_wrong_served_answer_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("PYTHONPATH", f"{ROOT / 'src'}:{ROOT}")
    monkeypatch.chdir(ROOT)
    right = serve.expected_digests

    def one_wrong(bodies):
        digests = right(bodies)
        digests[min(digests)] = "wrong"
        return digests

    monkeypatch.setattr(serve, "expected_digests", one_wrong)
    result = serve.run(3, 0.5, tmp_path, traced=False, tiny=True)
    assert result["failed"] > 0
    assert result["failures"][0].startswith("wrong answer")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
