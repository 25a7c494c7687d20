"""Concurrency stress: many processes sharing one ResultStore.

The store is the shared substrate under ``repro serve`` and
multi-process sweeps — and, for a cache directory shared between
*different hosts*, under processes whose clocks disagree — so N
processes hammering overlapping keys with save/load/discard must never
crash, and no reader may ever observe a partial (torn) entry — atomic
temp+fsync+replace writes and the corruption-only eviction policy
together guarantee it.  The cross-host-style tests below exercise the
two policies that keep skewed peers from destroying each other's work:
the age-gated stale-temp sweep and corruption-only eviction.
"""

from __future__ import annotations

import builtins
import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.orchestrate.store import ResultStore
from tests.orchestrate._store_stress import KEYS, hammer, payload_for

WORKERS = 4
OPS_PER_WORKER = 150


class TestMultiProcessStress:
    def test_overlapping_save_load_discard_never_tear(self, tmp_path):
        jobs = [(str(tmp_path), seed, OPS_PER_WORKER)
                for seed in range(WORKERS)]
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            # a torn read or crash raises inside the worker and
            # re-raises here via the future
            results = list(pool.map(hammer, jobs))
        assert len(results) == WORKERS
        total_loads = sum(r["load_hit"] + r["load_miss"] for r in results)
        assert total_loads > 0
        assert sum(r["save"] for r in results) > 0

    def test_store_is_consistent_after_the_storm(self, tmp_path):
        jobs = [(str(tmp_path), 100 + seed, OPS_PER_WORKER)
                for seed in range(WORKERS)]
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(hammer, jobs))
        store = ResultStore(tmp_path)
        for key in store.keys():
            entry = store.load(key)
            assert entry is not None
            assert entry.result == payload_for(entry.key)
        assert set(store.keys()) <= {k for k in KEYS}


class TestSkewedClockContention:
    """Two stores on one cache dir, as if mounted from hosts whose
    clocks disagree — sweeps on two machines sharing one cache directory
    do exactly this.
    """

    def _temp(self, store: ResultStore, key: str, age_s: float):
        """Plant an orphaned writer temp file aged ``age_s`` seconds."""
        bucket = store.objects_dir / key[:2]
        bucket.mkdir(parents=True, exist_ok=True)
        path = bucket / f".{key[:8]}-orphan{age_s:+.0f}"
        path.write_bytes(b"partial write from a dead peer")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_stale_temp_sweep_respects_clock_skew(self, tmp_path):
        writer = ResultStore(tmp_path)
        key = KEYS[0]
        writer.save(key, payload_for(key), {"job": "x"})
        ancient = self._temp(writer, key, age_s=7200.0)  # dead peer
        fresh = self._temp(writer, key, age_s=10.0)      # live peer
        # a peer whose clock runs *ahead* of ours writes future mtimes
        future = self._temp(writer, key, age_s=-900.0)

        removed = ResultStore(tmp_path).sweep_stale_temps()

        assert not ancient.exists()
        # younger-than-cutoff temps may belong to live writers — kept,
        # including the future-stamped one from the fast-clock peer
        assert fresh.exists()
        assert future.exists()
        assert all(p.name.startswith(".") for p in removed) or not removed
        # the completed entry itself is never sweep material
        assert writer.contains(key)
        assert writer.load(key).result == payload_for(key)

    def test_sweep_age_is_tunable_per_peer(self, tmp_path):
        writer = ResultStore(tmp_path)
        key = KEYS[1]
        young = self._temp(writer, key, age_s=30.0)
        # a peer configured with an aggressive cutoff reaps younger
        # orphans; one with the default keeps them
        ResultStore(tmp_path, stale_temp_age_s=3600.0)
        assert young.exists()
        ResultStore(tmp_path, stale_temp_age_s=5.0)
        assert not young.exists()

    def test_corruption_evicts_but_transient_errors_do_not(
            self, tmp_path, monkeypatch):
        store_a = ResultStore(tmp_path)
        store_b = ResultStore(tmp_path)
        key = KEYS[2]
        store_a.save(key, payload_for(key), {"job": "x"})

        # garbage bytes (a peer's torn disk, bad sector, ...): reader
        # evicts so the job recomputes cleanly
        store_a.path_for(key).write_bytes(b"\x00garbage, not a pickle")
        assert store_b.load(key) is None
        assert not store_b.contains(key)

        # transient environment failure: a miss, but the entry survives
        # for other (healthy) readers
        store_a.save(key, payload_for(key), {"job": "x"})
        real_open = builtins.open
        target = str(store_a.path_for(key))

        def flaky_open(path, *args, **kwargs):
            if str(path) == target:
                raise PermissionError("transient NFS hiccup")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky_open)
        assert store_b.load(key) is None
        monkeypatch.setattr(builtins, "open", real_open)
        entry = store_b.load(key)
        assert entry is not None and entry.result == payload_for(key)

    def test_concurrent_saves_of_same_key_converge(self, tmp_path):
        """Two skewed peers racing to save one key: last replace wins,
        and the loser's bytes never tear the winner's entry."""
        store_a = ResultStore(tmp_path)
        store_b = ResultStore(tmp_path)
        key = KEYS[3]
        for _ in range(25):
            store_a.save(key, payload_for(key), {"writer": "a"})
            store_b.save(key, payload_for(key), {"writer": "b"})
            entry = store_a.load(key)
            assert entry is not None
            assert entry.result == payload_for(key)
            assert entry.meta["writer"] in ("a", "b")
        # no temp-file litter once both writers are done
        assert not list(store_a.objects_dir.glob("??/.*"))
