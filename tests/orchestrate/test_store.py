"""The on-disk result store: roundtrips, corruption safety, relocation."""

import os
import time

from repro.orchestrate.store import ResultStore, default_cache_dir

KEY = "ab" + "0" * 62


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(KEY, {"answer": 42}, {"job": "j"})
        entry = store.load(KEY)
        assert entry.result == {"answer": 42}
        assert entry.meta["job"] == "j"
        assert entry.meta["key"] == KEY
        assert "stored_at" in entry.meta

    def test_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(KEY, 1, {})
        assert path == tmp_path / "objects" / KEY[:2] / f"{KEY}.pkl"
        assert store.contains(KEY)
        assert list(store.keys()) == [KEY]
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert ResultStore(tmp_path).load("ff" + "0" * 62) is None


class TestCorruption:
    def test_truncated_pickle_is_a_miss_and_evicted(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.save(KEY, [1, 2, 3], {})
        path.write_bytes(path.read_bytes()[:10])
        assert store.load(KEY) is None
        assert not path.exists()  # evicted, next save recomputes cleanly

    def test_garbage_bytes_are_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        assert store.load(KEY) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        import pickle

        store = ResultStore(tmp_path)
        path = store.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"unexpected": True}))
        assert store.load(KEY) is None

    def test_discard_missing_is_silent(self, tmp_path):
        ResultStore(tmp_path).discard(KEY)


class TestTransientErrors:
    """Only content corruption may evict; transient failures are misses."""

    def test_permission_error_does_not_evict(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        path = store.save(KEY, {"answer": 42}, {"job": "j"})

        import builtins

        real_open = builtins.open

        def denied(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", denied)
        assert store.load(KEY) is None  # a miss...
        monkeypatch.undo()
        assert path.exists()  # ...but the good entry survives
        assert store.load(KEY).result == {"answer": 42}

    def test_transient_oserror_does_not_evict(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        path = store.save(KEY, [1, 2], {})

        import builtins

        real_open = builtins.open

        def flaky(file, *args, **kwargs):
            if str(file) == str(path):
                raise OSError(5, "I/O error", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", flaky)
        assert store.load(KEY) is None
        monkeypatch.undo()
        assert store.load(KEY).result == [1, 2]


class TestDurability:
    def test_save_fsyncs_before_replace(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        real_replace = os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append("fsync"),
                                     real_fsync(fd))[1])
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1])
        ResultStore(tmp_path).save(KEY, 1, {})
        assert calls == ["fsync", "replace"]


class TestStaleTempSweep:
    def _temp(self, store, age_s):
        shard = store.objects_dir / KEY[:2]
        shard.mkdir(parents=True, exist_ok=True)
        temp = shard / f".{KEY[:8]}-dead1234"
        temp.write_bytes(b"partial write from a hard-killed process")
        old = time.time() - age_s
        os.utime(temp, (old, old))
        return temp

    def test_open_sweeps_stale_temps(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(KEY, 1, {})
        stale = self._temp(store, age_s=7200)
        reopened = ResultStore(tmp_path)  # the sweep runs at open
        assert not stale.exists()
        assert reopened.load(KEY).result == 1  # real entries untouched

    def test_fresh_temps_survive_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path)
        fresh = self._temp(store, age_s=0)
        ResultStore(tmp_path)
        assert fresh.exists()  # may belong to a live writer

    def test_sweep_returns_what_it_removed(self, tmp_path):
        store = ResultStore(tmp_path)
        stale = self._temp(store, age_s=7200)
        removed = store.sweep_stale_temps()
        assert removed == [stale]


class TestLocation:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert ResultStore().root == tmp_path / "elsewhere"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().parts[-2:] == (".cache", "repro")

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(KEY, list(range(1000)), {})
        leftovers = [p for p in os.listdir(store.path_for(KEY).parent)
                     if p.startswith(".")]
        assert leftovers == []
