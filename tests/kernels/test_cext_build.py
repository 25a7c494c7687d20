"""First-build safety of the generated-C provider.

Pool and serve workers all load the kernels at start-up, so on an
empty kernel cache several processes build at once.  Each must compile
its own copy of the source: a shared source file that another process
truncates mid-build would otherwise leave an empty shared object in the
cache, and every later load would fall back to the Python provider.
"""

from __future__ import annotations

import hashlib
import subprocess

import pytest

from repro.kernels import cext

pytestmark = pytest.mark.skipif(cext._find_compiler() is None,
                                reason="no C compiler on this host")


def test_truncated_shared_source_cannot_poison_the_cache(tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    digest = hashlib.sha256(cext._SOURCE.encode()).hexdigest()[:16]
    shared_source = tmp_path / f"reprokernels-{digest}.c"
    real_run = subprocess.run
    builds = []

    def racing_run(command, *args, **kwargs):
        # another process (re)starts its build and truncates the shared
        # source just before this process's compiler reads it
        shared_source.write_text("")
        builds.append(command)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(cext.subprocess, "run", racing_run)
    first = cext.load()
    assert first is not None, cext.build_error()
    assert first.name == "cext"
    assert len(builds) == 1
    # a later process loads the cached object without rebuilding
    again = cext.load()
    assert again is not None, cext.build_error()
    assert len(builds) == 1
    assert sorted(p.name for p in tmp_path.glob("reprokernels-*.so")) == [
        f"reprokernels-{digest}.so"]


def test_failed_self_test_keeps_the_cache_empty(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(cext, "_self_test", lambda provider: False)
    assert cext.load() is None
    assert "self-test" in cext.build_error()
    assert list(tmp_path.iterdir()) == []
