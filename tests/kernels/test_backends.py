"""Backend resolution and provider plumbing of :mod:`repro.kernels`.

The knob surface — ``REPRO_BACKEND``, :func:`set_default_backend`,
:func:`resolve_backend` — is shared by every call site (CLI flags, the
serve queries, ``access_many``), so its normalisation rules are pinned
here once.  The bit-for-bit equivalence of the two backends themselves
is swept by the ``kernel-backend`` oracle; these tests only add the
small direct checks that are awkward to express as oracle cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels


@pytest.fixture(autouse=True)
def _restore_default():
    """Leave the process default backend untouched by each test."""
    yield
    kernels.set_default_backend(None)


def test_backends_tuple():
    assert kernels.BACKENDS == ("scalar", "compiled")


def test_default_backend_is_compiled_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    kernels.set_default_backend(None)
    assert kernels.default_backend() == "compiled"


def test_env_sets_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "scalar")
    kernels.set_default_backend(None)
    assert kernels.default_backend() == "scalar"


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    kernels.set_default_backend(None)
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        kernels.default_backend()
    # the bad value must not wedge the process: the next read recovers
    assert kernels.default_backend() == "compiled"


@pytest.mark.parametrize("retired", ["numpy", "auto"])
def test_retired_backends_rejected(monkeypatch, retired):
    with pytest.raises(ValueError, match="backend must be one of"):
        kernels.resolve_backend(retired)
    monkeypatch.setenv("REPRO_BACKEND", retired)
    kernels.set_default_backend(None)
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        kernels.default_backend()


def test_set_default_backend_overrides_and_resets(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    kernels.set_default_backend("scalar")
    assert kernels.resolve_backend(None) == "scalar"
    kernels.set_default_backend(None)          # back to the environment
    assert kernels.default_backend() == "compiled"


def test_resolve_backend_passthrough_and_rejection():
    for backend in kernels.BACKENDS:
        assert kernels.resolve_backend(backend) == backend
    with pytest.raises(ValueError, match="backend must be one of"):
        kernels.resolve_backend("turbo")
    with pytest.raises(ValueError, match="backend must be one of"):
        kernels.set_default_backend("turbo")


def test_provider_info_shape():
    info = kernels.provider_info()
    assert set(info) == {"name", "detail"}
    assert info["name"] in ("cext", "reference")
    assert (info["name"] != "reference") == kernels.has_compiled_provider()


def test_backend_info_shape():
    info = kernels.backend_info()
    for key in ("default_backend", "compiled_provider", "compiled_detail"):
        assert key in info
    assert "numba" not in info
    assert info["default_backend"] in kernels.BACKENDS
    assert info["compiled_provider"] == kernels.provider_info()["name"]


def _brute_next_use(lines: np.ndarray) -> np.ndarray:
    n = lines.size
    out = np.full(n, n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if lines[j] == lines[i]:
                out[i] = j
                break
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 17, 100])
def test_belady_next_use_matches_brute_force(n):
    rng = np.random.default_rng(n)
    lines = rng.integers(0, max(1, n // 3), size=n).astype(np.int64)
    np.testing.assert_array_equal(
        kernels.belady_next_use(lines), _brute_next_use(lines))
