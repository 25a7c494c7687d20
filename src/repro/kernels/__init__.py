"""Compiled kernels behind the ``backend`` knob.

Every stateful hot loop in the simulator — the per-set residency update
of :meth:`repro.cache.base.Cache.access_many`, the MM/CC trace-timing
loops, the strip-level paired-load engine, and Belady OPT — has two
engines:

* ``"scalar"`` — the per-access object-model state machines (slow,
  simple, the reference every oracle compares against);
* ``"compiled"`` — the kernels in this package (the default), run by the
  first available *provider*: a generated-C extension built with the
  system compiler (:mod:`repro.kernels.cext`), else the pure-Python
  provider (:mod:`repro.kernels.reference`), which takes the fastest
  Python form of each loop so a host without a compiler loses little.

The two backends are bit-for-bit equivalent on every counter and cycle
total; the ``kernel-backend`` oracle of :mod:`repro.verify` sweeps them
against each other, and mutation faults prove the sweep has teeth.
Select per call (``backend=...``), per process
(:func:`set_default_backend`), or per environment (``REPRO_BACKEND`` =
``scalar``/``compiled``).  ``REPRO_KERNEL_PROVIDER`` (``cext``/
``reference``) pins the provider for tests and benchmarks.

Kernels receive every reference already mapped: the replay kernels take
the cache's ``sets`` array, the timing kernels the interleave scheme's
``banks`` array.  Call sites go through the module-level functions below
(``from repro import kernels; kernels.replay_oneway(...)``) so the
verify subsystem can monkey-patch a fault into the compiled path
regardless of provider.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "default_backend",
    "set_default_backend",
    "has_compiled_provider",
    "provider_info",
    "backend_info",
    "replay_oneway",
    "replay_assoc",
    "mm_timing",
    "cc_timing",
    "pair_flat",
    "belady_next_use",
    "belady_opt",
]

#: legal values of the ``backend`` knob
BACKENDS = ("scalar", "compiled")

_default: str | None = None       # resolved lazily from REPRO_BACKEND
_provider = None                  # resolved lazily, cached for the process


# -- backend selection -------------------------------------------------------


def default_backend() -> str:
    """The process default backend (``REPRO_BACKEND``, else ``"compiled"``)."""
    global _default
    if _default is None:
        env = os.environ.get("REPRO_BACKEND", "").strip().lower()
        _default = env or "compiled"
        if _default not in BACKENDS:
            value, _default = _default, "compiled"
            raise ValueError(
                f"REPRO_BACKEND={value!r} is not one of {BACKENDS}")
    return _default


def set_default_backend(backend: str | None) -> None:
    """Set the process default backend; ``None`` re-reads ``REPRO_BACKEND``."""
    global _default
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    _default = backend


def resolve_backend(backend: str | None) -> str:
    """Normalise a ``backend`` argument: ``None`` -> the default."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


# -- provider resolution -----------------------------------------------------


def _resolve_provider():
    """First usable provider, cached: generated C, else the reference."""
    global _provider
    if _provider is not None:
        return _provider
    forced = os.environ.get("REPRO_KERNEL_PROVIDER", "").strip().lower()
    if forced not in ("", "cext", "reference"):
        raise ValueError(
            f"REPRO_KERNEL_PROVIDER must be cext/reference, got {forced!r}")
    provider = None
    if forced != "reference":
        from repro.kernels import cext
        provider = cext.load()
    if provider is None:
        from repro.kernels import reference
        provider = reference
    _provider = provider
    return provider


def has_compiled_provider() -> bool:
    """Whether generated C is live, i.e. the ``compiled`` backend runs
    native kernels rather than the pure-Python provider."""
    return _resolve_provider().name != "reference"


def provider_info() -> dict:
    """``{"name": ..., "detail": ...}`` for the live compiled provider."""
    provider = _resolve_provider()
    return {"name": provider.name, "detail": provider.detail}


def backend_info() -> dict:
    """Everything ``repro check`` and the bench JSONs report about the
    kernel configuration: active default backend and compiled provider,
    plus why generated C is not live when it is not."""
    provider = _resolve_provider()
    info = {
        "default_backend": default_backend(),
        "compiled_provider": provider.name,
        "compiled_detail": provider.detail,
    }
    if provider.name != "cext":
        from repro.kernels import cext
        if cext.build_error() is not None:
            info["cext_error"] = cext.build_error()
    return info


# -- array plumbing ----------------------------------------------------------


def _i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def _u8(arr) -> np.ndarray | None:
    """Optional flag array as contiguous uint8 (bool arrays are viewed,
    not copied, so in-place kernel updates land in the caller's array)."""
    if arr is None:
        return None
    if arr.dtype == np.bool_:
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        return arr.view(np.uint8)
    return np.ascontiguousarray(arr, dtype=np.uint8)


# -- kernel entry points (the mutation-patchable dispatch surface) -----------


def replay_oneway(lines, sets, writes, write_allocate, current, dirty,
                  hits_out):
    """One-way residency replay (see :mod:`repro.kernels.reference`)."""
    return _resolve_provider().replay_oneway(
        _i64(lines), _i64(sets), _u8(writes), int(bool(write_allocate)),
        current, _u8(dirty), _u8(hits_out),
    )


def replay_assoc(lines, sets, writes, num_ways, write_allocate, lru, tick,
                 tags, stamps, dirty, hits_out):
    """N-way LRU/FIFO replay (see :mod:`repro.kernels.reference`)."""
    return _resolve_provider().replay_assoc(
        _i64(lines), _i64(sets), _u8(writes), int(num_ways),
        int(bool(write_allocate)), int(bool(lru)), int(tick),
        tags, stamps, _u8(dirty), _u8(hits_out),
    )


def mm_timing(banks, writes, t_m, free_at, counts, state):
    """MM-machine timing loop (see :mod:`repro.kernels.reference`)."""
    _resolve_provider().mm_timing(
        _i64(banks), _u8(writes), int(t_m), free_at, counts, state,
    )


def cc_timing(banks, writes, hits, kinds, mem_t_m, cc_t_m, compulsory,
              free_at, counts, state):
    """CC-machine timing loop (see :mod:`repro.kernels.reference`)."""
    _resolve_provider().cc_timing(
        _i64(banks), _u8(writes), _u8(hits), _u8(kinds), int(mem_t_m),
        int(cc_t_m), int(compulsory), free_at, counts, state,
    )


def pair_flat(b1, b2, h1, h2, paired, mvl, overhead, t_m, pen1, pen2,
              free_at, counts, state):
    """Paired-load strip engine (see :mod:`repro.kernels.reference`)."""
    _resolve_provider().pair_flat(
        _i64(b1), _i64(b2), _u8(h1), _u8(h2), int(paired), int(mvl),
        int(overhead), int(t_m), int(pen1), int(pen2),
        free_at, counts, state,
    )


def belady_next_use(lines: np.ndarray) -> np.ndarray:
    """Next-occurrence index per position; ``lines.size`` means "never".

    Vectorised replacement for the backward dict scan of
    :func:`repro.cache.belady._next_use_indexes`: a stable sort groups
    equal lines with ascending positions, so each position's next use is
    simply its successor within the sort group.
    """
    lines = _i64(lines)
    n = lines.size
    next_use = np.full(n, n, dtype=np.int64)
    if n < 2:
        return next_use
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    successor = np.full(n - 1, n, dtype=np.int64)
    successor[same] = order[1:][same]
    next_use[order[:-1]] = successor
    return next_use


def belady_opt(lines, sets, next_use, num_ways, tags, nu, ins):
    """Belady OPT simulation loop (see :mod:`repro.kernels.reference`)."""
    return _resolve_provider().belady_opt(
        _i64(lines), _i64(sets), _i64(next_use), int(num_ways),
        tags, nu, ins,
    )
