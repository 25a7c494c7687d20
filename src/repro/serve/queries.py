"""Pure query functions behind the serve protocol's ad-hoc requests.

``repro serve`` accepts two request shapes that are not registry jobs:
an analytical **VCM config** evaluation and a **trace spec** replay.
Both are implemented here as pure, JSON-parameterised functions so the
protocol layer can wrap them in ordinary :class:`~repro.orchestrate.job.Job`
objects — same content-addressed cache keys, same single-flight
coalescing, same process-pool execution as every registry job.

Keeping them pure and keyword-only is load-bearing: the parameters *are*
the cache key, so two clients posting the same config share one entry.
"""

from __future__ import annotations

__all__ = ["trace_query", "vcm_batch_query", "vcm_batch_view", "vcm_query"]


def vcm_query(*, blocking_factor: int = 1024, reuse_factor: float = 32.0,
              p_ds: float = 0.03125, s1: int | str | None = "random",
              s2: int | str | None = "random", p_stride1_s1: float = 0.25,
              p_stride1_s2: float = 0.25, t_m: int = 32, banks: int = 64,
              cache_lines: int = 8191, mapping: str = "prime",
              problem_size: int | None = None) -> dict:
    """Evaluate one VCM config against one analytical cache model.

    Returns the paper's headline analytical outputs (cycles per result,
    element time, block times) for the given machine point.
    """
    from repro.analytical import MachineConfig
    from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
    from repro.analytical.vcm import VCM

    models = {"prime": PrimeMappedModel, "direct": DirectMappedModel}
    if mapping not in models:
        raise ValueError(f"mapping must be one of {sorted(models)}, "
                         f"got {mapping!r}")
    vcm = VCM(blocking_factor=blocking_factor, reuse_factor=reuse_factor,
              p_ds=p_ds, s1=s1, s2=s2, p_stride1_s1=p_stride1_s1,
              p_stride1_s2=p_stride1_s2)
    config = MachineConfig(num_banks=banks, memory_access_time=t_m,
                           cache_lines=cache_lines)
    model = models[mapping](config)
    element_time = model.element_time(vcm)
    return {
        "mapping": mapping,
        "t_m": t_m,
        "banks": banks,
        "cache_lines": cache_lines,
        "blocking_factor": blocking_factor,
        "reuse_factor": reuse_factor,
        "cycles_per_result": model.cycles_per_result(vcm, problem_size),
        "element_time": element_time,
        "initial_block_time": model.initial_block_time(vcm),
        "cached_block_time": model.cached_block_time(vcm, element_time),
    }


def vcm_batch_query(*, points: list[dict]) -> list[dict]:
    """Evaluate a batch of VCM points through the vectorised surrogate.

    ``points`` is the *sorted, distinct* canonical point list the
    protocol layer produced — the batch's cache identity.  One call to
    :func:`repro.analytical.surrogate.evaluate_points` scores the whole
    batch through the array kernels; each result dict is a superset of
    the scalar :func:`vcm_query` output for the same parameters.
    """
    from repro.analytical.surrogate import evaluate_points

    return evaluate_points(points)


def vcm_batch_view(inputs: dict, *, order: list[int]) -> list[dict]:
    """Restore request order over a shared ``vcm_batch_query`` result.

    ``inputs`` holds the batch job's distinct-point results; ``order``
    maps each originally-requested point (duplicates included) to its
    index in that distinct list.  Splitting the view from the batch is
    what lets permuted or duplicated bursts coalesce on one batch key
    while every client still sees its own ordering.
    """
    batch = next(iter(inputs.values()))
    return [batch[index] for index in order]


def trace_query(*, kind: str = "strided", base: int = 0, stride: int = 8,
                length: int = 4096, sweeps: int = 1, c: int = 13,
                organisation: str = "prime", t_m: int = 32) -> dict:
    """Replay one synthetic trace spec through one cache organisation.

    ``kind`` currently supports ``"strided"`` (the paper's canonical
    access pattern); the spec is deliberately a strict, validated schema
    so that identical requests normalise to identical cache keys.  The
    replay runs on the worker's default backend; every backend gives the
    same statistics, so the engine is not part of the key.
    """
    from repro.cache import (
        DirectMappedCache,
        FullyAssociativeCache,
        PrimeMappedCache,
    )
    from repro.trace import replay, strided

    if kind != "strided":
        raise ValueError(f"unsupported trace kind {kind!r}; "
                         f"expected 'strided'")
    lines = 1 << c
    factories = {
        "prime": lambda: PrimeMappedCache(c=c),
        "direct": lambda: DirectMappedCache(num_lines=lines),
        "assoc": lambda: FullyAssociativeCache(num_lines=lines),
    }
    if organisation not in factories:
        raise ValueError(f"organisation must be one of {sorted(factories)}, "
                         f"got {organisation!r}")
    trace = strided(base, stride, length, sweeps=sweeps)
    result = replay(trace, factories[organisation](), t_m=t_m)
    return {
        "kind": kind,
        "organisation": organisation,
        "label": result.label,
        "c": c,
        "stride": stride,
        "length": length,
        "sweeps": sweeps,
        "t_m": t_m,
        "accesses": result.stats.accesses,
        "hits": result.stats.hits,
        "misses": result.stats.misses,
        "conflict_misses": result.stats.conflict_misses,
        "hit_ratio": result.hit_ratio,
        "stall_cycles": result.stall_cycles,
    }
