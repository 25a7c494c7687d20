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

import inspect
from typing import Any, Mapping

# The query functions only: the repository benchmark's tracer times every
# name listed here as a query span.  ``check_trace_params`` and the trace
# bounds are imported by name.
__all__ = ["trace_query", "vcm_batch_query", "vcm_batch_view", "vcm_query"]

#: Most references one trace query replays (``length * sweeps``): about a
#: second of a pool worker on the classified engines, and 32 MB of trace.
TRACE_REF_BUDGET = 1 << 22

#: Widest cache index ``c`` a trace query may build.  A one-way cache's
#: batched replay keeps one int64 per set, so ``2**20`` sets cost 8 MB.
TRACE_MAX_C = 20

#: Largest word address a trace query may touch (int64 headroom).
_TRACE_MAX_ADDRESS = 1 << 62

_TRACE_ORGANISATIONS = ("assoc", "direct", "prime")


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


def check_trace_params(params: Mapping[str, Any]) -> None:
    """Reject a :func:`trace_query` parameter set before any work runs.

    Parameters left out take :func:`trace_query`'s defaults.  Raises
    ``ValueError`` unless every integer parameter is an integer (JSON
    ``3.5`` and ``true`` are not), ``kind`` and ``organisation`` are
    supported, ``c`` is in the organisation's range (``1 ..``
    :data:`TRACE_MAX_C`, and a Mersenne prime exponent for ``prime``),
    ``length * sweeps`` is within :data:`TRACE_REF_BUDGET`, ``t_m`` is
    non-negative and every address lies in ``0 .. 2**62``.
    """
    from repro.core.mersenne import is_mersenne_exponent

    spec = {name: parameter.default for name, parameter
            in inspect.signature(trace_query).parameters.items()}
    spec.update(params)
    for name in ("base", "stride", "length", "sweeps", "c", "t_m"):
        value = spec[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"trace {name} must be an integer, "
                             f"got {value!r}")
    if spec["kind"] != "strided":
        raise ValueError(f"unsupported trace kind {spec['kind']!r}; "
                         f"expected 'strided'")
    organisation = spec["organisation"]
    if organisation not in _TRACE_ORGANISATIONS:
        raise ValueError(f"organisation must be one of "
                         f"{list(_TRACE_ORGANISATIONS)}, "
                         f"got {organisation!r}")
    c = spec["c"]
    if not 1 <= c <= TRACE_MAX_C:
        raise ValueError(f"trace c must be in 1..{TRACE_MAX_C}, got {c}")
    if organisation == "prime" and not is_mersenne_exponent(c):
        raise ValueError(f"a prime cache needs a Mersenne prime exponent "
                         f"c, got {c}")
    length, sweeps = spec["length"], spec["sweeps"]
    if length < 1 or sweeps < 1:
        raise ValueError("trace length and sweeps must be positive")
    if length * sweeps > TRACE_REF_BUDGET:
        raise ValueError(f"trace length x sweeps = {length * sweeps} "
                         f"exceeds the budget of {TRACE_REF_BUDGET} "
                         f"references")
    if spec["t_m"] < 0:
        raise ValueError("trace t_m must be non-negative")
    last = spec["base"] + spec["stride"] * (length - 1)
    if not (0 <= spec["base"] < _TRACE_MAX_ADDRESS
            and 0 <= last < _TRACE_MAX_ADDRESS):
        raise ValueError(f"trace addresses must lie in 0..2**62, got "
                         f"{spec['base']}..{last}")


def trace_query(*, kind: str = "strided", base: int = 0, stride: int = 8,
                length: int = 4096, sweeps: int = 1, c: int = 13,
                organisation: str = "prime", t_m: int = 32) -> dict:
    """Replay one synthetic trace spec through one cache organisation.

    ``kind`` currently supports ``"strided"`` (the paper's canonical
    access pattern); the spec is deliberately a strict, validated schema
    so that identical requests normalise to identical cache keys, and
    :func:`check_trace_params` bounds it (the service checks it while
    normalising a request, before anything is scheduled).  The replay
    runs on the worker's default backend; every backend gives the same
    statistics, so the engine is not part of the key.
    """
    from repro.cache import (
        DirectMappedCache,
        FullyAssociativeCache,
        PrimeMappedCache,
    )
    from repro.trace import replay, strided

    check_trace_params({"kind": kind, "base": base, "stride": stride,
                        "length": length, "sweeps": sweeps, "c": c,
                        "organisation": organisation, "t_m": t_m})
    lines = 1 << c
    factories = {
        "prime": lambda: PrimeMappedCache(c=c),
        "direct": lambda: DirectMappedCache(num_lines=lines),
        "assoc": lambda: FullyAssociativeCache(num_lines=lines),
    }
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
