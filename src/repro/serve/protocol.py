"""Request normalisation: one JSON body -> jobs plus a selection.

Every request the daemon accepts reduces to the same thing the
orchestrator already understands — a set of :class:`Job` objects and the
names to resolve — so the server can compute the request's
content-addressed cache keys with the exact recipe ``repro sweep`` uses.
That equivalence is the whole point: a sweep run from the CLI warms the
same entries the service answers from, and vice versa.

Accepted shapes (exactly one top-level kind per request)::

    {"job": "fig4"}                          # one registry job
    {"job": "fig7-simulated",
     "params": {"seeds": 2}}                 # ... with param overrides
    {"sweep": ["fig4", "fig5"]}              # several registry jobs
    {"sweep": "default"}                     # the full default sweep
    {"vcm": {"t_m": 32, "banks": 64, ...}}   # analytical VCM evaluation
    {"vcm_batch": [{"t_m": 32}, ...]}        # batched VCM evaluation
    {"trace": {"stride": 8, "length": 4096,
               "organisation": "prime"}}     # trace-spec replay

``vcm`` / ``trace`` requests (and ``params`` overrides) wrap the pure
functions in :mod:`repro.serve.queries` as synthetic jobs whose name is
derived from the canonical parameter digest — identical configs from
different clients therefore normalise to identical jobs, identical cache
keys, and one shared computation.

``vcm_batch`` extends that coalescing from single points to whole
batches: the points are validated, canonicalised, de-duplicated and
sorted into one *batch job* (scored in a single vectorised surrogate
call), plus a cheap *view job* that restores the request's own order and
duplicates.  Because the batch job's name digests only the sorted
distinct point set, permuted or duplicated bursts from different clients
normalise to the same batch key — and therefore the same single flight.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.orchestrate.fingerprint import canonical_params
from repro.orchestrate.job import Job, resolve
from repro.orchestrate.jobs import with_points
from repro.serve.queries import check_trace_params

__all__ = ["ProtocolError", "Query", "normalise"]

#: Synthetic-query catalogue: request kind -> (fn ref, fingerprint scope).
_QUERY_FNS = {
    "vcm": ("repro.serve.queries:vcm_query", ("repro.analytical",)),
    "trace": ("repro.serve.queries:trace_query",
              ("repro.trace", "repro.cache")),
}

_KINDS = ("job", "sweep", "vcm", "vcm_batch", "trace")


class ProtocolError(ValueError):
    """A malformed request; the server answers 400 with the message."""


@dataclass(frozen=True)
class Query:
    """A normalised request: the jobs in play and the names to resolve.

    ``jobs`` is the registry plus any synthetic/derived jobs this request
    introduced; ``names`` is the selection, in request order.
    """

    names: tuple[str, ...]
    jobs: dict[str, Job]


def _params_digest(params: Mapping[str, Any]) -> str:
    try:
        canonical = canonical_params(dict(params))
    except TypeError as error:
        raise ProtocolError(str(error)) from None
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _check_params(fn_ref: str, params: Mapping[str, Any]) -> None:
    """Reject unknown parameter names up front (400, not a job failure).

    A positional-only parameter is not one: it receives a dependent
    job's inputs."""
    signature = inspect.signature(resolve(fn_ref))
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in signature.parameters.values()):
        return  # **kwargs accepts anything
    allowed = {name for name, p in signature.parameters.items()
               if p.kind is not inspect.Parameter.POSITIONAL_ONLY}
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ProtocolError(f"unknown parameters {unknown}; "
                            f"choose from {sorted(allowed)}")


def _as_params(value: Any, kind: str) -> dict:
    if not isinstance(value, Mapping):
        raise ProtocolError(f"{kind!r} must be a JSON object of parameters")
    bad = [k for k in value if not isinstance(k, str)]
    if bad:
        raise ProtocolError(f"{kind!r} parameter names must be strings")
    return dict(value)


def _registry_job(body: dict, registry: Mapping[str, Job]) -> Query:
    name = body["job"]
    if not isinstance(name, str) or name not in registry:
        raise ProtocolError(f"unknown job {name!r}; "
                            f"choose from {sorted(registry)}")
    overrides = body.get("params")
    if not overrides:
        return Query(names=(name,), jobs=dict(registry))
    overrides = _as_params(overrides, "params")
    base = registry[name]
    _check_params(base.fn, overrides)
    derived = replace(base, name=f"{name}@{_params_digest(overrides)}",
                      params={**base.params, **overrides})
    try:
        variant = with_points(derived)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"params of {name!r}: {error}") from None
    jobs = dict(registry)
    jobs.update((job.name, job) for job in variant)
    return Query(names=(derived.name,), jobs=jobs)


def _registry_sweep(body: dict, registry: Mapping[str, Job]) -> Query:
    from repro.orchestrate.jobs import default_sweep

    selection = body["sweep"]
    if selection == "default":
        names = list(default_sweep())
    elif isinstance(selection, list) and selection:
        names = selection
    else:
        raise ProtocolError(
            "'sweep' must be a non-empty list of job names or 'default'")
    unknown = [n for n in names if not isinstance(n, str) or n not in registry]
    if unknown:
        raise ProtocolError(f"unknown jobs {unknown}; "
                            f"choose from {sorted(registry)}")
    if len(set(names)) != len(names):
        raise ProtocolError("'sweep' contains duplicate job names")
    return Query(names=tuple(names), jobs=dict(registry))


def _check_vcm_params(params: Mapping[str, Any]) -> None:
    """Reject a ``vcm`` body the job would fail on: the ranges of a
    ``vcm_batch`` point (the job's parameters are a subset of its keys),
    and a mapping the scalar query has no model for.  The body itself is
    left as sent, so its cache key does not change."""
    from repro.analytical.surrogate import canonical_point

    if params.get("mapping") == "assoc":
        raise ValueError("mapping 'assoc' is served by vcm_batch only; "
                         "vcm takes 'direct' or 'prime'")
    canonical_point(params)


def _synthetic(kind: str, body: dict, registry: Mapping[str, Job]) -> Query:
    fn_ref, modules = _QUERY_FNS[kind]
    params = _as_params(body[kind], kind)
    _check_params(fn_ref, params)
    try:
        if kind == "trace":
            check_trace_params(params)
        else:
            _check_vcm_params(params)
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    job = Job(name=f"{kind}@{_params_digest(params)}", fn=fn_ref,
              params=params, modules=modules)
    jobs = dict(registry)
    jobs[job.name] = job
    return Query(names=(job.name,), jobs=jobs)


def _vcm_batch(body: dict, registry: Mapping[str, Job]) -> Query:
    from repro.analytical.surrogate import canonical_point

    points = body["vcm_batch"]
    if not isinstance(points, list) or not points:
        raise ProtocolError(
            "'vcm_batch' must be a non-empty list of point objects")
    canon: list[dict] = []
    for index, point in enumerate(points):
        params = _as_params(point, "vcm_batch")
        try:
            canon.append(canonical_point(params))
        except ValueError as error:
            raise ProtocolError(
                f"vcm_batch point {index}: {error}") from None
    # The batch's identity is the sorted distinct canonical point set:
    # permuted or duplicated bursts digest to the same batch job (one
    # cache key, one flight).  The view job re-expands to request order.
    keyed = sorted({canonical_params(p): p for p in canon}.items())
    distinct = [point for _, point in keyed]
    position = {text: i for i, (text, _) in enumerate(keyed)}
    order = [position[canonical_params(p)] for p in canon]
    batch = Job(
        name=f"vcm_batch@{_params_digest({'points': distinct})}",
        fn="repro.serve.queries:vcm_batch_query",
        params={"points": distinct}, modules=("repro.analytical",))
    view = Job(
        name="vcm_batch_view@"
             + _params_digest({"batch": batch.name, "order": order}),
        fn="repro.serve.queries:vcm_batch_view",
        params={"order": order}, deps=(batch.name,))
    jobs = dict(registry)
    jobs[batch.name] = batch
    jobs[view.name] = view
    return Query(names=(view.name,), jobs=jobs)


def normalise(body: Any, registry: Mapping[str, Job]) -> Query:
    """Validate and normalise one request body against the job registry."""
    if not isinstance(body, Mapping):
        raise ProtocolError("request body must be a JSON object")
    kinds = [k for k in _KINDS if k in body]
    if len(kinds) != 1:
        raise ProtocolError(
            f"request must contain exactly one of {list(_KINDS)}")
    kind = kinds[0]
    extras = sorted(set(body) - {kind, "params"}
                    if kind == "job" else set(body) - {kind})
    if extras:
        raise ProtocolError(f"unexpected request fields {extras}")
    if kind == "job":
        return _registry_job(dict(body), registry)
    if kind == "sweep":
        return _registry_sweep(dict(body), registry)
    if kind == "vcm_batch":
        return _vcm_batch(dict(body), registry)
    return _synthetic(kind, dict(body), registry)
