"""Design-space surrogate over the vectorised analytical stack.

:mod:`repro.analytical.batched` turns the paper's closed forms into
array kernels; this module is the thin facade that makes them usable as
a *surrogate model* for design-space search:

``evaluate_grid``
    score a broadcastable grid of (mapping, cache size, associativity,
    banks, ``t_m``) x workload points in one call — the engine behind
    ``repro optimize`` and ``bench_optimize``.
``evaluate_points``
    score a heterogeneous list of per-point dicts (the serve
    ``vcm_batch`` payload), grouping compatible points into as few
    vectorised calls as possible and returning per-point dicts that are
    supersets of the scalar ``vcm_query`` result.
``apply_constraints`` / ``pareto_front``
    the filtering and non-dominated-extraction steps of the optimizer.

Everything here is pure and deterministic: the same grid always
produces the same arrays, so results are safe to content-address.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from . import batched

__all__ = [
    "POINT_DEFAULTS",
    "apply_constraints",
    "canonical_point",
    "evaluate_grid",
    "evaluate_points",
    "pareto_front",
]


# Defaults mirror ``repro.serve.queries.vcm_query`` so a ``vcm_batch``
# point with the same parameters means the same machine.  ``ways`` is
# the one addition (the scalar query only serves direct/prime).
POINT_DEFAULTS: dict[str, Any] = {
    "mapping": "prime",
    "cache_lines": 8191,
    "banks": 64,
    "t_m": 32,
    "ways": 1,
    "blocking_factor": 1024,
    "reuse_factor": 32.0,
    "p_ds": 0.03125,
    "s1": "random",
    "s2": "random",
    "p_stride1_s1": 0.25,
    "p_stride1_s2": 0.25,
    "problem_size": None,
}


def evaluate_grid(mapping, *, cache_lines, num_banks, t_m, ways=1, mvl=64,
                  blocking_factor, reuse_factor, p_ds,
                  p_stride1_s1=0.25, p_stride1_s2=0.25,
                  s1="random", s2="random", problem_size=None,
                  footprint_mode="simple", line_size=1,
                  loop_overhead=10, strip_overhead=15,
                  start_base=30) -> dict[str, np.ndarray]:
    """Score a broadcast grid of design x workload points.

    All array arguments broadcast together; the returned dict maps
    metric names to arrays of the broadcast shape.  On top of the
    timing/miss-ratio outputs of :func:`batched.cc_outputs_batch` this
    adds the two optimizer axes:

    ``bandwidth``
        expected effective memory bandwidth of the bank array
        (fraction of one word per cycle), Oed-Lange form.
    ``area_words``
        storage cost proxy, ``cache_lines * line_size`` — the paper's
        cost axis is line count, scaled by an optional word-per-line
        factor.
    """
    out = batched.cc_outputs_batch(
        mapping, cache_lines=cache_lines, num_banks=num_banks, t_m=t_m,
        ways=ways, mvl=mvl, blocking_factor=blocking_factor,
        reuse_factor=reuse_factor, p_ds=p_ds,
        p_stride1_s1=p_stride1_s1, p_stride1_s2=p_stride1_s2,
        s1=s1, s2=s2, problem_size=problem_size,
        footprint_mode=footprint_mode, loop_overhead=loop_overhead,
        strip_overhead=strip_overhead, start_base=start_base)
    shape = out["cycles_per_result"].shape
    bandwidth = np.broadcast_to(
        batched.expected_effective_bandwidth_batch(
            num_banks, t_m, p_stride1=p_stride1_s1), shape).copy()
    area = np.broadcast_to(
        np.asarray(cache_lines, dtype=np.int64)
        * np.asarray(line_size, dtype=np.int64), shape).copy()
    out["bandwidth"] = bandwidth
    out["area_words"] = area
    return out


def canonical_point(point: Mapping[str, Any]) -> dict[str, Any]:
    """Validate one ``vcm_batch`` point and fill serve-query defaults.

    Returns a plain dict with exactly the :data:`POINT_DEFAULTS` keys —
    the canonical form the serve layer digests, so permuted or
    duplicated points normalise to identical batch members.  Raises
    ``ValueError`` for a point the scalar models would refuse or divide
    by zero on: beyond the types, ``banks`` must be a power of two and
    ``banks`` and ``cache_lines`` at least 2 (the models divide by
    ``M - 1`` and ``C - 1``), ``reuse_factor`` at least 1, the three
    probabilities in ``[0, 1]``, a point with double-stream accesses
    needs a second stride, and an ``assoc`` point's ``ways`` must divide
    ``cache_lines`` into a power-of-two number of sets.
    """
    unknown = set(point) - set(POINT_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown vcm_batch point keys: {sorted(unknown)}")
    merged = {**POINT_DEFAULTS, **dict(point)}
    if merged["mapping"] not in batched.MAPPINGS:
        raise ValueError(f"mapping must be one of {sorted(batched.MAPPINGS)},"
                         f" got {merged['mapping']!r}")
    for key in ("cache_lines", "banks", "t_m", "ways", "blocking_factor"):
        value = merged[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{key} must be a positive int, got {value!r}")
    for key in ("reuse_factor", "p_ds", "p_stride1_s1", "p_stride1_s2"):
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be a number, got {value!r}")
        merged[key] = float(value)
    banks, lines, ways = merged["banks"], merged["cache_lines"], merged["ways"]
    if banks < 2 or banks & (banks - 1):
        raise ValueError(f"banks must be a power of two of at least 2, "
                         f"got {banks}")
    if lines < 2:
        raise ValueError(f"cache_lines must be at least 2, got {lines}")
    if merged["mapping"] == "assoc" and (
            lines % ways or (lines // ways) & (lines // ways - 1)):
        raise ValueError(f"assoc ways must divide cache_lines into a "
                         f"power-of-two number of sets, got {ways} ways "
                         f"of {lines} lines")
    if not merged["reuse_factor"] >= 1:
        raise ValueError(f"reuse_factor must be at least 1, "
                         f"got {merged['reuse_factor']}")
    for key in ("p_ds", "p_stride1_s1", "p_stride1_s2"):
        if not 0.0 <= merged[key] <= 1.0:
            raise ValueError(f"{key} must be in [0, 1], got {merged[key]}")
    for key in ("s1", "s2"):
        value = merged[key]
        ok = (value is None or value == "random"
              or (isinstance(value, int) and not isinstance(value, bool)))
        if not ok:
            raise ValueError(f"{key} must be 'random', an int stride or "
                             f"null, got {value!r}")
    if merged["p_ds"] > 0 and merged["s2"] is None:
        raise ValueError("double-stream accesses (p_ds > 0) need a "
                         "second stride s2")
    size = merged["problem_size"]
    if size is not None and (not isinstance(size, int)
                             or isinstance(size, bool) or size < 1):
        raise ValueError(f"problem_size must be a positive int or null, "
                         f"got {size!r}")
    return {key: merged[key] for key in POINT_DEFAULTS}


def _stride_kind(spec) -> str:
    if spec is None:
        return "none"
    if isinstance(spec, str):
        return spec
    return "fixed"


def evaluate_points(points: Sequence[Mapping[str, Any]]) -> list[dict]:
    """Score a heterogeneous list of VCM points in few vectorised calls.

    Points are grouped by the attributes that select different code
    paths (mapping, stride-spec kind, bounded vs. unbounded problem
    size); everything numeric within a group rides one batched call.
    Each returned dict is a superset of the scalar ``vcm_query``
    result for the same parameters.
    """
    canon = [canonical_point(p) for p in points]
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(canon):
        key = (p["mapping"], _stride_kind(p["s1"]), _stride_kind(p["s2"]),
               p["problem_size"] is None)
        groups.setdefault(key, []).append(i)

    results: list[dict | None] = [None] * len(canon)
    for (mapping, k1, k2, unbounded), idx in groups.items():
        member = [canon[i] for i in idx]

        def _arr(key, dtype=np.int64):
            return np.array([p[key] for p in member], dtype=dtype)

        s1 = _arr("s1") if k1 == "fixed" else (None if k1 == "none"
                                               else "random")
        s2 = _arr("s2") if k2 == "fixed" else (None if k2 == "none"
                                               else "random")
        out = evaluate_grid(
            mapping,
            cache_lines=_arr("cache_lines"), num_banks=_arr("banks"),
            t_m=_arr("t_m"), ways=_arr("ways"),
            blocking_factor=_arr("blocking_factor"),
            reuse_factor=_arr("reuse_factor", float),
            p_ds=_arr("p_ds", float),
            p_stride1_s1=_arr("p_stride1_s1", float),
            p_stride1_s2=_arr("p_stride1_s2", float),
            s1=s1, s2=s2,
            problem_size=None if unbounded else _arr("problem_size"))
        for j, i in enumerate(idx):
            p = canon[i]
            results[i] = {
                "mapping": p["mapping"],
                "t_m": p["t_m"],
                "banks": p["banks"],
                "cache_lines": p["cache_lines"],
                "ways": p["ways"],
                "blocking_factor": p["blocking_factor"],
                "reuse_factor": p["reuse_factor"],
                "cycles_per_result": float(out["cycles_per_result"][j]),
                "element_time": float(out["element_time"][j]),
                "initial_block_time": float(out["initial_block_time"][j]),
                "cached_block_time": float(out["cached_block_time"][j]),
                "mm_cycles_per_result":
                    float(out["mm_cycles_per_result"][j]),
                "miss_ratio": float(out["miss_ratio"][j]),
                "hit_ratio": float(out["hit_ratio"][j]),
                "bandwidth": float(out["bandwidth"][j]),
                "area_words": int(out["area_words"][j]),
            }
    return results  # type: ignore[return-value]


def apply_constraints(metrics: Mapping[str, np.ndarray], *,
                      max_area_words=None, max_banks=None, max_t_m=None,
                      min_bandwidth=None, max_miss_ratio=None,
                      max_cycles_per_result=None,
                      num_banks=None, t_m=None) -> np.ndarray:
    """Boolean feasibility mask over an :func:`evaluate_grid` result.

    ``num_banks`` / ``t_m`` are the grid axes themselves (needed for the
    bank-budget and latency constraints, which bound inputs rather than
    outputs); pass the same values handed to :func:`evaluate_grid`.
    """
    # metrics that are independent of an axis may carry it collapsed;
    # the mask spans the full broadcast grid
    shape = np.broadcast_shapes(*(np.shape(v) for v in metrics.values()))
    mask = np.ones(shape, dtype=bool)
    if max_area_words is not None:
        mask &= metrics["area_words"] <= max_area_words
    if max_banks is not None:
        if num_banks is None:
            raise ValueError("max_banks needs the num_banks grid axis")
        mask &= np.broadcast_to(np.asarray(num_banks), shape) <= max_banks
    if max_t_m is not None:
        if t_m is None:
            raise ValueError("max_t_m needs the t_m grid axis")
        mask &= np.broadcast_to(np.asarray(t_m), shape) <= max_t_m
    if min_bandwidth is not None:
        mask &= metrics["bandwidth"] >= min_bandwidth
    if max_miss_ratio is not None:
        mask &= metrics["miss_ratio"] <= max_miss_ratio
    if max_cycles_per_result is not None:
        mask &= metrics["cycles_per_result"] <= max_cycles_per_result
    return mask


def pareto_front(*objectives, minimise=None) -> np.ndarray:
    """Indices of the non-dominated points over minimised objectives.

    Each objective is a flat array (all the same length); ``minimise``
    is an optional per-objective bool sequence (default: minimise all —
    negate an objective to maximise it).  Returns ascending indices of
    the Pareto-optimal points.  Complexity is ``O(n * |front|)`` with a
    vectorised inner dominance test, which is fast for the post-
    constraint candidate counts the optimizer feeds it.
    """
    cols = [np.asarray(o, dtype=float).ravel() for o in objectives]
    if not cols:
        raise ValueError("pareto_front needs at least one objective")
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("objectives must have equal lengths")
    if minimise is not None:
        if len(minimise) != len(cols):
            raise ValueError("minimise must match the objective count")
        cols = [c if flag else -c for c, flag in zip(cols, minimise)]
    pts = np.stack(cols, axis=1)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Ascending lexicographic order: a point can only be dominated by an
    # earlier kept point, so one pass suffices.
    order = np.lexsort(pts.T[::-1])
    kept = np.empty_like(pts)
    kept_count = 0
    keep_mask = np.zeros(n, dtype=bool)
    for pos in order:
        p = pts[pos]
        if kept_count:
            front = kept[:kept_count]
            dominated = np.any(np.all(front <= p, axis=1)
                               & np.any(front < p, axis=1))
            if dominated:
                continue
        kept[kept_count] = p
        kept_count += 1
        keep_mask[pos] = True
    return np.nonzero(keep_mask)[0]
