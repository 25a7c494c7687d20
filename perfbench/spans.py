"""Span tracing for the traced benchmark runs, kept outside ``src/``.

:func:`install` wraps the public entry points of every ``repro`` layer in
timing wrappers.  A span records its name, start, end and parent (the
innermost span open on the same thread).  Spans stay in memory and are
written to one JSON file per process when the process exits; the serve
daemon's pool workers inherit the wrappers through ``fork`` and write
their own file.  :func:`layer_metrics` merges the files of one run into
the per-layer metrics.

A span's name starts with its layer (``cache.replay`` belongs to
``cache``).  Self time is attributed on one timeline: every instant of
the timed window goes to the deepest span open at that instant, split
evenly between concurrent spans of equal depth, or to ``unattributed_s``
when no span is open.  The two are added up separately, so self times
plus ``unattributed_s`` equal the wall time only when every instant is
counted once.
"""

from __future__ import annotations

import atexit
import bisect
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Layers in report order; each is named after its ``src/repro/`` package.
LAYERS = ("trace", "workloads", "cache", "kernels", "machine", "analytical",
          "experiments", "orchestrate", "serve")

#: Organisations reported one by one, by exact cache class.
ORGS = ("direct", "prime", "set_assoc", "fully_assoc", "hashed",
        "bicameral", "two_level")

#: Experiment families: family -> module behind its registry jobs.
FAMILIES = {
    "figures": "repro.experiments.figures",
    "extensions": "repro.experiments.extension_figures",
    "subblock": "repro.experiments.subblock_study",
    "ablations": "repro.experiments.ablations",
    "zoo": "repro.experiments.cache_zoo",
    "simulated": "repro.experiments.simulated_figures",
    "report": "repro.experiments.report",
}

#: Process roles; a span's tier orders the processes and threads of a
#: run so that a thread's root span finds its parent in a lower tier.
_TIERS = {("main", True): 0, ("daemon", True): 1, ("daemon", False): 2,
          ("worker", True): 3, ("worker", False): 3, ("main", False): 0}


class Recorder:
    """In-memory span list of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: list[list] = []  # name, start, end, parent, tid, attrs
        self._lock = threading.Lock()
        self._local = threading.local()
        self.main_tid = threading.get_ident()

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self.stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent,
                               threading.get_ident(), None])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        stack = self.stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def add(self, name: str, start: int, end: int, parent: int,
            tid: int, attrs: dict | None = None) -> None:
        """Record a span whose interval was measured elsewhere."""
        with self._lock:
            self.spans.append([name, start, end, parent, tid, attrs])

    def reset(self, role: str) -> None:
        """Start afresh in a forked child."""
        self.role = role
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.main_tid = threading.get_ident()

    def dump(self, directory: Path) -> None:
        payload = {"pid": os.getpid(), "role": self.role,
                   "main_tid": self.main_tid,
                   "spans": self.spans}
        path = Path(directory) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(payload))


def _wrap(recorder: Recorder, name: str, fn, measure=None):
    """A timing wrapper; ``measure(result, args, kwargs)`` adds attrs.

    A direct recursive call (the innermost open span has the same name)
    passes straight through, so recursive functions record one span.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(index)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = recorder.stack()
        if stack and recorder.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if measure is not None:
            recorder.spans[index][5] = measure(result, args, kwargs)
        return result
    return wrapper


# -- measures: counts recorded on the span, taken after it closed ----------


def _trace_refs(result, args, kwargs):
    # fft_stage_strides returns a stride list, not a trace
    return {"refs": len(result)} if hasattr(result, "iter_blocks") else None


def _stream_refs(result, args, kwargs):
    return {"refs": len(args[0])}


def _workload_refs(result, args, kwargs):
    if isinstance(result, tuple) and len(result) == 2:
        try:
            return {"refs": len(result[1])}
        except TypeError:
            return None
    return None


def _org_of(cache) -> str:
    from repro import cache as caches

    exact = {
        caches.DirectMappedCache: "direct",
        caches.PrimeMappedCache: "prime",
        caches.SetAssociativeCache: "set_assoc",
        caches.FullyAssociativeCache: "fully_assoc",
        caches.HashedIndexCache: "hashed",
        caches.BicameralCache: "bicameral",
        caches.TwoLevelCache: "two_level",
    }
    return exact.get(type(cache), "other")


def _replay_counts(result, args, kwargs):
    cache = args[1] if len(args) > 1 else kwargs["cache"]
    stats = result.stats
    return {"refs": stats.accesses, "hits": stats.hits,
            "misses": stats.misses, "org": _org_of(cache),
            "classified": bool(getattr(cache, "classifies_misses", True))}


def _cycles(result, args, kwargs):
    return {"cycles": int(result.cycles)}


def _driven_cycles(result, args, kwargs):
    return {"cycles": int(result.report.cycles)}


def _one_point(result, args, kwargs):
    return {"points": 1}


def _points(result, args, kwargs):
    points = args[0] if args else kwargs["points"]
    return {"points": len(points)}


def _grid_points(result, args, kwargs):
    for value in result.values():
        return {"points": int(getattr(value, "size", 1))}
    return {"points": 0}


def _store_bytes(result, args, kwargs):
    if result is None:
        return {"bytes": 0}
    store, key = args[0], args[1]
    try:
        return {"bytes": store.path_for(key).stat().st_size}
    except OSError:
        return {"bytes": 0}


def _saved_bytes(result, args, kwargs):
    try:
        return {"bytes": Path(result).stat().st_size}
    except OSError:
        return {"bytes": 0}


# -- installation -----------------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(recorder, name, module_name, attr, measure=None):
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    _replace_everywhere(original, _wrap(recorder, name, original, measure))


def _wrap_method(recorder, name, cls, attr, measure=None):
    setattr(cls, attr, _wrap(recorder, name, cls.__dict__[attr], measure))


def _wrap_fingerprints(recorder: Recorder) -> None:
    from repro.orchestrate import fingerprint

    original = fingerprint.FingerprintCache.get

    @functools.wraps(original)
    def get(self, module_name):
        if module_name in self._digests:
            return original(self, module_name)
        index = recorder.open("orchestrate.fingerprint")
        try:
            return original(self, module_name)
        finally:
            recorder.close(index)
            recorder.spans[index][5] = {
                "files": len(fingerprint._source_files(module_name))}

    fingerprint.FingerprintCache.get = get


def _wrap_dispatch(recorder: Recorder) -> None:
    """Time each cold job from pool submission until its result is back."""
    from repro.serve import service

    original_init = service.JobService.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        if self.pool is None:
            return
        submit = self.pool.submit

        def traced_submit(fn, *fn_args, **fn_kwargs):
            stack = recorder.stack()
            parent = stack[-1] if stack else -1
            tid = threading.get_ident()
            start = time.perf_counter_ns()
            future = submit(fn, *fn_args, **fn_kwargs)
            future.add_done_callback(lambda _: recorder.add(
                "serve.dispatch", start, time.perf_counter_ns(), parent, tid))
            return future

        self.pool.submit = traced_submit

    service.JobService.__init__ = init


def install(role: str, directory: Path) -> Recorder:
    """Wrap every layer's entry points; spans go to ``directory`` at exit.

    ``role`` is ``"main"`` for a workload process and ``"daemon"`` for the
    serve daemon, whose forked pool workers record as ``"worker"``.
    """
    import multiprocessing.util

    import repro.analytical.cc
    import repro.analytical.mm
    import repro.analytical.set_assoc
    import repro.analytical.surrogate
    import repro.cache
    import repro.kernels
    import repro.machine.trace_runner
    import repro.machine.vcm_driver
    import repro.machine.vector_machine
    import repro.orchestrate
    import repro.serve.app
    import repro.serve.protocol
    import repro.serve.queries
    import repro.serve.service
    import repro.trace
    import repro.workloads

    recorder = Recorder(role)
    for attr in importlib.import_module("repro.trace.patterns").__all__:
        _wrap_function(recorder, f"trace.{attr}", "repro.trace.patterns",
                       attr, _trace_refs)
    from repro.trace.stream import StridedStream
    _wrap_method(recorder, "trace.stream", StridedStream, "__init__",
                 _stream_refs)
    for attr in repro.workloads.__all__:
        value = getattr(repro.workloads, attr)
        if inspect.isfunction(value):
            _wrap_function(recorder, f"workloads.{attr}", value.__module__,
                           attr, _workload_refs)
    for value in vars(repro.cache).values():
        if (inspect.isclass(value) and issubclass(value, repro.cache.Cache)
                and "__init__" in value.__dict__):
            _wrap_method(recorder, "cache.build", value, "__init__")
    _wrap_function(recorder, "cache.replay", "repro.trace.replay", "replay",
                   _replay_counts)
    _wrap_function(recorder, "cache.opt", "repro.cache.belady",
                   "simulate_opt")
    for attr in ("replay_oneway", "replay_assoc", "mm_timing", "cc_timing",
                 "pair_flat", "belady_next_use", "belady_opt"):
        _wrap_function(recorder, f"kernels.{attr}", "repro.kernels", attr)
    _wrap_method(recorder, "machine.execute",
                 repro.machine.vector_machine.VectorMachine, "execute",
                 _cycles)
    _wrap_method(recorder, "machine.vcm_driver",
                 repro.machine.vcm_driver.VCMDriver, "run", _driven_cycles)
    _wrap_function(recorder, "machine.run_trace",
                   "repro.machine.trace_runner", "run_trace", _cycles)
    _wrap_function(recorder, "analytical.evaluate_points",
                   "repro.analytical.surrogate", "evaluate_points", _points)
    _wrap_function(recorder, "analytical.evaluate_grid",
                   "repro.analytical.surrogate", "evaluate_grid",
                   _grid_points)
    for module in (repro.analytical.cc, repro.analytical.mm,
                   repro.analytical.set_assoc):
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr in ("cycles_per_result", "element_time"):
                if attr in cls.__dict__:
                    _wrap_method(recorder, f"analytical.{attr}", cls, attr,
                                 _one_point)
    for family, module_name in FAMILIES.items():
        module = importlib.import_module(module_name)
        for attr in module.__all__:
            if inspect.isfunction(getattr(module, attr)):
                _wrap_function(recorder, f"experiments.{family}",
                               module_name, attr)
    _wrap_function(recorder, "experiments.extensions",
                   "repro.orchestrate.writers", "join_figures")
    _wrap_fingerprints(recorder)
    store_cls = repro.orchestrate.ResultStore
    _wrap_method(recorder, "orchestrate.store.load", store_cls, "load",
                 _store_bytes)
    _wrap_method(recorder, "orchestrate.store.save", store_cls, "save",
                 _saved_bytes)
    _wrap_method(recorder, "orchestrate.runner", repro.orchestrate.Runner,
                 "run")
    _wrap_function(recorder, "orchestrate.execute",
                   "repro.orchestrate.runner", "_execute")
    _wrap_function(recorder, "serve.normalise", "repro.serve.protocol",
                   "normalise")
    service_cls = repro.serve.service.JobService
    _wrap_method(recorder, "serve.plan", service_cls, "plan")
    _wrap_method(recorder, "serve.resolve", service_cls, "resolve")
    _wrap_function(recorder, "serve.jsonable", "repro.serve.app", "jsonable")
    for attr in repro.serve.queries.__all__:
        _wrap_function(recorder, "serve.queries", "repro.serve.queries",
                       attr)
    _wrap_dispatch(recorder)

    directory = Path(directory)
    atexit.register(recorder.dump, directory)

    def in_child(rec: Recorder) -> None:
        # a forked pool worker: keep only its own spans and write them
        # when the worker process exits
        rec.reset("worker")
        multiprocessing.util.Finalize(None, rec.dump, args=(directory,),
                                      exitpriority=100)

    multiprocessing.util.register_after_fork(recorder, in_child)
    return recorder


# -- aggregation ------------------------------------------------------------


def _load(directory: Path) -> list[dict]:
    """Every span of the run, flattened, with tier and in-file parent."""
    spans: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        offset = len(spans)
        for name, start, end, parent, tid, attrs in payload["spans"]:
            tier = _TIERS[(payload["role"], tid == payload["main_tid"])]
            # a span still open at exit counts as empty
            spans.append({"name": name, "start": start,
                          "end": max(start, end),
                          "parent": parent + offset if parent >= 0 else -1,
                          "tier": tier, "attrs": attrs or {}})
    return spans


def _assign_depths(spans: list[dict]) -> None:
    """Depth of each span; a thread's root nests in a lower tier's span.

    Within one thread the parent is explicit.  A root span on a higher
    tier (a daemon thread, a pool worker) takes as parent the latest
    started lower-tier span that contains it in time: with one
    closed-loop client, that is the request or dispatch that caused it.
    """
    by_tier: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_tier.setdefault(span["tier"], []).append(index)
    for indices in by_tier.values():
        indices.sort(key=lambda i: spans[i]["start"])
    starts = {tier: [spans[i]["start"] for i in indices]
              for tier, indices in by_tier.items()}
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tier"], spans[i]["start"]))
    for index in order:
        span = spans[index]
        parent = span["parent"]
        if parent >= 0:
            span["depth"] = spans[parent].get("depth", 0) + 1
            continue
        span["depth"] = 0
        for tier in sorted(by_tier, reverse=True):
            if tier >= span["tier"]:
                continue
            candidates = by_tier[tier]
            position = bisect.bisect_right(starts[tier], span["start"])
            for k in range(position - 1, max(-1, position - 65), -1):
                outer = spans[candidates[k]]
                if outer["end"] >= span["end"]:
                    span["depth"] = outer["depth"] + 1
                    break
            else:
                continue
            break


def _self_times(spans: list[dict], t0: int,
                t1: int) -> tuple[list[float], float]:
    """Per-span self seconds inside ``[t0, t1]``, by timeline sweep, and
    the seconds of the window when no span is open."""
    events = []
    for index, span in enumerate(spans):
        start, end = max(span["start"], t0), min(span["end"], t1)
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    self_ns = [0.0] * len(spans)
    idle_ns = 0
    active: dict[int, set[int]] = {}
    previous = t0
    for moment, kind, index in events:
        if not active:
            idle_ns += moment - previous
        elif moment > previous:
            deepest = active[max(active)]
            share = (moment - previous) / len(deepest)
            for open_index in deepest:
                self_ns[open_index] += share
        previous = moment
        depth = spans[index]["depth"]
        if kind:
            active.setdefault(depth, set()).add(index)
        else:
            group = active[depth]
            group.discard(index)
            if not group:
                del active[depth]
    idle_ns += t1 - previous
    return [value / 1e9 for value in self_ns], idle_ns / 1e9


def _union_s(intervals, t0: int, t1: int) -> float:
    """Length of the union of ``(start, end)`` intervals within the window."""
    total = 0
    current_start = current_end = None
    for start, end in sorted((max(s, t0), min(e, t1)) for s, e in intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total / 1e9


def _outermost_in_layer(spans: list[dict], index: int) -> bool:
    layer = spans[index]["name"].split(".", 1)[0]
    parent = spans[index]["parent"]
    while parent >= 0:
        if spans[parent]["name"].split(".", 1)[0] == layer:
            return False
        parent = spans[parent]["parent"]
    return True


def layer_metrics(directory: Path, t0: int, t1: int) -> dict[str, float]:
    """Per-layer metrics of the spans written to ``directory``.

    ``[t0, t1]`` (``perf_counter_ns``) is the timed window; span time
    outside it is clipped, and counts come from spans that started in it.
    """
    spans = _load(directory)
    _assign_depths(spans)
    self_s, idle_s = _self_times(spans, t0, t1)
    metrics: dict[str, float] = {"traced_wall_s": (t1 - t0) / 1e9,
                                 "unattributed_s": idle_s}

    def layer_of(span):
        return span["name"].split(".", 1)[0]

    def busy(predicate) -> float:
        return _union_s(((s["start"], s["end"]) for s in spans
                         if predicate(s)), t0, t1)

    def self_of(predicate) -> float:
        return sum(value for span, value in zip(spans, self_s)
                   if predicate(span))

    counted = [span for index, span in enumerate(spans)
               if t0 <= span["start"] <= t1
               and _outermost_in_layer(spans, index)]

    def total(layer: str, attr: str, predicate=lambda s: True) -> int:
        return sum(span["attrs"].get(attr, 0) for span in counted
                   if layer_of(span) == layer and predicate(span))

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_of(
            lambda s, layer=layer: layer_of(s) == layer)

    for layer in ("trace", "workloads"):
        metrics[f"{layer}.refs"] = total(layer, "refs")
        metrics[f"{layer}.busy_s"] = busy(
            lambda s, layer=layer: layer_of(s) == layer)

    def is_replay(span):
        return span["name"] == "cache.replay"

    metrics["cache.refs"] = total("cache", "refs")
    metrics["cache.hits"] = total("cache", "hits")
    metrics["cache.misses"] = total("cache", "misses")
    metrics["cache.busy_s"] = busy(lambda s: layer_of(s) == "cache")
    metrics["cache.classified.busy_s"] = busy(
        lambda s: is_replay(s) and s["attrs"].get("classified"))
    metrics["cache.unclassified.busy_s"] = busy(
        lambda s: is_replay(s) and s["attrs"].get("classified") is False)
    for org in ORGS:
        org_busy = busy(lambda s, org=org: is_replay(s)
                        and s["attrs"].get("org") == org)
        org_refs = total("cache", "refs",
                         lambda s, org=org: s["attrs"].get("org") == org)
        metrics[f"cache.{org}.busy_s"] = org_busy
        metrics[f"cache.{org}.refs_per_s"] = (
            org_refs / org_busy if org_busy else 0.0)

    metrics["kernels.calls"] = sum(
        1 for span in counted if layer_of(span) == "kernels")
    metrics["kernels.busy_s"] = busy(lambda s: layer_of(s) == "kernels")

    machine_busy = busy(lambda s: layer_of(s) == "machine")
    cycles = total("machine", "cycles")
    metrics["machine.runs"] = sum(
        1 for span in counted if layer_of(span) == "machine")
    metrics["machine.sim_cycles"] = cycles
    metrics["machine.busy_s"] = machine_busy
    metrics["machine.sim_cycles_per_s"] = (
        cycles / machine_busy if machine_busy else 0.0)

    metrics["analytical.points"] = total("analytical", "points")
    metrics["analytical.busy_s"] = busy(lambda s: layer_of(s) == "analytical")

    for family in FAMILIES:
        metrics[f"experiments.{family}.busy_s"] = busy(
            lambda s, family=family: s["name"] == f"experiments.{family}")

    def named(name):
        return lambda s: s["name"] == name

    metrics["orchestrate.fingerprint.files"] = sum(
        span["attrs"].get("files", 0) for span in spans
        if span["name"] == "orchestrate.fingerprint"
        and t0 <= span["start"] <= t1)
    metrics["orchestrate.fingerprint.busy_s"] = busy(
        named("orchestrate.fingerprint"))
    for op, count_name, time_name, bytes_name in (
            ("load", "loads", "load_s", "bytes_read"),
            ("save", "saves", "save_s", "bytes_written")):
        name = f"orchestrate.store.{op}"
        metrics[f"orchestrate.store.{count_name}"] = sum(
            1 for span in spans if span["name"] == name
            and t0 <= span["start"] <= t1)
        metrics[f"orchestrate.store.{time_name}"] = busy(named(name))
        metrics[f"orchestrate.store.{bytes_name}"] = sum(
            span["attrs"].get("bytes", 0) for span in spans
            if span["name"] == name and t0 <= span["start"] <= t1)
    metrics["orchestrate.runner.self_s"] = self_of(named("orchestrate.runner"))

    for metric, name in (("serve.normalise_s", "serve.normalise"),
                         ("serve.plan_s", "serve.plan"),
                         ("serve.resolve_s", "serve.resolve"),
                         ("serve.jsonable_s", "serve.jsonable"),
                         ("serve.queries_s", "serve.queries"),
                         ("serve.dispatch_s", "serve.dispatch"),
                         ("serve.http.self_s", "serve.http")):
        metrics[metric] = self_of(named(name))
    return metrics
