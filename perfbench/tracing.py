"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the program's layers
at the binding their callers actually use (a module global another
module imported, a class attribute, an attribute of the kernel-backend
object, an entry of the ``ALGORITHMS`` dispatch dict) and records one
span per call: name, start, end and parent.  Spans are kept in compact
arrays in memory and written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed per span name into the current
*bucket* (the benchmark switches buckets between operation kinds), so
per-layer figures for, say, a resident engine call and a streamed one
never mix.  Because spans nest strictly (one client thread), the self
times of every span under a root add up exactly to the root's
duration; ``max_gap_ns`` records any deviation from that identity.

Counts are recorded at the same boundaries: kernel calls with the
bytes of the arrays they were passed and returned, and schedule steps
produced by the scheduler simulation.
"""

from __future__ import annotations

import time
import types
from array import array

import numpy as np

#: Beyond this many spans the tracer keeps aggregating self times but
#: stops storing individual span records (bounds memory on serving
#: workloads that issue tens of thousands of requests).
MAX_SPANS = 2_000_000


class Tracer:
    """Span recorder plus the patch table that installs it."""

    def __init__(self) -> None:
        self.names: list[str] = []      # span labels, e.g. "kernel.pull_block"
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("l")
        self.dropped = 0
        self.max_gap_ns = 0
        self._stack: list[list[int]] = []
        self._root_self = 0
        self._patches: list[tuple] = []
        self.buckets: dict[str, dict] = {}
        self.set_bucket("default")

    # -- aggregation -------------------------------------------------

    def set_bucket(self, bucket: str) -> None:
        """Attribute subsequent self times and counts to ``bucket``."""
        agg = self.buckets.get(bucket)
        if agg is None:
            agg = {"self_ns": [0] * len(self.names),
                   "calls": [0] * len(self.names),
                   "counts": {}}
            self.buckets[bucket] = agg
        self._agg = agg

    def count(self, key: str, amount: int) -> None:
        counts = self._agg["counts"]
        counts[key] = counts.get(key, 0) + amount

    def self_ms(self, bucket: str, *, layer: str | None = None,
                prefix: str | None = None) -> float:
        """Total self time (ms) of the matching spans in ``bucket``."""
        agg = self.buckets.get(bucket)
        if agg is None:
            return 0.0
        total = 0
        for i, ns in enumerate(agg["self_ns"]):
            if layer is not None and self.layers[i] != layer:
                continue
            if prefix is not None and not self.names[i].startswith(prefix):
                continue
            total += ns
        return total / 1e6

    def calls(self, bucket: str, prefix: str) -> int:
        """Calls of the spans whose label starts with ``prefix``."""
        agg = self.buckets.get(bucket)
        if agg is None:
            return 0
        return sum(c for i, c in enumerate(agg["calls"])
                   if self.names[i].startswith(prefix))

    def counted(self, bucket: str, key: str) -> int:
        agg = self.buckets.get(bucket)
        return 0 if agg is None else agg["counts"].get(key, 0)

    # -- span recording ----------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        nid = self._ids.get((name, layer))
        if nid is not None:      # re-installed after a restore
            return nid
        self._ids[(name, layer)] = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        for agg in self.buckets.values():
            agg["self_ns"].append(0)
            agg["calls"].append(0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int, after=None):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(tracer.start) < MAX_SPANS:
                idx = len(tracer.start)
                tracer.start.append(0)
                tracer.end.append(0)
                tracer.parent.append(parent)
                tracer.name_id.append(nid)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns = dur - frame[1]
                agg = tracer._agg
                agg["self_ns"][nid] += self_ns
                agg["calls"][nid] += 1
                if idx >= 0:
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                tracer._root_self += self_ns
                if stack:
                    stack[-1][1] += dur
                else:
                    gap = abs(tracer._root_self - dur)
                    if gap > tracer.max_gap_ns:
                        tracer.max_gap_ns = gap
                    tracer._root_self = 0
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------

    def patch(self, owner, attr, layer: str, name: str | None = None,
              after=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        traced wrapper; :meth:`restore` undoes every patch."""
        label = name or attr
        nid = self._register(label, layer)
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self._wrap(original, nid, after)
            self._patches.append(("item", owner, attr, original))
        elif isinstance(owner, types.ModuleType):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, nid, after))
            self._patches.append(("attr", owner, attr, original))
        elif isinstance(owner, type):
            own = attr in owner.__dict__
            raw = next(k.__dict__[attr] for k in owner.__mro__
                       if attr in k.__dict__)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, nid, after))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, nid, after))
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, nid, after))
            else:
                new = self._wrap(raw, nid, after)
            setattr(owner, attr, new)
            self._patches.append(("class", owner, attr, raw if own else None))
        else:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, nid, after))
            self._patches.append(("inst", owner, attr,
                                  vars(owner)[attr] if own else None))

    def restore(self) -> None:
        for kind, owner, attr, original in reversed(self._patches):
            if kind == "item":
                owner[attr] = original
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------

    def write(self, path) -> None:
        """Write every stored span (name, layer, start, end, parent)."""
        np.savez(path,
                 names=np.array(self.names), layers=np.array(self.layers),
                 name_id=np.frombuffer(self.name_id, dtype=np.int_),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _array_bytes(v)
    return total


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every measured layer.

    Layers are the program's modules: ``graph``, ``core``,
    ``core.backends``, ``parallel``, ``instrument``, ``storage``,
    ``incremental`` and ``service`` (split into executor, planner,
    cache, registry and metrics).  ``api`` (the front door) and
    ``baselines`` (the union-find algorithms the serving workloads
    route to) are wrapped too, so every span of a traced call belongs
    to some layer.
    """
    import repro
    import repro.api as api
    import repro.core.thrifty as thrifty
    import repro.core.engine as engine
    import repro.service.executor as executor
    import repro.service.registry as registry
    from repro.core.backends import get_backend
    from repro.graph.csr import CSRGraph
    from repro.instrument.costmodel import CostModel
    from repro.parallel.frontier import AdaptiveFrontier, CountOnlyFrontier
    from repro.parallel.partition import Partitioning
    from repro.parallel.scheduler import WorkStealingScheduler
    from repro.parallel.worklist import LocalWorklists
    from repro.service.cache import ResultCache
    from repro.service.metrics import ServiceMetrics
    from repro.storage.blocked import BlockedGraph, BlockedReader, _LazyIndices
    from repro.storage.cache import BlockCache

    t = tracer
    # The benchmark calls the front door as repro.connected_components.
    t.patch(repro, "connected_components", "api")
    for method, fn in list(api.ALGORITHMS.items()):
        module = fn.__module__
        layer = ("core" if module.startswith("repro.core")
                 else "baselines" if module.startswith("repro.baselines")
                 else "api")
        t.patch(api.ALGORITHMS, method, layer, f"algorithm.{method}")
    t.patch(thrifty, "label_propagation_cc", "core")

    # Kernels: the engine and the union-find algorithms call them as
    # attributes of the backend object get_backend() returns.
    backend = get_backend()
    kernel_names = [k for k in vars(type(backend))
                    if not k.startswith("_") and callable(getattr(backend, k))]

    def kernel_counts(args, out):
        t.count("kernel.bytes", _array_bytes(args) + _array_bytes((out,)))

    for k in kernel_names:
        t.patch(backend, k, "core.backends", f"kernel.{k}",
                after=kernel_counts)

    def sched_counts(args, out):
        t.count("sched.steps", len(out))

    t.patch(WorkStealingScheduler, "schedule", "parallel", "sched.schedule",
            after=sched_counts)
    for m in ("makespan", "partition_order"):
        t.patch(WorkStealingScheduler, m, "parallel", f"sched.{m}")
    for m in ("__init__", "full", "set_many", "add", "remove", "vertices",
              "density", "clear"):
        t.patch(AdaptiveFrontier, m, "parallel", f"frontier.adaptive.{m}")
    for m in ("add", "density", "reset"):
        t.patch(CountOnlyFrontier, m, "parallel", f"frontier.count.{m}")
    for m in ("__init__", "push_batch", "drain_order"):
        t.patch(LocalWorklists, m, "parallel", f"frontier.worklist.{m}")
    t.patch(engine, "edge_balanced_partitions", "parallel",
            "partition.edge_balanced")
    for m in ("partition_of", "edge_counts"):
        t.patch(Partitioning, m, "parallel", f"partition.{m}")

    for m in ("open", "close", "intra_block_groups", "iter_index_blocks",
              "io_snapshot", "io_record", "edge_sources", "degrees",
              "max_degree_vertex"):
        t.patch(BlockedGraph, m, "storage", f"blocked.{m}")
    t.patch(_LazyIndices, "__getitem__", "storage", "blocked.indices")
    t.patch(BlockCache, "fetch", "storage", "cache.fetch")
    for m in ("read_block", "read_span", "read_indptr"):
        t.patch(BlockedReader, m, "storage", f"reader.{m}")

    t.patch(CSRGraph, "from_edge_list", "graph", "csr.from_edge_list")
    for m in ("edge_sources", "to_edge_list"):
        t.patch(CSRGraph, m, "graph", f"csr.{m}")
    t.patch(registry, "insert_edges", "graph", "mutate.insert_edges")
    t.patch(registry, "remove_edges", "graph", "mutate.remove_edges")

    for m in ("__init__", "run_ms", "iteration_ms"):
        t.patch(CostModel, m, "instrument", f"costmodel.{m}")
    t.patch(executor, "simulate_run_time", "instrument",
            "costmodel.simulate_run_time")

    t.patch(executor, "delta_update", "incremental", "delta.delta_update")
    t.patch(executor, "hub_stable", "incremental", "delta.hub_stable")

    for m in ("submit", "mutate", "register"):
        t.patch(executor.CCService, m, "service.executor", f"executor.{m}")
    for f in ("plan", "replan", "runner_up", "predicted_method_ms",
              "predict_delta_ms", "method_family"):
        t.patch(executor, f, "service.planner", f"planner.{f}")
    t.patch(executor, "result_cache_key", "service.cache", "cache.key")
    for m in ("get", "peek", "touch", "put", "invalidate",
              "invalidate_fingerprint"):
        t.patch(ResultCache, m, "service.cache", f"cache.{m}")
    for m in ("register", "get", "mutate", "fingerprint_of", "drain_stale"):
        t.patch(registry.GraphRegistry, m, "service.registry",
                f"registry.{m}")
    t.patch(registry, "graph_fingerprint", "service.registry",
            "registry.fingerprint")
    t.patch(registry, "probe_graph", "service.registry", "registry.probe")
    for m in ("record_request", "record_rejection", "record_invalidations",
              "record_prediction", "record_route_flip", "record_exploration"):
        t.patch(ServiceMetrics, m, "service.metrics", f"metrics.{m}")
