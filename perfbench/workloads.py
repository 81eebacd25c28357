"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` (graph
generation, packing, registration, cache warming — everything a user
pays before the first measured call), then runs whole ``round``\\ s of
the same operations from one client thread in a closed loop.  Every
operation's start and end are taken with ``time.perf_counter`` around
the public call only and scaled to the reference host afterwards
(:mod:`hostspeed`); outputs are kept and checked by :mod:`oracle` after
the loop.

Primary and auxiliary operations, per workload:

============  ==============================  ================================
workload      primary call (``call_*``)        auxiliary call (``aux_ms``)
============  ==============================  ================================
skewed        resident Thrifty on RMAT-17/16   Thrifty streamed from .rbcsr
road          resident Thrifty on GBRd         resident Afforest on GBRd (x20)
serve-mutate  ``CCService.submit`` (Zipf)      ``CCService.mutate`` (64 edges)
============  ==============================  ================================
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

import oracle
import repro
from repro.graph import rmat_graph
from repro.graph.datasets import DATASETS
from repro.instrument.costmodel import simulate_run_time
from repro.parallel.machine import SKYLAKEX
from repro.service import CCService
from repro.service.executor import CCRequest
from repro.storage import BlockedGraph, write_blocked

#: Share of the edge array the streamed runs may keep resident.
BUDGET_SHARE = 0.20
#: Zipf exponent of the request popularity on ``serve-mutate``.
ZIPF_S = 1.1
REQUESTS_PER_ROUND = 10
#: Afforest calls after each resident Thrifty call on ``road``.
AFFOREST_CALLS = 20
MUTATION_EDGES = 64


def _zipf_stream(rng: np.random.Generator, k: int, size: int) -> np.ndarray:
    p = 1.0 / np.arange(1, k + 1) ** ZIPF_S
    return rng.choice(k, size=size, p=p / p.sum())


class Spans:
    """Start and end (perf_counter s) of each call, kept as two flat
    arrays so that recording a call costs 16 bytes and no object.  They
    are scaled to the reference host afterwards (see ``hostspeed``)."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")

    def append(self, span: tuple[float, float]) -> None:
        self.starts.append(span[0])
        self.ends.append(span[1])

    def __len__(self) -> int:
        return len(self.starts)


class Measures:
    """What one measuring phase recorded (a traced run keeps two)."""

    def __init__(self) -> None:
        self.primary = Spans()   # primary calls
        self.aux = Spans()       # auxiliary calls
        self.hits = 0
        self.delta_hits = 0
        self.sim_ms = 0.0


class State:
    """Inputs plus everything a run measured; one per set-up."""

    def __init__(self, clock) -> None:
        self.m = Measures()
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.rounds_done = 0
        self.peak_rss_mb = None   # taken after ``rss_rounds`` rounds
        self.setup_parts: dict[str, float] = {}


class EngineWorkload:
    """Resident Thrifty on one graph, then either Thrifty streamed from
    the graph's ``.rbcsr`` file (``skewed``) or ``AFFOREST_CALLS``
    resident Afforest calls, the union-find baseline (``road``)."""

    #: Peak RSS is read after this many rounds: an engine call's working
    #: memory is the same in every round.
    rss_rounds = 2

    def __init__(self, name: str, build, *, streamed: bool) -> None:
        self.name = name
        self._build = build
        self.streamed = streamed

    def setup(self, seed: int, workdir: Path, clock) -> State:
        st = State(clock)
        t0 = _clock()
        g = self._build(seed)
        st.setup_parts["graph.build_s"] = _clock() - t0
        st.graph = g
        st.resident = []          # first result in full, then summaries
        st.streamed = []
        st.afforest = []          # first labels, then any that differ
        if self.streamed:
            clock.probe()
            st.budget = max(1, int(BUDGET_SHARE * g.indices.nbytes))
            st.path = workdir / f"{self.name}.rbcsr"
            t0 = _clock()
            # Blocks sized so at least eight fit in the budget, the rule
            # the engine itself applies when it spools a resident graph.
            write_blocked(g, st.path, edges_per_block=max(
                1, st.budget // (8 * g.indices.dtype.itemsize)))
            st.setup_parts["storage.write_ms"] = (_clock() - t0) * 1e3
        return st

    @staticmethod
    def _resident(st: State):
        t0 = _clock()
        r = repro.connected_components(st.graph, "thrifty")
        return (t0, _clock()), r

    @staticmethod
    def _streamed(st: State):
        t0 = _clock()
        bg = BlockedGraph.open(st.path, resident_bytes=st.budget)
        try:
            r = repro.connected_components(bg, "thrifty")
        finally:
            bg.close()
        return (t0, _clock()), r

    @staticmethod
    def _afforest(st: State):
        t0 = _clock()
        r = repro.connected_components(st.graph, "afforest")
        return (t0, _clock()), r

    def round(self, st: State, tracer=None) -> None:
        ops = [(self._resident, st.m.primary, st.resident, "primary")]
        if self.streamed:
            ops.append((self._streamed, st.m.aux, st.streamed, "aux"))
        else:
            ops += [(self._afforest, st.m.aux, st.afforest, "aux")] \
                * AFFOREST_CALLS
        for op, samples, runs, bucket in ops:
            st.clock.maybe_probe()
            if tracer is not None:
                tracer.set_bucket(bucket)
            st.attempted += 1
            span, r = op(st)
            samples.append(span)
            if runs is st.afforest:
                # Labels only, and only those that differ from the first.
                if not runs or not np.array_equal(r.labels, runs[0]):
                    runs.append(r.labels)
                continue
            # The first resident result keeps its trace (for sim_ms); the
            # rest keep only what the checks read.
            runs.append(r if runs is st.resident and not runs
                        else _Summary(r))

    def check(self, st: State) -> list[str]:
        g = st.graph
        src, dst = oracle.csr_edges(g.indptr, g.indices)
        ref = oracle.reference_labels(src, dst, g.num_vertices)
        first = st.resident[0]
        problems = oracle.label_problems(first.labels, src, dst, ref)
        if not oracle.corruption_detected(first.labels, src, dst, ref):
            problems.append("oracle accepted a corrupted label array")
        want = _Summary(first)
        for r in st.resident[1:]:
            if not np.array_equal(r.labels, first.labels):
                problems += oracle.label_problems(r.labels, src, dst, ref)
            if r.exact != want.exact:
                problems.append(f"resident counters changed: {r.exact}")
        for r in st.streamed:
            if not np.array_equal(r.labels, first.labels):
                problems.append("streamed labels differ from resident run")
            if r.exact != want.exact:
                problems.append(f"streamed counters differ: {r.exact}")
            io = r.extras["io"]
            if io["peak_resident_bytes"] > st.budget:
                problems.append(f"peak resident {io['peak_resident_bytes']} "
                                f"> budget {st.budget}")
        for labels in st.afforest:
            problems += [f"afforest: {p}" for p in
                         oracle.label_problems(labels, src, dst, ref)]
        return problems

    def aux_ms(self, st: State) -> float:
        return _median_ms(st.m.aux, st.clock)

    def layer_counts(self, st: State) -> dict:
        first = _Summary(st.resident[0])
        counts = {
            "sim_ms": simulate_run_time(st.resident[0].trace, SKYLAKEX,
                                        st.graph.num_vertices).total_ms,
            "scipy_ms": oracle.scipy_ms(st.graph.indptr, st.graph.indices),
            "engine.iterations": first.exact[0],
            "engine.edges_processed": first.exact[1],
        }
        if st.streamed:
            io = st.streamed[-1].extras["io"]
            counts.update({
                "storage.blocks_read": io["blocks_read"],
                "storage.blocks_reread": io["blocks_reread"],
                "storage.bytes_read": io["bytes_read"],
                "storage.peak_resident_bytes": io["peak_resident_bytes"],
            })
        return counts


class _Summary:
    """What the checks need of a result after its trace is dropped."""

    def __init__(self, result) -> None:
        self.labels = result.labels
        self.extras = result.extras
        self.exact = (result.num_iterations,
                      result.counters().edges_processed)


def _rmat17(seed: int):
    return rmat_graph(17, 16, seed=seed)


def _dataset(name: str):
    """Build a Table II surrogate afresh (``repro.graph.load`` memoizes,
    which would hide the build cost from every set-up after the first).

    The surrogates are fixed datasets: the workload seed does not change
    them.  For GBRd that is deliberate: the row of its highest-degree
    vertex, where Thrifty plants label zero, sets the iteration count,
    and re-drawing the recipe seed moves it from 33 to 363 iterations
    (2.2 s to 8.5 s a call), which would swamp any bound.
    """
    return DATASETS[name].build(1.0)


class ServeWorkload:
    """Closed-loop afforest requests through ``CCService.submit`` with a
    ``CCService.mutate`` after every ``REQUESTS_PER_ROUND`` of them."""

    name = "serve-mutate"
    method = "afforest"
    graphs = ("Pkc", "WWiki", "LJLnks", "GBRd")
    #: Peak RSS is read after this many rounds (about a third of a
    #: 20-second run).  Every mutation grows the registry for good, so a
    #: peak taken at the end of the run would grow with the host's speed.
    rss_rounds = 250

    def setup(self, seed: int, workdir: Path, clock) -> State:
        st = State(clock)
        t0 = _clock()
        graphs = [(name, _dataset(name)) for name in self.graphs]
        st.setup_parts["graph.build_s"] = _clock() - t0
        st.names = [name for name, _ in graphs]
        st.sizes = [g.num_vertices for _, g in graphs]
        st.svc = CCService()
        st.versions = []          # per graph: fingerprint of each version
        st.edges = []             # per graph: the benchmark's own edge list
        st.batches = []           # per graph: batches sent through mutate
        st.cold_sim_ms = 0.0
        for name, g in graphs:
            entry = st.svc.register(g, name=name)
            st.versions.append([entry.fingerprint])
            st.edges.append(oracle.csr_edges(g.indptr.copy(),
                                             g.indices.copy()))
            st.batches.append([])
            clock.maybe_probe()
            resp = st.svc.submit(CCRequest(key=name, method=self.method))
            st.cold_sim_ms += resp.simulated_ms
        st.stream = _zipf_stream(np.random.default_rng([seed, 2]),
                                 len(graphs), 1 << 14)
        st.mut_rng = np.random.default_rng([seed, 3])
        st.cursor = 0
        st.rounds = 0
        st.served = {}            # (graph, version, id(labels)) -> labels
        st.fingerprints = {}      # same key -> fingerprints served
        return st

    def round(self, st: State, tracer=None) -> None:
        svc = st.svc
        if tracer is not None:
            tracer.set_bucket("primary")
        for _ in range(REQUESTS_PER_ROUND):
            gi = int(st.stream[st.cursor % st.stream.size])
            st.cursor += 1
            st.attempted += 1
            t0 = _clock()
            resp = svc.submit(CCRequest(key=st.names[gi], method=self.method))
            st.m.primary.append((t0, _clock()))
            if resp.status != "ok":
                st.failed += 1
                continue
            key = (gi, len(st.versions[gi]) - 1, id(resp.result.labels))
            st.served[key] = resp.result.labels
            st.fingerprints.setdefault(key, set()).add(resp.fingerprint)
            st.m.hits += resp.cache_hit
            st.m.delta_hits += resp.delta_hit
            st.m.sim_ms += resp.simulated_ms
        gi = st.rounds % len(st.names)
        batch = st.mut_rng.integers(0, st.sizes[gi], size=(2, MUTATION_EDGES))
        if tracer is not None:
            tracer.set_bucket("aux")
        st.attempted += 1
        t0 = _clock()
        entry = svc.mutate(st.names[gi], insert=(batch[0], batch[1]))
        st.m.aux.append((t0, _clock()))
        st.versions[gi].append(entry.fingerprint)
        st.batches[gi].append(batch)
        st.rounds += 1

    def check(self, st: State) -> list[str]:
        """Every served label array against scipy on the version it was
        served for, rebuilt from the benchmark's own edge list plus the
        batches it sent (versions in order, so only one is held)."""
        problems = []
        if not st.served:
            problems.append("no request was served")
        corrupt_tested = False
        by_version: dict[tuple[int, int], list] = {}
        for key, labels in st.served.items():
            by_version.setdefault(key[:2], []).append((key, labels))
        for gi, name in enumerate(st.names):
            src, dst = st.edges[gi]
            have = 0
            for v in sorted(v for g, v in by_version if g == gi):
                if v > have:
                    extra = np.concatenate(st.batches[gi][have:v], axis=1)
                    src = np.concatenate((src, extra[0]))
                    dst = np.concatenate((dst, extra[1]))
                    have = v
                ref = oracle.reference_labels(src, dst, st.sizes[gi])
                for key, labels in by_version[(gi, v)]:
                    if st.fingerprints[key] != {st.versions[gi][v]}:
                        problems.append(f"{name} v{v} served for "
                                        f"{st.fingerprints[key]}")
                    problems += [f"{name} v{v}: {p}" for p in
                                 oracle.label_problems(labels, src, dst, ref)]
                    if not corrupt_tested:
                        corrupt_tested = True
                        if not oracle.corruption_detected(labels, src, dst,
                                                          ref):
                            problems.append("oracle accepted a corrupted "
                                            "label array")
        return problems

    def aux_ms(self, st: State) -> float:
        return _median_ms(st.m.aux, st.clock)

    def layer_counts(self, st: State) -> dict:
        served = max(1, len(st.m.primary))
        return {"sim_ms": st.cold_sim_ms,
                "service.cache_hit_ratio": st.m.hits / served,
                "executor.sim_clock_ms": st.m.sim_ms / served,
                "incremental.delta_hits": st.m.delta_hits / max(1, len(st.m.aux))}


def seconds(spans: Spans, clock) -> np.ndarray:
    """Durations of ``spans`` in reference-host seconds."""
    return clock.normalised(np.frombuffer(spans.starts),
                            np.frombuffer(spans.ends))


def _median_ms(spans: Spans, clock) -> float:
    return float(np.median(seconds(spans, clock))) * 1e3


WORKLOADS = {
    "skewed": EngineWorkload("skewed", _rmat17, streamed=True),
    "road": EngineWorkload("road", lambda seed: _dataset("GBRd"),
                           streamed=False),
    "serve-mutate": ServeWorkload(),
}
