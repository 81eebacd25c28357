"""Wall-clock benchmark of the LP engine, the out-of-core tier and the
serving path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skewed --seed 1 --seconds 20 --trace 0

Runs one workload in this process: builds its inputs from ``--seed``
(timed as set-up, repeated at least ``SETUPS`` times and for at least
``SETUP_MIN_S`` seconds), runs whole rounds of its operations for
``--seconds`` from one client thread, checks every output against scipy
(see ``oracle.py``), and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every reported time is scaled to a reference host speed measured by
probes between operations (``hostspeed.py``), because the shared host
this runs on changes speed from one second to the next.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced slices with slices run under the span tracer (``tracing.py``)
and reports the per-layer metrics of the traced slices plus the
tracing overhead (traced minus untraced median primary call).
The spans of a traced run are written to
``.perfbench/trace-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run sets up at least ``SETUPS`` times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median set-up.
SETUPS = 3
SETUP_MIN_S = 3.0
#: Least length of one untraced or traced slice of a traced run.
SLICE_S = 1.0

def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _loop(workload, st, seconds: float, tracer=None) -> tuple[float, float]:
    """Run whole rounds until ``seconds`` have passed, probing the host
    between rounds; returns the loop's (start, end)."""
    st.clock.probe()
    t0 = time.perf_counter()
    while True:
        st.clock.maybe_probe()
        try:
            workload.round(st, tracer)
        except Exception:
            # A round that raises counts as one failed operation.
            traceback.print_exc(file=sys.stderr)
            st.failed += 1
        st.rounds_done += 1
        if st.rounds_done == workload.rss_rounds:
            st.peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() - t0 >= seconds:
            t1 = time.perf_counter()
            st.clock.probe()
            return t0, t1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tail(samples) -> float:
    """The 95th percentile when at least 200 calls were measured (ten or
    more beyond it), else the median: with a handful of calls a high
    percentile is only the slowest call, not a tail."""
    if len(samples) >= 200:
        return float(np.quantile(samples, 0.95, method="weibull"))
    return float(np.median(samples))


def _per_layer(workload, st, tracer, untraced_call_s: float,
               traced_call_s: float, setup_parts: list[dict]) -> dict:
    t = tracer
    n_p = max(1, len(st.m.primary))
    n_a = max(1, len(st.m.aux))

    def per_p(**match) -> float:      # self ms per primary call
        return t.self_ms("primary", **match) / n_p

    def both(**match) -> float:       # self ms over both operation kinds
        return t.self_ms("primary", **match) + t.self_ms("aux", **match)

    delta_calls = t.calls("primary", "delta.delta_update") \
        + t.calls("aux", "delta.delta_update")
    out = {
        "scipy_ms": 0.0,
        "engine.self_ms": per_p(layer="core"),
        "engine.iterations": 0, "engine.edges_processed": 0,
        "kernel.ms": per_p(layer="core.backends"),
        "kernel.calls": t.calls("primary", "kernel.") / n_p,
        "kernel.bytes_computed": t.counted("primary", "kernel.bytes") / n_p,
        "sched.ms": per_p(prefix="sched."),
        "sched.calls": t.calls("primary", "sched.schedule") / n_p,
        "sched.steps": t.counted("primary", "sched.steps") / n_p,
        "frontier.ms": per_p(prefix="frontier."),
        "storage.fetch_ms": t.self_ms("aux", layer="storage") / n_a,
        "storage.blocks_read": 0, "storage.blocks_reread": 0,
        "storage.bytes_read": 0, "storage.peak_resident_bytes": 0,
        "storage.write_ms": _median(setup_parts, "storage.write_ms"),
        "graph.build_s": _median(setup_parts, "graph.build_s"),
        "graph.insert_ms": t.self_ms("aux", layer="graph") / n_a,
        "service.executor_self_us": per_p(layer="service.executor") * 1e3,
        "service.planner_us": per_p(layer="service.planner") * 1e3,
        "service.cache_us": per_p(layer="service.cache") * 1e3,
        "service.cache_hit_ratio": 0.0,
        "service.registry_us": per_p(layer="service.registry") * 1e3,
        "service.metrics_us": per_p(layer="service.metrics") * 1e3,
        "registry.fingerprint_ms": both(prefix="registry.fingerprint") / n_a,
        "registry.probe_ms": both(prefix="registry.probe") / n_a,
        "executor.sim_clock_ms": 0.0,
        "incremental.delta_ms": both(layer="incremental")
        / max(1, delta_calls),
        "incremental.delta_calls": delta_calls / n_a,
        "incremental.delta_hits": 0,
        "costmodel.ms": per_p(layer="instrument"),
        "trace.overhead_ms": (traced_call_s - untraced_call_s) * 1e3,
        "trace.self_time_gap_ns": t.max_gap_ns,
        "trace.spans": len(t.start) + t.dropped,
    }
    out.update(workload.layer_counts(st))
    return out


def _median(setup_parts: list[dict], key: str) -> float:
    values = [p[key] for p in setup_parts if key in p]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from hostspeed import HostClock
    from workloads import WORKLOADS, Measures, seconds

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clock = HostClock()
        setup_parts, setup_spans = [], []
        st = None
        t_setup = time.perf_counter()
        while (len(setup_spans) < SETUPS
               or time.perf_counter() - t_setup < SETUP_MIN_S):
            st = None   # free the previous set-up's inputs first
            clock.probe()
            t0 = time.perf_counter()
            st = workload.setup(args.seed, workdir, clock)
            setup_spans.append((t0, time.perf_counter()))
            setup_parts.append(st.setup_parts)
        clock.probe()

        if args.trace == 0:
            loop = _loop(workload, st, args.seconds)
            calls = seconds(st.m.primary, clock)
            metrics = {
                "setup_s": statistics.median(
                    clock.busy_seconds(*span) for span in setup_spans),
                "call_ms": float(np.median(calls)) * 1e3,
                "call_p95_ms": _tail(calls) * 1e3,
                "calls_per_s": calls.size / clock.busy_seconds(*loop),
                "aux_ms": workload.aux_ms(st),
                # Through set-up and a fixed number of rounds, so that a
                # growth per operation counts the same however fast the
                # host ran (see workloads.ServeWorkload.rss_rounds).
                "peak_rss_mb": st.peak_rss_mb or _peak_rss_mb(),
            }
            units = spec["end_to_end"]
        else:
            untraced, traced = st.m, Measures()
            tracer = tracing.Tracer()
            t0 = time.perf_counter()
            # Untraced and traced slices alternate, so drift in machine
            # speed falls on both sides of the overhead comparison.
            while time.perf_counter() - t0 < args.seconds:
                st.m = untraced
                _loop(workload, st, SLICE_S)
                st.m = traced
                tracing.install(tracer)
                try:
                    _loop(workload, st, SLICE_S, tracer)
                finally:
                    tracer.restore()
            metrics = _per_layer(workload, st, tracer,
                                 np.median(seconds(untraced.primary, clock)),
                                 np.median(seconds(traced.primary, clock)),
                                 setup_parts)
            metrics["host.probe_ms"] = clock.probe_ms()
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.npz")
            units = spec["per_layer"]
        problems = workload.check(st)
        if args.trace == 1 and tracer.max_gap_ns:
            problems.append(f"layer self times miss a traced call's wall "
                            f"time by {tracer.max_gap_ns} ns")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
