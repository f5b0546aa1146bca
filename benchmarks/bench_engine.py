"""Engine micro-benchmark: packets/s of the WiFi distance sweep.

Four configurations of the same experiment are timed:

* ``legacy``      — ``LinkSimulator.sweep`` with ``n_jobs=None``: the
  historical serial path that rebuilds the excitation frame for every
  packet.
* ``engine x1``   — the experiment engine with one worker: serial, but
  with the per-point excitation template cache.
* ``engine xN``   — the engine fanned out over ``ProcessPoolExecutor``
  workers (N = ``--jobs``, default 4).
* ``degrade+fault`` — the same sweep with one injected worker fault
  under the degrade policy (retry once): measures the overhead of the
  fault-handling layer and asserts the sweep still completes.

Engine runs also record the observability layer's per-stage PHY latency
histograms (``phy.wifi.{encode,rng,channel,decode}.seconds``) and engine
counters in the JSON record.

All three produce statistically equivalent sweeps; the engine paths are
bit-identical to each other for any worker count.  Results go to
``benchmarks/results/BENCH_engine.json`` so regressions are diffable.

Run as a script (it is not collected by pytest — the ``bench_`` prefix
keeps it out of test discovery)::

    PYTHONPATH=src python benchmarks/bench_engine.py --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

DISTANCES = (1.0, 5.0, 10.0, 18.0)
PACKETS_PER_POINT = 4
SEED = 42


def _spec():
    from repro.channel.geometry import Deployment
    from repro.sim.config import WIFI_CONFIG
    from repro.sim.engine import ExperimentSpec

    return ExperimentSpec(config=WIFI_CONFIG, deployment=Deployment.los(1.0),
                          distances_m=DISTANCES,
                          packets_per_point=PACKETS_PER_POINT, seed=SEED)


def bench_legacy():
    """Serial sweep through the pre-engine code path."""
    from repro.channel.geometry import Deployment
    from repro.sim.config import WIFI_CONFIG
    from repro.sim.linksim import LinkSimulator

    sim = LinkSimulator(WIFI_CONFIG, Deployment.los(1.0),
                        packets_per_point=PACKETS_PER_POINT, seed=SEED)
    start = time.perf_counter()
    points = sim.sweep(DISTANCES)
    wall = time.perf_counter() - start
    packets = len(DISTANCES) * PACKETS_PER_POINT
    return {"label": "legacy serial sweep", "n_jobs": None,
            "wall_time_s": wall, "packets": packets,
            "packets_per_second": packets / wall,
            "n_points": len(points)}


def bench_engine(n_jobs: int):
    from repro.sim.engine import ExperimentEngine

    result = ExperimentEngine(n_jobs=n_jobs).run(_spec())
    return {"label": f"engine x{n_jobs}", "n_jobs": n_jobs,
            "wall_time_s": result.wall_time_s,
            "packets": result.packets_simulated,
            "packets_per_second": result.packets_per_second,
            "n_points": len(result.points),
            # per-stage PHY histograms + engine counters (observability)
            "metrics": result.metrics,
            "n_failed": result.n_failed}


def bench_degrade_with_fault(n_jobs: int):
    """Resilience check: one injected worker fault, retried once.

    The sweep must complete with zero failed points and exactly one
    retry on the engine counters — regressions in the fault-handling
    path show up here as either a lost point or a changed retry count.
    """
    from repro.sim.engine import ExperimentEngine, FailurePolicy, FaultInjector

    engine = ExperimentEngine(
        n_jobs=n_jobs,
        failure_policy=FailurePolicy.degrade_policy(max_attempts=2),
        fault_injector=FaultInjector(fail={0: 1}))
    result = engine.run(_spec())
    counters = result.metrics.get("counters", {})
    return {"label": f"degrade+fault x{n_jobs}", "n_jobs": n_jobs,
            "wall_time_s": result.wall_time_s,
            "packets": result.packets_simulated,
            "packets_per_second": result.packets_per_second,
            "n_points": len(result.points),
            "metrics": result.metrics,
            "n_failed": result.n_failed,
            "retries": counters.get("engine.retries", 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel run")
    args = parser.parse_args(argv)

    runs = [bench_legacy(), bench_engine(1), bench_engine(args.jobs),
            bench_degrade_with_fault(args.jobs)]
    baseline = runs[0]["packets_per_second"]
    for run in runs:
        run["speedup_vs_legacy"] = run["packets_per_second"] / baseline
        print(f"{run['label']:>22}: {run['wall_time_s']:6.2f} s  "
              f"{run['packets_per_second']:6.2f} pkt/s  "
              f"({run['speedup_vs_legacy']:.2f}x)")

    # Per-stage accounting from the observability layer, so slow stages
    # are attributable without re-profiling.
    histograms = runs[2].get("metrics", {}).get("histograms", {})
    for name in sorted(histograms):
        h = histograms[name]
        print(f"{name:>28}: n={h['count']:<4d} total={h['sum']:.3f}s "
              f"mean={h['sum'] / max(h['count'], 1) * 1e3:.2f}ms")

    record = {
        "experiment": "wifi LOS sweep",
        "distances_m": list(DISTANCES),
        "packets_per_point": PACKETS_PER_POINT,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "runs": runs,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[written to {path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
