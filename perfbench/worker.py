"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this script once per set-up sample and once for the
measured run; run it by hand only to debug one of those steps::

    python3 perfbench/worker.py seed-root --root DIR
    python3 perfbench/worker.py setup --workload W --seed N [--root DIR]
    python3 perfbench/worker.py run --workload W --seed N --seconds S \\
        --trace 0|1 [--root DIR] [--spans PATH]

The last line of standard output is one JSON object.
"""

import time

# The set-up clock starts before anything of the program is imported.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checkout import CheckoutError, import_repro  # noqa: E402

# Largest shortfall of the load threads' summed self time against their
# traced wall time that still passes the traced run's self-time check.
SELF_TIME_TOLERANCE = 0.02


def host_fingerprint() -> dict:
    """What makes two records comparable: same CPU, cores and builds."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass  # not Linux: keep platform.processor()
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
        simd = config.get("SIMD Extensions", {}).get("found")
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        blas_id, simd = "unknown", None
    return {"cpu": cpu, "machine": platform.machine(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_id, "simd": simd}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(wl, tracer, plain, traced) -> tuple:
    """Per-layer metrics of the traced window, and its self-time check."""
    import tracing

    out = tracing.summarize(tracer)
    calls = out["core.session.decode.calls"]
    out["core.session.decode.packets_per_call"] = (
        out["core.session.decode.packets"] / calls if calls else 0.0)
    wall_s, task_s = wl.engine_time(traced)
    out["sim.engine.task_s"] = task_s
    out["sim.engine.dispatch_s"] = wall_s - task_s
    plain_rate = len(plain.samples) / plain.wall_s
    traced_rate = len(traced.samples) / traced.wall_s
    out["trace.slowdown"] = (plain_rate / traced_rate
                             if traced_rate else float("nan"))
    out["trace.wall_s"] = traced.wall_s
    covered = tracing.load_self_s(tracer) / traced.load_wall_s
    out["trace.self_coverage"] = covered
    problems = []
    if not 1.0 - SELF_TIME_TOLERANCE <= covered <= 1.0 + 1e-9:
        problems.append(f"self times cover {covered:.4f} of the traced "
                        f"wall time (tolerance {SELF_TIME_TOLERANCE})")
    return out, problems


def cmd_run(args) -> dict:
    import specs
    import tracing
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.root)
    wl.setup()
    setup_s = time.perf_counter() - T0
    tracer = None
    try:
        if args.trace:
            # Half the time untraced, half traced: the pair gives the
            # tracing overhead on the same process and inputs.
            plain = wl.window(args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = wl.window(args.seconds / 2, tracer)
            finally:
                tracer.unpatch()
            windows = [plain, traced]
        else:
            windows = [wl.window(args.seconds)]
    finally:
        wl.teardown()
    rss = peak_rss_mb()

    e2e, info = wl.metrics(windows[-1])
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = rss
    problems = [f for w in windows for f in w.failures]
    per_layer = None
    if tracer is not None:
        per_layer, trace_problems = layer_metrics(wl, tracer, *windows)
        problems += trace_problems
        if args.spans:
            info["spans_written"] = tracer.write_jsonl(args.spans)
    problems += wl.check(windows, specs.load_digests())
    attempted = sum(len(w.samples) + len(w.failures) for w in windows)
    return {"setup_s": setup_s, "end_to_end": e2e, "per_layer": per_layer,
            "info": info, "attempted": attempted,
            "failed": min(len(problems), attempted), "problems": problems,
            "host": host_fingerprint()}


def cmd_setup(args) -> dict:
    import workloads

    wl = workloads.make_workload(args.workload, args.seed, args.root)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T0
    finally:
        wl.teardown()
    return {"setup_s": setup_s}


def cmd_seed_root(args) -> dict:
    import workloads

    workloads.seed_root(args.root)
    return {"root": str(args.root)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    seed = sub.add_parser("seed-root")
    seed.add_argument("--root", type=Path, required=True)
    for name in ("setup", "run"):
        p = sub.add_parser(name)
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--root", type=Path, default=None)
    run = sub.choices["run"]
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        import_repro()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    command = {"run": cmd_run, "setup": cmd_setup,
               "seed-root": cmd_seed_root}[args.cmd]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
