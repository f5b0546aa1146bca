"""End-to-end benchmark of the FreeRider reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wifi_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half traced and prints
every per-layer metric instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (host fingerprint, tail percentiles, sample counts,
every problem found) goes to ``.perfbench-out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import BENCH_DIR, OUT_DIR, ROOT, SRC, WORK_DIR

WORKLOADS = ("wifi_sweep", "narrowband_sweep", "parallel_sweep",
             "service_mix")
# Set-up runs in fresh processes besides the measured one; setup_s is
# the median of all of them.
SETUP_REPLICAS = 2
# Every step must end well within the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run one ``worker.py`` step; returns its JSON result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before " + args[0])
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            stdout=subprocess.PIPE, timeout=left, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out") from exc
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(opts, spans: Path, deadline: float) -> dict:
    work = WORK_DIR / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        service = opts.workload == "service_mix"
        if service:
            worker(["seed-root", "--root", str(work / "seed")], deadline)
        common = ["--workload", opts.workload, "--seed", str(opts.seed)]

        def root_for(name: str) -> list:
            # Each process gets its own copy of the pre-seeded root.
            if not service:
                return []
            shutil.copytree(work / "seed", work / name)
            return ["--root", str(work / name)]

        setups = []
        if not opts.trace:
            for k in range(SETUP_REPLICAS):
                setups.append(worker(["setup", *common,
                                      *root_for(f"setup-{k}")],
                                     deadline)["setup_s"])
        run_args = ["run", *common, "--seconds", str(opts.seconds),
                    "--trace", str(opts.trace), *root_for("run")]
        if opts.trace:
            run_args += ["--spans", str(spans)]
        result = worker(run_args, deadline)
        setups.append(result["setup_s"])
        result["setup_samples_s"] = setups
        result["end_to_end"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def select(values: dict, wanted: list) -> dict:
    """``{name: {value, unit}}`` for every metric BENCHMARK.json lists."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def report(opts, result: dict, metrics: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    host = result["host"]
    print(f"perfbench {opts.workload} seed={opts.seed} "
          f"seconds={opts.seconds} trace={opts.trace}")
    print(f"host: {host['cpu']} nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} "
          f"blas={host['blas']}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    info = result["info"]
    for cls in ("miss", "hit"):
        if cls in info:
            print(f"  {cls}: n={info[cls]['n']} tail at "
                  f"p{info[cls].get('tail_percentile', float('nan')):.1f}")
    if "client_poll_s" in info:
        print(f"  client status poll {info['client_poll_s']} s, "
              f"service worker poll {info['service_poll_s']} s")
    print(f"  fail_ratio {result['failed']}/{result['attempted']}")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {SRC}")
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
        result = measure(opts, OUT_DIR / f"spans-{stem}.jsonl", deadline)
        if opts.trace:
            metrics = select(result["per_layer"], bench["per_layer"])
        else:
            metrics = select(result["end_to_end"], bench["end_to_end"])
        unmeasured = [name for name, m in metrics.items()
                      if not math.isfinite(m["value"])]
        if unmeasured:
            raise BenchError("nothing to measure " + ", ".join(unmeasured)
                             + " on: " + "; ".join(result["problems"][:5]))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = not result["problems"]
    record = dict(result, workload=opts.workload, seed=opts.seed,
                  seconds=opts.seconds, trace=opts.trace, correct=correct)
    with open(OUT_DIR / f"record-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    report(opts, result, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
