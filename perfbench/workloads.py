"""The four benchmark workloads: set-up, timed window and output checks.

Each workload object is driven by ``worker.py`` in one process:
``setup()`` once (cold imports are already paid by then), ``window()``
one or more times, ``check()`` on everything the windows produced, then
``teardown()``.  Checks run outside the timed windows.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import ServiceHTTPServer
from repro.service.service import SweepService
from repro.sim.engine import (ExperimentEngine, ExperimentSpec, RunResult,
                              spec_fingerprint)
from repro.sim.linksim import LinkPoint

import specs

# Status poll of the benchmark's service clients.  ServiceClient.wait's
# 0.2 s default would quantise every miss latency to 200 ms steps; the
# service's own worker poll stays at its default, since users wait on it.
CLIENT_POLL_S = 0.01
N_CLIENTS = 2
REQUEST_TIMEOUT_S = 60.0
# Jobs in the pre-seeded service root: HISTORY_COMPUTED distinct
# computed specs, the rest repeats of them answered from the cache.
HISTORY_JOBS = 300
HISTORY_COMPUTED = 100


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it.  Below twenty samples that percentile would
    sit under the median, so the tail is the maximum (p100) instead."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def latency_metrics(prefix: str, values: Sequence[float],
                    out: Dict[str, Any], info: Dict[str, Any]) -> None:
    if not values:
        out[f"{prefix}_p50_s"] = out[f"{prefix}_tail_s"] = math.nan
        info[prefix] = {"n": 0}
        return
    value, pct = tail(values)
    out[f"{prefix}_p50_s"] = statistics.median(values)
    out[f"{prefix}_tail_s"] = value
    info[prefix] = {"n": len(values), "tail_percentile": pct}


@dataclass
class Window:
    """What one timed window produced."""

    wall_s: float
    samples: List[Any]
    failures: List[str] = field(default_factory=list)
    # Summed wall time of the load threads, for the self-time check.
    load_wall_s: float = 0.0


# -- sweeps ------------------------------------------------------------------

@dataclass
class SweepSample:
    spec: ExperimentSpec
    latency_s: float
    result: Optional[RunResult]


class SweepWorkload:
    """Back-to-back specs through ``ExperimentEngine(n_jobs).run``."""

    def __init__(self, n_jobs: int, shapes: Sequence[specs.Shape],
                 seed: int) -> None:
        self.n_jobs = n_jobs
        self.shapes = shapes
        self.stream = specs.alternating(
            *(specs.pool_specs(shape, seed) for shape in shapes))
        self.engine = ExperimentEngine(n_jobs=n_jobs)

    def setup(self) -> None:
        # Cold session and excitation builds.  Two distances per shape,
        # so that with n_jobs > 1 the warm-up takes the pool path.
        for shape in self.shapes:
            warm = shape.spec(specs.WARMUP_SEED, label="perfbench/warmup",
                              distances_m=shape.distances_m[:2])
            if not self.engine.run(warm).ok:
                raise RuntimeError(f"warm-up of {shape.name} failed")

    def window(self, seconds: float, tracer: Any = None) -> Window:
        samples: List[SweepSample] = []
        failures: List[str] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            spec = next(self.stream)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = self.engine.run(spec)
                else:
                    with tracer.span("bench.spec", spec_fingerprint(spec)):
                        result = self.engine.run(spec)
            # Broad by design: any failure of a run is one failed
            # operation, counted, and the window goes on.
            except Exception as exc:
                failures.append(f"{specs.digest_key(spec)}: "
                                f"{type(exc).__name__}: {exc}")
                result = None
            latency = time.perf_counter() - t0
            if result is not None:
                # Keep what the checks need; holding every run's metrics
                # snapshot would grow the process with throughput.
                result.metrics = {}
            samples.append(SweepSample(spec, latency, result))
        wall = time.perf_counter() - start
        return Window(wall, samples, failures, load_wall_s=wall)

    def metrics(self, win: Window) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        ok = [s for s in win.samples if s.result is not None]
        latencies = [s.latency_s for s in ok]
        out: Dict[str, Any] = {
            "packets_per_s": sum(s.result.packets_simulated
                                 for s in ok) / win.wall_s,
            "jobs_per_s": len(ok) / win.wall_s,
        }
        info: Dict[str, Any] = {}
        # No result cache on the direct engine path: every spec is
        # computed, so a repeated spec would cost the same as a new one.
        latency_metrics("miss", latencies, out, info)
        latency_metrics("hit", latencies, out, info)
        return out, info

    def engine_time(self, win: Window) -> Tuple[float, float]:
        """Summed wall time of the window's engine runs, and their task
        time divided by the worker count."""
        runs = [s.result for s in win.samples if s.result is not None]
        return (sum(r.wall_time_s for r in runs),
                sum(sum(t.duration_s for t in r.tasks) / r.n_jobs
                    for r in runs))

    def check(self, windows: Sequence[Window],
              digests: Dict[str, str]) -> List[str]:
        bad: List[str] = []
        for win in windows:
            for s in win.samples:
                if s.result is None:
                    continue  # already counted by the window
                key = specs.digest_key(s.spec)
                if not s.result.ok:
                    bad.append(f"{key}: {s.result.n_failed} tasks failed")
                elif specs.points_digest(s.result.points) != digests.get(key):
                    bad.append(f"{key}: points differ from the recorded "
                               f"digest")
        return bad

    def teardown(self) -> None:
        pass


# -- service -----------------------------------------------------------------

@dataclass
class RequestSample:
    """One request, reduced to what the metrics and checks need (whole
    records would grow the process with throughput)."""

    spec: ExperimentSpec
    hit: bool
    cached: bool
    fingerprint: str
    points: List[Dict[str, Any]]
    timing: Dict[str, Any]
    task_s: float
    latency_s: float = 0.0


def _points(rows: List[Dict[str, Any]]) -> List[LinkPoint]:
    return [LinkPoint(**row) for row in rows]


def seed_root(root: Path) -> None:
    """Pre-seed a service root with settled history, deterministically."""
    service = SweepService(root)
    history = [shape.pool_spec(k)
               for k in range(HISTORY_COMPUTED // 2)
               for shape in (specs.HISTORY_ZIGBEE, specs.HISTORY_BLE)]
    for i in range(HISTORY_JOBS):
        job = service.submit(history[i % len(history)])
        while service.step():
            pass
        if service.queue.get(job.job_id).state != "done":
            raise RuntimeError(f"history job {job.job_id} did not finish")


class ServiceWorkload:
    """Closed-loop clients against an in-process sweep service."""

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.service: Optional[SweepService] = None
        self.server: Optional[ServiceHTTPServer] = None
        self.server_thread: Optional[threading.Thread] = None
        # Client c takes every N_CLIENTS-th spec of one shared walk of
        # each radio's pool, so clients never submit each other's specs.
        self.fresh = [
            [specs.pool_specs(shape, seed, start=c, step=N_CLIENTS)
             for shape in specs.SERVICE_SHAPES]
            for c in range(N_CLIENTS)]
        self.done: List[List[ExperimentSpec]] = [[] for _ in range(N_CLIENTS)]
        self.rngs = [random.Random(f"{seed}:{c}") for c in range(N_CLIENTS)]
        # Each client alternates a fresh spec and a repeat of one of its
        # earlier ones, and rotates radios from its own starting radio:
        # the mix is fixed, the seed picks the specs.
        self.requests = [0] * N_CLIENTS

    def setup(self) -> None:
        self.service = SweepService(self.root)
        self.server = ServiceHTTPServer(self.service, port=0)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever, name="http-server")
        self.service.start()
        self.server_thread.start()
        client = ServiceClient(self.server.url)
        warm = [shape.spec(specs.WARMUP_SEED, label="perfbench/warmup")
                for shape in specs.SERVICE_SHAPES]
        for spec in warm + warm[:1]:  # one miss per radio, then a hit
            job = client.submit(spec)
            status = client.wait(job["job_id"], timeout_s=REQUEST_TIMEOUT_S,
                                 poll_s=CLIENT_POLL_S)
            if status.get("state") != "done":
                raise RuntimeError(f"warm-up job {job['job_id']} "
                                   f"{status.get('state')}")
            client.fetch_record(job["job_id"])

    def _next_spec(self, c: int) -> ExperimentSpec:
        n = self.requests[c]
        self.requests[c] += 1
        if n % 2 and self.done[c]:
            return self.rngs[c].choice(self.done[c])
        k = (c + n // 2) % len(specs.SERVICE_SHAPES)
        return next(self.fresh[c][k])

    def _client(self, c: int, deadline: float, tracer: Any,
                samples: List[RequestSample], failures: List[str],
                ends: List[float]) -> None:
        client = ServiceClient(self.server.url)
        while time.perf_counter() < deadline:
            spec = self._next_spec(c)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    sample = self._request(client, spec)
                else:
                    with tracer.span("bench.request", spec_fingerprint(spec)):
                        sample = self._request(client, spec)
            except (ServiceClientError, urllib.error.URLError, OSError,
                    TimeoutError, ValueError) as exc:
                failures.append(f"{specs.digest_key(spec)}: "
                                f"{type(exc).__name__}: {exc}")
                continue
            sample.latency_s = time.perf_counter() - t0
            samples.append(sample)
            if not sample.hit:
                self.done[c].append(spec)
        ends.append(time.perf_counter())

    @staticmethod
    def _request(client: ServiceClient, spec: ExperimentSpec
                 ) -> RequestSample:
        job = client.submit(spec)
        status = client.wait(job["job_id"], timeout_s=REQUEST_TIMEOUT_S,
                             poll_s=CLIENT_POLL_S)
        if status.get("state") != "done":
            raise ValueError(f"job {job['job_id']} settled as "
                             f"{status.get('state')}: {status.get('error')}")
        record = client.fetch_record(job["job_id"])
        result = record["result"]
        return RequestSample(
            spec, hit=bool(job.get("cache_hit")),
            cached=bool(status.get("cached")),
            fingerprint=str(record.get("fingerprint")),
            points=result["points"], timing=result["timing"],
            task_s=sum(t["duration_s"] for t in result["tasks"]))

    def window(self, seconds: float, tracer: Any = None) -> Window:
        samples: List[RequestSample] = []
        failures: List[str] = []
        ends: List[float] = []
        start = time.perf_counter()
        threads = [threading.Thread(
            target=self._client, name=f"client-{c}",
            args=(c, start + seconds, tracer, samples, failures, ends))
            for c in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if any(t.is_alive() for t in threads) or len(ends) != N_CLIENTS:
            raise RuntimeError("a service client did not finish")
        wall = max(ends) - start
        return Window(wall, samples, failures,
                      load_wall_s=sum(end - start for end in ends))

    def metrics(self, win: Window) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        misses = [s for s in win.samples if not s.hit]
        hits = [s for s in win.samples if s.hit]
        out: Dict[str, Any] = {
            "packets_per_s": sum(s.timing["packets_simulated"]
                                 for s in misses) / win.wall_s,
            "jobs_per_s": len(win.samples) / win.wall_s,
        }
        info: Dict[str, Any] = {"client_poll_s": CLIENT_POLL_S,
                                "service_poll_s": self.service.poll_s,
                                "clients": N_CLIENTS}
        latency_metrics("miss", [s.latency_s for s in misses], out, info)
        latency_metrics("hit", [s.latency_s for s in hits], out, info)
        return out, info

    def engine_time(self, win: Window) -> Tuple[float, float]:
        """Summed wall time of the engine runs of the window's cache
        misses, and their task time divided by the worker count."""
        misses = [s for s in win.samples if not s.hit]
        return (sum(s.timing["wall_time_s"] for s in misses),
                sum(s.task_s / s.timing["n_jobs"] for s in misses))

    def check(self, windows: Sequence[Window],
              digests: Dict[str, str]) -> List[str]:
        bad: List[str] = []
        direct: Dict[str, RequestSample] = {}
        for win in windows:
            for s in win.samples:
                key = specs.digest_key(s.spec)
                if s.fingerprint != spec_fingerprint(s.spec):
                    bad.append(f"{key}: record fingerprint mismatch")
                elif s.hit and not s.cached:
                    bad.append(f"{key}: cache hit not marked cached")
                elif (specs.points_digest(_points(s.points))
                      != digests.get(key)):
                    bad.append(f"{key}: points differ from the recorded "
                               f"digest")
                # The first miss of each radio and the first hit are
                # compared against a direct engine run as well.
                cls = "hit" if s.hit else s.spec.config.name
                direct.setdefault(cls, s)
        engine = ExperimentEngine(n_jobs=1)
        for s in direct.values():
            if engine.run(s.spec).points != _points(s.points):
                bad.append(f"{specs.digest_key(s.spec)}: fetched result "
                           f"differs from a direct engine run")
        return bad

    def teardown(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server_thread.join(timeout=30.0)
            self.server.server_close()
        if self.service is not None:
            self.service.stop()


def make_workload(name: str, seed: int, root: Optional[Path]):
    if name == "wifi_sweep":
        return SweepWorkload(1, (specs.FIG10_WIFI,), seed)
    if name == "narrowband_sweep":
        return SweepWorkload(1, (specs.FIG12_ZIGBEE, specs.FIG13_BLE), seed)
    if name == "parallel_sweep":
        # Two workers, but never more than the host has cores.
        return SweepWorkload(min(2, os.cpu_count() or 1),
                             (specs.FIG10_WIFI,), seed)
    if name == "service_mix":
        if root is None:
            raise ValueError("service_mix needs a service root")
        return ServiceWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}")
