"""Spec shapes, seed pools and point digests of the benchmark workloads.

Every spec a workload runs comes from a fixed *pool* per shape: pool
entry ``k`` is the shape at spec seed ``base + k``.  The workload seed
only picks the order in which a run walks its pools, so the same seed
gives the same inputs, and every spec a run can execute has a points
digest recorded in ``digests.json`` at the commit that defined the
benchmark.  A run that needs more specs than a pool holds wraps around
and repeats them; a sweep recomputes a repeat, and the service answers
it from its cache, which the service workload then counts as a hit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.channel.geometry import Deployment
from repro.sim.config import BLE_CONFIG, WIFI_CONFIG, ZIGBEE_CONFIG, RadioConfig
from repro.sim.engine import ExperimentSpec

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Shape:
    """One spec shape: radio, distances and packets per distance."""

    name: str
    config: RadioConfig
    distances_m: Tuple[float, ...]
    packets_per_point: int
    seed_base: int
    pool_size: int

    def spec(self, seed: int, label: str = "",
             distances_m: Sequence[float] = ()) -> ExperimentSpec:
        return ExperimentSpec(config=self.config,
                              deployment=Deployment.los(1.0),
                              distances_m=tuple(distances_m)
                              or self.distances_m,
                              packets_per_point=self.packets_per_point,
                              seed=int(seed),
                              label=label or f"perfbench/{self.name}")

    def pool_spec(self, k: int) -> ExperimentSpec:
        return self.spec(self.seed_base + k % self.pool_size)


# The figure sweeps of benchmarks/test_fig10_wifi_los.py,
# test_fig12_zigbee.py and test_fig13_bluetooth.py.
FIG10_WIFI = Shape("fig10_wifi", WIFI_CONFIG,
                   (1, 5, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46), 10,
                   seed_base=10_000, pool_size=32)
FIG12_ZIGBEE = Shape("fig12_zigbee", ZIGBEE_CONFIG,
                     (1, 4, 8, 12, 16, 20, 22, 26), 12,
                     seed_base=20_000, pool_size=128)
FIG13_BLE = Shape("fig13_ble", BLE_CONFIG,
                  (1, 2, 4, 6, 8, 10, 12, 14), 12,
                  seed_base=30_000, pool_size=128)
# Small service submissions spanning each radio's near, mid and
# edge-of-range distances.  No WiFi shape: one small WiFi spec computes
# for about 0.5 s (the Viterbi loop runs per time step, however few
# packets share it), some fifteen times a narrowband one, so WiFi
# misses would queue the other client's jobs and dominate a workload
# meant to measure the service's own hops.
SVC_ZIGBEE = Shape("svc_zigbee", ZIGBEE_CONFIG, (1, 12, 22), 4,
                   seed_base=50_000, pool_size=384)
SVC_BLE = Shape("svc_ble", BLE_CONFIG, (1, 6, 12), 4,
                seed_base=60_000, pool_size=384)
# Settled history of the pre-seeded service root (never checked).
HISTORY_ZIGBEE = Shape("history_zigbee", ZIGBEE_CONFIG, (4,), 2,
                       seed_base=70_000, pool_size=64)
HISTORY_BLE = Shape("history_ble", BLE_CONFIG, (4,), 2,
                    seed_base=80_000, pool_size=64)

CHECKED_SHAPES = (FIG10_WIFI, FIG12_ZIGBEE, FIG13_BLE, SVC_ZIGBEE, SVC_BLE)
SERVICE_SHAPES = (SVC_ZIGBEE, SVC_BLE)
# Seeds outside every pool, for the warm-up runs of set-up.
WARMUP_SEED = 9_000_000


def pool_order(shape: Shape, workload_seed: int) -> List[int]:
    """The order in which a run walks *shape*'s pool."""
    gen = np.random.default_rng([int(workload_seed) & (2**64 - 1),
                                 shape.seed_base, 0])
    return [int(k) for k in gen.permutation(shape.pool_size)]


def pool_specs(shape: Shape, workload_seed: int, start: int = 0,
               step: int = 1) -> Iterator[ExperimentSpec]:
    """Endless spec stream of one shape: every *step*-th entry of the
    run's walk of the pool from *start*, wrapping around."""
    order = pool_order(shape, workload_seed)
    i = start
    while True:
        yield shape.pool_spec(order[i % len(order)])
        i += step


def alternating(*streams: Iterator[ExperimentSpec]
                ) -> Iterator[ExperimentSpec]:
    """Round-robin over several spec streams."""
    while True:
        for stream in streams:
            yield next(stream)


def _num(value: float) -> object:
    # Nine significant digits: tolerant of last-bit differences between
    # numpy builds, far finer than any change in a decoded outcome.
    if isinstance(value, float):
        return None if math.isnan(value) else float(f"{value:.9g}")
    return value


def points_digest(points: Sequence[object]) -> str:
    """Short digest of a sweep's LinkPoints, in task order."""
    rows = [None if p is None else
            [_num(p.distance_m), _num(p.throughput_kbps), _num(p.ber),
             _num(p.rssi_dbm), _num(p.delivery_ratio), _num(p.snr_db),
             bool(p.ber_valid)]
            for p in points]
    payload = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def digest_key(spec: ExperimentSpec) -> str:
    return f"{spec.label}@{spec.seed}"


def load_digests() -> Dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return dict(json.load(fh)["digests"])
