"""Named PHY kernels, a tiny timing harness, and the perf trajectory.

Each kernel is a deterministic closure over pre-built inputs (sessions,
excitations, coded blocks), timed with :func:`repro.obs.timed` so the
benchmark exercises the same instrumentation as production runs.  The
interesting pairs — scalar vs batched packet loops, scalar vs batched
Viterbi — are reported as speedups.

``update_history`` appends one run to ``BENCH_phy.json``;
``compare_runs`` checks each kernel *independently* against the newest
same-mode run that carries it: a kernel slower by more than the
tolerance is a regression and the CLI exits non-zero with a report.  A
kernel with no prior appearance, or whose ``work`` count changed since
its newest appearance, is skipped with a note instead of compared —
timings at different work sizes mean nothing, and a freshly added
kernel must not crash the gate on its first append.  The file
deliberately carries no wall-clock timestamps — runs are ordered by
their position in the list, keyed by a monotonically increasing
``sequence``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["KernelResult", "BenchReport", "run_benchmarks", "compare_runs",
           "load_history", "update_history", "format_report",
           "require_batch_wins"]

# Speedup pairs: label -> (scalar kernel, batched kernel).
_SPEEDUP_PAIRS: Dict[str, Tuple[str, str]] = {
    "wifi.packets": ("wifi.packets.scalar", "wifi.packets.batched"),
    "zigbee.packets": ("zigbee.packets.scalar", "zigbee.packets.batched"),
    "ble.packets": ("ble.packets.scalar", "ble.packets.batched"),
    "wifi.sweep": ("wifi.sweep.scalar", "wifi.sweep.batched"),
    "zigbee.sweep": ("zigbee.sweep.scalar", "zigbee.sweep.batched"),
    "ble.sweep": ("ble.sweep.scalar", "ble.sweep.batched"),
    "wifi.viterbi": ("wifi.viterbi.scalar", "wifi.viterbi.batched"),
    # Not a scalar/batched pair: the ratio is the cost of per-packet
    # tracing on top of the same batched loop (>= 1, ideally ~1).
    "wifi.trace_overhead": ("wifi.packets.traced", "wifi.packets.batched"),
    # Informational only (not in the batch-win gate): corpus replay
    # decodes captures one at a time, so the "batched" path runs the
    # stacked kernels on batches of one and its overhead shows here.
    "iq.replay": ("iq.replay.scalar", "iq.replay.batched"),
}

# The "batching wins" contract gated in CI: on every radio the batched
# packet loop must be at least as fast as the scalar loop.
_BATCH_WIN_LABELS = ("wifi.packets", "zigbee.packets", "ble.packets")


@dataclass
class KernelResult:
    """Timing of one named kernel over ``repeats`` identical calls."""

    name: str
    best_s: float       # min over repeats: least-noise estimate
    mean_s: float
    repeats: int
    work: int           # packets / codewords / symbols per call

    def to_dict(self) -> Dict[str, Any]:
        return {"best_s": self.best_s, "mean_s": self.mean_s,
                "repeats": self.repeats, "work": self.work}


@dataclass
class BenchReport:
    """One benchmark run: kernel timings plus derived speedups."""

    results: List[KernelResult]
    speedups: Dict[str, float]
    smoke: bool

    def result(self, name: str) -> Optional[KernelResult]:
        for res in self.results:
            if res.name == name:
                return res
        return None

    def to_run_dict(self, sequence: int) -> Dict[str, Any]:
        return {
            "sequence": sequence,
            "smoke": self.smoke,
            "kernels": {r.name: r.to_dict() for r in self.results},
            "speedups": self.speedups,
        }


# -- kernels ---------------------------------------------------------------
# Each builder returns (name, work, scalar_fn, batched_fn_or_None); the
# batched twin, when present, must do exactly the scalar function's work.


def _packet_loop_kernels(radio: str, n_packets: int,
                         payload_bytes: Optional[int]
                         ) -> List[Tuple[str, int, Callable[[], Any]]]:
    from repro.core.session import (
        BleBackscatterSession,
        WifiBackscatterSession,
        ZigbeeBackscatterSession,
    )

    makers = {
        "wifi": lambda: WifiBackscatterSession(
            seed=0, **({} if payload_bytes is None
                       else {"payload_bytes": payload_bytes})),
        "zigbee": lambda: ZigbeeBackscatterSession(seed=0),
        "ble": lambda: BleBackscatterSession(seed=0),
    }
    session = makers[radio]()
    excitation = session.make_excitation(rng=np.random.default_rng(7))
    snrs = list(np.linspace(6.0, 18.0, n_packets))

    def scalar() -> Any:
        gen = np.random.default_rng(1234)
        return [session.run_packet(float(snr), rng=gen,
                                   excitation=excitation) for snr in snrs]

    def batched() -> Any:
        gen = np.random.default_rng(1234)
        return session.run_packets(snrs, rng=gen, excitation=excitation)

    return [(f"{radio}.packets.scalar", n_packets, scalar),
            (f"{radio}.packets.batched", n_packets, batched)]


def _traced_packet_kernels(n_packets: int, payload_bytes: Optional[int]
                           ) -> List[Tuple[str, int, Callable[[], Any]]]:
    """The batched WiFi loop with per-packet tracing enabled.

    Paired with ``wifi.packets.batched`` in the report, the ratio is
    the sampling-overhead contract of docs/benchmarking.md: tracing
    every packet must stay within the same work envelope, and with
    tracing *disabled* (every other kernel) the instrumentation is a
    no-op branch.
    """
    from repro.core.session import WifiBackscatterSession
    from repro.obs import TraceConfig

    session = WifiBackscatterSession(
        seed=0, **({} if payload_bytes is None
                   else {"payload_bytes": payload_bytes}))
    excitation = session.make_excitation(rng=np.random.default_rng(7))
    snrs = list(np.linspace(6.0, 18.0, n_packets))

    def traced() -> Any:
        gen = np.random.default_rng(1234)
        with obs.collect(trace=TraceConfig()):
            return session.run_packets(snrs, rng=gen, excitation=excitation)

    return [("wifi.packets.traced", n_packets, traced)]


def _sweep_kernels(radio: str, n_points: int, packets_per_point: int
                   ) -> List[Tuple[str, int, Callable[[], Any]]]:
    """Whole distance sweeps through :class:`LinkSimulator`.

    The scalar twin loops ``simulate_point`` with per-packet processing
    (``batch=False``); the batched twin runs ``simulate_points`` with
    cross-point packet stacking.  Both use the same per-point seeded
    generators and a shared excitation per point, so they perform
    identical work and produce bit-identical :class:`LinkPoint` lists —
    the ratio measures exactly the cross-sweep batching win at
    realistic (small) per-point packet counts.
    """
    from repro.channel.geometry import Deployment
    from repro.sim.config import BLE_CONFIG, WIFI_CONFIG, ZIGBEE_CONFIG
    from repro.sim.linksim import LinkSimulator

    config = {"wifi": WIFI_CONFIG, "zigbee": ZIGBEE_CONFIG,
              "ble": BLE_CONFIG}[radio]
    deployment = Deployment.los(1.0)
    distances = [float(d) for d in np.linspace(2.0, 10.0, n_points)]
    sim_scalar = LinkSimulator(config, deployment,
                               packets_per_point=packets_per_point,
                               seed=11, batch=False)
    sim_batched = LinkSimulator(config, deployment,
                                packets_per_point=packets_per_point,
                                seed=11, batch=True)
    work = n_points * packets_per_point

    def scalar() -> Any:
        return [sim_scalar.simulate_point(
            d, rng=np.random.default_rng(1000 + i), share_excitation=True)
            for i, d in enumerate(distances)]

    def batched() -> Any:
        rngs = [np.random.default_rng(1000 + i)
                for i in range(len(distances))]
        return sim_batched.simulate_points(distances, rngs=rngs,
                                           share_excitation=True)

    return [(f"{radio}.sweep.scalar", work, scalar),
            (f"{radio}.sweep.batched", work, batched)]


def _viterbi_kernels(n_blocks: int,
                     n_bits: int) -> List[Tuple[str, int, Callable[[], Any]]]:
    from repro.phy.wifi.convolutional import CODE_802_11

    gen = np.random.default_rng(5)
    coded = np.stack([
        CODE_802_11.encode(gen.integers(0, 2, size=n_bits).astype(np.uint8))
        for _ in range(n_blocks)])

    def scalar() -> Any:
        return [CODE_802_11.decode(row) for row in coded]

    def batched() -> Any:
        return CODE_802_11.decode_batch(coded)

    return [("wifi.viterbi.scalar", n_blocks, scalar),
            ("wifi.viterbi.batched", n_blocks, batched)]


def _shaping_kernels(n_units: int) -> List[Tuple[str, int,
                                                 Callable[[], Any]]]:
    from repro.phy.ble.gfsk import GfskModem
    from repro.phy.zigbee.oqpsk import OqpskModem

    gen = np.random.default_rng(6)
    chips = gen.integers(0, 2, size=32 * n_units).astype(np.uint8)
    bits = gen.integers(0, 2, size=8 * n_units).astype(np.uint8)
    oqpsk = OqpskModem(sps=4)
    gfsk = GfskModem(sps=8)

    return [("zigbee.oqpsk.shaping", n_units,
             lambda: oqpsk.modulate(chips)),
            ("ble.gfsk.shaping", n_units,
             lambda: gfsk.modulate(bits))]


def _corpus_replay_kernels(radios: Optional[List[str]]
                           ) -> List[Tuple[str, int, Callable[[], Any]]]:
    """Corpus replay throughput: decode a freshly-frozen impairment
    grid through the scalar and batched receiver paths.

    The corpus is generated into a temp directory at build time, so
    the kernel is self-contained (no dependency on the committed
    ``tests/phy/corpus`` being present or current); replays share one
    session cache across repeats, as the pytest harness does.
    """
    import tempfile
    from pathlib import Path

    from repro.iq.corpus import generate_corpus
    from repro.iq.replay import replay_corpus

    directory = Path(tempfile.mkdtemp(prefix="repro-iq-bench-"))
    names = generate_corpus(directory, radios=radios)
    cache: Dict[Any, Any] = {}

    def _replay(mode: str) -> None:
        report = replay_corpus(directory, modes=(mode,),
                               session_cache=cache)
        if not report.ok:
            raise RuntimeError(f"bench corpus replay diverged: "
                               f"{report.diffs[0]}")

    return [("iq.replay.scalar", len(names),
             lambda: _replay("scalar")),
            ("iq.replay.batched", len(names),
             lambda: _replay("batched"))]


def _build_kernels(smoke: bool) -> List[Tuple[str, int, Callable[[], Any]]]:
    # Full-mode packet counts are sized so the receiver kernels are
    # amortised over hundreds of packets per loop (and, with the three
    # radios plus sweeps, thousands per run) — at n=16 the batch setup
    # overhead dominated and the measured speedups were noise.
    # Smoke packet counts are the smallest where the batched win has
    # enough margin (>=1.2x best-of-N) to gate on without flapping on
    # noisy shared runners.
    if smoke:
        kernels = (_packet_loop_kernels("wifi", 16, 128)
                   + _packet_loop_kernels("zigbee", 32, None)
                   + _packet_loop_kernels("ble", 32, None)
                   + _sweep_kernels("wifi", 3, 4)
                   + _sweep_kernels("zigbee", 3, 8)
                   + _sweep_kernels("ble", 3, 8)
                   + _traced_packet_kernels(16, 128)
                   + _viterbi_kernels(4, 200)
                   + _shaping_kernels(64)
                   + _corpus_replay_kernels(["bluetooth", "dsss"]))
    else:
        kernels = (_packet_loop_kernels("wifi", 128, None)
                   + _packet_loop_kernels("zigbee", 256, None)
                   + _packet_loop_kernels("ble", 256, None)
                   + _sweep_kernels("wifi", 4, 32)
                   + _sweep_kernels("zigbee", 4, 32)
                   + _sweep_kernels("ble", 4, 32)
                   + _traced_packet_kernels(128, None)
                   + _viterbi_kernels(16, 400)
                   + _shaping_kernels(256)
                   + _corpus_replay_kernels(None))
    return kernels


def run_benchmarks(smoke: bool = False,
                   repeats: Optional[int] = None) -> BenchReport:
    """Time every kernel and derive the scalar/batched speedups.

    One untimed warm-up call per kernel primes caches (frame LRU, ACS
    tables, numpy buffers); the reported ``best_s`` is the minimum over
    the timed repeats — the standard least-noise micro-benchmark
    estimator.  Smoke mode shrinks the work sizes, not the repeats:
    single-shot timings of millisecond kernels are noise, and the CI
    batch-win gate judges ``best_s``.
    """
    n_rep = repeats if repeats is not None else 3
    results: List[KernelResult] = []
    for name, work, fn in _build_kernels(smoke):
        fn()  # warm-up
        with obs.collect() as reg:
            for _ in range(n_rep):
                with obs.timed("bench." + name + ".seconds"):
                    fn()
        hist = reg.histogram("bench." + name + ".seconds")
        assert hist is not None
        results.append(KernelResult(name=name, best_s=hist.min,
                                    mean_s=hist.mean, repeats=n_rep,
                                    work=work))

    by_name = {r.name: r for r in results}
    speedups = {}
    for label, (scalar_name, batched_name) in _SPEEDUP_PAIRS.items():
        scalar, batched = by_name.get(scalar_name), by_name.get(batched_name)
        if scalar and batched and batched.best_s > 0:
            speedups[label] = scalar.best_s / batched.best_s
    return BenchReport(results=results, speedups=speedups, smoke=smoke)


# -- history ---------------------------------------------------------------


def load_history(path: str) -> Dict[str, Any]:
    """Read ``BENCH_phy.json`` (empty skeleton when absent)."""
    if not os.path.exists(path):
        return {"schema": 1, "runs": []}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "runs" not in data:
        raise ValueError(f"{path} is not a bench history file")
    return data


def _kernel_baseline(history: Dict[str, Any], smoke: bool, name: str
                     ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Newest same-mode run carrying kernel *name*, or ``None``."""
    for run in reversed(history.get("runs", [])):
        if bool(run.get("smoke")) != smoke:
            continue
        entry = run.get("kernels", {}).get(name)
        if entry is not None:
            return run, entry
    return None


def compare_runs(history: Dict[str, Any], report: BenchReport,
                 tolerance: float = 0.20,
                 notes: Optional[List[str]] = None) -> List[str]:
    """Per-kernel regression report against the history.

    Each kernel is compared against the *newest* same-mode run that
    carries it.  A kernel with no prior appearance, or whose ``work``
    count changed since that appearance, is not compared — a skip note
    is appended to *notes* (when given) instead, so resized or freshly
    added kernels never trip or crash the gate.

    Returns human-readable lines, one per kernel whose ``best_s`` grew
    by more than *tolerance* (empty list = no regressions).
    """
    regressions = []
    for res in report.results:
        found = _kernel_baseline(history, report.smoke, res.name)
        if found is None:
            if notes is not None:
                notes.append(f"{res.name}: no prior "
                             f"{'smoke' if report.smoke else 'full'} run "
                             "with this kernel; comparison skipped")
            continue
        baseline, prev = found
        if prev.get("work") != res.work:
            if notes is not None:
                notes.append(
                    f"{res.name}: work changed "
                    f"({prev.get('work')} -> {res.work} in run "
                    f"#{baseline.get('sequence', '?')}); not compared")
            continue
        if prev.get("best_s", 0) <= 0:
            continue
        ratio = res.best_s / prev["best_s"]
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{res.name}: {prev['best_s'] * 1e3:.2f} ms -> "
                f"{res.best_s * 1e3:.2f} ms ({ratio:.2f}x, tolerance "
                f"{1.0 + tolerance:.2f}x, baseline run "
                f"#{baseline.get('sequence', '?')})")
    return regressions


def require_batch_wins(report: BenchReport,
                       headroom: float = 0.05) -> List[str]:
    """Check the "batching wins on every radio" contract.

    Returns one line per packet-loop pair whose batched kernel was
    *slower* than its scalar twin (empty list = contract holds).
    *headroom* is the fractional measurement-noise allowance on shared
    CI runners: the batched ``best_s`` must not exceed the scalar
    ``best_s`` by more than that margin.  Pairs missing from the report
    are ignored, so partial kernel sets don't fail spuriously.
    """
    violations = []
    for label in _BATCH_WIN_LABELS:
        scalar_name, batched_name = _SPEEDUP_PAIRS[label]
        scalar = report.result(scalar_name)
        batched = report.result(batched_name)
        if scalar is None or batched is None:
            continue
        if batched.best_s > scalar.best_s * (1.0 + headroom):
            violations.append(
                f"{label}: batched {batched.best_s * 1e3:.2f} ms is slower "
                f"than scalar {scalar.best_s * 1e3:.2f} ms "
                f"({scalar.best_s / batched.best_s:.2f}x, headroom "
                f"{1.0 + headroom:.2f}x)")
    return violations


def update_history(path: str, report: BenchReport) -> Dict[str, Any]:
    """Append *report* to the history file at *path* and rewrite it."""
    history = load_history(path)
    sequence = 1 + max(
        [int(r.get("sequence", 0)) for r in history["runs"]] or [0])
    history["runs"].append(report.to_run_dict(sequence))
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return history


def format_report(report: BenchReport) -> str:
    """The human-readable results table."""
    from repro.sim.results import format_table

    rows = []
    for res in report.results:
        rows.append([res.name, res.work, res.repeats,
                     res.best_s * 1e3, res.mean_s * 1e3])
    table = format_table(
        ["kernel", "work", "repeats", "best (ms)", "mean (ms)"], rows,
        title="PHY micro-benchmarks" + (" (smoke)" if report.smoke else ""))
    lines = [table, "", "speedups (scalar / batched):"]
    for label, ratio in sorted(report.speedups.items()):
        lines.append(f"  {label:16s} {ratio:5.2f}x")
    return "\n".join(lines)
