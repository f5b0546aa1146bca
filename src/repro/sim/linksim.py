"""Distance-sweep link simulator: the engine behind Figures 10-14.

For each receiver distance the simulator:

1. computes the two-hop link budget's RSSI, adds per-packet log-normal
   fading, and converts to the AWGN SNR seen by the backscatter
   receiver;
2. runs the *actual PHY chain* end-to-end (excitation transmitter ->
   tag -> noise -> commodity receiver -> XOR decoder) for a batch of
   packets;
3. reports throughput (tag goodput over airtime + inter-packet gap),
   conditional tag BER, delivery ratio, and mean RSSI — the three
   panels of each evaluation figure.

Sweeps can fan out over processes: ``sweep(distances, n_jobs=4)``
routes through :mod:`repro.sim.engine`, whose per-point seed spawning
makes the result identical for any worker count (and different from
the legacy serial stream, which threads one generator through every
point in order).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.channel.awgn import NoiseArena
from repro.channel.geometry import Deployment
from repro.core.registry import session_from_config
from repro.sim.config import RadioConfig
from repro.utils.rng import derive_seed, make_rng

__all__ = ["LinkPoint", "LinkSimulator"]

# Fallback bound on the packets one cross-point flush stacks: it sizes
# the flush's noise arena and so bounds peak memory, without changing
# any result — flush boundaries only regroup exact elementwise
# arithmetic.  Sessions carry their own tuned ``_chunk_packets`` which
# takes precedence.
_CHUNK_PACKETS = 16


@dataclass
class LinkPoint:
    """Aggregate link metrics at one receiver distance.

    ``ber`` is *conditional* on delivery: when no packet survives at a
    distance there is no measurement, so ``ber`` is NaN and
    ``ber_valid`` is False — distinct from a genuinely measured BER of
    1.0 on delivered packets.
    """

    distance_m: float
    throughput_kbps: float
    ber: float
    rssi_dbm: float
    delivery_ratio: float
    snr_db: float
    ber_valid: bool = True

    def __eq__(self, other) -> bool:
        # Field-wise equality, except that two NaN BERs (the no-data
        # sentinel) compare equal — identical runs must compare equal.
        if not isinstance(other, LinkPoint):
            return NotImplemented
        # Exact compare is deliberate: checkpoint resume relies on
        # bit-identical points, so no tolerance is acceptable here.
        ber_eq = (self.ber == other.ber  # reprolint: disable=R003
                  or (math.isnan(self.ber) and math.isnan(other.ber)))
        return ber_eq and all(
            getattr(self, f) == getattr(other, f)
            for f in ("distance_m", "throughput_kbps", "rssi_dbm",
                      "delivery_ratio", "snr_db", "ber_valid"))

    def row(self) -> str:
        """One formatted results-table row."""
        if not self.ber_valid:
            ber = "n/a".rjust(7)
        elif self.ber > 0:
            ber = f"{self.ber:.1e}"
        else:
            ber = "<1e-4  "
        return (f"{self.distance_m:7.1f}  {self.throughput_kbps:9.1f}  "
                f"{ber}  {self.rssi_dbm:8.1f}  {self.delivery_ratio:6.2f}")


@dataclass
class _PendingPoint:
    """One distance point between phase 1 (all RNG consumed) and the
    batched channel/decode/aggregate phases."""

    distance_m: float
    mean_rssi: float
    noise_dbm: float
    rssis: List[float]
    draws: List[Any] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)


class LinkSimulator:
    """Sweeps receiver distance for one radio configuration.

    Parameters
    ----------
    config:
        Calibrated radio configuration.
    deployment:
        Geometry template; its receiver distance is replaced per point.
    packets_per_point:
        Excitation packets simulated per distance.
    seed:
        Master seed for reproducibility.
    batch:
        Decode each point's packets through the session's batched
        receiver kernels (:meth:`~repro.core.session._BatchPacketMixin.
        run_packets`) instead of one at a time — and, for serial
        sweeps, stack packets *across* distance points.  Bit-identical
        to the scalar loop — all randomness is drawn in the same order —
        and several times faster.  A session without the two-phase batch
        API falls back to the scalar loop and counts the
        ``phy.batch.fallback`` metric (surfaced by ``repro report``).
    """

    def __init__(self, config: RadioConfig, deployment: Deployment,
                 packets_per_point: int = 20,
                 seed: Optional[int] = None,
                 batch: bool = True):
        self.config = config
        self.deployment = deployment
        self.packets_per_point = packets_per_point
        self.batch = batch
        self._seed = seed if isinstance(seed, (int, np.integer)) else None
        self._rng = make_rng(seed)
        self.session = session_from_config(config, seed=self._rng)
        self.budget = config.budget()

    def simulate_point(self, distance_m: float, *,
                       rng: Optional[np.random.Generator] = None,
                       share_excitation: bool = False) -> LinkPoint:
        """Run one distance point.

        Parameters
        ----------
        rng:
            Generator for every draw at this point.  Defaults to the
            simulator's own stream (the legacy serial behaviour); the
            experiment engine passes a per-point spawned generator so
            points are independent of execution order.
        share_excitation:
            Draw one excitation frame and reuse it for all packets at
            this point instead of rebuilding the waveform per packet.
            Statistically equivalent (tag bits, fading, sync and noise
            still vary per packet) and much faster.
        """
        with obs.span("sim.point", distance_m=float(distance_m),
                      packets=self.packets_per_point):
            return self._simulate_point(distance_m, rng=rng,
                                        share_excitation=share_excitation)

    def _simulate_point(self, distance_m: float, *,
                        rng: Optional[np.random.Generator],
                        share_excitation: bool) -> LinkPoint:
        gen = self._rng if rng is None else make_rng(rng)
        pending = self._point_phase1(
            distance_m, gen, self._point_excitation(gen, share_excitation),
            NoiseArena(max(1, self.packets_per_point)))
        if pending.draws:
            self.session.channel_packets(pending.draws)
            pending.results = list(self.session.finish_packets(pending.draws))
        return self._point_finish(pending)

    def _point_excitation(self, gen: np.random.Generator,
                          share_excitation: bool) -> Optional[Any]:
        """The excitation a point shares among its packets (its first
        draw), or ``None`` when each packet draws its own.
        ``make_excitation`` is optional: a session offering only the
        registry protocol draws each packet's excitation itself."""
        make_excitation = getattr(self.session, "make_excitation", None)
        if share_excitation and make_excitation:
            return make_excitation(gen)
        return None

    def _point_phase1(self, distance_m: float, gen: np.random.Generator,
                      excitation: Optional[Any],
                      arena: NoiseArena) -> "_PendingPoint":
        """Phase 1 of one distance point, after its shared *excitation*
        (from :meth:`_point_excitation`): link budget, then per packet
        the fading draw interleaved with the session's own draws,
        exactly as the scalar loop orders them.  On the batch path each
        packet's noise is drawn into the next row of *arena*.

        On the batch path the returned draws still await their channel
        (``session.channel_packets``) and decode; on the scalar
        fallback ``results`` is already complete and ``draws`` empty.
        """
        dep = self.deployment.with_rx_distance(distance_m)
        mean_rssi = self.budget.rssi_dbm(dep)
        incident = self.budget.tag_incident_dbm(dep)
        noise = self.budget.noise_dbm
        # The session adds AWGN across its full oversampled band; scale
        # so the *in-channel* noise matches the budget, and charge the
        # configured real-chip implementation loss.
        snr_penalty = (10 * np.log10(self.session.oversample_factor)
                       + self.config.implementation_loss_db)

        use_batch = self.batch and hasattr(self.session, "predraw_packet")
        if self.batch and not use_batch:
            # Batch requested but this session has no two-phase API —
            # count the silent scalar fallback so `repro report` can
            # surface it instead of quietly losing the speedup.
            obs.inc("phy.batch.fallback")
        rssis: List[float] = []
        draws: List[Any] = []
        results: List[Any] = []
        for _ in range(self.packets_per_point):
            rssi = mean_rssi + gen.normal(0, self.config.fading_sigma_db)
            rssis.append(rssi)
            snr = rssi - noise - snr_penalty
            if use_batch:
                draws.append(self.session.predraw_packet(
                    snr_db=snr, incident_power_dbm=incident,
                    rng=gen, excitation=excitation, arena=arena))
            else:
                results.append(self.session.run_packet(
                    snr_db=snr, incident_power_dbm=incident,
                    rng=gen, excitation=excitation))
        return _PendingPoint(distance_m=distance_m, mean_rssi=mean_rssi,
                             noise_dbm=noise, rssis=rssis, draws=draws,
                             results=results)

    def _point_finish(self, pending: "_PendingPoint") -> LinkPoint:
        bits_ok = 0
        airtime_us = 0.0
        errors = 0
        bits_delivered = 0
        delivered = 0
        # Aggregate in packet order so float sums match the scalar loop.
        for res in pending.results:
            airtime_us += res.duration_us + self.config.interpacket_gap_us
            if res.delivered:
                delivered += 1
                bits_ok += res.tag_bits_ok
                bits_delivered += res.tag_bits_sent
                errors += res.tag_bit_errors

        throughput_kbps = bits_ok / airtime_us * 1e3 if airtime_us else 0.0
        ber = errors / bits_delivered if bits_delivered else math.nan
        return LinkPoint(
            distance_m=pending.distance_m,
            throughput_kbps=throughput_kbps,
            ber=ber,
            rssi_dbm=float(np.mean(pending.rssis)),
            delivery_ratio=delivered / self.packets_per_point,
            snr_db=pending.mean_rssi - pending.noise_dbm,
            ber_valid=bits_delivered > 0,
        )

    def simulate_points(self, distances_m: Sequence[float], *,
                        rngs: Optional[Sequence[np.random.Generator]] = None,
                        share_excitation: bool = False,
                        registries: Optional[Sequence[Any]] = None,
                        flush_bytes: Optional[int] = None
                        ) -> List[LinkPoint]:
        """Cross-point batched ``[simulate_point(d) for d in ...]``.

        Phase 1 runs per point in order (each point's RNG draws are
        identical to the per-point loop), then the channel and decode
        are stacked *across* points — so a whole sweep amortises the
        vectorised receiver kernels even when each point only carries a
        handful of packets.  A flush covers the fewest whole points
        whose packets reach the session's ``_chunk_packets``; its noise
        goes into one :class:`~repro.channel.awgn.NoiseArena` with a row
        for every packet those points can draw (at most
        ``_chunk_packets - 1 + packets_per_point``, and never more than
        the points left), and the flush runs as soon as the arena
        cannot take another whole point.  Bit-identical to the
        per-point loop.  A
        session without the two-phase batch API (or ``batch=False``)
        runs each point's scalar chain inside phase 1 instead, so every
        session takes this path.  Each point's ``sim.point`` span covers
        its phase 1; the stacked passes are shared by the points and
        run under the enclosing span.

        Parameters
        ----------
        rngs:
            One generator per point (the engine's per-task streams);
            default is the simulator's own serial stream for every
            point, matching serial ``sweep``.
        registries:
            Optional one :class:`~repro.obs.MetricsRegistry` per point;
            each point's counters and stage records are routed to its
            registry (the cross-point channel/decode timers stay on the
            ambient registry).  Used by the engine to keep per-task
            forensics exact while sharing the stacked kernels.
        flush_bytes:
            Optional cap on one flush's noise arena, in bytes.  A flush
            then holds the most whole points whose packets fit in
            ``min(_chunk_packets, flush_bytes // row bytes)`` rows
            (:meth:`NoiseArena.row_bytes` of the shared excitation's
            length), and never fewer than one point.  The engine's pool
            workers use it to bound their memory; results do not change.
        """
        session = self.session
        pendings: List[_PendingPoint] = []
        buffered: List[Any] = []           # (point idx, packet idx, draw)
        chunk = int(getattr(session, "_chunk_packets", _CHUNK_PACKETS))
        ppp = self.packets_per_point
        arena: Optional[NoiseArena] = None

        def flush_points(excitation: Optional[Any]) -> int:
            if ppp <= 0:
                return 1
            if flush_bytes is None or excitation is None:
                return -(-chunk // ppp)
            row = NoiseArena.row_bytes(excitation.info.total_samples)
            return max(1, min(chunk, flush_bytes // row) // ppp)

        def point_scope(idx: int):
            return (obs.collect_into(registries[idx])
                    if registries is not None else nullcontext())

        def flush() -> None:
            draws = [d for (_, _, d) in buffered]
            session.channel_packets(draws)
            decodes = session.decode_packets(draws)
            k = 0
            while k < len(buffered):
                pi = buffered[k][0]
                j = k
                while j < len(buffered) and buffered[j][0] == pi:
                    j += 1
                with point_scope(pi):
                    for (_, di, d), dec in zip(buffered[k:j],
                                               decodes[k:j]):
                        pendings[pi].results[di] = \
                            session.finish_packet(d, dec)
                        d.noisy = d.arena = None
                k = j
            buffered.clear()

        for idx, dist in enumerate(distances_m):
            gen = self._rng if rngs is None else make_rng(rngs[idx])
            with point_scope(idx), obs.span("sim.point",
                                            distance_m=float(dist),
                                            packets=self.packets_per_point):
                excitation = self._point_excitation(gen, share_excitation)
                if arena is None:
                    points = min(flush_points(excitation),
                                 len(distances_m) - idx)
                    arena = NoiseArena(max(1, points * ppp))
                pending = self._point_phase1(float(dist), gen, excitation,
                                             arena)
            if pending.draws:
                pending.results = [None] * len(pending.draws)
                for di, d in enumerate(pending.draws):
                    if d.result is not None:
                        pending.results[di] = d.result
                    else:
                        buffered.append((idx, di, d))
            pendings.append(pending)
            # Once ``chunk`` packets are buffered the arena has fewer
            # than ``ppp`` rows left, so this also flushes every chunk.
            if arena.rows - arena.used < ppp:
                if buffered:
                    flush()
                arena = None
        if buffered:
            flush()
        return [self._point_finish(p) for p in pendings]

    def _spec_seed(self) -> int:
        """Integer master seed for the engine path (minted lazily when
        the simulator was seeded with a generator or not at all).

        Derived from the instance generator's *state* without drawing
        from it, so minting a spec never perturbs the serial stream:
        ``sweep()`` results are identical whether ``spec()`` was called
        before or after any serial method.
        """
        if self._seed is None:
            self._seed = derive_seed(self._rng)
        return int(self._seed)

    def spec(self, distances_m: Sequence[float]):
        """The :class:`~repro.sim.engine.ExperimentSpec` equivalent of
        ``sweep(distances_m, n_jobs=...)``."""
        from repro.sim.engine import ExperimentSpec

        return ExperimentSpec(config=self.config,
                              deployment=self.deployment,
                              distances_m=tuple(distances_m),
                              packets_per_point=self.packets_per_point,
                              seed=self._spec_seed())

    def sweep(self, distances_m: Iterable[float],
              n_jobs: Optional[int] = None, *,
              failure_policy=None, checkpoint=None) -> List[LinkPoint]:
        """Run a full distance sweep.

        With ``n_jobs=None`` (default) the sweep runs serially through
        the simulator's own generator, preserving the historical result
        stream.  Any integer ``n_jobs`` — including 1 — routes through
        the parallel engine with per-point seeds, so ``n_jobs=1`` and
        ``n_jobs=8`` agree point-for-point.

        *failure_policy* and *checkpoint* are forwarded to
        :class:`~repro.sim.engine.ExperimentEngine` (supplying either
        implies the engine path, with ``n_jobs=1`` if unset): a
        checkpointed sweep journals completed points to a JSONL file
        and resumes bit-identically after an interruption.
        """
        distances = list(distances_m)
        if n_jobs is None and failure_policy is None and checkpoint is None:
            return self.simulate_points(distances)

        from repro.sim.engine import ExperimentEngine

        engine = ExperimentEngine(n_jobs=1 if n_jobs is None else n_jobs,
                                  failure_policy=failure_policy)
        return engine.run(self.spec(distances), checkpoint=checkpoint).points

    def max_range_m(self, distances_m: Sequence[float],
                    min_delivery: float = 0.05) -> float:
        """Largest swept distance that still delivers packets."""
        best = 0.0
        for point in self.sweep(distances_m):
            if point.delivery_ratio >= min_delivery:
                best = max(best, point.distance_m)
        return best
