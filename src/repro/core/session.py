"""End-to-end single-tag backscatter links for the three radios.

Each session wires together: excitation transmitter -> FreeRider tag ->
AWGN channel at a given SNR -> commodity receiver -> tag-data decoder.
The link simulator (:mod:`repro.sim.linksim`) drives these sessions over
distance sweeps by converting the link budget's SNR into the AWGN level.

Throughput accounting follows the paper: tag bits ride on excitation
packets, so goodput = bits-per-packet x packet rate x delivery ratio.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.channel.awgn import NoiseArena, awgn_apply_batch
from repro.obs import forensics
from repro.core.decoder import SymbolDiffTagDecoder, XorTagDecoder
from repro.core.translation import (
    AlternatingPhaseTranslator,
    FskShiftTranslator,
    PhaseTranslator,
)
from repro.tag.tag import ExcitationInfo, FreeRiderTag
from repro.utils.bits import as_bits, random_bits
from repro.utils.rng import make_rng

__all__ = ["SessionResult", "Excitation", "PacketDraw",
           "WifiBackscatterSession", "ZigbeeBackscatterSession",
           "BleBackscatterSession", "DsssBackscatterSession",
           "QuaternaryWifiSession"]


@dataclass
class Excitation:
    """A ready-to-backscatter excitation packet (waveform + geometry).

    Building the excitation waveform (OFDM modulation, chip spreading,
    GFSK filtering) dominates ``run_packet``'s cost, yet the tag's BER
    statistics only depend on the waveform through the noise — so the
    experiment engine draws one excitation per distance point with
    :meth:`~WifiBackscatterSession.make_excitation` and reuses it for
    every packet at that point.
    """

    frame: Any                  # per-radio frame object (samples + bits)
    info: ExcitationInfo


class _FrameCache:
    """Tiny LRU memo for ``transmitter.build``.

    Sessions funnel every build through this so repeated payloads (the
    all-zeros probe of ``capacity_bits``, the engine's shared per-point
    excitation) skip the full modulation chain.  Bounded so the legacy
    random-payload path cannot grow it.

    The *session* supplies the key via its ``_frame_key`` helper, which
    must cover **every field that changes the built frame** — payload
    bytes, scrambler seed, modulation rate, samples-per-symbol — not
    just the payload, so mutating a session's configuration after first
    use can never serve a stale template.  Build latency is recorded in
    the ``<prefix>.encode.seconds`` histogram; hits count
    ``<prefix>.encode_cached``.
    """

    def __init__(self, max_entries: int = 4,
                 metrics_prefix: str = "phy") -> None:
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._max = max_entries
        self._prefix = metrics_prefix

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> Any:
        frame = self._entries.get(key)
        if frame is None:
            with obs.timed(self._prefix + ".encode.seconds"):
                frame = build()
            self._entries[key] = frame
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)
        else:
            obs.inc(self._prefix + ".encode_cached")
            self._entries.move_to_end(key)
        return frame


@dataclass
class SessionResult:
    """Outcome of one excitation packet's worth of backscatter."""

    delivered: bool            # backscattered packet header decoded
    tag_bits_sent: int
    tag_bit_errors: int
    duration_us: float         # excitation packet airtime

    @property
    def tag_ber(self) -> float:
        if self.tag_bits_sent == 0:
            return 0.0
        return self.tag_bit_errors / self.tag_bits_sent

    @property
    def tag_bits_ok(self) -> int:
        return self.tag_bits_sent - self.tag_bit_errors


@dataclass
class PacketDraw:
    """The randomness and cheap per-packet work of one ``run_packet``.

    ``predraw_packet`` consumes the generator in exactly the scalar
    order (tag bits, envelope gate, sync gate, AWGN), so a caller can
    interleave its own draws — per-packet fading, say — between packets
    and still hand the whole batch to ``channel_packets`` +
    ``finish_packets`` for vectorised noise and decode with results
    bit-identical to the scalar loop.

    ``result`` is set when a pre-decode gate already decided the packet
    (envelope miss, sync miss); such draws carry no waveform.  A pending
    draw owns row ``row`` of a :class:`NoiseArena` shared by its flush:
    the arena holds its standard-normal noise draws, and the bits to
    modulate stay here.  The tag modulation, power measurement and noise
    scale are deferred to ``channel_packets``, which runs them in place
    in the arena and fills in ``sigma`` and ``noisy`` — a view of the
    arena row, not a copy.  The arena belongs to the flush and is never
    reused, so a ``noisy`` view stays valid and unchanged for as long as
    a caller holds it.
    """

    excitation: Excitation
    bits_sent: int
    sent_bits: Optional[np.ndarray]     # ground-truth bits on the air
    result: Optional[SessionResult]     # early exit, else None
    noisy: Optional[np.ndarray] = None  # post-channel waveform to decode
    noise_var: float = 0.0              # receiver noise estimate (WiFi)
    snr_db: float = 0.0                 # link SNR, for forensic events
    sigma: float = 0.0                  # per-component noise std dev
    arena: Optional[NoiseArena] = None  # holds the noise draws, then noisy
    row: int = -1                       # this packet's row in the arena


def _arena_runs(draws: List[PacketDraw]) -> List[List[PacketDraw]]:
    """Split *draws* (of one excitation, so of one sample length) into
    maximal runs on consecutive rows of one arena, keeping their
    order."""
    runs: List[List[PacketDraw]] = []
    for d in draws:
        last = runs[-1][-1] if runs else None
        if (last is not None and d.arena is last.arena
                and d.row == last.row + 1):
            runs[-1].append(d)
        else:
            runs.append([d])
    return runs


def _record_stage(obs_prefix: str, stage: str, snr_db: float,
                  result: SessionResult) -> None:
    """One forensic record per packet: the stage counter always, plus a
    sampled per-packet trace event when the active registry is tracing.
    Neither touches RNG or decode state, so scalar/batched outcomes stay
    bit-identical with tracing on or off."""
    obs.inc(f"{obs_prefix}.stage.{stage}")
    obs.packet_event(obs_prefix, stage, snr_db=float(snr_db),
                     delivered=result.delivered,
                     bits=result.tag_bits_sent,
                     errors=result.tag_bit_errors)


class _BatchPacketMixin:
    """Shared two-phase batch driver for the per-radio sessions.

    The mixin owns the whole phase-1 pipeline: ``predraw_packet``
    makes every RNG draw in scalar order (tag bits, envelope gate,
    sync gate, AWGN standard normals), writing the normals straight
    into the next row of the flush's :class:`NoiseArena`, and
    ``channel_packets`` turns the pending draws into noisy waveforms
    in place in that arena: tag modulation, power and scale-and-add
    run over views of consecutive rows, with no stacked copy between
    the RNG and the receiver.  Whoever drives a flush sizes its arena
    to the most packets it can draw (``draw_packets``: one row per SNR;
    ``draw_packet``: one row; ``LinkSimulator.simulate_points``: the
    points of one flush).  Concrete sessions provide
    three hooks for the radio-specific pieces — ``_default_tag_bits``,
    ``_sync_gate`` (default: no gate), ``_noise_var`` (default: none) —
    plus the decode trio: ``_batch_key`` groups draws that can share
    one stacked decode, ``_decode_batch`` runs the vectorised receiver
    over one group (whose waveforms ``_noisy_stack`` hands over as an
    arena view when the group's rows are consecutive), and
    ``_finish_packet`` turns one decode into a
    :class:`SessionResult`.  ``run_packet`` and ``run_packets`` are
    then the scalar and batched drivers over the same pieces.
    """

    _obs: str
    _rng: np.random.Generator
    tag: FreeRiderTag
    # Packets stacked per channel/decode pass in run_packets (and the
    # packets a simulate_points flush reaches); it sets the noise arena's
    # size, which is the stage's working set.  Since the channel runs in
    # place, bigger stacks no longer lose bandwidth: on a 2-core Xeon
    # the Fig-12/13 sweeps (12 packets a point) ran ZigBee at about the
    # same rate and BLE some 10-15% faster with 48-row flushes than
    # with 24, but peak RSS grew from 76 to 110 MB, so the narrowband
    # radios keep 16.  WiFi, whose Viterbi amortises per-call Python
    # overhead, overrides this upward.
    _chunk_packets: int = 16

    # -- radio-specific phase-1 hooks -----------------------------------

    def _default_tag_bits(self, info: ExcitationInfo,
                          gen: np.random.Generator) -> np.ndarray:
        return random_bits(self.tag.capacity_bits(info), gen)

    def _sync_gate(self, snr_db: float, gen: np.random.Generator) -> bool:
        """Post-envelope detection gate; must make the same RNG draws
        whether it passes or fails.  Default: always synchronised."""
        return True

    def _noise_var(self, snr_db: float) -> float:
        """Receiver noise-variance estimate handed to the decoder."""
        return 0.0

    # -- phase 1: RNG draws in scalar order -----------------------------

    def predraw_packet(self, snr_db: float, tag_bits: Any = None,
                       incident_power_dbm: Optional[float] = None,
                       rng: Optional[np.random.Generator] = None,
                       excitation: Optional[Excitation] = None,
                       arena: Optional[NoiseArena] = None) -> PacketDraw:
        """Every RNG draw of one packet, in exactly the scalar order
        (tag bits, envelope gate, sync gate, AWGN normals).  The noise
        is *drawn* into the next row of *arena* (a one-row arena of its
        own by default) but not yet *applied* — and the tag modulation
        is deferred entirely: hand the result (alone or with the rest of
        its flush) to :meth:`channel_packets`, which runs the control
        waveforms, power measurement and noise in place in the arena."""
        gen = make_rng(rng if rng is not None else self._rng)
        if excitation is None:
            excitation = self.make_excitation()
        frame, info = excitation.frame, excitation.info

        if tag_bits is None:
            tag_bits = self._default_tag_bits(info, gen)
        bits = as_bits(tag_bits)
        obs.inc(self._obs + ".packets")
        if incident_power_dbm is not None and not self.tag.envelope.detects(
                incident_power_dbm, gen):
            result = SessionResult(False, len(tag_bits), len(tag_bits),
                                   frame.duration_us)
            _record_stage(self._obs, forensics.SYNC_FAIL, snr_db, result)
            return PacketDraw(excitation, 0, None, result, snr_db=snr_db)
        send = bits[:self.tag.capacity_bits(info)]

        if not self._sync_gate(snr_db, gen):
            result = SessionResult(False, int(send.size), int(send.size),
                                   frame.duration_us)
            _record_stage(self._obs, forensics.SYNC_FAIL, snr_db, result)
            return PacketDraw(excitation, int(send.size), None, result,
                              snr_db=snr_db)

        with obs.timed(self._obs + ".rng.seconds"):
            if arena is None:
                arena = NoiseArena(1)
            row = arena.draw(gen, info.total_samples)
        return PacketDraw(excitation, int(send.size), send, None,
                          noise_var=self._noise_var(snr_db), snr_db=snr_db,
                          arena=arena, row=row)

    def channel_packets(self,
                        draws: Sequence[PacketDraw]) -> List[PacketDraw]:
        """Tag modulation plus pre-drawn AWGN for every pending draw,
        in place in the draws' noise arenas.

        Draws are grouped by shared excitation, and each group splits
        into runs of consecutive rows of one arena.  Per run, the
        control waveforms are written into the arena's complex rows and
        multiplied by the frame there (``np.multiply(..., out=)``); each
        row's power goes through a one-row scratch buffer (``abs``,
        ``square``, ``mean``); and :func:`awgn_apply_batch` scales the
        drawn normals in place and adds them to the rows' real and
        imaginary planes.  Every step is the scalar chain's elementwise
        IEEE operation (and the one-row mean is the stacked row-wise
        mean), so results are bit-identical to backscattering and
        noising packets one at a time.  Early-gated draws pass through
        untouched; the input order is preserved."""
        pending = [d for d in draws if d.result is None and d.noisy is None]
        if not pending:
            return list(draws)
        with obs.timed(self._obs + ".channel.seconds"):
            by_exc: "OrderedDict[int, List[PacketDraw]]" = OrderedDict()
            for d in pending:
                by_exc.setdefault(id(d.excitation), []).append(d)
            for members in by_exc.values():
                exc = members[0].excitation
                frame, info = exc.frame, exc.info
                n = info.total_samples
                if frame.samples.size != n:
                    raise ValueError("excitation length disagrees with info")
                plan = self.tag.plan_for(info)
                scratch = np.empty(n)
                for run in _arena_runs(members):
                    arena, r0 = run[0].arena, run[0].row
                    assert arena is not None
                    rows = slice(r0, r0 + len(run))
                    noisy = arena.noisy(n)[rows]
                    self._write_control(run, plan, n, noisy)
                    np.multiply(frame.samples, noisy, out=noisy)
                    sigmas = np.empty(len(run))
                    for k, d in enumerate(run):
                        np.abs(noisy[k], out=scratch)
                        np.square(scratch, out=scratch)
                        noise_power = (float(scratch.mean())
                                       / 10 ** (d.snr_db / 10))
                        d.sigma = float(np.sqrt(noise_power / 2))
                        sigmas[k] = d.sigma
                    awgn_apply_batch(noisy, sigmas, arena.z(n)[:, rows])
                    for k, d in enumerate(run):
                        d.noisy = noisy[k]
                    arena.channelled(len(run))
        return list(draws)

    def _write_control(self, run: List[PacketDraw], plan: Any, n: int,
                       out: np.ndarray) -> None:
        """Write each draw's control waveform into its row of *out*:
        one stacked build when the translator has one and the bit rows
        agree in length, else row by row."""
        translator = self.tag.translator
        batch_builder = getattr(translator, "control_waveform_batch", None)
        bit_rows = [d.sent_bits for d in run if d.sent_bits is not None]
        assert len(bit_rows) == len(run)
        if batch_builder is not None and len(
                {b.size for b in bit_rows}) == 1:
            batch_builder(bit_rows, plan, n, out=out)
        else:
            for k, bits in enumerate(bit_rows):
                out[k] = translator.control_waveform(bits, plan, n)

    def draw_packet(self, snr_db: float, tag_bits: Any = None,
                    incident_power_dbm: Optional[float] = None,
                    rng: Optional[np.random.Generator] = None,
                    excitation: Optional[Excitation] = None) -> PacketDraw:
        """Phase 1 of a packet, noise applied: ``predraw_packet`` into
        a one-row arena plus a single-packet ``channel_packets``."""
        pre = self.predraw_packet(snr_db, tag_bits=tag_bits,
                                  incident_power_dbm=incident_power_dbm,
                                  rng=rng, excitation=excitation)
        return self.channel_packets([pre])[0]

    # -- phase 2 hooks: radio-specific decode ---------------------------

    def _decode_scalar(self, draw: PacketDraw) -> Any:
        raise NotImplementedError

    def _decode_batch(self, draws: List[PacketDraw]) -> List[Any]:
        raise NotImplementedError

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        raise NotImplementedError

    def _batch_key(self, draw: PacketDraw) -> Tuple[Any, ...]:
        noisy = draw.noisy
        assert noisy is not None
        return (noisy.size,)

    @staticmethod
    def _noisy_stack(draws: List[PacketDraw]) -> np.ndarray:
        """The (B, N) waveforms of one decode group.

        When the group's draws sit on consecutive rows of one arena,
        this is the arena's own view of those rows, so the receiver
        reads the channel's output without a copy; otherwise (draws
        from several flushes, or ``decode_iq`` replay) the rows are
        stacked.  Receivers read their input and never write to it.
        """
        first = draws[0]
        if first.arena is not None and first.noisy is not None:
            block = first.arena.noisy(first.noisy.size)
            if all(d.arena is first.arena and d.row == first.row + k
                   and d.noisy is not None and d.noisy.base is block
                   for k, d in enumerate(draws)):
                return block[first.row:first.row + len(draws)]
        return np.stack([d.noisy for d in draws])

    def run_packet(self, snr_db: float, tag_bits: Any = None,
                   incident_power_dbm: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None,
                   excitation: Optional[Excitation] = None) -> SessionResult:
        """One excitation packet end-to-end at the given backscatter SNR."""
        draw = self.draw_packet(snr_db, tag_bits=tag_bits,
                                incident_power_dbm=incident_power_dbm,
                                rng=rng, excitation=excitation)
        if draw.result is not None:
            return draw.result
        with obs.timed(self._obs + ".decode.seconds"):
            decoded = self._decode_scalar(draw)
        return self._finish_packet(draw, decoded)

    def decode_packets(self,
                       draws: Sequence[PacketDraw]) -> List[Any]:
        """Run the batched receiver kernels over all pending draws,
        grouped by ``_batch_key``; returns one decode per draw (``None``
        for early-gated draws).  Each group's stacked decode is
        bit-identical to decoding its members one at a time."""
        decodes: List[Any] = [None] * len(draws)
        groups: "OrderedDict[Tuple[Any, ...], List[int]]" = OrderedDict()
        for i, d in enumerate(draws):
            if d.result is None:
                groups.setdefault(self._batch_key(d), []).append(i)
        for members in groups.values():
            with obs.timed(self._obs + ".decode.seconds"):
                decoded = self._decode_batch([draws[i] for i in members])
            for i, dec in zip(members, decoded):
                decodes[i] = dec
        return decodes

    def finish_packet(self, draw: PacketDraw,
                      decoded: Any) -> SessionResult:
        """Turn one draw plus its decode (from :meth:`decode_packets`)
        into a :class:`SessionResult`."""
        if draw.result is not None:
            return draw.result
        return self._finish_packet(draw, decoded)

    def finish_packets(self,
                       draws: Sequence[PacketDraw]) -> List[SessionResult]:
        """Phase 2: decode all pending draws through the batched
        receiver kernels; bit-identical to finishing each scalar."""
        decodes = self.decode_packets(draws)
        return [self.finish_packet(d, dec)
                for d, dec in zip(draws, decodes)]

    def run_packets(self, snrs_db: Sequence[float],
                    tag_bits: Optional[Sequence[Any]] = None,
                    incident_power_dbm: Optional[float] = None,
                    rng: Optional[np.random.Generator] = None,
                    excitation: Optional[Excitation] = None
                    ) -> List[SessionResult]:
        """Batched ``run_packet`` over one SNR per packet.

        All per-packet randomness is drawn up front in exactly the
        scalar loop's order, then the stacked waveforms go through the
        vectorised receiver kernels — results are bit-identical to
        ``[run_packet(snr, ...) for snr in snrs_db]`` under the same
        generator.  *tag_bits*, when given, is one bit array per packet.

        Packets are processed in chunks of ``_chunk_packets``, each
        with its own noise arena, which bounds the memory held at once.
        Chunking only regroups exact elementwise arithmetic (the RNG
        phase stays strictly in packet order), so results are
        unchanged.
        """
        gen = make_rng(rng if rng is not None else self._rng)
        results: List[SessionResult] = []
        for a in range(0, len(snrs_db), self._chunk_packets):
            chunk = snrs_db[a:a + self._chunk_packets]
            draws = self.draw_packets(
                chunk,
                tag_bits=None if tag_bits is None
                else tag_bits[a:a + self._chunk_packets],
                incident_power_dbm=incident_power_dbm,
                rng=gen, excitation=excitation)
            results.extend(self.finish_packets(draws))
        return results

    def draw_packets(self, snrs_db: Sequence[float],
                     tag_bits: Optional[Sequence[Any]] = None,
                     incident_power_dbm: Optional[float] = None,
                     rng: Optional[np.random.Generator] = None,
                     excitation: Optional[Excitation] = None
                     ) -> List[PacketDraw]:
        """Phase 1 over many packets: sequential RNG draws (scalar
        order) into one arena of ``len(snrs_db)`` rows, then one
        channel pass in place."""
        gen = make_rng(rng if rng is not None else self._rng)
        arena = NoiseArena(max(len(snrs_db), 1))
        draws = [
            self.predraw_packet(
                float(snr),
                tag_bits=None if tag_bits is None else tag_bits[i],
                incident_power_dbm=incident_power_dbm,
                rng=gen, excitation=excitation, arena=arena)
            for i, snr in enumerate(snrs_db)]
        return self.channel_packets(draws)

    # -- capture replay seam --------------------------------------------

    def excitation_from_payload(self, payload: bytes,
                                scrambler_seed: Optional[int] = None
                                ) -> Excitation:
        """Rebuild the excitation for a *known* payload, deterministically.

        The RNG-free complement of :meth:`make_excitation`, used by the
        IQ capture corpus (:mod:`repro.iq`): a frozen capture's sidecar
        records the excitation payload bytes, from which the clean frame
        (and with it the tag-decode reference streams) is reconstructed
        bit-identically on replay.  *scrambler_seed* only applies to the
        WiFi sessions, whose frames additionally depend on it.
        """
        if scrambler_seed is not None:
            raise ValueError(
                f"{type(self).__name__} frames have no scrambler seed")
        frame = self._build_frame(payload)
        return Excitation(frame=frame, info=self._info(frame))

    def decode_iq(self, samples: np.ndarray, excitation: Excitation,
                  tag_bits: Any, noise_var: float = 0.0,
                  snr_db: float = 0.0, batched: bool = False
                  ) -> SessionResult:
        """Decode a captured baseband waveform through the receive chain.

        The replay entry point for the IQ corpus: *samples* is a
        post-channel waveform (typically loaded from a frozen capture),
        *excitation* the clean frame it was backscattered onto, and
        *tag_bits* the ground-truth tag payload the decode is scored
        against.  The draw and channel phases are bypassed entirely —
        this method makes **no RNG draws**, so replaying a corpus can
        never perturb a session's generator state.  An empty *samples*
        array represents a capture gated before the receiver ran
        (envelope-detector miss) and classifies as ``sync_fail`` without
        touching the receiver.  The packet is counted and
        stage-classified exactly like a live one, so corpus replays
        reproduce the ``phy.<radio>.stage.*`` accounting of the run that
        captured them.  With ``batched=True`` the decode goes through
        the stacked receiver kernels (``finish_packets``) instead of the
        scalar path; both are bit-identical by the PR 4/7 contract.
        """
        # Mirror the live path's truncation to tag capacity (predraw's
        # ``send = bits[:capacity]``) so an over-long ground truth can
        # never push the tag decoders past the frame's span budget.
        bits = as_bits(tag_bits)[:self.tag.capacity_bits(excitation.info)]
        wave = np.asarray(samples)
        obs.inc(self._obs + ".packets")
        if wave.size == 0:
            result = SessionResult(False, int(bits.size), int(bits.size),
                                   excitation.frame.duration_us)
            _record_stage(self._obs, forensics.SYNC_FAIL, snr_db, result)
            return result
        draw = PacketDraw(excitation, int(bits.size), bits, None,
                          noisy=wave, noise_var=noise_var, snr_db=snr_db)
        if batched:
            return self.finish_packets([draw])[0]
        with obs.timed(self._obs + ".decode.seconds"):
            decoded = self._decode_scalar(draw)
        return self._finish_packet(draw, decoded)


class WifiBackscatterSession(_BatchPacketMixin):
    """802.11g/n OFDM backscatter link (paper sections 2.3.1, 3.2.1).

    Parameters
    ----------
    rate_mbps:
        Excitation bit rate (the paper evaluates at 6 Mb/s).
    repetition:
        OFDM symbols per tag bit (4 at 6 Mb/s).
    payload_bytes:
        Excitation PSDU size per packet.
    """

    sample_rate_hz = 20e6
    unit_samples = 80  # one OFDM symbol at 20 MS/s
    oversample_factor = 1  # sample rate equals channel bandwidth
    # Viterbi dominates the WiFi receiver, so bigger stacks keep
    # amortising its per-call Python overhead.
    _chunk_packets = 64
    # Real 802.11 sync (STF detection, AGC, CFO) fails near 0 dB SNR even
    # though an ideal-timing Viterbi would still decode; model it as a
    # soft detection gate.  Keeps the range cliff at the paper's ~42 m.
    sync_threshold_db = 2.0
    sync_slope_db = 0.8

    def __init__(self, rate_mbps: float = 6.0, repetition: int = 4,
                 payload_bytes: int = 512, seed: Optional[int] = None,
                 pilot_correction: bool = False) -> None:
        from repro.phy.wifi import WifiReceiver, WifiTransmitter

        self._rng = make_rng(seed)
        self.transmitter = WifiTransmitter(rate_mbps, seed=self._rng)
        self.receiver = WifiReceiver(pilot_correction=pilot_correction)
        self.tag = FreeRiderTag(PhaseTranslator(n_levels=2),
                                repetition=repetition)
        self.payload_bytes = payload_bytes
        self.repetition = repetition
        self._obs = "phy.wifi"
        self._frames = _FrameCache(metrics_prefix=self._obs)

    def _frame_key(self, psdu: bytes,
                   scrambler_seed: Optional[int]) -> Tuple[Any, ...]:
        # The built frame depends on the rate (read at call time, so a
        # swapped transmitter invalidates old entries) as well as the
        # payload and scrambler seed.
        return ("wifi", self.transmitter.rate.mbps, psdu, scrambler_seed)

    def capacity_bits(self) -> int:
        """Tag bits per excitation packet (at the configured payload)."""
        psdu = bytes(self.payload_bytes)
        frame = self._frames.get_or_build(
            self._frame_key(psdu, None), lambda: self.transmitter.build(psdu))
        info = self._info(frame)
        return self.tag.capacity_bits(info)

    def make_excitation(self,
                        rng: Optional[np.random.Generator] = None
                        ) -> Excitation:
        """Draw one excitation packet (reusable across ``run_packet``\\ s).

        With *rng* the whole draw — payload and scrambler seed — comes
        from that generator, making the result independent of the
        transmitter's stream state (the engine's determinism contract);
        without it the transmitter's own stream is used, matching the
        legacy per-packet behaviour.
        """
        if rng is None:
            psdu = self.transmitter.random_psdu(self.payload_bytes)
            frame = self._frames.get_or_build(
                self._frame_key(psdu, None),
                lambda: self.transmitter.build(psdu))
        else:
            gen = make_rng(rng)
            psdu = bytes(int(b) for b in gen.integers(
                0, 256, size=self.payload_bytes))
            seed = int(gen.integers(1, 128))
            frame = self._frames.get_or_build(
                self._frame_key(psdu, seed),
                lambda: self.transmitter.build(psdu, scrambler_seed=seed))
        return Excitation(frame=frame, info=self._info(frame))

    def excitation_from_payload(self, payload: bytes,
                                scrambler_seed: Optional[int] = None
                                ) -> Excitation:
        """Deterministic excitation rebuild for capture replay; the WiFi
        frame also depends on the scrambler seed recorded alongside the
        payload."""
        frame = self._frames.get_or_build(
            self._frame_key(payload, scrambler_seed),
            lambda: self.transmitter.build(payload)
            if scrambler_seed is None
            else self.transmitter.build(payload,
                                        scrambler_seed=scrambler_seed))
        return Excitation(frame=frame, info=self._info(frame))

    def _info(self, frame: Any) -> ExcitationInfo:
        # The tag defers one extra OFDM symbol: the first DATA symbol
        # carries the SERVICE field, whose scrambled bits the receiver
        # uses to recover the (additive) descrambler seed.  Translating
        # that symbol would desynchronise the descrambler for the whole
        # frame, so it must pass through untouched.
        return ExcitationInfo(
            sample_rate_hz=self.sample_rate_hz,
            unit_samples=self.unit_samples,
            data_start_sample=frame.data_start + self.unit_samples,
            total_samples=frame.n_samples,
            radio="wifi",
        )

    def _sync_gate(self, snr_db: float, gen: np.random.Generator) -> bool:
        p_sync = 1.0 / (1.0 + np.exp(-(snr_db - self.sync_threshold_db)
                                     / self.sync_slope_db))
        return not gen.random() > p_sync

    def _noise_var(self, snr_db: float) -> float:
        return max(10 ** (-snr_db / 10), 1e-4)

    def _decode_scalar(self, draw: PacketDraw) -> Any:
        return self.receiver.decode(draw.noisy, noise_var=draw.noise_var)

    def _decode_batch(self, draws: List[PacketDraw]) -> List[Any]:
        waveforms = self._noisy_stack(draws)
        noise_vars = np.array([d.noise_var for d in draws])
        return self.receiver.decode_batch(waveforms, noise_vars)

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        frame = draw.excitation.frame
        result = decoded
        if not result.header_ok or result.data_field_bits is None:
            out = SessionResult(False, draw.bits_sent, draw.bits_sent,
                                frame.duration_us)
            _record_stage(self._obs, result.stage, draw.snr_db, out)
            return out

        rate = self.transmitter.rate
        if rate.n_bpsc <= 2:
            # BPSK/QPSK: a 180-degree flip complements every coded bit,
            # so the paper's XOR-of-decoded-streams decoder applies.
            decoder = XorTagDecoder(bits_per_unit=rate.n_dbps,
                                    repetition=self.repetition,
                                    offset_bits=rate.n_dbps,  # symbol 0
                                    guard_bits=2)
            tag_decode = decoder.decode(frame.data_bits,
                                        result.data_field_bits,
                                        n_tag_bits=draw.bits_sent)
            errors = tag_decode.errors_against(draw.sent_bits)
        else:
            # 16/64-QAM: the flip is a valid codeword translation but
            # only complements the MSB of each axis, so XOR decoding is
            # blind to it — estimate the span rotation instead.
            from repro.core.quaternary import (
                RotationTagDecoder,
                reference_symbol_matrix,
            )

            reference = reference_symbol_matrix(frame)
            rot = RotationTagDecoder(repetition=self.repetition,
                                     offset_symbols=1, n_levels=2)
            bits = rot.decode_bits(reference, result.equalized_symbols,
                                   n_tag_bits=draw.bits_sent)
            sent_bits = np.asarray(draw.sent_bits, dtype=np.uint8)
            n = min(sent_bits.size, bits.size)
            errors = int(np.sum(sent_bits[:n] != bits[:n])) \
                + (sent_bits.size - n)
        out = SessionResult(True, draw.bits_sent, errors, frame.duration_us)
        _record_stage(self._obs, result.stage, draw.snr_db, out)
        return out


class ZigbeeBackscatterSession(_BatchPacketMixin):
    """ZigBee OQPSK backscatter link (paper sections 2.3.2, 3.2.2)."""

    def __init__(self, repetition: int = 8, payload_bytes: int = 60,
                 sps: int = 4, seed: Optional[int] = None) -> None:
        from repro.phy.zigbee import ZigbeeReceiver, ZigbeeTransmitter
        from repro.phy.zigbee.frame import HEADER_SYMBOLS

        self._rng = make_rng(seed)
        self.transmitter = ZigbeeTransmitter(sps=sps, seed=self._rng)
        self.receiver = ZigbeeReceiver(sps=sps)
        self.tag = FreeRiderTag(PhaseTranslator(n_levels=2),
                                repetition=repetition)
        self.payload_bytes = payload_bytes
        self.repetition = repetition
        self.sps = sps
        self._header_symbols = HEADER_SYMBOLS
        self._obs = "phy.zigbee"
        self._frames = _FrameCache(metrics_prefix=self._obs)

    @property
    def sample_rate_hz(self) -> float:
        return 2e6 * self.sps

    @property
    def oversample_factor(self) -> int:
        """Sample rate over channel bandwidth (2 MHz)."""
        return self.sps

    @property
    def unit_samples(self) -> int:
        return 32 * self.sps  # one 4-bit symbol = 32 chips

    def _info(self, frame: Any) -> ExcitationInfo:
        return ExcitationInfo(
            sample_rate_hz=self.sample_rate_hz,
            unit_samples=self.unit_samples,
            data_start_sample=self._header_symbols * self.unit_samples,
            total_samples=frame.samples.size,
            radio="zigbee",
        )

    def capacity_bits(self) -> int:
        frame = self._build_frame(bytes(self.payload_bytes))
        return self.tag.capacity_bits(self._info(frame))

    def _build_frame(self, payload: bytes) -> Any:
        # ZigBee frame construction is deterministic per payload, but the
        # waveform also depends on the samples-per-chip setting.
        return self._frames.get_or_build(
            ("zigbee", self.sps, payload),
            lambda: self.transmitter.build(payload))

    def make_excitation(self,
                        rng: Optional[np.random.Generator] = None
                        ) -> Excitation:
        """Draw one excitation packet (reusable across ``run_packet``\\ s)."""
        if rng is None:
            payload = self.transmitter.random_payload(self.payload_bytes)
        else:
            gen = make_rng(rng)
            payload = bytes(int(b) for b in gen.integers(
                0, 256, size=self.payload_bytes))
        frame = self._build_frame(payload)
        return Excitation(frame=frame, info=self._info(frame))

    def _batch_key(self, draw: PacketDraw) -> Tuple[Any, ...]:
        noisy = draw.noisy
        assert noisy is not None
        return (noisy.size, draw.excitation.frame.n_symbols)

    def _decode_scalar(self, draw: PacketDraw) -> Any:
        return self.receiver.decode(draw.noisy,
                                    draw.excitation.frame.n_symbols)

    def _decode_batch(self, draws: List[PacketDraw]) -> List[Any]:
        waveforms = self._noisy_stack(draws)
        return self.receiver.decode_batch(
            waveforms, draws[0].excitation.frame.n_symbols)

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        frame = draw.excitation.frame
        if not decoded.sfd_found:
            out = SessionResult(False, draw.bits_sent, draw.bits_sent,
                                frame.duration_us)
            _record_stage(self._obs, decoded.stage, draw.snr_db, out)
            return out

        decoder = SymbolDiffTagDecoder(
            repetition=self.repetition,
            offset_symbols=self._header_symbols)
        tag_decode = decoder.decode(frame.symbols, decoded.symbols,
                                    n_tag_bits=draw.bits_sent)
        errors = tag_decode.errors_against(draw.sent_bits)
        out = SessionResult(True, draw.bits_sent, errors, frame.duration_us)
        _record_stage(self._obs, decoded.stage, draw.snr_db, out)
        return out


class BleBackscatterSession(_BatchPacketMixin):
    """Bluetooth FSK backscatter link (paper sections 2.3.3, 3.2.3)."""

    def __init__(self, repetition: int = 18, payload_bytes: int = 120,
                 sps: int = 8, delta_f: float = 500e3,
                 seed: Optional[int] = None) -> None:
        from repro.phy.ble import BleReceiver, BleTransmitter

        self._rng = make_rng(seed)
        self.transmitter = BleTransmitter(sps=sps, seed=self._rng)
        self.receiver = BleReceiver(sps=sps)
        translator = FskShiftTranslator(delta_f=delta_f,
                                        sample_rate_hz=1e6 * sps)
        self.tag = FreeRiderTag(translator, repetition=repetition)
        self.payload_bytes = payload_bytes
        self.repetition = repetition
        self.sps = sps
        self._header_bits = 8 * 5  # preamble + access address
        self._obs = "phy.bluetooth"
        self._frames = _FrameCache(metrics_prefix=self._obs)

    @property
    def sample_rate_hz(self) -> float:
        return 1e6 * self.sps

    @property
    def oversample_factor(self) -> int:
        """Sample rate over channel bandwidth (1 MHz)."""
        return self.sps

    def _info(self, frame: Any) -> ExcitationInfo:
        return ExcitationInfo(
            sample_rate_hz=self.sample_rate_hz,
            unit_samples=self.sps,  # one Bluetooth bit
            data_start_sample=self._header_bits * self.sps,
            total_samples=frame.samples.size,
            radio="bluetooth",
        )

    def capacity_bits(self) -> int:
        frame = self._build_frame(bytes(self.payload_bytes))
        return self.tag.capacity_bits(self._info(frame))

    def _build_frame(self, payload: bytes) -> Any:
        # The GFSK waveform depends on the oversampling as well as the
        # payload.
        return self._frames.get_or_build(
            ("bluetooth", self.sps, payload),
            lambda: self.transmitter.build(payload))

    def make_excitation(self,
                        rng: Optional[np.random.Generator] = None
                        ) -> Excitation:
        """Draw one excitation packet (reusable across ``run_packet``\\ s)."""
        if rng is None:
            payload = self.transmitter.random_payload(self.payload_bytes)
        else:
            gen = make_rng(rng)
            payload = bytes(int(b) for b in gen.integers(
                0, 256, size=self.payload_bytes))
        frame = self._build_frame(payload)
        return Excitation(frame=frame, info=self._info(frame))

    def _batch_key(self, draw: PacketDraw) -> Tuple[Any, ...]:
        noisy = draw.noisy
        assert noisy is not None
        return (noisy.size, draw.excitation.frame.n_bits)

    def _decode_scalar(self, draw: PacketDraw) -> Any:
        return self.receiver.decode_bits(draw.noisy,
                                         draw.excitation.frame.n_bits)

    def _decode_batch(self, draws: List[PacketDraw]) -> List[Any]:
        waveforms = self._noisy_stack(draws)
        rows = self.receiver.decode_bits_batch(
            waveforms, draws[0].excitation.frame.n_bits)
        return list(rows)

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        frame = draw.excitation.frame
        rx_bits = decoded
        # Sync check: the unmodulated header must have survived.
        sync_ok = bool(np.array_equal(rx_bits[:self._header_bits],
                                      frame.bits[:self._header_bits]))
        if not sync_ok:
            out = SessionResult(False, draw.bits_sent, draw.bits_sent,
                                frame.duration_us)
            _record_stage(self._obs, forensics.SYNC_FAIL, draw.snr_db, out)
            return out

        decoder = XorTagDecoder(bits_per_unit=1,
                                repetition=self.repetition,
                                offset_bits=self._header_bits,
                                guard_bits=2)
        tag_decode = decoder.decode(frame.bits, rx_bits,
                                    n_tag_bits=draw.bits_sent)
        errors = tag_decode.errors_against(draw.sent_bits)
        out = SessionResult(True, draw.bits_sent, errors, frame.duration_us)
        # Raw-bit tag link: no CRC stage, sync + demod succeeded.
        _record_stage(self._obs, forensics.OK, draw.snr_db, out)
        return out


class DsssBackscatterSession(_BatchPacketMixin):
    """802.11b DSSS backscatter link — the HitchHike [25] baseline.

    One tag bit spans *repetition* 1 us DBPSK symbols, modulated in the
    differential domain (:class:`AlternatingPhaseTranslator`).  With the
    default repetition of 11 the instantaneous tag rate is ~91 kb/s —
    faster than FreeRider's 62.5 kb/s on OFDM because DSSS symbols are
    shorter (paper section 4.2.1) — but the scheme only works where
    802.11b traffic exists, which is FreeRider's whole motivation.
    """

    sample_rate_hz = 11e6
    unit_samples = 11  # one Barker-spread DBPSK symbol
    oversample_factor = 1

    def __init__(self, repetition: int = 11, payload_bytes: int = 500,
                 seed: Optional[int] = None) -> None:
        from repro.phy.dsss import DsssReceiver, DsssTransmitter

        self._rng = make_rng(seed)
        self.transmitter = DsssTransmitter(seed=self._rng)
        self.receiver = DsssReceiver()
        self.tag = FreeRiderTag(AlternatingPhaseTranslator(),
                                repetition=repetition)
        self.payload_bytes = payload_bytes
        self.repetition = repetition
        self._obs = "phy.dsss"
        self._frames = _FrameCache(metrics_prefix=self._obs)

    def _info(self, frame: Any) -> ExcitationInfo:
        return ExcitationInfo(
            sample_rate_hz=self.sample_rate_hz,
            unit_samples=self.unit_samples,
            data_start_sample=frame.payload_offset_bits * self.unit_samples,
            total_samples=frame.samples.size,
            radio="dsss",
        )

    def capacity_bits(self) -> int:
        """Tag bits per excitation packet."""
        frame = self._build_frame(bytes(self.payload_bytes))
        return self.tag.capacity_bits(self._info(frame))

    def _build_frame(self, psdu: bytes) -> Any:
        return self._frames.get_or_build(
            ("dsss", psdu), lambda: self.transmitter.build(psdu))

    def make_excitation(self,
                        rng: Optional[np.random.Generator] = None
                        ) -> Excitation:
        """Draw one excitation packet (reusable across ``run_packet``\\ s)."""
        if rng is None:
            psdu = self.transmitter.random_psdu(self.payload_bytes)
        else:
            gen = make_rng(rng)
            psdu = bytes(int(b) for b in gen.integers(
                0, 256, size=self.payload_bytes))
        frame = self._build_frame(psdu)
        return Excitation(frame=frame, info=self._info(frame))

    def _batch_key(self, draw: PacketDraw) -> Tuple[Any, ...]:
        noisy = draw.noisy
        assert noisy is not None
        return (noisy.size, draw.excitation.frame.n_bits)

    def _decode_scalar(self, draw: PacketDraw) -> Any:
        return self.receiver.decode(draw.noisy,
                                    draw.excitation.frame.n_bits)

    def _decode_batch(self, draws: List[PacketDraw]) -> List[Any]:
        waveforms = self._noisy_stack(draws)
        return self.receiver.decode_batch(
            waveforms, draws[0].excitation.frame.n_bits)

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        frame = draw.excitation.frame
        if not decoded.header_ok or decoded.bits is None:
            res = SessionResult(False, draw.bits_sent, draw.bits_sent,
                                frame.duration_us)
            _record_stage(self._obs, decoded.stage, draw.snr_db, res)
            return res

        # The self-sync descrambler smears 7 bits forward into each span.
        decoder = XorTagDecoder(bits_per_unit=1,
                                repetition=self.repetition,
                                offset_bits=frame.payload_offset_bits,
                                guard_front=7, guard_back=1)
        tag_decode = decoder.decode(frame.bits, decoded.bits,
                                    n_tag_bits=draw.bits_sent)
        errors = tag_decode.errors_against(draw.sent_bits)
        res = SessionResult(True, draw.bits_sent, errors, frame.duration_us)
        _record_stage(self._obs, decoded.stage, draw.snr_db, res)
        return res


class QuaternaryWifiSession(WifiBackscatterSession):
    """Higher-rate WiFi backscatter using equation (5): 90-degree phase
    steps carrying 2 tag bits per step on a QPSK (12 Mb/s) excitation.

    Decoding estimates each span's constellation rotation at the
    backhaul (see :mod:`repro.core.quaternary`) instead of XOR-ing
    decoded bits — the price of doubling the tag rate to ~125 kb/s.
    Excitation, sync gate, noise estimate and receiver are the binary
    WiFi session's; only the tag's phase levels, the tag bit count and
    the tag decode differ.
    """

    # The binary session stacks 64 packets per pass; this one keeps the
    # mixin's default.
    _chunk_packets = 16

    def __init__(self, rate_mbps: float = 12.0, repetition: int = 4,
                 payload_bytes: int = 512,
                 seed: Optional[int] = None) -> None:
        if rate_mbps < 12.0:
            raise ValueError("quaternary translation needs QPSK or denser "
                             "subcarriers (>= 12 Mb/s)")
        super().__init__(rate_mbps, repetition, payload_bytes, seed)
        self.tag = FreeRiderTag(PhaseTranslator(n_levels=4),
                                repetition=repetition)

    def _default_tag_bits(self, info: ExcitationInfo,
                          gen: np.random.Generator) -> np.ndarray:
        # Two tag bits per phase step: round capacity down to even.
        capacity = self.tag.capacity_bits(info)
        return random_bits(capacity - capacity % 2, gen)

    def _finish_packet(self, draw: PacketDraw, decoded: Any) -> SessionResult:
        from repro.core.quaternary import (
            QuaternaryTagDecoder,
            reference_symbol_matrix,
        )

        frame = draw.excitation.frame
        result = decoded
        if not result.header_ok or result.equalized_symbols is None:
            res = SessionResult(False, draw.bits_sent, draw.bits_sent,
                                frame.duration_us)
            _record_stage(self._obs, result.stage, draw.snr_db, res)
            return res

        reference = reference_symbol_matrix(frame)
        decoder = QuaternaryTagDecoder(repetition=self.repetition,
                                       offset_symbols=1)
        bits = decoder.decode_bits(reference, result.equalized_symbols,
                                   n_tag_bits=draw.bits_sent)
        sent = np.asarray(draw.sent_bits, dtype=np.uint8)
        n = min(sent.size, bits.size)
        errors = int(np.sum(sent[:n] != bits[:n])) + (sent.size - n)
        res = SessionResult(True, draw.bits_sent, errors, frame.duration_us)
        _record_stage(self._obs, result.stage, draw.snr_db, res)
        return res
