"""Tag-side codeword translation waveform builders.

A FreeRider tag never synthesises a carrier: it multiplies the passing
excitation signal by a slowly varying control waveform.  For OFDM WiFi
and ZigBee that waveform is a piecewise-constant phasor e^{j theta_k}
(equations 4 and 5 of the paper); for Bluetooth it is a square wave
toggled at delta_f during "1" units (equation 6).

:class:`TranslationPlan` captures the timing: which PHY unit (OFDM
symbol / ZigBee symbol / Bluetooth bit) each tag bit covers, and the
repetition factor that makes the translation survive the scrambler and
convolutional coder (section 3.2.1) or OQPSK offset structure (3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.bits import as_bits
from repro.dsp.mixing import square_wave

# Anything ``as_bits`` accepts: bit list/array or a '0101' string.
BitsLike = Union[Sequence[int], np.ndarray, str]

__all__ = ["TranslationPlan", "PhaseTranslator", "AlternatingPhaseTranslator",
           "AmplitudeTranslator", "FskShiftTranslator",
           "bits_per_symbol_for_phase_levels"]


def _rows_outside(out: Optional[np.ndarray], shape: Tuple[int, int],
                  dtype: type, start: int, stop: int) -> np.ndarray:
    """*out* (checked against *shape*), or a new array of *dtype*, with
    ones in every column outside ``[start, stop)``; the caller writes
    the columns inside."""
    if out is None:
        ctrl = np.empty(shape, dtype=dtype)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    else:
        ctrl = out
    ctrl[:, :start] = 1
    ctrl[:, stop:] = 1
    return ctrl


def _spans(ctrl: np.ndarray, start: int, n_spans: int,
           step: int) -> np.ndarray:
    """(B, n_spans, step) view of the columns ``[start, start + n_spans
    * step)`` of a (B, N) array: one entry per tag-symbol span."""
    view = ctrl[:, start:start + n_spans * step].reshape(
        ctrl.shape[0], n_spans, step)
    assert np.may_share_memory(view, ctrl)  # splitting an axis is a view
    return view


def bits_per_symbol_for_phase_levels(n_levels: int) -> int:
    """Tag bits carried per phase step: 2 levels -> 1 bit (eq. 4),
    4 levels -> 2 bits (eq. 5)."""
    if n_levels not in (2, 4):
        raise ValueError("FreeRider uses 2 (binary) or 4 (quaternary) phases")
    return 1 if n_levels == 2 else 2


@dataclass(frozen=True)
class TranslationPlan:
    """Timing of a translation over an excitation packet.

    Parameters
    ----------
    unit_samples:
        Samples per PHY unit (80 for a 20 MS/s OFDM symbol, 32*sps for a
        ZigBee symbol, sps for a Bluetooth bit).
    repetition:
        PHY units covered by one tag symbol (4 OFDM symbols at 6 Mb/s,
        8 ZigBee symbols, ~large for Bluetooth).
    start_sample:
        Where modulation begins (after preamble + envelope latency).
    n_units:
        PHY units available from *start_sample* to packet end.
    """

    unit_samples: int
    repetition: int
    start_sample: int
    n_units: int

    def __post_init__(self) -> None:
        if self.unit_samples < 1 or self.repetition < 1:
            raise ValueError("unit_samples and repetition must be >= 1")
        if self.start_sample < 0 or self.n_units < 0:
            raise ValueError("start_sample and n_units must be >= 0")

    @property
    def symbols_capacity(self) -> int:
        """Tag symbols (phase steps) that fit in the packet."""
        return self.n_units // self.repetition

    def capacity_bits(self, bits_per_symbol: int = 1) -> int:
        """Tag bits that fit in the packet."""
        return self.symbols_capacity * bits_per_symbol

    def tag_symbol_span(self, k: int) -> slice:
        """Sample range covered by tag symbol *k*."""
        step = self.unit_samples * self.repetition
        a = self.start_sample + k * step
        return slice(a, a + step)


class PhaseTranslator:
    """Piecewise-constant phase modulation (WiFi and ZigBee).

    Parameters
    ----------
    n_levels:
        2 for the binary scheme (delta-theta = 180 deg), 4 for the
        quaternary scheme (90 deg steps).
    delta_theta:
        Phase step in radians; default pi for binary, pi/2 for
        quaternary.
    """

    def __init__(self, n_levels: int = 2,
                 delta_theta: Optional[float] = None) -> None:
        self.bits_per_symbol = bits_per_symbol_for_phase_levels(n_levels)
        self.n_levels = n_levels
        if delta_theta is None:
            delta_theta = np.pi if n_levels == 2 else np.pi / 2
        self.delta_theta = float(delta_theta)

    def symbols_from_bits(self, tag_bits: BitsLike) -> np.ndarray:
        """Group tag bits into phase-level indices (MSB first per pair)."""
        bits = as_bits(tag_bits)
        bps = self.bits_per_symbol
        n = bits.size // bps
        if n * bps != bits.size:
            raise ValueError(f"bit count must be a multiple of {bps}")
        if bps == 1:
            return bits.astype(np.int64)
        pairs = bits.reshape(n, 2)
        return (2 * pairs[:, 0] + pairs[:, 1]).astype(np.int64)

    def control_waveform(self, tag_bits: BitsLike, plan: TranslationPlan,
                         total_samples: int) -> np.ndarray:
        """Per-sample complex multiplier implementing equations (4)/(5).

        Samples outside the modulated region are 1 (pure reflection).
        Raises when the bits exceed the packet's capacity.
        """
        levels = self.symbols_from_bits(tag_bits)
        if levels.size > plan.symbols_capacity:
            raise ValueError(
                f"{levels.size} tag symbols exceed capacity "
                f"{plan.symbols_capacity}")
        ctrl = np.ones(total_samples, dtype=complex)
        for k, lvl in enumerate(levels):
            span = plan.tag_symbol_span(k)
            if span.stop > total_samples:
                raise ValueError("translation plan overruns the packet")
            ctrl[span] = np.exp(1j * self.delta_theta * lvl)
        return ctrl

    def control_waveform_batch(self, bit_rows: Sequence[BitsLike],
                               plan: TranslationPlan,
                               total_samples: int,
                               out: Optional[np.ndarray] = None
                               ) -> np.ndarray:
        """Stacked :meth:`control_waveform` over same-length bit rows.

        Tag symbols cover contiguous, back-to-back sample spans, so the
        whole modulated region is one broadcast of per-symbol phasors.
        The phasor for each level is ``np.exp`` of exactly the scalar
        builder's argument, making every row bit-identical to building
        it alone — which the batched channel relies on.  With *out* (a
        complex (B, total_samples) array) the rows are written there.
        """
        levels = np.stack([self.symbols_from_bits(b) for b in bit_rows])
        n_sym = levels.shape[1]
        if n_sym > plan.symbols_capacity:
            raise ValueError(
                f"{n_sym} tag symbols exceed capacity "
                f"{plan.symbols_capacity}")
        step = plan.unit_samples * plan.repetition
        start = plan.start_sample
        stop = start + n_sym * step
        if n_sym and stop > total_samples:
            raise ValueError("translation plan overruns the packet")
        ctrl = _rows_outside(out, (levels.shape[0], total_samples), complex,
                             start, stop)
        if n_sym:
            phasors = np.exp(1j * self.delta_theta * np.arange(self.n_levels))
            _spans(ctrl, start, n_sym, step)[...] = phasors[levels][:, :, None]
        return ctrl


class AmplitudeTranslator:
    """Naive amplitude modulation — the Wi-Fi Backscatter [15] baseline
    FreeRider improves on, and the Figure 2 counter-example.

    The tag switches between two reflection magnitudes (two termination
    impedances).  On a multi-subcarrier OFDM signal this scales *every*
    subcarrier, pushing QAM points off their grid (invalid codewords),
    so the data cannot be recovered by codeword translation — only by
    incoherent per-span energy measurement, which needs far more SNR.
    """

    bits_per_symbol = 1

    def __init__(self, high: float = 1.0, low: float = 0.5) -> None:
        if not 0 <= low < high:
            raise ValueError("need 0 <= low < high reflection magnitudes")
        self.high = float(high)
        self.low = float(low)

    def control_waveform(self, tag_bits: BitsLike, plan: TranslationPlan,
                         total_samples: int) -> np.ndarray:
        """Per-sample real gain: *low* during 1-bits, *high* otherwise."""
        bits = as_bits(tag_bits)
        if bits.size > plan.symbols_capacity:
            raise ValueError(
                f"{bits.size} tag bits exceed capacity "
                f"{plan.symbols_capacity}")
        ctrl = np.full(total_samples, self.high, dtype=float)
        for k, b in enumerate(bits):
            span = plan.tag_symbol_span(k)
            if span.stop > total_samples:
                raise ValueError("translation plan overruns the packet")
            if b:
                ctrl[span] = self.low
        return ctrl


class AlternatingPhaseTranslator:
    """Differential-domain phase modulation for DBPSK excitation
    (802.11b — the HitchHike-style translation of [25]).

    On a differentially-encoded PHY, an *absolute* phase flip only
    disturbs the two symbols at its edges: the receiver decodes phase
    transitions, not phases.  To embed data the tag therefore modulates
    transitions: during a tag-bit-1 span it toggles its reflection
    phase at every PHY symbol boundary (each toggle flips one decoded
    bit); during a tag-bit-0 span it holds.  The received scrambled
    stream becomes c XOR d with d piecewise-constant per span, and the
    self-synchronising descrambler maps that to the plain-bit XOR with
    only 7-bit edge smear.
    """

    bits_per_symbol = 1

    def control_waveform(self, tag_bits: BitsLike, plan: TranslationPlan,
                         total_samples: int) -> np.ndarray:
        """Per-sample +/-1 multiplier; phase state is continuous across
        spans (a real tag cannot jump its switch state acausally)."""
        bits = as_bits(tag_bits)
        if bits.size > plan.symbols_capacity:
            raise ValueError(
                f"{bits.size} tag bits exceed capacity "
                f"{plan.symbols_capacity}")
        ctrl = np.ones(total_samples, dtype=float)
        state = 1.0
        unit = plan.unit_samples
        for k, b in enumerate(bits):
            span = plan.tag_symbol_span(k)
            if span.stop > total_samples:
                raise ValueError("translation plan overruns the packet")
            for u in range(plan.repetition):
                if b:
                    state = -state
                a = span.start + u * unit
                ctrl[a:a + unit] = state
        # Hold the final state to the end of the packet.
        if bits.size:
            tail = plan.tag_symbol_span(bits.size - 1).stop
            ctrl[tail:] = state
        return ctrl


class FskShiftTranslator:
    """Square-wave frequency-shift modulation (Bluetooth, equation 6).

    To send tag bit 1 the control waveform toggles at *delta_f*
    (swapping the FSK tones f1 <-> f0 after the receiver's channel
    filter discards the mirror sideband); for tag bit 0 it reflects
    unmodified.

    Parameters
    ----------
    delta_f:
        Toggle frequency; |f1 - f0| = 500 kHz swaps the Bluetooth tones.
    sample_rate_hz:
        Baseband sample rate of the excitation waveform.
    """

    bits_per_symbol = 1

    def __init__(self, delta_f: float = 500e3,
                 sample_rate_hz: float = 8e6) -> None:
        if delta_f <= 0 or sample_rate_hz <= 0:
            raise ValueError("frequencies must be positive")
        if delta_f >= sample_rate_hz / 2:
            raise ValueError("delta_f must respect Nyquist")
        self.delta_f = float(delta_f)
        self.sample_rate_hz = float(sample_rate_hz)

    @staticmethod
    def satisfies_sideband_condition(delta_f: float, modulation_index: float,
                                     bandwidth_hz: float) -> bool:
        """Equation (10): the undesired sideband must land outside the
        channel, i.e. delta_f > (1 - i) * w / 2."""
        return delta_f > (1 - modulation_index) * bandwidth_hz / 2

    def control_waveform(self, tag_bits: BitsLike, plan: TranslationPlan,
                         total_samples: int) -> np.ndarray:
        """Per-sample real multiplier implementing equation (6).

        The square wave runs phase-continuously across consecutive
        1-bits; 0-bits reflect with a constant +1.
        """
        bits = as_bits(tag_bits)
        if bits.size > plan.symbols_capacity:
            raise ValueError(
                f"{bits.size} tag bits exceed capacity {plan.symbols_capacity}")
        ctrl = np.ones(total_samples, dtype=float)
        n_total = total_samples
        # One long square wave evaluated on the global time axis keeps
        # the toggle phase-continuous between adjacent 1-bits.
        sq = square_wave(n_total, self.delta_f, self.sample_rate_hz)
        for k, b in enumerate(bits):
            if not b:
                continue
            span = plan.tag_symbol_span(k)
            if span.stop > total_samples:
                raise ValueError("translation plan overruns the packet")
            ctrl[span] = sq[span]
        return ctrl

    def control_waveform_batch(self, bit_rows: Sequence[BitsLike],
                               plan: TranslationPlan,
                               total_samples: int,
                               out: Optional[np.ndarray] = None
                               ) -> np.ndarray:
        """Stacked :meth:`control_waveform` over same-length bit rows.

        The square wave is evaluated once on the global time axis (as
        the scalar builder does) and copied into each 1-bit span, so
        every row carries exactly the values the scalar builder would
        have written — bit rows only choose between ``sq[span]`` and
        the +1 rest state.  With *out* the rows are written there; a
        complex *out* holds them as ``v + 0j``, the value a complex
        multiply casts the real rows to anyway.
        """
        rows = np.stack([as_bits(b) for b in bit_rows])
        n_bits = rows.shape[1]
        if n_bits > plan.symbols_capacity:
            raise ValueError(
                f"{n_bits} tag bits exceed capacity {plan.symbols_capacity}")
        step = plan.unit_samples * plan.repetition
        start = plan.start_sample
        stop = start + n_bits * step
        if n_bits and stop > total_samples:
            raise ValueError("translation plan overruns the packet")
        ctrl = _rows_outside(out, (rows.shape[0], total_samples), float,
                             start, stop)
        if n_bits:
            sq = square_wave(total_samples, self.delta_f, self.sample_rate_hz)
            spans = _spans(ctrl, start, n_bits, step)
            spans[...] = 1
            np.copyto(spans, sq[start:stop].reshape(1, n_bits, step),
                      where=rows.astype(bool)[:, :, None])
        return ctrl
