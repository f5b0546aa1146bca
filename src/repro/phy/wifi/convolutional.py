"""Rate-1/2, constraint-length-7 convolutional code of 802.11 with
puncturing to rates 2/3 and 3/4, plus a hard/soft-decision Viterbi decoder.

Generator polynomials g0 = 133 (octal), g1 = 171 (octal) — equation (9)
of the FreeRider paper written out:

    C1[k] = b[k] ^ b[k-2] ^ b[k-3] ^ b[k-5] ^ b[k-6]
    C2[k] = b[k] ^ b[k-1] ^ b[k-2] ^ b[k-3] ^ b[k-6]

Like the scrambler, the coder is linear over GF(2): complementing an
all-ones input window complements the outputs, which is what lets a
FreeRider tag's phase-flip translation map decoded bits to their
complement (paper section 3.2.1).

The Viterbi decoder is vectorised over states with numpy and supports
both hard bits and soft LLR inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.bits import BitsLike, as_bits

__all__ = ["ConvolutionalCode", "CODE_802_11", "PUNCTURE_PATTERNS"]

# Puncture patterns indexed by (numerator, denominator) of the coding rate.
# Pattern arrays mark which of the rate-1/2 output bits are transmitted.
PUNCTURE_PATTERNS: Dict[Tuple[int, int], np.ndarray] = {
    (1, 2): np.array([1, 1], dtype=np.uint8),
    (2, 3): np.array([1, 1, 1, 0], dtype=np.uint8),
    (3, 4): np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8),
}

# next_state, out0, out1 of :meth:`ConvolutionalCode._build_tables`.
_Tables = Tuple[np.ndarray, np.ndarray, np.ndarray]
# pred, pbit, pred_flat, exp0_flat, exp1_flat of ``_acs_tables``.
_AcsTables = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                   np.ndarray]
# Hard bits or LLRs, as the decoders accept them.
_Received = Union[np.ndarray, Sequence[Any]]

# decode_batch gathers branch metrics for a block of Viterbi steps at a
# time; this caps one block at steps * transitions * rows floats (2 MiB).
_ACS_BLOCK = 1 << 18


@dataclass
class ConvolutionalCode:
    """K=7 convolutional code with numpy Viterbi decoding.

    Encoding is a mod-2 convolution per generator.  The instance
    precomputes the state-transition tables once; the Viterbi decoders
    are numpy loops over time steps.
    """

    g0: int = 0o133
    g1: int = 0o171
    constraint_length: int = 7
    _tables: Optional[_Tables] = field(default=None, repr=False,
                                       compare=False)
    _acs: Optional[_AcsTables] = field(default=None, repr=False,
                                       compare=False)

    @property
    def n_states(self) -> int:
        return 1 << (self.constraint_length - 1)

    def _parity(self, x: int) -> int:
        return bin(x).count("1") & 1

    def _build_tables(self) -> _Tables:
        """next_state[s, b], out0[s, b], out1[s, b] for all 64 states."""
        if self._tables is not None:
            return self._tables
        n = self.n_states
        next_state = np.zeros((n, 2), dtype=np.int64)
        out0 = np.zeros((n, 2), dtype=np.uint8)
        out1 = np.zeros((n, 2), dtype=np.uint8)
        for s in range(n):
            for b in range(2):
                # Shift register: newest bit on the left (MSB side of the
                # K-bit window), matching the 802.11 convention where
                # state holds the previous K-1 input bits.
                reg = (b << (self.constraint_length - 1)) | s
                out0[s, b] = self._parity(reg & self.g0)
                out1[s, b] = self._parity(reg & self.g1)
                next_state[s, b] = reg >> 1
        self._tables = (next_state, out0, out1)
        return self._tables

    def encode(self, bits: BitsLike,
               rate: Tuple[int, int] = (1, 2)) -> np.ndarray:
        """Encode *bits*; output is punctured to *rate*.

        The encoder starts in the all-zero state (the 802.11 SERVICE
        field's leading zeros flush it at the receiver).
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        arr = as_bits(bits)
        coded = np.zeros(2 * arr.size, dtype=np.uint8)
        if arr.size:
            # Output j is the mod-2 convolution of the input with g_j's
            # taps, newest bit (the register MSB) first.
            k = self.constraint_length
            for j, g in enumerate((self.g0, self.g1)):
                taps = np.array([(g >> (k - 1 - i)) & 1 for i in range(k)],
                                dtype=np.uint8)
                coded[j::2] = np.convolve(arr, taps)[: arr.size] & 1
        return self._puncture(coded, rate)

    def _puncture(self, coded: np.ndarray, rate: Tuple[int, int]) -> np.ndarray:
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size == 2:  # rate 1/2: nothing removed
            return coded
        reps = int(np.ceil(coded.size / pattern.size))
        mask = np.tile(pattern, reps)[: coded.size].astype(bool)
        return coded[mask]

    def _depuncture(self, llrs: np.ndarray, rate: Tuple[int, int]) -> np.ndarray:
        """Re-insert zeros (erasures) at punctured positions of an LLR
        stream; returns a multiple-of-2-length array."""
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size == 2:
            out = llrs.astype(float)
        else:
            kept_per_period = int(pattern.sum())
            n_periods = int(np.ceil(llrs.size / kept_per_period))
            out = np.zeros(n_periods * pattern.size, dtype=float)
            mask = np.tile(pattern, n_periods).astype(bool)
            padded = np.zeros(int(mask.sum()), dtype=float)
            padded[: llrs.size] = llrs
            out[mask] = padded
        if out.size % 2:
            out = np.concatenate([out, [0.0]])
        return out

    def _acs_tables(self) -> _AcsTables:
        """Predecessor layout for the add-compare-select recursion.

        Each target state has exactly two (predecessor, input-bit) pairs;
        the two slots are laid out as one flat length-2n axis (slot 0
        first) so one gather + one add covers both per step.  Returns
        ``(pred, pbit, pred_flat, exp0_flat, exp1_flat)`` where the
        ``exp*_flat`` vectors hold the expected (+/-1) coder outputs of
        each flat transition.
        """
        if self._acs is not None:
            return self._acs
        next_state, out0, out1 = self._build_tables()
        n = self.n_states
        # Branch metric of transition (s, b) at time t:
        # correlation of expected symbols (+1 for bit 0) with LLRs.
        exp0 = 1.0 - 2.0 * out0.astype(float)  # (n,2)
        exp1 = 1.0 - 2.0 * out1.astype(float)
        pred = np.zeros((n, 2), dtype=np.int64)
        pbit = np.zeros((n, 2), dtype=np.int64)
        fill = np.zeros(n, dtype=np.int64)
        for s in range(n):
            for b in range(2):
                tgt = next_state[s, b]
                pred[tgt, fill[tgt]] = s
                pbit[tgt, fill[tgt]] = b
                fill[tgt] += 1
        # decode_batch's butterfly and traceback rely on this layout:
        # target t is entered from 2(t mod n/2) (slot 0) and
        # 2(t mod n/2) + 1 (slot 1), both with input bit t >> (K-2).
        target = np.arange(n)
        assert np.array_equal(pred[:, 0], 2 * (target % (n // 2)))
        assert np.array_equal(pred[:, 1], pred[:, 0] + 1)
        msb = target >> (self.constraint_length - 2)
        assert (pbit == msb[:, None]).all()
        exp0_pred = exp0[pred, pbit]  # (n,2) expected first output symbol
        exp1_pred = exp1[pred, pbit]
        exp0_flat = np.concatenate([exp0_pred[:, 0], exp0_pred[:, 1]])
        exp1_flat = np.concatenate([exp1_pred[:, 0], exp1_pred[:, 1]])
        pred_flat = np.concatenate([pred[:, 0], pred[:, 1]])
        self._acs = (pred, pbit, pred_flat, exp0_flat, exp1_flat)
        return self._acs

    def decode(self, received: _Received, rate: Tuple[int, int] = (1, 2),
               soft: bool = False) -> np.ndarray:
        """Viterbi-decode *received* back to information bits.

        Parameters
        ----------
        received:
            Hard bits (0/1) when ``soft`` is False, else LLRs where
            positive means "bit 0 more likely" (matched-filter sign
            convention ``llr = +1`` for 0, ``-1`` for 1).
        rate:
            The puncturing rate the encoder used.
        soft:
            Select soft-metric decoding.
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        if soft:
            llr = np.asarray(received, dtype=float)
        else:
            llr = 1.0 - 2.0 * as_bits(received).astype(float)
        llr = self._depuncture(llr, rate)
        n_steps = llr.size // 2
        if n_steps == 0:
            return np.zeros(0, dtype=np.uint8)

        n = self.n_states
        pred, pbit, pred_flat, exp0_flat, exp1_flat = self._acs_tables()

        path_metric = np.full(n, -np.inf)
        path_metric[0] = 0.0

        # All branch metrics up front in one vectorised pass over the
        # flat (n_steps, 2n) transition layout.
        bm_flat = (llr[0::2, None] * exp0_flat[None, :]
                   + llr[1::2, None] * exp1_flat[None, :])

        # choice[t, s]: which of the two predecessors of s survived at t.
        # Strict > matches np.argmax's first-index tie-breaking (slot 0
        # wins ties), keeping decodes bit-identical to the reference
        # per-step formulation.
        choices = np.zeros((n_steps, n), dtype=bool)
        cand = np.empty(2 * n)
        c0, c1 = cand[:n], cand[n:]
        for t in range(n_steps):
            np.take(path_metric, pred_flat, out=cand)
            cand += bm_flat[t]
            choice = np.greater(c1, c0, out=choices[t])
            path_metric = np.where(choice, c1, c0)

        # Traceback from the best final state.
        state = int(np.argmax(path_metric))
        decoded = np.zeros(n_steps, dtype=np.uint8)
        for t in range(n_steps - 1, -1, -1):
            slot = 1 if choices[t, state] else 0
            decoded[t] = pbit[state, slot]
            state = int(pred[state, slot])
        return decoded

    def decode_batch(self, received: _Received,
                     rate: Tuple[int, int] = (1, 2),
                     soft: bool = False) -> np.ndarray:
        """Viterbi-decode a batch of equal-length streams at once.

        *received* is a (B, L) array of hard bits or LLRs (one frame per
        row, same convention as :meth:`decode`); returns a (B, n_steps)
        uint8 array, ``(0, n_steps)`` for an empty batch.  The
        add-compare-select recursion runs in butterfly form on
        state-major ``(n_states, B)`` metrics, so each time step costs a
        handful of numpy calls whatever the batch size, and the
        traceback is integer state arithmetic on all rows at once.
        Branch metrics are the four per-row values ``le+lo``, ``le-lo``
        and their negations (the expected symbols are +/-1, and IEEE
        negation is exact), survivors are chosen by the scalar
        decoder's strict ``>``, so the result is bit-identical to
        ``np.stack([decode(row, ...) for row in received])``, NaN and
        infinite LLRs included.
        """
        if rate not in PUNCTURE_PATTERNS:
            raise ValueError(f"unsupported coding rate {rate}")
        block = np.atleast_2d(np.asarray(received))
        if block.ndim != 2:
            raise ValueError("decode_batch expects a (B, L) array")
        if soft:
            llr2 = block.astype(float)
        else:
            llr2 = 1.0 - 2.0 * block.astype(float)
        # Rows share a length, so depuncturing one row fixes the layout
        # for all of them (pure scatter: float values are untouched).
        pattern = PUNCTURE_PATTERNS[rate]
        if pattern.size > 2:
            kept = int(pattern.sum())
            n_periods = int(np.ceil(llr2.shape[1] / kept))
            mask = np.tile(pattern, n_periods).astype(bool)
            padded = np.zeros((llr2.shape[0], kept * n_periods))
            padded[:, : llr2.shape[1]] = llr2
            full = np.zeros((llr2.shape[0], n_periods * pattern.size))
            full[:, mask] = padded
            llr2 = full
        if llr2.shape[1] % 2:
            llr2 = np.concatenate(
                [llr2, np.zeros((llr2.shape[0], 1))], axis=1)
        n_batch, n_steps = llr2.shape[0], llr2.shape[1] // 2
        if n_batch == 0 or n_steps == 0:
            return np.zeros((n_batch, n_steps), dtype=np.uint8)

        n, half = self.n_states, self.n_states // 2
        _, _, _, exp0_flat, exp1_flat = self._acs_tables()
        # Which of the four values below is each flat (slot-major)
        # transition's branch metric: 2*[e0 == -1] + [e1 == -1].
        metric_index = 2 * (exp0_flat < 0) + (exp1_flat < 0)
        llr_even = np.ascontiguousarray(llr2[:, 0::2].T)  # (n_steps, B)
        llr_odd = np.ascontiguousarray(llr2[:, 1::2].T)

        # State-major path metrics: row t is state t, one column per
        # frame.  Targets t and t + n/2 share the predecessors 2(t mod
        # n/2) (slot 0) and 2(t mod n/2) + 1 (slot 1), the even and odd
        # rows, so a (2, n/2, B) candidate block is already in target
        # order and becomes the next step's metrics after the select.
        metrics = np.full((2, n, n_batch), -np.inf)  # double buffer
        metrics[0, 0] = 0.0
        even = [m[0::2] for m in metrics]
        odd = [m[1::2] for m in metrics]
        by_target = [m.reshape(2, half, n_batch) for m in metrics]
        cand1 = np.empty((2, half, n_batch))
        choices = np.zeros((n_steps, 2, half, n_batch), dtype=bool)
        per_block = max(1, min(n_steps, _ACS_BLOCK // (2 * n * n_batch)))
        values = np.empty((per_block, 4, n_batch))
        cur = 0
        for t0 in range(0, n_steps, per_block):
            t1 = min(t0 + per_block, n_steps)
            le, lo = llr_even[t0:t1], llr_odd[t0:t1]
            # The expected coder outputs are +/-1, so every branch metric
            # le*e0 + lo*e1 is one of [le+lo, le-lo, -(le-lo), -(le+lo)],
            # bit for bit.
            v = values[: t1 - t0]
            np.add(le, lo, out=v[:, 0])
            np.subtract(le, lo, out=v[:, 1])
            np.negative(v[:, 1], out=v[:, 2])
            np.negative(v[:, 0], out=v[:, 3])
            # bm[t, slot, h, j]: branch metric of the slot-0 or slot-1
            # transition into target state h*n/2 + j.
            bm = np.take(v, metric_index, axis=1).reshape(
                t1 - t0, 2, 2, half, n_batch)
            for t in range(t0, t1):
                cand0 = by_target[1 - cur]
                np.add(even[cur], bm[t - t0, 0], out=cand0)
                np.add(odd[cur], bm[t - t0, 1], out=cand1)
                # Strict > matches the scalar decoder: slot 0 wins ties
                # and NaN comparisons.
                np.greater(cand1, cand0, out=choices[t])
                # Select the survivor metric: max(cand0, cand1), except
                # that a NaN in cand1 loses and a NaN in cand0 stays,
                # exactly as the comparison above decided.
                np.fmax(cand0, cand1, out=cand1)
                np.maximum(cand0, cand1, out=cand0)
                cur = 1 - cur

        # Traceback by state arithmetic on flat positions state*B + row
        # of each step's choices: the surviving predecessor of state is
        # 2*(state mod n/2) + slot, and the decoded bit is the newest
        # register bit, state >> (K-2), i.e. state >= n/2.
        rows = np.arange(n_batch)
        pred0 = ((((np.arange(n) & (half - 1)) << 1)[:, None] * n_batch)
                 + rows[None, :]).ravel()
        flat_choices = choices.reshape(n_steps, n * n_batch)
        pos = np.argmax(metrics[cur], axis=0) * n_batch + rows
        decoded = np.empty((n_steps, n_batch), dtype=bool)
        for t in range(n_steps - 1, -1, -1):
            np.greater_equal(pos, half * n_batch, out=decoded[t])
            pos = pred0[pos] + flat_choices[t][pos] * n_batch
        return decoded.T.astype(np.uint8)


CODE_802_11 = ConvolutionalCode()
