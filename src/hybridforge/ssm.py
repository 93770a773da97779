"""Selective state-space token mixer with constant-size decode state.

The mixer projects the hidden stream into a value path, an input-gate path,
and an output-read path, temporally fuses each with a short causal depthwise
convolution, then runs a per-head gated recurrence over (d_h x d_h) hidden
matrices: every step decays the hidden matrix by an input-dependent factor in
(0, 1) and writes a rank-1 outer product. Decode therefore needs only the
hidden matrices plus the last k-1 raw inputs of each convolution, regardless
of how many tokens came before.

The recurrence itself is one kernel primitive, ``numkernel.ssm_scan``: a
step loop with a hand-written reverse-time vjp, so training, prefill and
streaming decode all run the same arithmetic and a recorded pass adds one
graph node per layer. A chunked scan that materializes intra-chunk decay
products as matrices is kept as an inference-only second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkernel as nk
from .numkernel import Tensor

__all__ = ["Mamba2Weights", "SsmState", "mamba2_forward_seq", "mamba2_forward_chunked"]


@dataclass
class Mamba2Weights:
    """Projection, convolution, and gating parameters for one SSM layer."""

    n_h: int
    n_kv: int
    d_h: int
    k: int
    W_x: Tensor       # d x (n_kv * d_h), value path
    W_B: Tensor       # d x (n_kv * d_h), input-gate path
    W_C: Tensor       # d x (n_h * d_h), output-read path
    conv_x: Tensor    # (n_kv * d_h) x k depthwise kernels
    conv_B: Tensor    # (n_kv * d_h) x k
    conv_C: Tensor    # (n_h * d_h) x k
    a_log: Tensor     # n_h log-magnitudes; decay exponent a = -exp(a_log) < 0
    delta_w: Tensor   # d x n_h step-size projection
    delta_b: Tensor   # n_h step-size bias
    D: Tensor         # n_h skip coefficients
    W_out: Tensor     # (n_h * d_h) x d

    def __post_init__(self):
        if self.n_h % self.n_kv != 0:
            raise ValueError("n_h must be divisible by n_kv")
        if self.k < 1:
            raise ValueError("conv width k must be >= 1")

    @property
    def d(self) -> int:
        return self.W_x.shape[0]

    @property
    def group(self) -> int:
        return self.n_h // self.n_kv

    def validate(self) -> None:
        d, kv_ch, h_ch = self.d, self.n_kv * self.d_h, self.n_h * self.d_h
        want = {
            "W_x": (d, kv_ch),
            "W_B": (d, kv_ch),
            "W_C": (d, h_ch),
            "conv_x": (kv_ch, self.k),
            "conv_B": (kv_ch, self.k),
            "conv_C": (h_ch, self.k),
            "a_log": (self.n_h,),
            "delta_w": (d, self.n_h),
            "delta_b": (self.n_h,),
            "D": (self.n_h,),
            "W_out": (h_ch, d),
        }
        for name, shape in want.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got} != expected {shape}")

    def items(self):
        names = ("W_x", "W_B", "W_C", "conv_x", "conv_B", "conv_C",
                 "a_log", "delta_w", "delta_b", "D", "W_out")
        return [(n, getattr(self, n)) for n in names]

    def decay(self) -> np.ndarray:
        """Per-head decay exponents, strictly negative by construction."""
        return -np.exp(self.a_log.data)


@dataclass
class SsmState:
    """Decode carry: per-head hidden matrices + raw conv history per path."""

    h: np.ndarray        # (n_h, d_h, d_h)
    tail_x: np.ndarray   # (k-1, n_kv * d_h) raw pre-conv inputs
    tail_B: np.ndarray   # (k-1, n_kv * d_h)
    tail_C: np.ndarray   # (k-1, n_h * d_h)

    @classmethod
    def empty(cls, w: Mamba2Weights, dtype=np.float32) -> "SsmState":
        kv_ch, h_ch = w.n_kv * w.d_h, w.n_h * w.d_h
        return cls(
            h=np.zeros((w.n_h, w.d_h, w.d_h), dtype=dtype),
            tail_x=np.zeros((w.k - 1, kv_ch), dtype=dtype),
            tail_B=np.zeros((w.k - 1, kv_ch), dtype=dtype),
            tail_C=np.zeros((w.k - 1, h_ch), dtype=dtype),
        )

    def byte_size(self) -> int:
        return self.h.nbytes + self.tail_x.nbytes + self.tail_B.nbytes + self.tail_C.nbytes


def _conv_with_tail(pre: Tensor, kernel: Tensor, tail: Optional[np.ndarray]) -> Tensor:
    """Causal depthwise conv; an explicit tail replaces the zero left-padding."""
    if tail is None or tail.shape[0] == 0:
        return nk.conv1d_depthwise(pre, kernel)
    joined = nk.concat([Tensor(tail[None]), pre], axis=1)
    full = nk.conv1d_depthwise(joined, kernel)
    return nk.getitem(full, (slice(None), slice(tail.shape[0], None), slice(None)))


def _paths(H: Tensor, w: Mamba2Weights, state: Optional[SsmState]):
    """Shared front end: projections, convolutions, replication, step sizes."""
    b, t = H.shape[0], H.shape[1]
    x_pre = nk.matmul(H, w.W_x)
    B_pre = nk.matmul(H, w.W_B)
    C_pre = nk.matmul(H, w.W_C)
    x = _conv_with_tail(x_pre, w.conv_x, state.tail_x if state else None)
    Bp = _conv_with_tail(B_pre, w.conv_B, state.tail_B if state else None)
    Cp = _conv_with_tail(C_pre, w.conv_C, state.tail_C if state else None)
    x = nk.reshape(x, (b, t, w.n_kv, w.d_h))
    Bp = nk.reshape(Bp, (b, t, w.n_kv, w.d_h))
    Cp = nk.reshape(Cp, (b, t, w.n_h, w.d_h))
    if w.group > 1:  # shared kv-group paths fan out only after the conv
        x = nk.repeat(x, w.group, axis=2)
        Bp = nk.repeat(Bp, w.group, axis=2)
    dt = nk.softplus(nk.add(nk.matmul(H, w.delta_w), w.delta_b))  # (b, t, n_h) > 0
    decay = nk.mul(dt, nk.neg(nk.texp(w.a_log)))                   # (b, t, n_h) < 0
    return x, Bp, Cp, dt, decay, x_pre, B_pre, C_pre


def mamba2_forward_seq(
    H: Tensor,
    w: Mamba2Weights,
    state: Optional[SsmState] = None,
) -> tuple[Tensor, Optional[SsmState]]:
    """Step-by-step recurrence; with a state, H continues a streamed sequence.

    With a state, H must be unbatched (t, d). Batched (batch, t, d) input runs
    stateless for training. Returns the output and the carried state (None in
    the stateless batched case).
    """
    w.validate()
    if state is not None and H.ndim != 2:
        raise ValueError("streaming decode takes a single unbatched sequence")
    if H.ndim == 2:
        Hb, squeeze = nk.reshape(H, (1,) + H.shape), True
    elif H.ndim == 3:
        Hb, squeeze = H, False
    else:
        raise ValueError("H must be (t, d) or (batch, t, d)")
    if H.shape[-1] != w.d:
        raise ValueError(f"hidden dim {H.shape[-1]} != weight dim {w.d}")
    b, t = Hb.shape[0], Hb.shape[1]

    x, Bp, Cp, dt, decay, x_pre, B_pre, C_pre = _paths(Hb, w, state)
    abar = nk.texp(decay)                          # (b, t, n_h) in (0, 1)
    bbar = nk.mul(Bp, nk.reshape(dt, (b, t, w.n_h, 1)))

    out, h_last = nk.ssm_scan(x, bbar, Cp, abar, w.D, state.h if state else None)
    out = nk.matmul(nk.reshape(out, (b, t, w.n_h * w.d_h)), w.W_out)
    if squeeze:
        out = nk.reshape(out, out.shape[1:])

    new_state = None
    if squeeze:
        keep = w.k - 1
        def tail_of(pre, old_tail):
            raw = np.concatenate([old_tail, pre.data[0]], axis=0) if state else pre.data[0]
            if keep == 0:
                return raw[:0]
            padded = np.concatenate([np.zeros((keep, raw.shape[1]), raw.dtype), raw], axis=0)
            return padded[-keep:].copy()
        new_state = SsmState(
            h=h_last[0],
            tail_x=tail_of(x_pre, state.tail_x if state else None),
            tail_B=tail_of(B_pre, state.tail_B if state else None),
            tail_C=tail_of(C_pre, state.tail_C if state else None),
        )
    return out, new_state


def mamba2_forward_chunked(H: Tensor, w: Mamba2Weights, chunk: int) -> Tensor:
    """Chunked scan over the same recurrence (inference only, not recorded).

    Within a chunk, pairwise decay products exp(S_t - S_s) are materialized as
    a lower-triangular matrix so each chunk is a handful of matmuls; the
    hidden matrices carry across chunk boundaries. Exponents are sums of
    negative terms, so every materialized factor lies in (0, 1].
    """
    w.validate()
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if H.ndim != 2:
        raise ValueError("chunked forward takes a single (t, d) sequence")
    with nk.no_grad():
        Hb = nk.reshape(H, (1,) + H.shape)
        b, t = 1, H.shape[0]
        x, Bp, Cp, dt, decay, *_ = _paths(Hb, w, None)
        x, Bp, Cp = x.data[0], Bp.data[0], Cp.data[0]      # (t, n_h, d_h)
        decay = decay.data[0]                              # (t, n_h) < 0
        bbar = Bp * dt.data[0][:, :, None]
        D = w.D.data

        h = np.zeros((w.n_h, w.d_h, w.d_h), dtype=x.dtype)
        out = np.empty((t, w.n_h, w.d_h), dtype=x.dtype)
        for lo in range(0, t, chunk):
            hi = min(lo + chunk, t)
            c = hi - lo
            if c == 1:  # one-token chunk degenerates to the sequential update
                h = np.exp(decay[lo])[:, None, None] * h
                h += bbar[lo][:, :, None] * x[lo][:, None, :]
                out[lo] = np.einsum("hi,hij->hj", Cp[lo], h) + D[:, None] * x[lo]
                continue
            S = np.cumsum(decay[lo:hi], axis=0)            # (c, n_h) cumulative log-decay
            # intra-chunk: out_t += sum_{s<=t} exp(S_t - S_s) (C_t . bbar_s) x_s
            gates = np.exp(S[:, None, :] - S[None, :, :])  # (t_idx, s_idx, n_h)
            tri = np.tril(np.ones((c, c), dtype=x.dtype))
            gates = gates * tri[:, :, None]
            scores = np.einsum("thi,shi->tsh", Cp[lo:hi], bbar[lo:hi]) * gates
            y = np.einsum("tsh,shj->thj", scores, x[lo:hi])
            # carry-in: out_t += exp(S_t) (C_t . h_in)
            y += np.exp(S)[:, :, None] * np.einsum("thi,hij->thj", Cp[lo:hi], h)
            out[lo:hi] = y + D[:, None] * x[lo:hi]
            # close the chunk: h_out = exp(S_c) h_in + sum_s exp(S_c - S_s) bbar_s x_s^T
            w_s = np.exp(S[-1][None, :] - S)               # (c, n_h)
            h = np.exp(S[-1])[:, None, None] * h
            h += np.einsum("sh,shi,shj->hij", w_s, bbar[lo:hi], x[lo:hi])
        return Tensor(out.reshape(t, w.n_h * w.d_h) @ w.W_out.data)
