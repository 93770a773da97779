"""Selective state-space token mixer with constant-size decode state.

The mixer follows the Mamba-2 block layout (Dao & Gu 2024, arXiv 2405.21060,
section 7): one in-projection writes a value path x, an input-gate path B,
an output-read path C and a per-head step size; one short causal depthwise
convolution temporally fuses the concatenated ``xBC`` channels. A per-head
gated recurrence then runs over (d_h x d_h) hidden matrices: every step
decays the hidden matrix by an input-dependent factor in (0, 1) and writes a
rank-1 outer product. Decode therefore needs only the hidden matrices plus
the last ``CONV_K`` - 1 raw ``xBC`` rows, regardless of how many tokens came
before. ``CONV_K`` is Mamba-2's fixed conv width, not a config field.

The recurrence itself is one kernel primitive, ``numkernel.ssm_scan``: a
chunked scan (a few matmuls per chunk of steps) with a hand-written vjp that
runs the chunks in reverse. Training, prefill and streaming decode all run
it, so a recorded pass adds one graph node per layer; a decode step is a
chunk of one token. The scan takes the log-decay and the n_kv-head x and B
paths as they are, so no decay factor or per-head copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkernel as nk
from .attention import MixerWeights, ModelConfig
from .numkernel import Tensor

__all__ = ["CONV_K", "Mamba2Weights", "SsmState", "mamba2_forward_seq"]

# width of the causal depthwise convolution over xBC (Mamba-2's d_conv)
CONV_K = 4


@dataclass
class Mamba2Weights(MixerWeights):
    """In-projection, convolution, and gating parameters for one SSM layer.

    ``W_in`` has the column blocks ``[x | B | C | dt]`` of widths n_kv*d_h,
    n_kv*d_h, n_h*d_h and n_h: the value path, the input-gate path, the
    output-read path and the step-size projection. ``conv`` holds one
    depthwise kernel per channel of the first three blocks (``xBC``); the
    ``dt`` columns skip the convolution. The dims come from ``ModelConfig``
    and the conv width is ``CONV_K``.
    """

    NAMES = ("W_in", "conv", "a_log", "delta_b", "D", "W_out")

    W_in: Tensor      # d x (2 * n_kv * d_h + n_h * d_h + n_h), blocks [x | B | C | dt]
    conv: Tensor      # (2 * n_kv * d_h + n_h * d_h) x CONV_K depthwise kernels over xBC
    a_log: Tensor     # n_h log-magnitudes; decay exponent a = -exp(a_log) < 0
    delta_b: Tensor   # n_h step-size bias
    D: Tensor         # n_h skip coefficients
    W_out: Tensor     # (n_h * d_h) x d

    @staticmethod
    def shapes(cfg: ModelConfig, mcfg=None) -> dict:
        """Expected shape of each tensor; the MLA config goes unused."""
        xbc = (2 * cfg.n_kv + cfg.n_h) * cfg.d_h
        return {
            "W_in": (cfg.d, xbc + cfg.n_h),
            "conv": (xbc, CONV_K),
            "a_log": (cfg.n_h,),
            "delta_b": (cfg.n_h,),
            "D": (cfg.n_h,),
            "W_out": (cfg.n_h * cfg.d_h, cfg.d),
        }


@dataclass
class SsmState:
    """Decode carry: per-head hidden matrices + the raw ``xBC`` conv history.

    An empty state has no batch axis; it broadcasts against its first input."""

    h: np.ndarray      # (b, n_h, d_h, d_h); (n_h, d_h, d_h) when empty
    tail: np.ndarray   # (b, CONV_K-1, xbc) last pre-conv rows; (CONV_K-1, xbc) when empty

    @classmethod
    def empty(cls, cfg: ModelConfig, dtype=np.float32) -> "SsmState":
        """The zero state of an SSM layer."""
        xbc = Mamba2Weights.shapes(cfg)["conv"][0]
        return cls(h=np.zeros((cfg.n_h, cfg.d_h, cfg.d_h), dtype=dtype),
                   tail=np.zeros((CONV_K - 1, xbc), dtype=dtype))

    def byte_size(self) -> int:
        return self.h.nbytes + self.tail.nbytes


def mamba2_forward_seq(
    H: Tensor,
    w: Mamba2Weights,
    cfg: ModelConfig,
    state: Optional[SsmState] = None,
) -> tuple[Tensor, Optional[SsmState]]:
    """The mixer over (b, t, d) H; returns the (b, t, d) output and the state.

    With a state, H continues the state's b streamed sequences, and the
    returned state carries them past H's last token. Without one, the pass
    starts from zeros and returns None for the state.
    """
    w.validate(cfg)
    if H.ndim != 3:
        raise ValueError(f"H must be (batch, t, d), got shape {H.shape}")
    b, t = H.shape[0], H.shape[1]
    if state is not None and state.h.shape[:-3] not in ((), (b,)):
        raise ValueError(f"state holds a batch of {state.h.shape[0]}, H a batch of {b}")
    xbc, kv, n_h, d_h = w.conv.shape[0], cfg.n_kv, cfg.n_h, cfg.d_h

    proj = nk.matmul(H, w.W_in)
    xbc_pre = nk.getitem(proj, (..., slice(None, xbc)))
    heads = nk.reshape(nk.conv1d_depthwise(xbc_pre, w.conv, state.tail if state else None),
                       (b, t, 2 * kv + n_h, d_h))
    x = nk.getitem(heads, (..., slice(None, kv), slice(None)))
    Bp = nk.getitem(heads, (..., slice(kv, 2 * kv), slice(None)))
    Cp = nk.getitem(heads, (..., slice(2 * kv, None), slice(None)))
    dt = nk.softplus(nk.add(nk.getitem(proj, (..., slice(xbc, None))), w.delta_b))
    decay = nk.mul(dt, nk.neg(nk.texp(w.a_log)))  # (b, t, n_h): dt > 0, log-decay < 0
    # x and B keep their n_kv heads; the scan fans them out to the n_h heads
    out, h_last = nk.ssm_scan(x, Bp, Cp, decay, w.D, state.h if state else None, dt=dt)
    out = nk.matmul(nk.reshape(out, (b, t, n_h * d_h)), w.W_out)
    if state is None:
        return out, None

    old = np.broadcast_to(state.tail, (b,) + state.tail.shape[-2:])
    joined = np.concatenate([old, xbc_pre.data], axis=1)
    return out, SsmState(h=h_last, tail=joined[:, t:].copy())
