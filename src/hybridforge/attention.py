"""Attention token mixers: MHA/GQA and latent-compressed (MLA) variants.

Both mixers are one computation: causal softmax attention over per-token
cache rows, where a group of query heads shares one set of keys and values.
They differ only in what a row holds. An MHA row holds each kv head's
[key | value]; an MLA row holds the compressed latent and the shared rotary
key, [c_kv | k_r], which the queries score directly. Both hand their
queries, keys and values to one kernel, ``numkernel.attend``: MHA passes
(b, n_kv, g, t, d_h) queries against (b, n_kv, 1, T, d_h) keys, MLA
(b, n_h, t, dk) queries against one (b, 1, T, dk) set of rows. Each mixer
runs on (batch, t, d) input, both in a whole-sequence pass used in training
and in cached decode over a ``RowCache`` with the same batch; a cached call
reads the cached rows in place, recorded or not. Byte accounting for
every layer kind lives here as well (``row_width``, ``kv_bytes``), since
cache size is the quantity the rest of the toolkit budgets against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numkernel as nk
from .numkernel import Tensor

__all__ = [
    "KIND_MHA",
    "KIND_MLA",
    "KIND_MAMBA2",
    "ModelConfig",
    "MixerWeights",
    "AttentionWeights",
    "MLAConfig",
    "MLAWeights",
    "RowCache",
    "row_width",
    "mha_forward",
    "mla_forward",
    "kv_bytes",
]

KIND_MHA = "mha"
KIND_MLA = "mla"
KIND_MAMBA2 = "mamba2"
_KINDS = (KIND_MHA, KIND_MLA, KIND_MAMBA2)


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by every layer kind."""

    L: int
    d: int
    n_h: int
    n_kv: int
    d_h: int
    vocab: int
    rope_base: float = 10000.0
    layer_kinds: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.layer_kinds:
            self.layer_kinds = [KIND_MHA] * self.L
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if len(self.layer_kinds) != self.L:
            raise ValueError("layer_kinds length must equal L")
        for kind in self.layer_kinds:
            if kind not in _KINDS:
                raise ValueError(f"unknown layer kind {kind!r}")
        if self.n_h % self.n_kv != 0:
            raise ValueError("n_h must be divisible by n_kv")
        if self.d < 1 or self.d_h < 1 or self.vocab < 2:
            raise ValueError("dims and vocab must be positive (vocab >= 2)")


class MixerWeights:
    """One layer's mixer: a record of the tensors ``NAMES`` lists, and nothing else.

    Every dim comes from the model's configs: ``shapes(cfg, mcfg)`` gives each
    tensor's shape (the SSM conv width is the constant ``ssm.CONV_K``).
    """

    NAMES: tuple[str, ...] = ()

    def items(self) -> list[tuple[str, Tensor]]:
        return [(n, getattr(self, n)) for n in self.NAMES]


@dataclass
class AttentionWeights(MixerWeights):
    """Plain MHA/GQA projections."""

    NAMES = ("W_Q", "W_K", "W_V", "W_O")

    W_Q: Tensor  # d x (n_h * d_h)
    W_K: Tensor  # d x (n_kv * d_h)
    W_V: Tensor  # d x (n_kv * d_h)
    W_O: Tensor  # (n_h * d_h) x d

    @staticmethod
    def shapes(cfg: ModelConfig, mcfg=None) -> dict:
        """Expected shape of each tensor; the MLA config goes unused."""
        return {
            "W_Q": (cfg.d, cfg.n_h * cfg.d_h),
            "W_K": (cfg.d, cfg.n_kv * cfg.d_h),
            "W_V": (cfg.d, cfg.n_kv * cfg.d_h),
            "W_O": (cfg.n_h * cfg.d_h, cfg.d),
        }


@dataclass
class MLAConfig:
    """Latent-attention ranks and head-dim split."""

    r_q: int
    r_kv: int
    d_qk: int
    d_v: int
    d_r: int

    def validate(self, cfg: ModelConfig) -> None:
        if self.d_qk + self.d_r != cfg.d_h:
            raise ValueError("d_qk + d_r must equal d_h")
        if self.d_v != cfg.d_h:
            raise ValueError("d_v must equal d_h")
        if not 1 <= self.r_kv <= 2 * cfg.n_kv * cfg.d_h:
            raise ValueError("r_kv out of range")
        if not 1 <= self.r_q <= cfg.d:
            raise ValueError("r_q out of range")
        if self.d_r % 2 != 0:
            raise ValueError("d_r must be even for rotary pairs")


@dataclass
class MLAWeights(MixerWeights):
    """Latent attention parameters: down/up projections plus the rotary key path."""

    NAMES = ("W_DQ", "W_UQ", "W_QR", "W_DKV", "W_UK", "W_UV", "W_KR", "W_O")

    W_DQ: Tensor   # d x r_q
    W_UQ: Tensor   # r_q x (n_h * d_qk)
    W_QR: Tensor   # r_q x (n_h * d_r)
    W_DKV: Tensor  # d x r_kv
    W_UK: Tensor   # r_kv x (n_kv * d_qk)
    W_UV: Tensor   # r_kv x (n_kv * d_v)
    W_KR: Tensor   # d x d_r
    W_O: Tensor    # (n_h * d_v) x d

    @staticmethod
    def shapes(cfg: ModelConfig, mcfg: Optional[MLAConfig]) -> dict:
        """Expected shape of each tensor."""
        if mcfg is None:
            raise ValueError("MLA weights need an MLAConfig")
        return {
            "W_DQ": (cfg.d, mcfg.r_q),
            "W_UQ": (mcfg.r_q, cfg.n_h * mcfg.d_qk),
            "W_QR": (mcfg.r_q, cfg.n_h * mcfg.d_r),
            "W_DKV": (cfg.d, mcfg.r_kv),
            "W_UK": (mcfg.r_kv, cfg.n_kv * mcfg.d_qk),
            "W_UV": (mcfg.r_kv, cfg.n_kv * mcfg.d_v),
            "W_KR": (cfg.d, mcfg.d_r),
            "W_O": (cfg.n_h * mcfg.d_v, cfg.d),
        }


# ---------------------------------------------------------------------------
# decode caches


class _RowBuffer:
    """Append-only rows shared by the caches grown from one another.

    ``data`` is (b, capacity, width) once written; a cache is the first ``t``
    rows of each of its b sequences. Rows below ``filled`` are never
    rewritten, so every cache that shares the buffer keeps its rows.
    """

    __slots__ = ("data", "filled")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.filled = 0

    def put(self, t: int, new: np.ndarray) -> "_RowBuffer":
        """A buffer holding this one's first t rows, then the (b, n, width) ``new``:
        this buffer, written in place, when row t is its first unwritten row and
        fits; otherwise a copy, doubled in capacity when it must grow."""
        end = t + new.shape[1]
        buf = self
        cap = self.data.shape[-2]
        if t != self.filled or end > cap:
            if end > cap:
                cap = max(end, 2 * cap)
            buf = _RowBuffer(np.empty(new.shape[:1] + (cap,) + new.shape[2:], self.data.dtype))
            buf.data[:, :t] = self.data[..., :t, :]
        buf.data[:, t:end] = new
        buf.filled = end
        return buf


@dataclass(frozen=True)
class RowCache:
    """One attention layer's decode cache: (b, t, width) rows, one per seen token.

    MHA rows hold each kv head's [key | value]; MLA rows hold [c_kv | k_r]
    (see ``row_width``). An empty cache has no batch axis; its first append
    fixes b, and appending rows of another batch raises ``ValueError``.
    """

    buf: _RowBuffer
    t: int

    @classmethod
    def empty(cls, width: int, dtype=np.float32) -> "RowCache":
        return cls(_RowBuffer(np.empty((0, width), dtype=dtype)), 0)

    @property
    def rows(self) -> np.ndarray:
        return self.buf.data[..., : self.t, :]

    def byte_size(self) -> int:
        return self.rows.nbytes

    def appended(self, new_rows: np.ndarray) -> "RowCache":
        if self.t and len(self.rows) != len(new_rows):
            raise ValueError(f"cache holds a batch of {len(self.rows)}, "
                             f"the new rows a batch of {len(new_rows)}")
        return RowCache(self.buf.put(self.t, new_rows), self.t + new_rows.shape[1])


def row_width(kind: str, cfg: ModelConfig, mcfg: Optional[MLAConfig]) -> int:
    """Elements one token adds to a layer's decode cache (0 for an SSM layer)."""
    if kind == KIND_MHA:
        return 2 * cfg.n_kv * cfg.d_h
    if kind == KIND_MLA:
        if mcfg is None:
            raise ValueError("MLA byte accounting needs an MLAConfig")
        return mcfg.r_kv + mcfg.d_r
    if kind == KIND_MAMBA2:
        return 0
    raise ValueError(f"unknown layer kind {kind!r}")


def _start(H: Tensor, cache: Optional[RowCache]) -> np.ndarray:
    """The absolute positions of the tokens of the (b, t, d) input H."""
    if H.ndim != 3:
        raise ValueError(f"H must be (batch, t, d), got shape {H.shape}")
    t_prev = cache.t if cache is not None else 0
    return np.arange(t_prev, t_prev + H.shape[1])


def _finish(ctx: Tensor, W_O: Tensor) -> Tensor:
    # (b, heads..., t, dim) context, query heads in order -> (b, t, heads*dim) @ W_O
    n = ctx.ndim
    ctx = nk.transpose(ctx, (0, n - 2) + tuple(range(1, n - 2)) + (n - 1,))
    return nk.matmul(nk.reshape(ctx, ctx.shape[:2] + (-1,)), W_O)


def _rows_so_far(
    new_rows: Tensor, cache: Optional[RowCache]
) -> tuple[Tensor, Optional[RowCache]]:
    """Rows of every position seen so far, (b, T, ...), and the grown cache.

    new_rows is (b, t, ...), one cache row per token. The rows are a view of
    the grown cache's buffer (``nk.cached_rows``), read in place; the gradient
    of a recorded pass reaches the projections through new_rows.
    """
    if cache is None:
        return new_rows, None
    b, t = new_rows.shape[:2]
    grown = cache.appended(new_rows.data.reshape(b, t, -1))
    return nk.cached_rows(grown.rows.reshape((b, grown.t) + new_rows.shape[2:]), new_rows), grown


def mha_forward(
    H: Tensor,
    w: AttentionWeights,
    cfg: ModelConfig,
    cache: Optional[RowCache] = None,
) -> tuple[Tensor, Optional[RowCache]]:
    """Causal grouped-query attention; returns output and the grown cache.

    H is (b, t, d); with a cache, H holds the new tokens of the cache's b
    sequences, and positions continue from cache.t. Each kv head's keys and
    values are shared by its n_h / n_kv adjacent query heads without being
    copied per head. The weights are trusted: ``HybridModel`` checks their
    shapes once, when the model is built.
    """
    positions = _start(H, cache)
    b, t = H.shape[0], H.shape[1]
    n_kv, g, d_h = cfg.n_kv, cfg.n_h // cfg.n_kv, cfg.d_h

    q = nk.reshape(nk.matmul(H, w.W_Q), (b, t, cfg.n_h, d_h))
    k = nk.reshape(nk.matmul(H, w.W_K), (b, t, n_kv, d_h))
    v = nk.reshape(nk.matmul(H, w.W_V), (b, t, n_kv, d_h))
    q = nk.mul(nk.rope_rotate(q, positions, cfg.rope_base), 1.0 / np.sqrt(d_h))
    # a kv head's g query heads are adjacent: one group per kv head
    q = nk.transpose(nk.reshape(q, (b, t, n_kv, g, d_h)), (0, 2, 3, 1, 4))
    k = nk.rope_rotate(k, positions, cfg.rope_base)
    # one cache row per token: each kv head's [key | value]
    new_rows = nk.reshape(nk.concat([k, v], axis=-1), (b, t, n_kv, 1, 2 * d_h))

    rows, new_cache = _rows_so_far(new_rows, cache)
    kv = nk.transpose(rows, (0, 2, 3, 1, 4))                 # (b, n_kv, 1, T, 2*d_h)
    ctx = nk.attend(q, nk.getitem(kv, (..., slice(0, d_h))), nk.getitem(kv, (..., slice(d_h, None))))
    return _finish(ctx, w.W_O), new_cache


def mla_forward(
    H: Tensor,
    w: MLAWeights,
    cfg: ModelConfig,
    mcfg: MLAConfig,
    cache: Optional[RowCache] = None,
) -> tuple[Tensor, Optional[RowCache]]:
    """Latent attention: scores and values are read from the cached latent rows.

    Queries and keys carry a position-free part plus a d_r-dim rotary part;
    the rotary key is shared across heads. Keys and values are never built:
    W_UK is folded into each head's query, which then scores the cached
    [c_kv | k_r] rows directly, and W_UV maps each head's attention-weighted
    latent (attn @ c_kv) before W_O. Scores scale by 1 / sqrt(d_qk + d_r).
    Shapes, caching and the trust in ``w`` are as in ``mha_forward``.
    """
    positions = _start(H, cache)
    b, t = H.shape[0], H.shape[1]
    n_kv, g = cfg.n_kv, cfg.n_h // cfg.n_kv
    r_kv, width = mcfg.r_kv, mcfg.r_kv + mcfg.d_r

    # per kv head: W_UK as (n_kv, d_qk, r_kv) and W_UV as (n_kv, r_kv, d_v)
    w_uk = nk.transpose(nk.reshape(w.W_UK, (r_kv, n_kv, mcfg.d_qk)), (1, 2, 0))
    w_uv = nk.transpose(nk.reshape(w.W_UV, (r_kv, n_kv, mcfg.d_v)), (1, 0, 2))

    c_q = nk.matmul(H, w.W_DQ)                               # (b, t, r_q)
    q_c = nk.reshape(nk.matmul(c_q, w.W_UQ), (b, t, cfg.n_h, mcfg.d_qk))
    # a kv head's g query heads are adjacent, so (n_h, t) regroups as (n_kv, g*t)
    q_c = nk.reshape(nk.transpose(q_c, (0, 2, 1, 3)), (b, n_kv, g * t, mcfg.d_qk))
    q_lat = nk.reshape(nk.matmul(q_c, w_uk), (b, cfg.n_h, t, r_kv))
    q_r = nk.reshape(nk.matmul(c_q, w.W_QR), (b, t, cfg.n_h, mcfg.d_r))
    q_r = nk.transpose(nk.rope_rotate(q_r, positions, cfg.rope_base), (0, 2, 1, 3))
    q = nk.mul(nk.concat([q_lat, q_r], axis=-1), 1.0 / np.sqrt(mcfg.d_qk + mcfg.d_r))

    c_kv = nk.matmul(H, w.W_DKV)                             # (b, t, r_kv)
    k_r = nk.reshape(nk.matmul(H, w.W_KR), (b, t, 1, mcfg.d_r))
    k_r = nk.rope_rotate(k_r, positions, cfg.rope_base)      # rotated before caching
    new_rows = nk.concat([c_kv, nk.reshape(k_r, (b, t, mcfg.d_r))], axis=-1)

    rows, new_cache = _rows_so_far(new_rows, cache)
    rows = nk.reshape(rows, (b, 1, rows.shape[1], width))   # shared by all n_h heads
    ctx = nk.attend(q, rows, nk.getitem(rows, (..., slice(0, r_kv))))  # (b, n_h, t, r_kv)
    ctx = nk.matmul(nk.reshape(ctx, (b, n_kv, g * t, r_kv)), w_uv)
    return _finish(nk.reshape(ctx, (b, cfg.n_h, t, mcfg.d_v)), w.W_O), new_cache


def kv_bytes(
    kind: str,
    cfg: ModelConfig,
    mcfg: Optional[MLAConfig],
    t: int,
    elem_bytes: int = 4,
) -> int:
    """Decode-cache bytes one layer of the given kind holds after t tokens."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return row_width(kind, cfg, mcfg) * t * elem_bytes
