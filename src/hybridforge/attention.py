"""Attention token mixers: MHA/GQA and latent-compressed (MLA) variants.

Both mixers support two calling modes: a whole-sequence pass used in training
(optionally batched), and incremental cached decode where the cache carries
either full per-head keys/values or the compressed latent + rotary-key rows.
Byte accounting for every cache variant lives here as well, since cache size
is the quantity the rest of the toolkit budgets against.
"""

from __future__ import annotations

import dataclasses
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
    "AttentionWeights",
    "MLAConfig",
    "MLAWeights",
    "map_mixer",
    "FullKV",
    "LatentKV",
    "rope_apply",
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


@dataclass
class AttentionWeights:
    """Plain MHA/GQA projections."""

    W_Q: Tensor  # d x (n_h * d_h)
    W_K: Tensor  # d x (n_kv * d_h)
    W_V: Tensor  # d x (n_kv * d_h)
    W_O: Tensor  # (n_h * d_h) x d

    def validate(self, cfg: ModelConfig) -> None:
        want = {
            "W_Q": (cfg.d, cfg.n_h * cfg.d_h),
            "W_K": (cfg.d, cfg.n_kv * cfg.d_h),
            "W_V": (cfg.d, cfg.n_kv * cfg.d_h),
            "W_O": (cfg.n_h * cfg.d_h, cfg.d),
        }
        for name, shape in want.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got} != expected {shape}")

    def items(self):
        return [("W_Q", self.W_Q), ("W_K", self.W_K), ("W_V", self.W_V), ("W_O", self.W_O)]


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
class MLAWeights:
    """Latent attention parameters: down/up projections plus the rotary key path."""

    W_DQ: Tensor   # d x r_q
    W_UQ: Tensor   # r_q x (n_h * d_qk)
    W_QR: Tensor   # r_q x (n_h * d_r)
    W_DKV: Tensor  # d x r_kv
    W_UK: Tensor   # r_kv x (n_kv * d_qk)
    W_UV: Tensor   # r_kv x (n_kv * d_v)
    W_KR: Tensor   # d x d_r
    W_O: Tensor    # (n_h * d_v) x d

    def validate(self, cfg: ModelConfig, mcfg: MLAConfig) -> None:
        want = {
            "W_DQ": (cfg.d, mcfg.r_q),
            "W_UQ": (mcfg.r_q, cfg.n_h * mcfg.d_qk),
            "W_QR": (mcfg.r_q, cfg.n_h * mcfg.d_r),
            "W_DKV": (cfg.d, mcfg.r_kv),
            "W_UK": (mcfg.r_kv, cfg.n_kv * mcfg.d_qk),
            "W_UV": (mcfg.r_kv, cfg.n_kv * mcfg.d_v),
            "W_KR": (cfg.d, mcfg.d_r),
            "W_O": (cfg.n_h * mcfg.d_v, cfg.d),
        }
        for name, shape in want.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got} != expected {shape}")

    def items(self):
        return [(n, getattr(self, n)) for n in
                ("W_DQ", "W_UQ", "W_QR", "W_DKV", "W_UK", "W_UV", "W_KR", "W_O")]


def map_mixer(m, fn):
    """Same-kind mixer weights with ``fn`` applied to every tensor of ``m``.

    Serves every weight class with an ``items()`` listing of its tensor
    fields (the two attention kinds here and the SSM kind); other fields,
    such as the SSM head counts, carry over.
    """
    return dataclasses.replace(m, **{name: fn(t) for name, t in m.items()})


# ---------------------------------------------------------------------------
# decode caches


@dataclass
class FullKV:
    """Per-head key/value rows for already-seen tokens: (t, n_kv, d_h) each."""

    k: np.ndarray
    v: np.ndarray

    @classmethod
    def empty(cls, n_kv: int, d_h: int, dtype=np.float32) -> "FullKV":
        z = np.zeros((0, n_kv, d_h), dtype=dtype)
        return cls(k=z, v=z.copy())

    @property
    def t(self) -> int:
        return self.k.shape[0]

    def byte_size(self) -> int:
        return self.k.nbytes + self.v.nbytes

    def appended(self, k_new: np.ndarray, v_new: np.ndarray) -> "FullKV":
        return FullKV(
            k=np.concatenate([self.k, k_new], axis=0),
            v=np.concatenate([self.v, v_new], axis=0),
        )


@dataclass
class LatentKV:
    """Compressed cache: latent rows (t, r_kv) and rotated key rows (t, d_r)."""

    c_kv: np.ndarray
    k_r: np.ndarray

    @classmethod
    def empty(cls, r_kv: int, d_r: int, dtype=np.float32) -> "LatentKV":
        return cls(
            c_kv=np.zeros((0, r_kv), dtype=dtype),
            k_r=np.zeros((0, d_r), dtype=dtype),
        )

    @property
    def t(self) -> int:
        return self.c_kv.shape[0]

    def byte_size(self) -> int:
        return self.c_kv.nbytes + self.k_r.nbytes

    def appended(self, c_new: np.ndarray, kr_new: np.ndarray) -> "LatentKV":
        return LatentKV(
            c_kv=np.concatenate([self.c_kv, c_new], axis=0),
            k_r=np.concatenate([self.k_r, kr_new], axis=0),
        )


def rope_apply(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotary-rotate the last axis of (..., t, heads, dim) at the given positions."""
    positions = np.asarray(positions)
    if np.any(positions < 0):
        raise ValueError("positions must be non-negative")
    return nk.rope_rotate(x, positions, base)


def _causal_mask(t_new: int, t_total: int, dtype) -> np.ndarray:
    # query row i (absolute position t_total - t_new + i) may see keys 0..abs(i)
    offset = t_total - t_new
    rows = np.arange(t_new)[:, None] + offset
    cols = np.arange(t_total)[None, :]
    return np.where(cols > rows, nk.NEG_MASK, 0.0).astype(dtype)


def _split_heads(x: Tensor, heads: int, dim: int) -> Tensor:
    # (b, t, heads*dim) -> (b, heads, t, dim)
    b, t = x.shape[0], x.shape[1]
    return nk.transpose(nk.reshape(x, (b, t, heads, dim)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    # (b, heads, t, dim) -> (b, t, heads*dim)
    b, h, t, dim = x.shape
    return nk.reshape(nk.transpose(x, (0, 2, 1, 3)), (b, t, h * dim))


def _as_batched(H: Tensor) -> tuple[Tensor, bool]:
    if H.ndim == 2:
        return nk.reshape(H, (1,) + H.shape), True
    if H.ndim == 3:
        return H, False
    raise ValueError("H must be (t, d) or (batch, t, d)")


def mha_forward(
    H: Tensor,
    w: AttentionWeights,
    cfg: ModelConfig,
    cache: Optional[FullKV] = None,
) -> tuple[Tensor, Optional[FullKV]]:
    """Causal grouped-query attention; returns output and the grown cache.

    With a cache, H holds the new tokens only and must be unbatched (t, d);
    positions continue from cache.t. Batched input runs cache-free.
    """
    w.validate(cfg)
    if cache is not None and H.ndim != 2:
        raise ValueError("cached decode takes a single unbatched sequence")
    Hb, squeeze = _as_batched(H)
    b, t = Hb.shape[0], Hb.shape[1]
    t_prev = cache.t if cache is not None else 0
    positions = np.arange(t_prev, t_prev + t)
    group = cfg.n_h // cfg.n_kv

    q = nk.reshape(nk.matmul(Hb, w.W_Q), (b, t, cfg.n_h, cfg.d_h))
    k = nk.reshape(nk.matmul(Hb, w.W_K), (b, t, cfg.n_kv, cfg.d_h))
    v = nk.reshape(nk.matmul(Hb, w.W_V), (b, t, cfg.n_kv, cfg.d_h))
    q = rope_apply(q, positions, cfg.rope_base)
    k = rope_apply(k, positions, cfg.rope_base)

    new_cache = None
    if cache is not None:
        new_cache = cache.appended(k.data[0], v.data[0])
        if t_prev:
            k = nk.concat([Tensor(cache.k[None]), k], axis=1)
            v = nk.concat([Tensor(cache.v[None]), v], axis=1)
    t_total = t_prev + t

    qh = nk.transpose(q, (0, 2, 1, 3))                      # (b, n_h, t, d_h)
    kh = nk.transpose(k, (0, 2, 1, 3))                      # (b, n_kv, T, d_h)
    vh = nk.transpose(v, (0, 2, 1, 3))
    if group > 1:
        kh = nk.repeat(kh, group, axis=1)
        vh = nk.repeat(vh, group, axis=1)

    scores = nk.matmul(qh, nk.transpose(kh, (0, 1, 3, 2)))  # (b, n_h, t, T)
    scores = nk.mul(scores, 1.0 / np.sqrt(cfg.d_h))
    scores = nk.add(scores, Tensor(_causal_mask(t, t_total, scores.dtype)))
    attn = nk.softmax(scores, axis=-1)
    ctx = _merge_heads(nk.matmul(attn, vh))                 # (b, t, n_h*d_h)
    out = nk.matmul(ctx, w.W_O)
    if squeeze:
        out = nk.reshape(out, out.shape[1:])
    return out, new_cache


def mla_forward(
    H: Tensor,
    w: MLAWeights,
    cfg: ModelConfig,
    mcfg: MLAConfig,
    cache: Optional[LatentKV] = None,
) -> tuple[Tensor, Optional[LatentKV]]:
    """Latent attention: cache holds compressed rows, keys/values rebuilt on read.

    Queries and keys carry a position-free part (rebuilt from latents) plus a
    d_r-dim rotary part; the rotary key is shared across heads. Scores scale by
    1 / sqrt(d_qk + d_r).
    """
    w.validate(cfg, mcfg)
    if cache is not None and H.ndim != 2:
        raise ValueError("cached decode takes a single unbatched sequence")
    Hb, squeeze = _as_batched(H)
    b, t = Hb.shape[0], Hb.shape[1]
    t_prev = cache.t if cache is not None else 0
    positions = np.arange(t_prev, t_prev + t)
    group = cfg.n_h // cfg.n_kv

    c_q = nk.matmul(Hb, w.W_DQ)                              # (b, t, r_q)
    q_c = nk.reshape(nk.matmul(c_q, w.W_UQ), (b, t, cfg.n_h, mcfg.d_qk))
    q_r = nk.reshape(nk.matmul(c_q, w.W_QR), (b, t, cfg.n_h, mcfg.d_r))
    q_r = rope_apply(q_r, positions, cfg.rope_base)

    c_kv = nk.matmul(Hb, w.W_DKV)                            # (b, t, r_kv)
    k_r = nk.reshape(nk.matmul(Hb, w.W_KR), (b, t, 1, mcfg.d_r))
    k_r = rope_apply(k_r, positions, cfg.rope_base)          # rotated before caching

    new_cache = None
    if cache is not None:
        new_cache = cache.appended(c_kv.data[0], k_r.data[0, :, 0])
        if t_prev:
            c_kv = nk.concat([Tensor(cache.c_kv[None]), c_kv], axis=1)
            k_r = nk.concat([Tensor(cache.k_r[None, :, None, :]), k_r], axis=1)
    t_total = t_prev + t

    k_c = nk.reshape(nk.matmul(c_kv, w.W_UK), (b, t_total, cfg.n_kv, mcfg.d_qk))
    val = nk.reshape(nk.matmul(c_kv, w.W_UV), (b, t_total, cfg.n_kv, mcfg.d_v))

    qh = nk.concat([q_c, q_r], axis=-1)                      # (b, t, n_h, d_qk+d_r)
    qh = nk.transpose(qh, (0, 2, 1, 3))
    k_ch = nk.transpose(k_c, (0, 2, 1, 3))                   # (b, n_kv, T, d_qk)
    vh = nk.transpose(val, (0, 2, 1, 3))
    if group > 1:
        k_ch = nk.repeat(k_ch, group, axis=1)
        vh = nk.repeat(vh, group, axis=1)
    k_rh = nk.repeat(nk.transpose(k_r, (0, 2, 1, 3)), cfg.n_h, axis=1)
    kh = nk.concat([k_ch, k_rh], axis=-1)                    # (b, n_h, T, d_qk+d_r)

    scores = nk.matmul(qh, nk.transpose(kh, (0, 1, 3, 2)))
    scores = nk.mul(scores, 1.0 / np.sqrt(mcfg.d_qk + mcfg.d_r))
    scores = nk.add(scores, Tensor(_causal_mask(t, t_total, scores.dtype)))
    attn = nk.softmax(scores, axis=-1)
    ctx = _merge_heads(nk.matmul(attn, vh))                  # (b, t, n_h*d_v)
    out = nk.matmul(ctx, w.W_O)
    if squeeze:
        out = nk.reshape(out, out.shape[1:])
    return out, new_cache


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
    if kind == KIND_MHA:
        return 2 * cfg.n_kv * cfg.d_h * t * elem_bytes
    if kind == KIND_MLA:
        if mcfg is None:
            raise ValueError("MLA byte accounting needs an MLAConfig")
        return (mcfg.r_kv + mcfg.d_r) * t * elem_bytes
    if kind == KIND_MAMBA2:
        return 0
    raise ValueError(f"unknown layer kind {kind!r}")
