"""Structured weight initialization from a pre-trained attention layer.

A latent-attention layer is seeded by factorizing the source projections:
the query projection alone, and the key/value projections jointly, each via
truncated SVD. The left factors become down-projections, the scaled right
factors become up-projections, and the rotary key path takes the tail
columns of the head-averaged key projection. A state-space layer is seeded
by reusing the source projections directly (value -> state write, key ->
input gate, query -> state read, output kept) with identity convolutions, so
the freshly converted layer starts out computing attention-like scores.

No weight record is shape-checked here: ``HybridModel`` checks them where
``convert_model`` builds the student. An ``MLAConfig`` is validated on entry.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .attention import (
    KIND_MHA,
    KIND_MLA,
    KIND_MAMBA2,
    AttentionWeights,
    MixerWeights,
    MLAConfig,
    MLAWeights,
    ModelConfig,
)
from .numkernel import Tensor, svd_truncated
from .ssm import CONV_K, Mamba2Weights

__all__ = [
    "init_mla_from_attention",
    "init_mamba2_from_attention",
    "init_random",
    "default_decay_exponents",
    "default_step_bias",
    "identity_conv",
]

def init_mla_from_attention(
    w: AttentionWeights, cfg: ModelConfig, mcfg: MLAConfig
) -> MLAWeights:
    """Factorize attention projections into latent-attention weights.

    At full ranks the factorization is exact: the query path reconstructs the
    source query projection and the joint key/value factors reconstruct the
    stacked [key, value] block. At truncated ranks the error equals the
    optimal rank-r Frobenius error, nothing more.
    """
    mcfg.validate(cfg)
    n_h, n_kv, d_h = cfg.n_h, cfg.n_kv, cfg.d_h
    d_qk, d_r, d_v = mcfg.d_qk, mcfg.d_r, mcfg.d_v

    # query path: W_Q = U_q (S_q V_q^T), split per head into plain/rotary parts
    fq = svd_truncated(w.W_Q, mcfg.r_q)
    mq = (fq.S.data[:, None] * fq.V.data.T).reshape(mcfg.r_q, n_h, d_h)
    w_uq = mq[:, :, :d_qk].reshape(mcfg.r_q, n_h * d_qk)
    w_qr = mq[:, :, d_qk:].reshape(mcfg.r_q, n_h * d_r)

    # key/value path: joint factorization of the stacked block
    kv = np.concatenate([w.W_K.data, w.W_V.data], axis=1)
    fkv = svd_truncated(kv, mcfg.r_kv)
    mkv = fkv.S.data[:, None] * fkv.V.data.T            # (r_kv, 2*n_kv*d_h)
    key_part = mkv[:, : n_kv * d_h].reshape(mcfg.r_kv, n_kv, d_h)
    w_uk = key_part[:, :, :d_qk].reshape(mcfg.r_kv, n_kv * d_qk)
    w_uv = mkv[:, n_kv * d_h :].reshape(mcfg.r_kv, n_kv * d_v)

    # rotary key: tail columns of the head-averaged key projection
    k_mean = w.W_K.data.reshape(cfg.d, n_kv, d_h).mean(axis=1)
    w_kr = np.ascontiguousarray(k_mean[:, d_h - d_r :])

    return MLAWeights(
        W_DQ=fq.U,
        W_UQ=Tensor(np.ascontiguousarray(w_uq)),
        W_QR=Tensor(np.ascontiguousarray(w_qr)),
        W_DKV=fkv.U,
        W_UK=Tensor(np.ascontiguousarray(w_uk)),
        W_UV=Tensor(np.ascontiguousarray(w_uv)),
        W_KR=Tensor(w_kr),
        W_O=Tensor(w.W_O.data.copy()),
    )


def default_decay_exponents(n_h: int, dtype=np.float32) -> np.ndarray:
    """Log-magnitudes for per-head decay: exp(a) spans [0.5, 0.999] log-uniformly."""
    a = np.linspace(np.log(0.5), np.log(0.999), n_h)
    return np.log(-a).astype(dtype)


def default_step_bias(n_h: int, dtype=np.float32) -> np.ndarray:
    """Bias so the initial step size softplus(bias) spans [0.001, 0.1]."""
    target = np.geomspace(0.001, 0.1, n_h)
    return np.log(np.expm1(target)).astype(dtype)


def identity_conv(channels: int, dtype=np.float32) -> np.ndarray:
    """Depthwise kernel whose only nonzero tap is the current token."""
    kernel = np.zeros((channels, CONV_K), dtype=dtype)
    kernel[:, -1] = 1.0
    return kernel


def init_mamba2_from_attention(w: AttentionWeights, cfg: ModelConfig) -> Mamba2Weights:
    """Reuse attention projections as state-space paths, conv set to identity.

    The value/key/query projections are copied bitwise into the ``[x | B |
    C]`` column blocks of ``W_in`` (MambaInLlama: W_V -> x, W_K -> B, W_Q ->
    C), the step-size block is zero, and the output projection is copied
    bitwise; decay, step size, and skip parameters take the standard
    defaults. With the identity convolution the converted layer's first step
    reads exactly the projected source activations.
    """
    dtype = w.W_Q.dtype
    dt_cols = np.zeros((cfg.d, cfg.n_h), dtype=dtype)
    return Mamba2Weights(
        W_in=Tensor(np.concatenate([w.W_V.data, w.W_K.data, w.W_Q.data, dt_cols], axis=1)),
        conv=Tensor(identity_conv(Mamba2Weights.shapes(cfg)["conv"][0], dtype)),
        a_log=Tensor(default_decay_exponents(cfg.n_h, dtype)),
        delta_b=Tensor(default_step_bias(cfg.n_h, dtype)),
        D=Tensor(np.ones(cfg.n_h, dtype=dtype)),
        W_out=Tensor(w.W_O.data.copy()),
    )


def init_random(
    kind: str,
    cfg: ModelConfig,
    mcfg: Optional[MLAConfig] = None,
    seed: int = 0,
    dtype=np.float32,
) -> MixerWeights:
    """Scaled Gaussian init (std = 1/sqrt(fan_in)) for any mixer kind."""
    rng = np.random.default_rng(seed)

    def gauss(fan_in: int, *shape) -> Tensor:
        return Tensor((rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype))

    if kind == KIND_MLA:
        if mcfg is None:
            raise ValueError("random MLA init needs an MLAConfig")
        mcfg.validate(cfg)
    if kind in (KIND_MHA, KIND_MLA):
        cls = AttentionWeights if kind == KIND_MHA else MLAWeights
        # one draw per tensor in shape order; fan-in is the row count
        return cls(**{n: gauss(s[0], *s) for n, s in cls.shapes(cfg, mcfg).items()})

    if kind == KIND_MAMBA2:
        # draw x, B, C, then their kernels, each block on its own
        widths = (cfg.n_kv * cfg.d_h, cfg.n_kv * cfg.d_h, cfg.n_h * cfg.d_h)
        proj = [gauss(cfg.d, cfg.d, n).data for n in widths]
        kernels = [gauss(CONV_K, n, CONV_K).data for n in widths]
        return Mamba2Weights(
            W_in=Tensor(np.concatenate(proj + [np.zeros((cfg.d, cfg.n_h), dtype)], axis=1)),
            conv=Tensor(np.concatenate(kernels, axis=0)),
            a_log=Tensor(default_decay_exponents(cfg.n_h, dtype)),
            delta_b=Tensor(default_step_bias(cfg.n_h, dtype)),
            D=Tensor(np.ones(cfg.n_h, dtype=dtype)),
            W_out=gauss(cfg.n_h * cfg.d_h, cfg.n_h * cfg.d_h, cfg.d),
        )

    raise ValueError(f"unknown mixer kind {kind!r}")
