"""Structured-init tests: factorization exactness, projection reuse, randomness."""

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.numkernel import Tensor, tensor, svd_truncated
from hybridforge.attention import (
    KIND_MHA,
    KIND_MLA,
    KIND_MAMBA2,
    AttentionWeights,
    MLAConfig,
    ModelConfig,
    mla_forward,
)
from hybridforge.ssm import CONV_K, mamba2_forward_seq
from hybridforge.upcycle import (
    default_decay_exponents,
    default_step_bias,
    identity_conv,
    init_mamba2_from_attention,
    init_mla_from_attention,
    init_random,
)
from oracle_helpers import reconstruct_kv, reconstruct_query


def toy_cfg():
    return ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)


def full_rank_mcfg(cfg):
    return MLAConfig(
        r_q=cfg.d, r_kv=2 * cfg.n_kv * cfg.d_h, d_qk=cfg.d_h - 2, d_v=cfg.d_h, d_r=2
    )


def rand_attn(cfg, rng):
    def w(*shape):
        return tensor(rng.standard_normal(shape), dtype=np.float64)

    return AttentionWeights(
        W_Q=w(cfg.d, cfg.n_h * cfg.d_h),
        W_K=w(cfg.d, cfg.n_kv * cfg.d_h),
        W_V=w(cfg.d, cfg.n_kv * cfg.d_h),
        W_O=w(cfg.n_h * cfg.d_h, cfg.d),
    )


# ---------------------------------------------------------------------------
# latent-attention init


def test_full_rank_init_reconstructs_sources():
    cfg = toy_cfg()
    mcfg = full_rank_mcfg(cfg)
    rng = np.random.default_rng(0)
    for _ in range(5):
        w = rand_attn(cfg, rng)
        mw = init_mla_from_attention(w, cfg, mcfg)
        q_hat = reconstruct_query(mw, cfg, mcfg)
        rel_q = np.linalg.norm(q_hat - w.W_Q.data) / np.linalg.norm(w.W_Q.data)
        kv_hat, kv_src = reconstruct_kv(mw, w, cfg, mcfg)
        rel_kv = np.linalg.norm(kv_hat - kv_src) / np.linalg.norm(kv_src)
        assert rel_q <= 1e-5 and rel_kv <= 1e-5


def test_truncated_init_error_is_svd_optimal():
    cfg = toy_cfg()
    rng = np.random.default_rng(1)
    w = rand_attn(cfg, rng)
    for r_kv in (4, 8, 12):
        mcfg = MLAConfig(r_q=10, r_kv=r_kv, d_qk=2, d_v=cfg.d_h, d_r=2)
        mw = init_mla_from_attention(w, cfg, mcfg)
        kv_hat, kv_src = reconstruct_kv(mw, w, cfg, mcfg)
        got = np.linalg.norm(kv_hat - kv_src)
        best = np.linalg.norm(svd_truncated(kv_src, r_kv).reconstruct() - kv_src)
        assert abs(got - best) <= 1e-10


def test_truncation_error_monotone_in_rank():
    cfg = toy_cfg()
    rng = np.random.default_rng(2)
    w = rand_attn(cfg, rng)
    errs = []
    for r_kv in (4, 8):
        mcfg = MLAConfig(r_q=10, r_kv=r_kv, d_qk=2, d_v=cfg.d_h, d_r=2)
        mw = init_mla_from_attention(w, cfg, mcfg)
        kv_hat, kv_src = reconstruct_kv(mw, w, cfg, mcfg)
        errs.append(np.linalg.norm(kv_hat - kv_src))
    assert errs[0] >= errs[1]


def test_rotary_key_is_tail_of_head_mean():
    cfg = toy_cfg()
    mcfg = full_rank_mcfg(cfg)
    rng = np.random.default_rng(3)
    w = rand_attn(cfg, rng)
    mw = init_mla_from_attention(w, cfg, mcfg)
    mean_k = w.W_K.data.reshape(cfg.d, cfg.n_kv, cfg.d_h).mean(axis=1)
    assert np.array_equal(mw.W_KR.data, mean_k[:, cfg.d_h - mcfg.d_r :])


def test_output_projection_copied_bitwise():
    cfg = toy_cfg()
    mcfg = full_rank_mcfg(cfg)
    rng = np.random.default_rng(4)
    w = rand_attn(cfg, rng)
    mw = init_mla_from_attention(w, cfg, mcfg)
    assert np.array_equal(mw.W_O.data, w.W_O.data)


def test_mla_init_deterministic():
    cfg = toy_cfg()
    mcfg = MLAConfig(r_q=10, r_kv=6, d_qk=2, d_v=cfg.d_h, d_r=2)
    rng = np.random.default_rng(5)
    w = rand_attn(cfg, rng)
    m1 = init_mla_from_attention(w, cfg, mcfg)
    m2 = init_mla_from_attention(w, cfg, mcfg)
    for (_, t1), (_, t2) in zip(m1.items(), m2.items()):
        assert np.array_equal(t1.data, t2.data)


def test_published_config_shapes():
    # 16-layer base with d=2048, 32 query / 8 kv heads of dim 64;
    # latent ranks 128 (kv) and 1344 (q), rotary slice 32
    cfg = ModelConfig(L=16, d=2048, n_h=32, n_kv=8, d_h=64, vocab=128256)
    mcfg = MLAConfig(r_q=1344, r_kv=128, d_qk=32, d_v=64, d_r=32)
    rng = np.random.default_rng(6)
    w = AttentionWeights(
        W_Q=Tensor(rng.standard_normal((2048, 2048)).astype(np.float32)),
        W_K=Tensor(rng.standard_normal((2048, 512)).astype(np.float32)),
        W_V=Tensor(rng.standard_normal((2048, 512)).astype(np.float32)),
        W_O=Tensor(rng.standard_normal((2048, 2048)).astype(np.float32)),
    )
    mw = init_mla_from_attention(w, cfg, mcfg)
    assert mw.W_DKV.shape == (2048, 128)
    assert mw.W_KR.shape == (2048, 32)
    assert mw.W_UQ.shape == (1344, 32 * 32)


def test_init_rank_bounds_enforced():
    cfg = toy_cfg()
    rng = np.random.default_rng(7)
    w = rand_attn(cfg, rng)
    with pytest.raises(ValueError):
        init_mla_from_attention(w, cfg, MLAConfig(r_q=99, r_kv=6, d_qk=2, d_v=4, d_r=2))


# ---------------------------------------------------------------------------
# state-space init


def test_mamba_init_copies_projections_bitwise():
    cfg = toy_cfg()
    rng = np.random.default_rng(8)
    w = rand_attn(cfg, rng)
    m = init_mamba2_from_attention(w, cfg)
    kv, q = cfg.n_kv * cfg.d_h, cfg.n_h * cfg.d_h
    assert m.W_in.shape == (cfg.d, 2 * kv + q + cfg.n_h)
    assert np.array_equal(m.W_in.data[:, :kv], w.W_V.data)             # x
    assert np.array_equal(m.W_in.data[:, kv:2 * kv], w.W_K.data)       # B
    assert np.array_equal(m.W_in.data[:, 2 * kv:2 * kv + q], w.W_Q.data)  # C
    assert np.array_equal(m.W_out.data, w.W_O.data)


def test_mamba_init_identity_conv_and_defaults():
    cfg = toy_cfg()
    rng = np.random.default_rng(9)
    m = init_mamba2_from_attention(rand_attn(cfg, rng), cfg)
    assert m.conv.shape == ((2 * cfg.n_kv + cfg.n_h) * cfg.d_h, CONV_K)  # every x, B, C channel
    assert np.all(m.conv.data[:, -1] == 1.0)
    assert np.all(m.conv.data[:, :-1] == 0.0)
    decay_factor = np.exp(-np.exp(m.a_log.data))  # exp(a) at unit step
    assert decay_factor.min() >= 0.5 - 1e-6 and decay_factor.max() <= 0.999 + 1e-6
    dt0 = np.log1p(np.exp(m.delta_b.data))
    assert dt0.min() >= 0.001 - 1e-9 and dt0.max() <= 0.1 + 1e-9
    assert np.all(m.D.data == 1.0)
    assert np.all(m.W_in.data[:, m.conv.shape[0]:] == 0.0)  # dt block


def test_mamba_init_single_step_hand_oracle():
    cfg = toy_cfg()
    rng = np.random.default_rng(10)
    w = rand_attn(cfg, rng)
    m = init_mamba2_from_attention(w, cfg)
    h = rng.standard_normal((1, cfg.d))
    out, _ = mamba2_forward_seq(tensor(h[None], dtype=np.float64), m, cfg)

    # by hand: identity conv means the paths are plain projections at t=1
    group = cfg.n_h // cfg.n_kv
    x = np.repeat((h @ w.W_V.data).reshape(cfg.n_kv, cfg.d_h), group, axis=0)
    B = np.repeat((h @ w.W_K.data).reshape(cfg.n_kv, cfg.d_h), group, axis=0)
    C = (h @ w.W_Q.data).reshape(cfg.n_h, cfg.d_h)
    dt = np.log1p(np.exp(m.delta_b.data.astype(np.float64)))
    hmat = dt[:, None, None] * B[:, :, None] * x[:, None, :]
    y = np.einsum("hi,hij->hj", C, hmat) + m.D.data[:, None] * x
    expect = y.reshape(1, -1) @ w.W_O.data
    assert np.abs(out.data[0] - expect).max() <= 1e-10


def test_mamba_init_mha_source_degenerate_replication():
    cfg = ModelConfig(L=2, d=16, n_h=4, n_kv=4, d_h=4, vocab=32)
    rng = np.random.default_rng(11)
    w = rand_attn(cfg, rng)
    m = init_mamba2_from_attention(w, cfg)
    # replication is the identity: x, B and C are each n_h heads wide
    assert m.W_in.shape == (cfg.d, 3 * cfg.n_h * cfg.d_h + cfg.n_h)


# ---------------------------------------------------------------------------
# random init


def test_random_init_deterministic_per_seed():
    cfg = toy_cfg()
    mcfg = full_rank_mcfg(cfg)
    for kind, extra in ((KIND_MHA, None), (KIND_MLA, mcfg), (KIND_MAMBA2, None)):
        w1 = init_random(kind, cfg, extra, seed=7)
        w2 = init_random(kind, cfg, extra, seed=7)
        w3 = init_random(kind, cfg, extra, seed=8)
        for (_, a), (_, b), (_, c) in zip(w1.items(), w2.items(), w3.items()):
            assert np.array_equal(a.data, b.data)
        assert any(
            not np.array_equal(a.data, c.data)
            for (_, a), (_, c) in zip(w1.items(), w3.items())
        )


def test_random_init_requires_mla_config():
    with pytest.raises(ValueError):
        init_random(KIND_MLA, toy_cfg(), None, seed=0)
    with pytest.raises(ValueError):
        init_random("nope", toy_cfg(), None, seed=0)


def test_random_mla_output_variance_envelope():
    # pooled over 100 seeds: unit-variance input must come out same order of magnitude
    cfg = toy_cfg()
    mcfg = full_rank_mcfg(cfg)
    rng = np.random.default_rng(12)
    h = tensor(rng.standard_normal((1, 16, cfg.d)), dtype=np.float64)
    outs = []
    for seed in range(100):
        w = init_random(KIND_MLA, cfg, mcfg, seed=seed, dtype=np.float64)
        with nk.no_grad():
            out, _ = mla_forward(h, w, cfg, mcfg)
        outs.append(out.data)
    v = np.concatenate(outs).var()
    assert 0.1 <= v <= 10.0, f"pooled variance {v:.3f}"
