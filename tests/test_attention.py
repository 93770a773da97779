"""Attention mixer tests: rotary phases, cached decode, byte accounting."""

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.numkernel import Tensor, tensor
from hybridforge.attention import (
    KIND_MHA,
    KIND_MLA,
    KIND_MAMBA2,
    AttentionWeights,
    MLAConfig,
    MLAWeights,
    ModelConfig,
    RowCache,
    _rows_so_far,
    kv_bytes,
    mha_forward,
    mla_forward,
    row_width,
)
from oracle_helpers import finite_diff_grad, reference_mha, reference_mla

TOY = dict(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)


def toy_cfg(**over):
    args = dict(TOY)
    args.update(over)
    return ModelConfig(**args)


def toy_mla_cfg(cfg, r_q=8, r_kv=6, d_r=2):
    return MLAConfig(r_q=r_q, r_kv=r_kv, d_qk=cfg.d_h - d_r, d_v=cfg.d_h, d_r=d_r)


def rand_attn(cfg, rng, scale=0.2):
    def w(*shape):
        return tensor(rng.standard_normal(shape) * scale, dtype=np.float64)

    return AttentionWeights(
        W_Q=w(cfg.d, cfg.n_h * cfg.d_h),
        W_K=w(cfg.d, cfg.n_kv * cfg.d_h),
        W_V=w(cfg.d, cfg.n_kv * cfg.d_h),
        W_O=w(cfg.n_h * cfg.d_h, cfg.d),
    )


def rand_mla(cfg, mcfg, rng, scale=0.2):
    def w(*shape):
        return tensor(rng.standard_normal(shape) * scale, dtype=np.float64)

    return MLAWeights(
        W_DQ=w(cfg.d, mcfg.r_q),
        W_UQ=w(mcfg.r_q, cfg.n_h * mcfg.d_qk),
        W_QR=w(mcfg.r_q, cfg.n_h * mcfg.d_r),
        W_DKV=w(cfg.d, mcfg.r_kv),
        W_UK=w(mcfg.r_kv, cfg.n_kv * mcfg.d_qk),
        W_UV=w(mcfg.r_kv, cfg.n_kv * mcfg.d_v),
        W_KR=w(cfg.d, mcfg.d_r),
        W_O=w(cfg.n_h * mcfg.d_v, cfg.d),
    )


def empty_cache(kind, cfg, mcfg=None):
    return RowCache.empty(row_width(kind, cfg, mcfg), dtype=np.float64)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(L=2, d=16, n_h=3, n_kv=2, d_h=4, vocab=32)  # 3 % 2 != 0
    with pytest.raises(ValueError):
        ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32, layer_kinds=["mha"])
    with pytest.raises(ValueError):
        ModelConfig(L=1, d=16, n_h=4, n_kv=2, d_h=4, vocab=32, layer_kinds=["what"])
    cfg = toy_cfg()
    assert cfg.layer_kinds == [KIND_MHA] * 2


def test_mla_config_validation():
    cfg = toy_cfg()
    with pytest.raises(ValueError):
        MLAConfig(r_q=8, r_kv=6, d_qk=3, d_v=4, d_r=2).validate(cfg)  # 3+2 != 4
    with pytest.raises(ValueError):
        MLAConfig(r_q=8, r_kv=99, d_qk=2, d_v=4, d_r=2).validate(cfg)
    with pytest.raises(ValueError):
        MLAConfig(r_q=99, r_kv=6, d_qk=2, d_v=4, d_r=2).validate(cfg)
    toy_mla_cfg(cfg).validate(cfg)


def test_weight_shape_validation():
    # the mixers trust their weights; the model that holds them refuses a bad shape
    from hybridforge.compose import HybridModel, build_model

    cfg = toy_cfg()
    model = build_model(cfg, seed=0, dtype=np.float64)
    w = rand_attn(cfg, np.random.default_rng(0))
    w.W_K = tensor(np.zeros((cfg.d, 3)), dtype=np.float64)
    model.layers[1].mixer = w
    with pytest.raises(ValueError, match=r"^layers\.1\.mixer\.W_K shape \(16, 3\) != expected"):
        HybridModel(cfg=cfg, mcfg=None, embed=model.embed, layers=model.layers,
                    final_norm=model.final_norm, head=model.head)


# ---------------------------------------------------------------------------
# rotary


def test_rope_unit_pair_rotation():
    # lowest-frequency pair of a (1,0) vector at position p lands on (cos p, sin p)
    x = np.zeros((1, 1, 4))
    x[0, 0, 0] = 1.0
    for p in (1, 2, 5):
        out = nk.rope_rotate(tensor(x, dtype=np.float64), np.array([p]), 10000.0).data
        assert abs(out[0, 0, 0] - np.cos(p)) < 1e-12
        assert abs(out[0, 0, 1] - np.sin(p)) < 1e-12


# ---------------------------------------------------------------------------
# MHA


def test_mha_zero_weights_zero_output():
    cfg = toy_cfg()
    zeros = AttentionWeights(
        W_Q=tensor(np.zeros((cfg.d, cfg.n_h * cfg.d_h)), dtype=np.float64),
        W_K=tensor(np.zeros((cfg.d, cfg.n_kv * cfg.d_h)), dtype=np.float64),
        W_V=tensor(np.zeros((cfg.d, cfg.n_kv * cfg.d_h)), dtype=np.float64),
        W_O=tensor(np.zeros((cfg.n_h * cfg.d_h, cfg.d)), dtype=np.float64),
    )
    h = tensor(np.random.default_rng(3).standard_normal((1, 1, cfg.d)), dtype=np.float64)
    out, _ = mha_forward(h, zeros, cfg)
    assert np.all(out.data == 0)


def test_mha_cached_decode_matches_full_forward():
    cfg = toy_cfg()
    rng = np.random.default_rng(4)
    w = rand_attn(cfg, rng)
    h = tensor(rng.standard_normal((1, 6, cfg.d)), dtype=np.float64)
    full, _ = mha_forward(h, w, cfg)

    cache = empty_cache(KIND_MHA, cfg)
    outs = []
    for i in range(6):
        step = nk.getitem(h, (slice(None), slice(i, i + 1)))
        o, cache = mha_forward(step, w, cfg, cache)
        outs.append(o.data)
    stepped = np.concatenate(outs, axis=1)
    assert np.abs(stepped - full.data).max() <= 1e-5
    assert cache.t == 6


def test_mha_random_prefill_decode_splits():
    cfg = toy_cfg()
    rng = np.random.default_rng(5)
    w = rand_attn(cfg, rng)
    h = tensor(rng.standard_normal((1, 10, cfg.d)), dtype=np.float64)
    full, _ = mha_forward(h, w, cfg)
    for _ in range(8):
        split = int(rng.integers(1, 10))
        cache = empty_cache(KIND_MHA, cfg)
        o1, cache = mha_forward(h[:, :split], w, cfg, cache)
        o2, cache = mha_forward(h[:, split:], w, cfg, cache)
        merged = np.concatenate([o1.data, o2.data], axis=1)
        assert np.abs(merged - full.data).max() <= 1e-5


def test_mha_causality_exact():
    cfg = toy_cfg()
    rng = np.random.default_rng(6)
    w = rand_attn(cfg, rng)
    h1 = rng.standard_normal((8, cfg.d))
    h2 = h1.copy()
    h2[5] += 3.0  # perturb token 5 only
    o1, _ = mha_forward(tensor(h1[None], dtype=np.float64), w, cfg)
    o2, _ = mha_forward(tensor(h2[None], dtype=np.float64), w, cfg)
    assert np.array_equal(o1.data[:, :5], o2.data[:, :5])
    assert not np.array_equal(o1.data[:, 5:], o2.data[:, 5:])


def test_mha_gqa_matches_duplicated_head_mha():
    # replicating each kv head into its query group beforehand must be equivalent
    cfg_g = toy_cfg()  # n_h=4, n_kv=2
    cfg_f = toy_cfg(n_kv=4)
    rng = np.random.default_rng(7)
    w = rand_attn(cfg_g, rng)
    group = cfg_g.n_h // cfg_g.n_kv
    dup = lambda m: np.repeat(
        m.data.reshape(cfg_g.d, cfg_g.n_kv, cfg_g.d_h), group, axis=1
    ).reshape(cfg_g.d, cfg_g.n_h * cfg_g.d_h)
    w_full = AttentionWeights(
        W_Q=w.W_Q,
        W_K=tensor(dup(w.W_K), dtype=np.float64),
        W_V=tensor(dup(w.W_V), dtype=np.float64),
        W_O=w.W_O,
    )
    h = tensor(rng.standard_normal((2, 5, cfg_g.d)), dtype=np.float64)
    og, _ = mha_forward(h, w, cfg_g)
    of, _ = mha_forward(h, w_full, cfg_f)
    assert np.abs(og.data - of.data).max() <= 1e-12


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_mha_matches_reference_oracle(n_kv):
    # batched without a cache, and random prefill/decode splits with one
    cfg = toy_cfg(n_kv=n_kv)
    rng = np.random.default_rng(30 + n_kv)
    w = rand_attn(cfg, rng)
    hb = rng.standard_normal((3, 9, cfg.d))
    want = np.stack([reference_mha(x, w, cfg) for x in hb])
    out, cache = mha_forward(tensor(hb, dtype=np.float64), w, cfg)
    assert cache is None
    assert np.abs(out.data - want).max() <= 1e-12
    for _ in range(6):
        cuts = np.sort(rng.choice(np.arange(1, 9), size=3, replace=False))
        cache = empty_cache(KIND_MHA, cfg)
        outs = []
        for lo, hi in zip((0, *cuts), (*cuts, 9)):
            o, cache = mha_forward(tensor(hb[:1, lo:hi], dtype=np.float64), w, cfg, cache)
            outs.append(o.data[0])
        assert cache.t == 9
        assert np.abs(np.concatenate(outs) - want[0]).max() <= 1e-12


def test_mha_attention_rows_normalized():
    # make every value vector all-ones; context is then the attention row sum
    cfg = toy_cfg()
    rng = np.random.default_rng(8)
    w = rand_attn(cfg, rng)
    wv = np.zeros((cfg.d, cfg.n_kv * cfg.d_h))
    wv[0, :] = 1.0
    w.W_V = tensor(wv, dtype=np.float64)
    w.W_O = tensor(np.eye(cfg.n_h * cfg.d_h, cfg.d), dtype=np.float64)
    h = rng.standard_normal((6, cfg.d))
    h[:, 0] = 1.0  # constant first feature drives V = all-ones
    out, _ = mha_forward(tensor(h[None], dtype=np.float64), w, cfg)
    assert np.allclose(out.data[0, :, : cfg.n_h * cfg.d_h], 1.0, atol=1e-6)


def test_mha_batched_matches_loop():
    cfg = toy_cfg()
    rng = np.random.default_rng(9)
    w = rand_attn(cfg, rng)
    hb = rng.standard_normal((3, 5, cfg.d))
    batched, _ = mha_forward(tensor(hb, dtype=np.float64), w, cfg)
    for i in range(3):
        single, _ = mha_forward(tensor(hb[i:i + 1], dtype=np.float64), w, cfg)
        assert np.abs(batched.data[i] - single.data[0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# MLA


def test_mla_zero_latent_projection_zero_output():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(10)
    w = rand_mla(cfg, mcfg, rng)
    w.W_DKV = tensor(np.zeros((cfg.d, mcfg.r_kv)), dtype=np.float64)
    h = tensor(rng.standard_normal((1, 4, cfg.d)), dtype=np.float64)
    out, _ = mla_forward(h, w, cfg, mcfg)
    assert np.abs(out.data).max() <= 1e-12


def test_mla_cached_decode_matches_full_forward():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(11)
    w = rand_mla(cfg, mcfg, rng)
    h = tensor(rng.standard_normal((1, 7, cfg.d)), dtype=np.float64)
    full, _ = mla_forward(h, w, cfg, mcfg)
    cache = empty_cache(KIND_MLA, cfg, mcfg)
    outs = []
    for i in range(7):
        o, cache = mla_forward(h[:, i : i + 1], w, cfg, mcfg, cache)
        outs.append(o.data)
    stepped = np.concatenate(outs, axis=1)
    assert np.abs(stepped - full.data).max() <= 1e-5
    assert cache.t == 7


def test_mla_random_prefill_decode_splits():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(12)
    w = rand_mla(cfg, mcfg, rng)
    h = tensor(rng.standard_normal((1, 9, cfg.d)), dtype=np.float64)
    full, _ = mla_forward(h, w, cfg, mcfg)
    for _ in range(8):
        split = int(rng.integers(1, 9))
        cache = empty_cache(KIND_MLA, cfg, mcfg)
        o1, cache = mla_forward(h[:, :split], w, cfg, mcfg, cache)
        o2, cache = mla_forward(h[:, split:], w, cfg, mcfg, cache)
        merged = np.concatenate([o1.data, o2.data], axis=1)
        assert np.abs(merged - full.data).max() <= 1e-5


def test_mla_causality_exact():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(13)
    w = rand_mla(cfg, mcfg, rng)
    h1 = rng.standard_normal((8, cfg.d))
    h2 = h1.copy()
    h2[4] -= 2.5
    o1, _ = mla_forward(tensor(h1[None], dtype=np.float64), w, cfg, mcfg)
    o2, _ = mla_forward(tensor(h2[None], dtype=np.float64), w, cfg, mcfg)
    assert np.array_equal(o1.data[:, :4], o2.data[:, :4])


def test_mla_latent_gauge_invariance():
    # an invertible change of latent basis, undone by the up-projections,
    # must leave the mixer output unchanged
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(14)
    w = rand_mla(cfg, mcfg, rng)
    r = mcfg.r_kv
    R = rng.standard_normal((r, r)) + 3.0 * np.eye(r)  # comfortably invertible
    Rinv = np.linalg.inv(R)
    w2 = rand_mla(cfg, mcfg, rng)
    w2.W_DQ, w2.W_UQ, w2.W_QR, w2.W_KR, w2.W_O = w.W_DQ, w.W_UQ, w.W_QR, w.W_KR, w.W_O
    w2.W_DKV = tensor(w.W_DKV.data @ R, dtype=np.float64)
    w2.W_UK = tensor(Rinv @ w.W_UK.data, dtype=np.float64)
    w2.W_UV = tensor(Rinv @ w.W_UV.data, dtype=np.float64)
    h = tensor(rng.standard_normal((2, 6, cfg.d)), dtype=np.float64)
    o1, _ = mla_forward(h, w, cfg, mcfg)
    o2, _ = mla_forward(h, w2, cfg, mcfg)
    assert np.abs(o1.data - o2.data).max() <= 1e-5


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_mla_matches_reference_oracle(n_kv):
    # batched without a cache, and random prefill/decode splits with one
    cfg = toy_cfg(n_kv=n_kv)
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(40 + n_kv)
    w = rand_mla(cfg, mcfg, rng)
    hb = rng.standard_normal((3, 9, cfg.d))
    want = np.stack([reference_mla(x, w, cfg, mcfg) for x in hb])
    out, cache = mla_forward(tensor(hb, dtype=np.float64), w, cfg, mcfg)
    assert cache is None
    assert np.abs(out.data - want).max() <= 1e-12
    for _ in range(6):
        cuts = np.sort(rng.choice(np.arange(1, 9), size=3, replace=False))
        cache = empty_cache(KIND_MLA, cfg, mcfg)
        outs = []
        for lo, hi in zip((0, *cuts), (*cuts, 9)):
            o, cache = mla_forward(tensor(hb[:1, lo:hi], dtype=np.float64), w, cfg, mcfg, cache)
            outs.append(o.data[0])
        assert cache.t == 9
        assert np.abs(np.concatenate(outs) - want[0]).max() <= 1e-12


def test_caches_append_twice_from_one_cache():
    # a saved cache may be grown more than once. Two appends leave spare
    # capacity (3 rows, then doubled to 6), so the first branch is written in
    # place and the second must copy rather than overwrite it
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(41)
    for kind in (KIND_MLA, KIND_MHA):
        width = row_width(kind, cfg, mcfg)
        base = empty_cache(kind, cfg, mcfg)
        for n in (3, 1):
            base = base.appended(rng.standard_normal((2, n, width)))
        new1, new2 = rng.standard_normal((2, 1, width)), rng.standard_normal((2, 2, width))
        first = base.appended(new1)
        second = base.appended(new2)
        assert first.buf is base.buf and second.buf is not base.buf
        assert np.array_equal(first.rows, np.concatenate([base.rows, new1], axis=1))
        assert np.array_equal(second.rows, np.concatenate([base.rows, new2], axis=1))
        assert base.t == 4 and first.t == 5 and second.t == 6


def test_caches_grow_past_capacity():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(42)
    for kind in (KIND_MLA, KIND_MHA):
        width = row_width(kind, cfg, mcfg)
        cache = empty_cache(kind, cfg, mcfg)
        added = []
        for step in range(40):
            added.append(rng.standard_normal((3, 1 if step % 3 else 2, width)))
            cache = cache.appended(added[-1])
            t = cache.t
            assert t == sum(a.shape[1] for a in added)
            assert cache.byte_size() == 3 * kv_bytes(kind, cfg, mcfg, t, 8)
        assert cache.buf.data.shape[1] > cache.t  # capacity is not logical rows
        assert np.array_equal(cache.rows, np.concatenate(added, axis=1))


def test_cache_rows_hold_documented_layout():
    # MHA rows are each kv head's [rotated key | value]; MLA rows are
    # [c_kv | rotated k_r]. Values and latents carry no rotation.
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(44)
    h = rng.standard_normal((5, cfg.d))
    pos = np.arange(5)
    aw = rand_attn(cfg, rng)
    _, cache = mha_forward(tensor(h[None], dtype=np.float64), aw, cfg, empty_cache(KIND_MHA, cfg))
    rows = cache.rows[0].reshape(5, cfg.n_kv, 2, cfg.d_h)
    key = nk.rope_rotate(tensor((h @ aw.W_K.data).reshape(5, cfg.n_kv, cfg.d_h), dtype=np.float64),
                         pos, cfg.rope_base)
    assert np.array_equal(rows[:, :, 0], key.data)
    assert np.array_equal(rows[:, :, 1], (h @ aw.W_V.data).reshape(5, cfg.n_kv, cfg.d_h))
    mw = rand_mla(cfg, mcfg, rng)
    _, cache = mla_forward(tensor(h[None], dtype=np.float64), mw, cfg, mcfg,
                           empty_cache(KIND_MLA, cfg, mcfg))
    k_r = nk.rope_rotate(tensor((h @ mw.W_KR.data)[:, None], dtype=np.float64), pos, cfg.rope_base)
    assert np.array_equal(cache.rows[0, :, : mcfg.r_kv], h @ mw.W_DKV.data)
    assert np.array_equal(cache.rows[0, :, mcfg.r_kv :], k_r.data[:, 0])


@pytest.mark.parametrize("kind", [KIND_MHA, KIND_MLA])
def test_grad_through_cached_call(kind):
    # the new tokens' rows are read from the cache's buffer, and their
    # gradient still reaches the projections that write the rows
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(43)
    store = nk.ParamStore()
    if kind == KIND_MHA:
        w = rand_attn(cfg, rng)
        mixer = lambda x, c: mha_forward(x, w, cfg, c)
        row_weights = ("W_K", "W_V")
    else:
        w = rand_mla(cfg, mcfg, rng)
        mixer = lambda x, c: mla_forward(x, w, cfg, mcfg, c)
        row_weights = ("W_DKV", "W_KR")
    for name, t in w.items():
        store.add(name, t)
    h = rng.standard_normal((2, 5, cfg.d))
    with nk.no_grad():
        _, cache = mixer(tensor(h[:, :3], dtype=np.float64), empty_cache(kind, cfg, mcfg))
    new = tensor(h[:, 3:], dtype=np.float64)
    target = rng.standard_normal((2, 2, cfg.d))

    def f(p):
        out, grown = mixer(new, cache)
        assert grown.t == 5
        diff = nk.add(out, nk.neg(Tensor(target)))
        return nk.tsum(nk.mul(diff, diff))

    analytic = nk.backward(f(store), store)
    numeric = finite_diff_grad(lambda p: f(p).item(), store, eps=1e-5)
    for path in analytic:
        scale = np.maximum(np.abs(numeric[path]), 1.0)
        worst = (np.abs(analytic[path] - numeric[path]) / scale).max()
        assert worst <= 1e-4, f"{path}: {worst:.3e}"
    for name in row_weights:
        assert np.abs(analytic[name]).max() > 1e-3, name


# ---------------------------------------------------------------------------
# byte accounting


def test_kv_bytes_formulas():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    assert kv_bytes(KIND_MHA, cfg, None, 10, 4) == 2 * cfg.n_kv * cfg.d_h * 10 * 4
    assert kv_bytes(KIND_MLA, cfg, mcfg, 10, 4) == (mcfg.r_kv + mcfg.d_r) * 10 * 4
    assert kv_bytes(KIND_MAMBA2, cfg, None, 12345) == 0
    assert kv_bytes(KIND_MHA, cfg, None, 0) == 0
    with pytest.raises(ValueError):
        kv_bytes(KIND_MLA, cfg, None, 10)
    with pytest.raises(ValueError):
        kv_bytes(KIND_MHA, cfg, None, -1)


def test_kv_bytes_base_layer_element_count():
    # 16 such layers against 4 compressed layers at (128+32) is the 3.91% case
    cfg = ModelConfig(L=16, d=2048, n_h=32, n_kv=8, d_h=64, vocab=128256)
    assert kv_bytes(KIND_MHA, cfg, None, 1, 1) == 1024


def test_kv_bytes_compression_wins_when_ranks_small():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    assert mcfg.r_kv + mcfg.d_r < 2 * cfg.n_kv * cfg.d_h
    for t in (1, 7, 100):
        assert kv_bytes(KIND_MLA, cfg, mcfg, t) < kv_bytes(KIND_MHA, cfg, None, t)


def test_cache_objects_report_bytes():
    # logical rows x width x element size, for both row layouts; the MLA case
    # is the base layer's (128 + 32)-element row over 100 tokens
    full = empty_cache(KIND_MHA, toy_cfg())  # n_kv=2, d_h=4
    assert full.byte_size() == 0 and full.t == 0
    full = full.appended(np.ones((1, 3, 2 * 2 * 4)))
    assert full.byte_size() == 2 * 2 * 4 * 3 * 8
    cfg = ModelConfig(L=16, d=2048, n_h=32, n_kv=8, d_h=64, vocab=128256)
    mcfg = MLAConfig(r_q=1344, r_kv=128, d_qk=32, d_v=64, d_r=32)
    latent = RowCache.empty(row_width(KIND_MLA, cfg, mcfg), dtype=np.float32)
    latent = latent.appended(np.zeros((1, 100, 128 + 32), dtype=np.float32))
    assert latent.byte_size() == (128 + 32) * 100 * 4 == 64000


def test_no_grad_decode_reads_cached_rows_in_place():
    # a step attends over the grown cache's own buffer, recorded or not; a
    # recorded step's rows have the new rows as their only parent
    rng = np.random.default_rng(16)
    cache = RowCache.empty(6, dtype=np.float64).appended(rng.standard_normal((2, 3, 6)))
    new = tensor(rng.standard_normal((2, 1, 2, 3)), dtype=np.float64, requires_grad=True)
    want = np.concatenate([cache.rows.reshape(2, 3, 2, 3), new.data], axis=1)
    with nk.no_grad():
        rows, grown = _rows_so_far(new, cache)
    assert np.shares_memory(rows.data, grown.buf.data) and not rows._parents
    assert np.array_equal(rows.data, want) and grown.t == 4
    rows, grown = _rows_so_far(new, cache)
    assert np.shares_memory(rows.data, grown.buf.data) and rows._parents == (new,)
    assert np.array_equal(rows.data, want)


# ---------------------------------------------------------------------------
# gradients flow through both mixers


def test_mha_mla_grad_check():
    cfg = toy_cfg()
    mcfg = toy_mla_cfg(cfg)
    rng = np.random.default_rng(15)
    store = nk.ParamStore()
    aw = rand_attn(cfg, rng)
    mw = rand_mla(cfg, mcfg, rng)
    for name, t in aw.items():
        store.add(f"attn.{name}", t)
    for name, t in mw.items():
        store.add(f"mla.{name}", t)
    h = tensor(rng.standard_normal((1, 3, cfg.d)), dtype=np.float64)
    target = rng.standard_normal((1, 3, cfg.d))

    def f(p):
        o1, _ = mha_forward(h, aw, cfg)
        o2, _ = mla_forward(h, mw, cfg, mcfg)
        d1 = nk.add(o1, nk.neg(Tensor(target)))
        d2 = nk.add(o2, nk.neg(Tensor(target)))
        return nk.add(nk.tsum(nk.mul(d1, d1)), nk.tsum(nk.mul(d2, d2)))

    loss = f(store)
    analytic = nk.backward(loss, store)
    numeric = finite_diff_grad(lambda p: f(p).item(), store, eps=1e-5)
    for path in analytic:
        scale = np.maximum(np.abs(numeric[path]), 1.0)
        worst = (np.abs(analytic[path] - numeric[path]) / scale).max()
        assert worst <= 1e-4, f"{path}: {worst:.3e}"
