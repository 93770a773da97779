"""SSM mixer tests: recurrence semantics, streaming, the chunked scan."""

import dataclasses

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.attention import KIND_MAMBA2, ModelConfig
from hybridforge.compose import build_model, from_tensors
from hybridforge.numkernel import KernelError, Tensor, tensor
from hybridforge.ssm import CONV_K, Mamba2Weights, SsmState, mamba2_forward_seq
from oracle_helpers import finite_diff_grad, reference_mamba2
from test_numkernel import scan_inputs

D, N_H, N_KV, D_H = 12, 4, 2, 3


def ssm_cfg(d=D, n_h=N_H, n_kv=N_KV, d_h=D_H):
    """A one-layer SSM config carrying the mixer's dims; vocab goes unused."""
    return ModelConfig(L=1, d=d, n_h=n_h, n_kv=n_kv, d_h=d_h, vocab=2, layer_kinds=[KIND_MAMBA2])


CFG = ssm_cfg()


def rand_weights(rng, cfg=CFG, scale=0.3):
    def w(*shape):
        return rng.standard_normal(shape) * scale

    # draw x, B, C (projections then kernels) as separate blocks, then fuse them
    d, n_h, n_kv, d_h = cfg.d, cfg.n_h, cfg.n_kv, cfg.d_h
    widths = (n_kv * d_h, n_kv * d_h, n_h * d_h)
    proj = [w(d, n) for n in widths]
    kernels = [w(n, CONV_K) for n in widths]
    a_log = rng.uniform(-1.5, 0.5, n_h)
    dt_cols = w(d, n_h)
    return Mamba2Weights(
        W_in=tensor(np.concatenate(proj + [dt_cols], axis=1), dtype=np.float64),
        conv=tensor(np.concatenate(kernels, axis=0), dtype=np.float64),
        a_log=tensor(a_log, dtype=np.float64),
        delta_b=tensor(rng.uniform(-1.0, 1.0, n_h), dtype=np.float64),
        D=tensor(rng.standard_normal(n_h), dtype=np.float64),
        W_out=tensor(w(n_h * d_h, d), dtype=np.float64),
    )


def blocks(w, cfg):
    """Column slices of W_in and row slices of conv for x, B, C, plus the dt columns."""
    kv, h = cfg.n_kv * cfg.d_h, cfg.n_h * cfg.d_h
    cuts = [(0, kv), (kv, 2 * kv), (2 * kv, 2 * kv + h)]
    proj = [w.W_in.data[:, lo:hi] for lo, hi in cuts]
    kernels = [w.conv.data[lo:hi] for lo, hi in cuts]
    return proj, kernels, w.W_in.data[:, 2 * kv + h:]


def test_weight_validation():
    # the model gate names the SSM tensor whose shape contradicts the configs
    shared = dict(build_model(CFG, seed=0, dtype=np.float64).named_tensors())
    w = rand_weights(np.random.default_rng(0))
    assert len(w.items()) == 6

    def gate(cfg=CFG):
        mixer = {f"layers.0.mixer.{n}": t for n, t in w.items()}
        return from_tensors(cfg, None, {**shared, **mixer})

    assert gate().layers[0].mixer.W_in is w.W_in
    good = w.W_in
    w.W_in = tensor(np.zeros((D, good.shape[1] - 1)), dtype=np.float64)
    with pytest.raises(ValueError, match=r"^layers\.0\.mixer\.W_in shape \(12, 27\) != expected"):
        gate()
    w.W_in = good
    with pytest.raises(ValueError, match=r"^layers\.0\.mixer\.W_in shape .* != expected"):
        gate(dataclasses.replace(CFG, d_h=D_H + 1))
    good = w.conv
    for width in (0, CONV_K - 1, CONV_K + 1):  # the conv width is the constant, not the conv's own
        w.conv = tensor(np.zeros((good.shape[0], width)), dtype=np.float64)
        with pytest.raises(ValueError, match=r"^layers\.0\.mixer\.conv shape .* != expected"):
            gate()
    w.conv = good
    gate()


def test_decay_strictly_negative():
    rng = np.random.default_rng(1)
    w = rand_weights(rng)
    assert np.all(-np.exp(w.a_log.data) < 0)


def test_zero_projections_zero_output():
    rng = np.random.default_rng(2)
    w = rand_weights(rng)
    W_in = w.W_in.data.copy()
    W_in[:, : w.conv.shape[0]] = 0.0  # x, B and C blocks; the dt columns stay
    w.W_in = tensor(W_in, dtype=np.float64)
    h = tensor(rng.standard_normal((2, 5, D)), dtype=np.float64)
    out, state = mamba2_forward_seq(h, w, CFG, SsmState.empty(CFG, dtype=np.float64))
    assert np.all(out.data == 0)
    assert state.h.shape == (2, N_H, D_H, D_H) and np.all(state.h == 0)


def test_decay_factor_in_unit_interval():
    rng = np.random.default_rng(3)
    w = rand_weights(rng)
    h = rng.standard_normal((20, D)) * 5
    dt = np.log1p(np.exp(h @ blocks(w, CFG)[2] + w.delta_b.data))
    abar = np.exp(dt * -np.exp(w.a_log.data))
    assert np.all(abar > 0) and np.all(abar < 1)


def test_infinite_decay_is_memoryless():
    # a -> -inf kills the carried state: each step sees only its own outer product
    rng = np.random.default_rng(4)
    cfg = ssm_cfg(n_h=1, n_kv=1)
    w = rand_weights(rng, cfg)
    w.a_log = tensor(np.array([25.0]), dtype=np.float64)  # a = -exp(25), decay ~ 0
    h = tensor(rng.standard_normal((1, 6, D)), dtype=np.float64)
    out, _ = mamba2_forward_seq(h, w, cfg)

    # direct per-step formula, no recurrence: y_t = C_t . (dt_t * B_t x_t^T) + D x_t
    proj, kernels, dt_cols = blocks(w, cfg)
    with nk.no_grad():
        x, B, C = (
            nk.conv1d_depthwise(nk.matmul(h, Tensor(p)), Tensor(c)).data[0].reshape(6, 1, D_H)
            for p, c in zip(proj, kernels)
        )
    dt = np.log1p(np.exp(h.data[0] @ dt_cols + w.delta_b.data))
    y = np.einsum("thi,th,thi,thj->thj", C, dt, B, x) + w.D.data[:, None] * x
    direct = y.reshape(6, -1) @ w.W_out.data
    assert np.abs(out.data[0] - direct).max() <= 1e-10


def test_streaming_two_chunks_matches_full_pass():
    rng = np.random.default_rng(5)
    w = rand_weights(rng)
    h = tensor(rng.standard_normal((1, 9, D)), dtype=np.float64)
    full, _ = mamba2_forward_seq(h, w, CFG)
    state = SsmState.empty(CFG, dtype=np.float64)
    o1, state = mamba2_forward_seq(h[:, :4], w, CFG, state)
    o2, state = mamba2_forward_seq(h[:, 4:], w, CFG, state)
    merged = np.concatenate([o1.data, o2.data], axis=1)
    assert np.abs(merged - full.data).max() <= 1e-5


def test_streaming_random_splits():
    rng = np.random.default_rng(6)
    w = rand_weights(rng)
    h = tensor(rng.standard_normal((1, 12, D)), dtype=np.float64)
    full, _ = mamba2_forward_seq(h, w, CFG)
    for _ in range(8):
        cuts = sorted(rng.choice(np.arange(1, 12), size=2, replace=False).tolist())
        state = SsmState.empty(CFG, dtype=np.float64)
        pieces = []
        for lo, hi in zip([0] + cuts, cuts + [12]):
            o, state = mamba2_forward_seq(h[:, lo:hi], w, CFG, state)
            pieces.append(o.data)
        merged = np.concatenate(pieces, axis=1)
        assert np.abs(merged - full.data).max() <= 1e-5


def test_token_by_token_decode_matches_full_pass():
    rng = np.random.default_rng(7)
    w = rand_weights(rng)
    h = tensor(rng.standard_normal((1, 8, D)), dtype=np.float64)
    full, _ = mamba2_forward_seq(h, w, CFG)
    state = SsmState.empty(CFG, dtype=np.float64)
    outs = []
    with nk.no_grad():
        for i in range(8):
            o, state = mamba2_forward_seq(h[:, i : i + 1], w, CFG, state)
            outs.append(o.data)
    assert np.abs(np.concatenate(outs, axis=1) - full.data).max() <= 1e-5


def test_causality_exact():
    rng = np.random.default_rng(8)
    w = rand_weights(rng)
    h1 = rng.standard_normal((10, D))
    h2 = h1.copy()
    h2[6] += 4.0
    o1, _ = mamba2_forward_seq(tensor(h1[None], dtype=np.float64), w, CFG)
    o2, _ = mamba2_forward_seq(tensor(h2[None], dtype=np.float64), w, CFG)
    assert np.array_equal(o1.data[:, :6], o2.data[:, :6])
    assert not np.array_equal(o1.data[:, 6:], o2.data[:, 6:])


def test_state_bytes_independent_of_position():
    rng = np.random.default_rng(9)
    w32 = rand_weights(rng)
    # accounting only: stream 10 vs 10,000 tokens, state footprint unchanged
    with nk.no_grad():
        state = SsmState.empty(CFG, dtype=np.float64)
        _, state = mamba2_forward_seq(
            tensor(rng.standard_normal((1, 10, D)), dtype=np.float64), w32, CFG, state
        )
        b10 = state.byte_size()
        _, state = mamba2_forward_seq(
            tensor(rng.standard_normal((1, 9990, D)), dtype=np.float64), w32, CFG, state
        )
        b10k = state.byte_size()
    assert b10 == b10k > 0


def test_chunked_matches_sequential():
    # one scan over several chunks against the same scan stepped token by token
    rng = np.random.default_rng(10)
    Q = nk.SCAN_CHUNK
    for t in (2, 3, Q - 1, Q + 1, 2 * Q + 5):
        x, b, c, la, Dk, dt = scan_inputs(rng, t=t)
        h0 = rng.standard_normal((2, 4, 2, 2))
        with nk.no_grad():
            full, h_full = nk.ssm_scan(x, b, c, la, Dk, h0, dt=dt)
            h, rows = h0, []
            for i in range(t):
                y, h = nk.ssm_scan(x[:, i:i + 1], b[:, i:i + 1], c[:, i:i + 1],
                                   la[:, i:i + 1], Dk, h, dt=dt[:, i:i + 1])
                rows.append(y.data)
        assert np.abs(np.concatenate(rows, axis=1) - full.data).max() <= 1e-12, f"t={t}"
        assert np.abs(h - h_full).max() <= 1e-12, f"t={t}"


def test_chunk_of_one_is_the_sequential_update():
    rng = np.random.default_rng(11)
    x, b, c, la, Dk, dt = scan_inputs(rng, t=1)
    h0 = rng.standard_normal((2, 4, 2, 2))
    with nk.no_grad():
        y, h = nk.ssm_scan(x, b, c, la, Dk, h0, dt=dt)
    # written out: h = exp(la) h0 + dt outer(b, x), y = c . h + D x, head k on group k // 2
    xs, bs = (np.repeat(v.data[:, 0], 2, axis=1) for v in (x, b))
    want_h = (np.exp(la.data[:, 0])[..., None, None] * h0
              + dt.data[:, 0][..., None, None] * bs[..., :, None] * xs[..., None, :])
    want_y = np.einsum("nki,nkij->nkj", c.data[:, 0], want_h) + Dk.data[:, None] * xs
    assert np.abs(h - want_h).max() <= 1e-15
    assert np.abs(y.data[:, 0] - want_y).max() <= 1e-15


def test_chunked_rejects_bad_args():
    rng = np.random.default_rng(12)
    x, b, c, la, Dk, dt = scan_inputs(rng)
    cut = (slice(None), slice(0, 4))  # one step short
    bad = [
        (x[cut], b, c, la, Dk),                 # x length differs
        (x, b[cut], c, la, Dk),                 # B length differs
        (x, b, c[cut], la, Dk),                 # C length differs
        (x, b, c, la[cut], Dk),                 # decay length differs
        (x, b, c[:, :, :3], la, Dk),            # heads not a multiple of x/B groups
        (x, b, c, la[:, :, :2], Dk),            # decay heads differ from C heads
        (x, b, c, la, Dk[:2]),                  # D heads differ
        (x[:, :, :1], b, c, la, Dk),            # x and B groups differ
        (x[0], b, c, la, Dk),                   # x not batched
    ]
    for args in bad:
        with pytest.raises(KernelError, match="ssm_scan"):
            nk.ssm_scan(*args, dt=dt)
    with pytest.raises(KernelError, match="ssm_scan"):
        nk.ssm_scan(x, b, c, la, Dk, dt=dt[cut])


def test_graph_and_fast_paths_agree():
    rng = np.random.default_rng(13)
    w = rand_weights(rng)
    h = tensor(rng.standard_normal((2, 6, D)), dtype=np.float64)
    store = nk.ParamStore()
    for name, t in w.items():
        store.add(name, t)
    recorded, _ = mamba2_forward_seq(h, w, CFG)
    assert recorded._parents  # the pass really was recorded
    with nk.no_grad():
        plain, _ = mamba2_forward_seq(h, w, CFG)
    assert np.array_equal(recorded.data, plain.data)


def test_batched_matches_loop():
    rng = np.random.default_rng(14)
    w = rand_weights(rng)
    hb = rng.standard_normal((3, 5, D))
    batched, state = mamba2_forward_seq(tensor(hb, dtype=np.float64), w, CFG)
    assert state is None
    for i in range(3):
        single, _ = mamba2_forward_seq(tensor(hb[i:i + 1], dtype=np.float64), w, CFG)
        assert np.abs(batched.data[i] - single.data[0]).max() <= 1e-12


def test_grad_check_small():
    rng = np.random.default_rng(15)
    cfg = ssm_cfg(d=6, n_h=2, n_kv=1, d_h=2)
    w = rand_weights(rng, cfg)
    store = nk.ParamStore()
    for name, t in w.items():
        store.add(name, t)
    h = tensor(rng.standard_normal((1, 4, 6)), dtype=np.float64)
    target = rng.standard_normal((1, 4, 6))

    def f(p):
        out, _ = mamba2_forward_seq(h, w, cfg)
        diff = nk.add(out, nk.neg(Tensor(target)))
        return nk.tsum(nk.mul(diff, diff))

    loss = f(store)
    analytic = nk.backward(loss, store)
    numeric = finite_diff_grad(lambda p: f(p).item(), store, eps=1e-5)
    for path in analytic:
        scale = np.maximum(np.abs(numeric[path]), 1.0)
        worst = (np.abs(analytic[path] - numeric[path]) / scale).max()
        assert worst <= 1e-4, f"{path}: {worst:.3e}"


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_mamba2_matches_reference_oracle(n_kv):
    # batched without a state, and random prefill/decode splits with one
    rng = np.random.default_rng(50 + n_kv)
    cfg = ssm_cfg(d=16, n_h=4, n_kv=n_kv, d_h=3)
    w = rand_weights(rng, cfg)
    hb = rng.standard_normal((3, 9, 16))
    want = np.stack([reference_mamba2(x, w, cfg) for x in hb])
    out, state = mamba2_forward_seq(tensor(hb, dtype=np.float64), w, cfg)
    assert state is None
    assert np.abs(out.data - want).max() <= 1e-12
    for _ in range(6):
        cuts = np.sort(rng.choice(np.arange(1, 9), size=3, replace=False))
        state = SsmState.empty(cfg, dtype=np.float64)
        outs = []
        for lo, hi in zip((0, *cuts), (*cuts, 9)):
            o, state = mamba2_forward_seq(tensor(hb[:1, lo:hi], dtype=np.float64), w, cfg, state)
            outs.append(o.data[0])
        assert np.abs(np.concatenate(outs) - want[0]).max() <= 1e-12


def test_decode_step_op_count(monkeypatch):
    # one single-token decode step of the toy layer: one conv, no concat
    from hybridforge.attention import KIND_MAMBA2, ModelConfig
    from hybridforge.upcycle import init_random

    cfg = ModelConfig(L=1, d=64, n_h=4, n_kv=2, d_h=16, vocab=32)
    w = init_random(KIND_MAMBA2, cfg, seed=0)
    rng = np.random.default_rng(16)
    state = SsmState.empty(cfg)
    with nk.no_grad():
        _, state = mamba2_forward_seq(tensor(rng.standard_normal((1, 5, 64))), w, cfg, state)
    ops = []
    make = nk._make

    def counting(data, parents, vjp, op):
        ops.append(op)
        return make(data, parents, vjp, op)

    monkeypatch.setattr(nk, "_make", counting)
    with nk.no_grad():
        mamba2_forward_seq(tensor(rng.standard_normal((1, 1, 64))), w, cfg, state)
    assert len(ops) <= 16, ops
    assert "repeat" not in ops and "exp" not in ops[ops.index("mul"):]
    assert ops.count("conv1d_depthwise") == 1
    assert "concat" not in ops
