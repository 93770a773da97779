"""Kernel tests: autodiff against central differences, SVD against oracles."""

import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.numkernel import (
    KernelError,
    GraphError,
    ParamStore,
    Tensor,
    backward,
    no_grad,
    svd_truncated,
    tensor,
)
from oracle_helpers import (_reference_rope, check_grads, finite_diff_grad, interleaved_rope,
                            reference_attend, reference_ssm_scan)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def make_param(store, name, shape, rng):
    return store.add(name, tensor(rng.standard_normal(shape), dtype=np.float64))


# ---------------------------------------------------------------------------
# basic tensor hygiene


def test_tensor_rejects_non_finite():
    with pytest.raises(KernelError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(KernelError):
        Tensor(np.array([np.nan]))


def test_op_rejects_non_finite_result():
    big = tensor(np.array([800.0]), dtype=np.float64)
    with pytest.raises(KernelError, match="exp"):
        nk.texp(big)  # exp(800) overflows float64
    x = tensor(np.full((1, 2, 1, 2), 1e200), dtype=np.float64)
    a = tensor(np.full((1, 2, 1), 0.5), dtype=np.float64)
    with pytest.raises(KernelError, match="ssm_scan"):  # 1e400 overflows
        nk.ssm_scan(x, x, x, a, tensor([1.0], dtype=np.float64), dt=tensor(np.ones((1, 2, 1))))


def test_a_fast_pass_leaves_other_threads_checking():
    # the check mode is per thread: while one thread is inside checked_once,
    # an overflow on another is still reported by the op that made it
    big = tensor(np.array([800.0]), dtype=np.float64)
    entered, done, seen = threading.Event(), threading.Event(), []

    def run():
        entered.set()
        assert done.wait(10)
        seen.append(nk._grad_state.checking)
        return nk.texp(tensor([1.0], dtype=np.float64))

    worker = threading.Thread(target=nk.checked_once, args=(run, lambda out: (out.data,)))
    worker.start()
    assert entered.wait(10)
    try:
        with pytest.raises(KernelError, match="^exp produced non-finite values$"):
            nk.texp(big)
    finally:
        done.set()
        worker.join()
    assert seen == [False] and nk._grad_state.checking


def test_checked_once_replays_a_flag_with_checks_on():
    # in the fast pass exp(800) raises its overflow flag; the replay checks
    # every op, so the error names exp, and no warning escapes
    big = tensor(np.array([800.0]), dtype=np.float64)
    runs = []

    def run():
        runs.append(nk._grad_state.checking)
        return nk.neg(nk.texp(big))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelError, match="^exp produced non-finite values$"):
            nk.checked_once(run, lambda out: (out.data,))
    assert runs == [False, True]


def test_integer_input_promoted_to_float():
    t = Tensor(np.array([1, 2, 3]))
    assert t.dtype == np.float64


def test_no_grad_blocks_recording():
    p = tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    with no_grad():
        out = nk.mul(p, p)
    assert out._parents == ()
    out2 = nk.mul(p, p)
    assert out2._parents != ()


def _pos(*shape):
    """Small positive float64 values: in the domain of log and of a decay rate."""
    return np.random.default_rng(len(shape) + sum(shape)).random(shape) + 0.5


# Every op of the kernel: how to call it on Tensors of the arrays that follow.
GATED_OPS = {
    "add": (nk.add, [_pos(2, 3), _pos(3)]),
    "add_constant": (lambda a: nk.add(a, 0.5), [_pos(2, 3)]),
    "neg": (nk.neg, [_pos(2, 3)]),
    "mul": (nk.mul, [_pos(2, 3), _pos(2, 3)]),
    "mul_constant": (lambda a: nk.mul(a, 0.25), [_pos(2, 3)]),
    "matmul": (nk.matmul, [_pos(2, 3), _pos(3, 4)]),
    "texp": (nk.texp, [_pos(2, 3)]),
    "tlog": (nk.tlog, [_pos(2, 3)]),
    "sigmoid": (nk.sigmoid, [_pos(2, 3)]),
    "silu": (nk.silu, [_pos(2, 3)]),
    "softplus": (nk.softplus, [_pos(2, 3)]),
    "tsum": (lambda a: nk.tsum(a, axis=-1), [_pos(2, 3)]),
    "softmax": (nk.softmax, [_pos(2, 3)]),
    "log_softmax": (nk.log_softmax, [_pos(2, 3)]),
    "attend": (nk.attend, [_pos(1, 2, 3, 4), _pos(1, 1, 5, 4), _pos(1, 1, 5, 2)]),
    "rms_norm": (nk.rms_norm, [_pos(2, 3, 4), _pos(4)]),
    "conv1d_depthwise": (nk.conv1d_depthwise, [_pos(1, 5, 3), _pos(3, 4)]),
    "rope_rotate": (lambda x: nk.rope_rotate(x, 2), [_pos(1, 3, 2, 4)]),
    "ssm_scan": (lambda x, b, c, ld, D, dt: nk.ssm_scan(x, b, c, ld, D, dt=dt)[0],
                 [_pos(1, 3, 1, 2), _pos(1, 3, 1, 2), _pos(1, 3, 2, 2), -_pos(1, 3, 2),
                  _pos(2), _pos(1, 3, 2)]),
    "getitem": (lambda a: nk.getitem(a, (slice(0, 1),)), [_pos(2, 3)]),
    "reshape": (lambda a: nk.reshape(a, (3, 2)), [_pos(2, 3)]),
    "transpose": (lambda a: nk.transpose(a, (1, 0)), [_pos(2, 3)]),
    "concat": (lambda a, b: nk.concat([a, b], axis=0), [_pos(2, 3), _pos(1, 3)]),
    "cached_rows": (lambda new: nk.cached_rows(_pos(1, 4, 3), new), [_pos(1, 2, 3)]),
    "repeat": (lambda a: nk.repeat(a, 2, axis=0), [_pos(2, 3)]),
    "embedding": (lambda t: nk.embedding(t, np.array([0, 4, 2])), [_pos(5, 3)]),
    "take_last_axis": (lambda a: nk.take_last_axis(a, np.array([2, 0])), [_pos(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(GATED_OPS))
def test_an_op_builds_its_vjp_only_when_it_records(monkeypatch, name):
    # one _recording call decides: an op that does not record, under no_grad
    # or over constants only, hands _make no vjp and makes no graph edge; one
    # over a trainable input records. The bytes are the same either way.
    op, arrays = GATED_OPS[name]
    made, asked = [], []
    make, recording = nk._make, nk._recording

    def spy_make(data, parents, vjp, op_name):
        made.append(vjp)
        return make(data, parents, vjp, op_name)

    def spy_recording(parents):
        asked.append(parents)
        return recording(parents)

    monkeypatch.setattr(nk, "_make", spy_make)
    monkeypatch.setattr(nk, "_recording", spy_recording)
    outs = []
    # (grad mode, which inputs are trainable): no_grad over trainable inputs,
    # grad on over constants, grad on with only the last input trainable
    for grad, trainable in ((False, "all"), (True, "none"), (True, "last")):
        made.clear()
        asked.clear()
        ts = [tensor(a, dtype=np.float64, requires_grad=trainable == "all"
                     or (trainable == "last" and i == len(arrays) - 1))
              for i, a in enumerate(arrays)]
        if grad:
            out = op(*ts)
        else:
            with no_grad():
                out = op(*ts)
        recorded = trainable == "last"
        assert len(made) == 1 and (made[0] is not None) == recorded
        assert (out._parents != ()) == recorded and (out._vjp is not None) == recorded
        assert len(asked) == 1
        outs.append(out.data.tobytes())
    assert outs[0] == outs[1] == outs[2]


def test_backward_requires_scalar():
    store = ParamStore()
    p = store.add("p", tensor([1.0, 2.0], dtype=np.float64))
    with pytest.raises(GraphError):
        backward(nk.mul(p, p), store)


def test_unused_param_gets_zero_grad():
    store = ParamStore()
    a = store.add("a", tensor([2.0], dtype=np.float64))
    store.add("b", tensor([[3.0, 4.0]], dtype=np.float64))
    loss = nk.tsum(nk.mul(a, a))
    grads = backward(loss, store)
    assert grads["b"].shape == (1, 2)
    assert np.all(grads["b"] == 0)
    assert np.allclose(grads["a"], [4.0])


def test_backward_frees_the_graph_it_walks():
    store = ParamStore()
    p = store.add("p", tensor([1.0, 2.0], dtype=np.float64))
    mid = nk.sigmoid(p)  # its vjp closure saves its output
    saved = weakref.ref(mid.data)
    loss = nk.tsum(mid)
    del mid
    backward(loss, store)
    assert loss._parents == () and saved() is None
    assert loss.item() == pytest.approx(np.sum(1.0 / (1.0 + np.exp([-1.0, -2.0]))))
    with pytest.raises(GraphError, match="already walked"):  # not zero gradients
        backward(loss, store)


def test_backward_refuses_a_graph_through_a_walked_node():
    store = ParamStore()
    p = store.add("p", tensor([1.0, 2.0], dtype=np.float64))
    h = nk.mul(p, p)
    backward(nk.tsum(h), store)
    with pytest.raises(GraphError, match="already walked"):
        backward(nk.tsum(nk.add(h, p)), store)
    # an op whose only recorded input is walked still records, so it is refused too
    with pytest.raises(GraphError, match="already walked"):
        backward(nk.tsum(nk.mul(h, 2.0)), store)


def test_fresh_forward_after_a_walk_gets_exact_gradients():
    rng = np.random.default_rng(16)
    store = ParamStore()
    w = make_param(store, "w", (4, 3), rng)
    g = store.add("g", tensor(np.abs(rng.standard_normal(3)) + 0.5, dtype=np.float64))
    x = tensor(rng.standard_normal((2, 5, 4)), dtype=np.float64)

    def f(p):
        h = nk.rms_norm(nk.matmul(x, w), g)
        return nk.tmean(nk.mul(nk.softmax(h, axis=-1), h))

    first = backward(f(store), store)
    check_grads(f, store)  # each forward records a graph of its own
    again = backward(f(store), store)
    for path in first:
        assert np.array_equal(first[path], again[path]), path


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", tensor([1.0]))
    with pytest.raises(KernelError):
        store.add("w", tensor([2.0]))


# ---------------------------------------------------------------------------
# gradient checks, one primitive at a time


def test_grad_add_mul_broadcast():
    rng = np.random.default_rng(0)
    store = ParamStore()
    a = make_param(store, "a", (3, 4), rng)
    b = make_param(store, "b", (4,), rng)
    c = make_param(store, "c", (3, 1), rng)

    def f(p):
        return nk.tsum(nk.mul(nk.add(a, b), c))

    check_grads(f, store)


def test_grad_matmul_batched():
    rng = np.random.default_rng(1)
    store = ParamStore()
    a = make_param(store, "a", (2, 3, 4), rng)
    b = make_param(store, "b", (4, 5), rng)

    def f(p):
        return nk.tsum(nk.matmul(a, b))

    check_grads(f, store)


def test_grad_exp_log_softplus_silu_sigmoid():
    rng = np.random.default_rng(2)
    store = ParamStore()
    x = store.add("x", tensor(rng.uniform(0.5, 2.0, (3, 5)), dtype=np.float64))

    def f(p):
        y = nk.add(nk.texp(x), nk.tlog(x))
        y = nk.add(y, nk.softplus(x))
        y = nk.add(y, nk.silu(x))
        y = nk.add(y, nk.sigmoid(x))
        return nk.tsum(nk.mul(y, y))

    check_grads(f, store)


def test_grad_softmax_and_log_softmax():
    rng = np.random.default_rng(3)
    store = ParamStore()
    x = make_param(store, "x", (2, 7), rng)
    w = make_param(store, "w", (2, 7), rng)

    def f(p):
        s = nk.softmax(x, axis=-1)
        ls = nk.log_softmax(x)
        return nk.tsum(nk.add(nk.mul(s, w), nk.mul(ls, w)))

    check_grads(f, store)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = tensor(rng.standard_normal((5, 9)) * 10, dtype=np.float64)
    s = nk.softmax(x, axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


def test_grad_rms_norm():
    rng = np.random.default_rng(5)
    store = ParamStore()
    x = make_param(store, "x", (2, 3, 6), rng)
    g = make_param(store, "g", (6,), rng)

    def f(p):
        return nk.tsum(nk.mul(nk.rms_norm(x, g), tensor(rng2_weights, dtype=np.float64)))

    rng2_weights = np.random.default_rng(6).standard_normal((2, 3, 6))
    check_grads(f, store)


def test_grad_conv1d_depthwise():
    rng = np.random.default_rng(7)
    store = ParamStore()
    x = make_param(store, "x", (2, 6, 3), rng)  # (batch, time, channels)
    w = make_param(store, "w", (3, 4), rng)

    for tail in (None, rng.standard_normal((3, 3))):  # zero padding, then carried rows
        def f(p):
            return nk.tsum(nk.mul(nk.conv1d_depthwise(x, w, tail), x))

        check_grads(f, store)


def test_conv1d_tail_continues_the_sequence():
    # with a tail, the conv equals the zero-padded conv of [tail; x], first k-1 rows dropped
    rng = np.random.default_rng(28)
    for k in (1, 2, 4):
        tail = rng.standard_normal((k - 1, 3))
        x = rng.standard_normal((2, 5, 3))
        w = tensor(rng.standard_normal((3, k)), dtype=np.float64)
        got = nk.conv1d_depthwise(tensor(x, dtype=np.float64), w, tail).data
        joined = np.concatenate([np.broadcast_to(tail, (2, k - 1, 3)), x], axis=1)
        want = nk.conv1d_depthwise(tensor(joined, dtype=np.float64), w).data[:, k - 1:]
        assert np.abs(got - want).max() <= 1e-15
        # one tail per sequence
        tails = rng.standard_normal((2, k - 1, 3))
        got = nk.conv1d_depthwise(tensor(x, dtype=np.float64), w, tails).data
        joined = np.concatenate([tails, x], axis=1)
        want = nk.conv1d_depthwise(tensor(joined, dtype=np.float64), w).data[:, k - 1:]
        assert np.abs(got - want).max() <= 1e-15
    for bad in (np.zeros((k, 3)), np.zeros((3, k - 1, 3))):
        with pytest.raises(KernelError):
            nk.conv1d_depthwise(tensor(x, dtype=np.float64), w, bad)


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(8)
    x = tensor(rng.standard_normal((2, 5, 3)), dtype=np.float64)
    w = np.zeros((3, 4))
    w[:, -1] = 1.0  # only the current-time tap
    out = nk.conv1d_depthwise(x, tensor(w, dtype=np.float64))
    assert np.array_equal(out.data, x.data)


def test_conv1d_is_causal():
    # changing a future input must not change earlier outputs
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal((1, 6, 2))
    x2 = x1.copy()
    x2[0, 4, :] += 10.0
    w = tensor(rng.standard_normal((2, 4)), dtype=np.float64)
    y1 = nk.conv1d_depthwise(tensor(x1, dtype=np.float64), w).data
    y2 = nk.conv1d_depthwise(tensor(x2, dtype=np.float64), w).data
    assert np.array_equal(y1[0, :4], y2[0, :4])
    assert not np.array_equal(y1[0, 4:], y2[0, 4:])


def test_grad_rope():
    rng = np.random.default_rng(10)
    store = ParamStore()
    x = make_param(store, "x", (2, 5, 3, 8), rng)  # (batch, time, heads, dim)

    def f(p):
        return nk.tsum(nk.mul(nk.rope_rotate(x, 3), x))

    check_grads(f, store)


@pytest.mark.parametrize("shape,starts", [
    ((1, 6, 2, 8), [0]),
    ((3, 2, 6), [0, 5]),
    ((7, 3, 8), list(range(0, 7 * 13, 13))),
], ids=["batched", "unbatched", "wide-positions"])
def test_rope_preserves_norm_and_position_zero(shape, starts):
    # each start turns the whole input, except the wide case, which turns
    # token k alone at start 13 k; position zero (start 0's first token) stays
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape)
    if len(starts) == shape[-3]:  # one start per token
        out = np.concatenate([nk.rope_rotate(tensor(x[k:k + 1], dtype=np.float64), s).data
                              for k, s in enumerate(starts)])
        turned = [out]
    else:
        turned = [nk.rope_rotate(tensor(x, dtype=np.float64), s).data for s in starts]
    for out in turned:
        assert np.allclose(np.linalg.norm(x, axis=-1), np.linalg.norm(out, axis=-1), atol=1e-12)
    assert np.allclose(turned[0][..., 0, :, :], x[..., 0, :, :], atol=1e-12)


@pytest.mark.parametrize("start,t", [(0, 1), (0, 9), (7, 3), (1023, 1), (40000, 4)])
def test_rope_matches_the_reference_rotation(start, t):
    rng = np.random.default_rng(start + t)
    x = rng.standard_normal((t, 3, 8))
    out = nk.rope_rotate(tensor(x, dtype=np.float64), start).data
    positions = np.arange(start, start + t)
    for h in range(3):
        assert np.abs(out[:, h] - _reference_rope(x[:, h], positions, nk.ROPE_BASE)).max() <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rope_keeps_the_bytes_of_the_interleaved_form(dtype):
    # forward and vjp against the straight-line interleaved oracle, float32 and
    # float64 inputs
    rng = np.random.default_rng(33)
    for case in range(40):
        t, heads, d = int(rng.integers(1, 9)), int(rng.integers(1, 4)), 2 * int(rng.integers(1, 9))
        lead = tuple(int(n) for n in rng.integers(1, 3, size=case % 3))
        start = int(rng.integers(0, 3000))
        x = tensor(rng.standard_normal(lead + (t, heads, d)), dtype=dtype, requires_grad=True)
        g = rng.standard_normal(x.shape).astype(dtype)
        out = nk.rope_rotate(x, start)
        positions = np.arange(start, start + t)
        want = interleaved_rope(x.data, positions, nk.ROPE_BASE)
        assert out.dtype == dtype and out.data.tobytes() == want.tobytes()
        (gx,) = out._vjp(g)
        want = interleaved_rope(x.data, positions, nk.ROPE_BASE, g=g)
        assert gx.dtype == dtype and gx.tobytes() == want.tobytes()


def test_rope_relative_phase():
    # score between a query at p+k and key at q+k matches p vs q (shift invariance)
    rng = np.random.default_rng(12)
    q = rng.standard_normal((1, 1, 1, 8))
    k = rng.standard_normal((1, 1, 1, 8))
    def score(pq, pk):
        rq = nk.rope_rotate(tensor(q, dtype=np.float64), pq).data
        rk = nk.rope_rotate(tensor(k, dtype=np.float64), pk).data
        return float((rq * rk).sum())
    assert abs(score(7, 3) - score(11, 7)) < 1e-9


def test_grad_shape_ops():
    rng = np.random.default_rng(13)
    store = ParamStore()
    a = make_param(store, "a", (2, 3, 4), rng)
    b = make_param(store, "b", (2, 3, 4), rng)

    def f(p):
        x = nk.concat([a, b], axis=-1)          # (2, 3, 8)
        x = nk.transpose(x, (1, 0, 2))          # (3, 2, 8)
        x = nk.reshape(x, (3, 16))
        x = nk.getitem(x, (slice(None), slice(0, 10)))
        x = nk.repeat(nk.reshape(x, (3, 2, 5)), 2, axis=1)
        return nk.tsum(nk.mul(x, x))

    check_grads(f, store)


def test_grad_embedding_and_take():
    rng = np.random.default_rng(14)
    store = ParamStore()
    table = make_param(store, "table", (11, 6), rng)
    ids = rng.integers(0, 11, size=(3, 4))
    # duplicate ids on purpose: scatter-add must accumulate
    ids[0, 0] = ids[0, 1]
    labels = rng.integers(0, 6, size=(3, 4))

    def f(p):
        e = nk.embedding(table, ids)
        picked = nk.take_last_axis(e, labels)
        return nk.tsum(nk.mul(picked, picked))

    check_grads(f, store)


def test_gathers_refuse_out_of_range_ids():
    # numpy would raise IndexError past the end and wrap a negative id around
    table = tensor(np.ones((4, 3)), dtype=np.float64)
    for ids in ([0, 4], [-1, 2]):
        with pytest.raises(KernelError, match=r"embedding ids must lie in \[0, 4\)"):
            nk.embedding(table, np.array(ids))
        with pytest.raises(KernelError, match=r"take_last_axis ids must lie in \[0, 3\)"):
            nk.take_last_axis(table, np.array(ids) - 1)


def scan_inputs(rng, n=2, t=5, heads=4, groups=2, d_h=2):
    """x, b, c, log-decay, D and dt of a scan whose x and b have ``groups`` heads."""
    def r(*shape):
        return tensor(rng.standard_normal(shape), dtype=np.float64)

    def u(lo, hi):
        return tensor(rng.uniform(lo, hi, (n, t, heads)), dtype=np.float64)

    return (r(n, t, groups, d_h), r(n, t, groups, d_h), r(n, t, heads, d_h),
            u(-1.5, -0.05), r(heads), u(0.1, 1.5))


Q = nk.SCAN_CHUNK


def test_ssm_scan_matches_plain_loop():
    # lengths on both sides of one and two chunk boundaries, both h0 shapes
    rng = np.random.default_rng(20)
    for groups in (1, 2):
        for t in (1, Q - 1, Q, Q + 1, 2 * Q + 3):
            x, b, c, la, D, dt = scan_inputs(rng, t=t, groups=groups)
            for h0 in (None, rng.standard_normal((4, 2, 2)), rng.standard_normal((2, 4, 2, 2))):
                with no_grad():
                    y, h_last = nk.ssm_scan(x, b, c, la, D, h0, dt=dt)
                ref_y, ref_h = reference_ssm_scan(x.data, b.data, c.data, la.data, D.data,
                                                  h0, dt.data)
                assert np.abs(y.data - ref_y).max() <= 1e-12, (groups, t)
                assert np.abs(h_last - ref_h).max() <= 1e-12, (groups, t)


def test_grad_ssm_scan():
    # every input, the log-decay and dt included, through the reverse chunked
    # scan over two chunks, and through a one-token scan
    rng = np.random.default_rng(21)
    names = ("x", "b", "c", "log_decay", "D", "dt")
    for t in (Q + 3, 1):
        store = ParamStore()
        ins = [store.add(n, v) for n, v in zip(names, scan_inputs(rng, t=t))]
        h0 = rng.standard_normal((2, 4, 2, 2))
        w = rng.standard_normal(ins[2].shape)

        def f(p):
            y, _ = nk.ssm_scan(*ins[:5], h0, dt=ins[5])
            return nk.tsum(nk.mul(nk.mul(y, y), w))

        check_grads(f, store)


# (q, keys, values) leading axes: MHA's grouped queries over per-kv-head rows,
# and MLA's heads over one shared set of rows
ATTEND_LAYOUTS = {"mha": ((2, 2, 2), (2, 2, 1), (2, 2, 1)), "mla": ((2, 4), (2, 1), (2, 1))}


def attend_inputs(rng, layout, t, T, dk=3, dv=2):
    q_lead, k_lead, v_lead = ATTEND_LAYOUTS[layout]
    return (rng.standard_normal(q_lead + (t, dk)), rng.standard_normal(k_lead + (T, dk)),
            rng.standard_normal(v_lead + (T, dv)))


# each layout at the default ATTEND_ROWS, and in blocks of 2 and of 3 queries
ATTEND_CASES = [pytest.param(layout, rows, id=layout + (f"-rows{rows}" if rows else ""))
                for rows in (None, 2, 3) for layout in sorted(ATTEND_LAYOUTS)]


@pytest.mark.parametrize("layout, rows", ATTEND_CASES)
def test_attend_matches_per_query_loop(monkeypatch, layout, rows):
    # decode queries, whole sequences that split into blocks evenly and
    # unevenly, and prefills that continue a cache
    if rows:
        monkeypatch.setattr(nk, "ATTEND_ROWS", rows)
    rng = np.random.default_rng(22)
    for t, T in ((1, 1), (1, 6), (5, 5), (3, 7), (1, 9), (7, 7), (6, 6), (5, 9)):
        arrays = attend_inputs(rng, layout, t, T)
        with no_grad():
            out = nk.attend(*(tensor(a, dtype=np.float64) for a in arrays))
        assert out.shape == np.broadcast_shapes(*(a.shape[:-2] for a in arrays)) + (t, 2)
        assert np.abs(out.data - reference_attend(*arrays)).max() <= 1e-12, (t, T)


@pytest.mark.parametrize("layout, rows", ATTEND_CASES)
def test_grad_attend(monkeypatch, layout, rows):
    # gradients reach q, keys and values, summed over the shared head axes
    # and over the blocks that saw each key
    if rows:
        monkeypatch.setattr(nk, "ATTEND_ROWS", rows)
    rng = np.random.default_rng(23)
    for t, T in ((3, 5), (1, 4), (1, 9), (7, 7), (6, 6), (5, 9)):
        store = ParamStore()
        q, keys, values = (store.add(n, tensor(a, dtype=np.float64)) for n, a in
                           zip(("q", "keys", "values"), attend_inputs(rng, layout, t, T)))
        w = rng.standard_normal(np.broadcast_shapes(q.shape[:-2], keys.shape[:-2]) + (t, 2))

        def f(p):
            out = nk.attend(q, keys, values)
            return nk.tsum(nk.mul(nk.mul(out, out), w))

        check_grads(f, store)


def attend_peak(t):
    """Output and tracemalloc peak of an unrecorded float32 MLA-shaped call:
    t queries over 1024 shared rows, 4 heads."""
    rng = np.random.default_rng(26)
    q = tensor(rng.standard_normal((1, 4, t, 20)))
    rows = tensor(rng.standard_normal((1, 1, 1024, 20)))
    values = rows[..., :16]
    tracemalloc.start()
    try:
        with no_grad():
            out = nk.attend(q, rows, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 4, t, 16)
    return out, peak


def test_attend_memory_is_bounded_by_its_query_block():
    # the decode_long prefill's shape: 1024 MLA queries over 1024 shared rows.
    # One (1, 4, 1024, 1024) float32 score array would be 16 MiB.
    _, peak = attend_peak(1024)
    assert peak < 4 * 2**20, f"attend peaked at {peak / 2**20:.1f} MiB"


def test_attend_holds_one_block_of_scores_and_its_output():
    # 100 queries in two blocks: one (1, 4, 64, 1024) float32 scratch of 1 MiB,
    # the 32 kB output and the block's small temporaries, no second block's
    # scores and no copy of the output
    _, peak = attend_peak(100)
    assert peak < 1.5 * 2**20, f"attend peaked at {peak / 2**20:.2f} MiB"


def spy_scores(monkeypatch):
    """The list that every later attend block appends its score array to."""
    scores, block = [], nk._attend_block

    def spy(*args):
        p = block(*args)
        scores.append(p)
        return p

    monkeypatch.setattr(nk, "_attend_block", spy)
    return scores


def score_arrays(blocks):
    """How many of the blocks' score arrays share memory with no earlier one."""
    return sum(not any(np.shares_memory(p, e) for e in blocks[:i]) for i, p in enumerate(blocks))


# (ATTEND_ROWS, t, T, score arrays of an unrecorded call). In the first three
# the partial last block has fewer scores than the block before it; in the last
# the full last block has the most. Either way one array holds them all.
REUSE_CASES = [(3, 7, 9, 1), (None, 100, 100, 1), (None, 130, 160, 1), (None, 128, 200, 1)]


@pytest.mark.parametrize("layout", sorted(ATTEND_LAYOUTS))
@pytest.mark.parametrize("rows, t, T, arrays", REUSE_CASES)
def test_unrecorded_attend_scores_every_block_in_one_array(monkeypatch, layout, rows, t, T,
                                                          arrays):
    # an unrecorded call writes each block's scores into a prefix of one
    # scratch array; a recorded call keeps one array per block. Same bytes.
    if rows:
        monkeypatch.setattr(nk, "ATTEND_ROWS", rows)
    inputs = attend_inputs(np.random.default_rng(27), layout, t, T)
    scores = spy_scores(monkeypatch)
    with no_grad():
        free = nk.attend(*(tensor(a, dtype=np.float64) for a in inputs))
    unrecorded = scores[:]
    scores.clear()
    store = ParamStore()
    kept = nk.attend(*(store.add(n, tensor(a, dtype=np.float64)) for n, a in zip("qkv", inputs)))
    assert kept._vjp is not None
    assert free.data.tobytes() == kept.data.tobytes()
    assert np.abs(free.data - reference_attend(*inputs)).max() <= 1e-12
    assert score_arrays(unrecorded) == arrays
    assert score_arrays(scores) == len(scores) == len(unrecorded)


@pytest.mark.parametrize("layout", sorted(ATTEND_LAYOUTS))
@pytest.mark.parametrize("t", [1, nk.ATTEND_ROWS])
def test_an_unrecorded_single_block_scores_into_one_array_of_its_own(monkeypatch, layout, t):
    # a call of at most ATTEND_ROWS queries, a decode step's among them, is
    # one block: it scores into one (..., t, T) array, not into a prefix of a
    # scratch array, in the bytes of a recorded call
    T = nk.ATTEND_ROWS + 9
    inputs = attend_inputs(np.random.default_rng(31), layout, t, T)
    scores = spy_scores(monkeypatch)
    with no_grad():
        free = nk.attend(*(tensor(a, dtype=np.float64) for a in inputs))
    assert len(scores) == 1
    assert scores[0].base is None and scores[0].shape == inputs[0].shape[:-1] + (T,)
    store = ParamStore()
    kept = nk.attend(*(store.add(n, tensor(a, dtype=np.float64)) for n, a in zip("qkv", inputs)))
    assert free.data.tobytes() == kept.data.tobytes()
    assert np.abs(free.data - reference_attend(*inputs)).max() <= 1e-12
    # keys whose leading axes do not broadcast to q's: 3 against q's 2
    q, _, v = (tensor(a, dtype=np.float64) for a in inputs)
    keys = tensor(np.zeros((3,) + inputs[1].shape[1:]), dtype=np.float64)
    with no_grad(), pytest.raises(KernelError, match=r"^attend: mismatched shapes"):
        nk.attend(q, keys, v)


@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
def test_attend_blocks_write_into_the_returned_array(monkeypatch, recorded):
    # each block's output rows are written in place into the one returned
    # array, first block first: nothing is copied after the loop
    monkeypatch.setattr(nk, "ATTEND_ROWS", 3)
    outs, block = [], nk._attend_block

    def spy(*args):
        outs.append(args[-1])
        return block(*args)

    monkeypatch.setattr(nk, "_attend_block", spy)
    inputs = attend_inputs(np.random.default_rng(30), "mha", 7, 9)
    out = nk.attend(*(tensor(a, dtype=np.float64, requires_grad=recorded) for a in inputs))
    assert (out._vjp is not None) == recorded
    assert len(outs) == 3
    for i0, o in zip(range(0, 7, 3), outs):
        assert o.base is out.data
        assert np.shares_memory(o, out.data[..., i0:i0 + 3, :])
    assert np.abs(out.data - reference_attend(*inputs)).max() <= 1e-12


def test_attend_output_survives_a_second_call(monkeypatch):
    # the output is an array of its own: no view of the scores or of the rows read
    rng = np.random.default_rng(28)
    inputs = [tensor(a, dtype=np.float64) for a in attend_inputs(rng, "mla", 130, 160)]
    scores = spy_scores(monkeypatch)
    with no_grad():
        out = nk.attend(*inputs)
        before = out.data.copy()
        assert not any(np.shares_memory(out.data, a) for a in [*scores, *(x.data for x in inputs)])
        nk.attend(*(tensor(a, dtype=np.float64) for a in attend_inputs(rng, "mla", 130, 160)))
    assert out.data.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_and_rms_norm_in_place_keep_their_bytes(dtype):
    # the same ufuncs in the same order as the plain expressions, and the inputs untouched
    rng = np.random.default_rng(29)
    a = (rng.standard_normal((2, 5, 16)) * 6).astype(dtype)
    gain = rng.standard_normal(16).astype(dtype)
    a0, gain0 = a.copy(), gain.copy()
    x, g = tensor(a, dtype=dtype), tensor(gain, dtype=dtype)
    assert np.shares_memory(x.data, a) and np.shares_memory(g.data, gain)
    silu, normed = nk.silu(x).data, nk.rms_norm(x, g).data
    r = 1.0 / np.sqrt((a * a).mean(axis=-1, keepdims=True) + nk.RMS_EPS)
    assert silu.dtype == normed.dtype == dtype
    assert silu.tobytes() == (a * (1.0 / (1.0 + np.exp(-a)))).tobytes()
    assert normed.tobytes() == (a * r * gain).tobytes()
    assert a.tobytes() == a0.tobytes() and gain.tobytes() == gain0.tobytes()


@pytest.mark.parametrize("d", [16, 8])
def test_a_float64_scalar_operand_keeps_float32_and_its_bytes(d):
    # attention scales its queries by exactly this numpy float64 scalar
    rng = np.random.default_rng(30)
    a = rng.standard_normal((2, 3, 4)).astype(np.float32)
    scale = 1.0 / np.sqrt(d)
    assert type(scale) is np.float64
    for op, ufunc in ((nk.mul, np.multiply), (nk.add, np.add)):
        out = op(tensor(a), scale).data
        assert type(out) is np.ndarray and out.dtype == np.float32
        assert out.tobytes() == ufunc(a, np.asarray(scale, dtype=np.float32)).tobytes()
    # a scalar over a 0-d tensor, as a loss mean makes, is still a 0-d array
    total = nk.mul(nk.tsum(tensor(a, dtype=np.float64)), 0.5).data
    assert type(total) is np.ndarray and total.shape == () and total.dtype == np.float64


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_scalar_operand_raises_with_and_without_the_fast_pass(value):
    x = tensor(np.ones((2, 3)))
    for op in (nk.mul, nk.add):
        with pytest.raises(KernelError):
            op(x, value)
        with pytest.raises(KernelError):
            nk.checked_once(lambda: op(x, value), lambda out: (out.data,))


def test_a_recorded_scalar_operand_passes_the_gradient_on():
    rng = np.random.default_rng(31)
    store = ParamStore()
    p = make_param(store, "p", (3, 4), rng)
    grads = backward(nk.tsum(nk.add(nk.mul(p, 2.5), 1.0)), store)
    assert grads["p"].dtype == np.float64
    assert np.array_equal(grads["p"], np.full((3, 4), 2.5))


def test_the_rope_frequency_table_is_shared_and_read_only():
    table = nk._inv_freq(8, np.dtype(np.float32))
    assert table is nk._inv_freq(8, np.dtype(np.float32))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 2.0
    want = 10000.0 ** -(np.arange(0, 8, 2, dtype=np.float32) / 8)
    assert table.dtype == np.float32 and table.tobytes() == want.tobytes()


def test_the_rotation_tables_are_shared_and_read_only():
    # a (t, 1, d) cos table and a (t, 1, d/2, 2) signed-sin table per
    # (start, t, d, dtype), in the bytes of the uncached formula
    c2, s2 = nk._rotation(5, 3, 8, np.dtype(np.float32))
    assert c2 is nk._rotation(5, 3, 8, np.dtype(np.float32))[0]
    assert s2 is nk._rotation(5, 3, 8, np.dtype(np.float32))[1]
    assert c2.shape == (3, 1, 8) and s2.shape == (3, 1, 4, 2)
    for table in (c2, s2):
        assert table.dtype == np.float32 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 2.0
    inv_freq = nk._inv_freq(8, np.dtype(np.float32))
    ang = np.arange(5, 8, dtype=np.float32)[:, None] * inv_freq
    assert c2[:, 0, 0::2].tobytes() == c2[:, 0, 1::2].tobytes() == np.cos(ang).tobytes()
    assert s2[:, 0, :, 1].tobytes() == np.sin(ang).tobytes()
    assert s2[:, 0, :, 0].tobytes() == (-np.sin(ang)).tobytes()


def test_a_decode_step_scan_casts_h0_and_returns_its_own_state():
    # t = 1, unrecorded: float32 inputs and a float64 h0 give float32 y and
    # state, the bytes of an h0 cast first, in an array that is not h0's
    rng = np.random.default_rng(32)
    ins = [tensor(a.data, dtype=np.float32) for a in scan_inputs(rng, t=1)]
    h0 = rng.standard_normal((2, 4, 2, 2))
    with no_grad():
        y, h = nk.ssm_scan(*ins[:5], h0, dt=ins[5])
        y32, h32 = nk.ssm_scan(*ins[:5], h0.astype(np.float32), dt=ins[5])
    assert y.dtype == h.dtype == np.float32 and h.shape == h0.shape
    assert y.data.tobytes() == y32.data.tobytes() and h.tobytes() == h32.tobytes()
    assert not np.shares_memory(h, h0)
    h0_32 = h0.astype(np.float32)
    with no_grad():
        _, h_same = nk.ssm_scan(*ins[:5], h0_32, dt=ins[5])
    assert not np.shares_memory(h_same, h0_32)


def test_attend_refuses_mismatched_shapes():
    q, k, v = (tensor(np.zeros(s)) for s in ((4, 3), (3, 3), (3, 2)))
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(q, k, v)  # more queries than positions
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(tensor(np.zeros((0, 3))), k, v)  # no queries
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(k, k, tensor(np.zeros((2, 2))))
    # leading axes of keys or values that do not broadcast to q's: keys' or
    # values' 3 against q's 2, an axis q does not have, and 4 that q's 1 would
    # have to grow to
    q = tensor(np.zeros((2, 2, 3)))
    for ks, vs in (((3, 3, 3), (2, 3, 2)), ((2, 3, 3), (3, 3, 2)), ((1, 2, 3, 3), (2, 3, 2))):
        with pytest.raises(KernelError, match=r"^attend: mismatched shapes"):
            nk.attend(q, tensor(np.zeros(ks)), tensor(np.zeros(vs)))
    with pytest.raises(KernelError, match=r"^attend: mismatched shapes"):
        nk.attend(tensor(np.zeros((1, 2, 3))), tensor(np.zeros((4, 3, 3))), tensor(np.zeros((4, 3, 2))))


def test_attend_reports_a_non_finite_query():
    rng = np.random.default_rng(24)
    q, keys, values = (tensor(a) for a in attend_inputs(rng, "mla", 2, 4))
    q.data[0, 1, 0, 0] = np.nan
    with pytest.raises(KernelError, match="^attend produced non-finite values$"):
        nk.attend(q, keys, values)


def test_grad_sum_mean_axes():
    rng = np.random.default_rng(15)
    store = ParamStore()
    a = make_param(store, "a", (3, 4, 5), rng)

    def f(p):
        s1 = nk.tsum(a, axis=1)           # (3, 5)
        s2 = nk.tsum(a, axis=(0, 2))      # (4,)
        m = nk.tmean(nk.mul(a, a))        # ()
        return nk.add(nk.add(nk.tsum(nk.mul(s1, s1)), nk.tsum(nk.mul(s2, s2))), m)

    check_grads(f, store)


def test_grad_composite_random_graphs():
    # deeper mixed graphs, several seeds
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        store = ParamStore()
        w1 = make_param(store, "w1", (6, 8), rng)
        w2 = make_param(store, "w2", (8, 4), rng)
        g = store.add("g", tensor(np.abs(rng.standard_normal(8)) + 0.5, dtype=np.float64))
        x = tensor(rng.standard_normal((2, 3, 6)), dtype=np.float64)

        def f(p):
            h = nk.matmul(x, w1)
            h = nk.rms_norm(h, g)
            h = nk.silu(h)
            o = nk.matmul(h, w2)
            return nk.tmean(nk.mul(nk.softmax(o, axis=-1), o))

        check_grads(f, store)


def test_finite_diff_rejects_bad_eps():
    store = ParamStore()
    store.add("p", tensor([1.0], dtype=np.float64))
    with pytest.raises(KernelError):
        finite_diff_grad(lambda p: 0.0, store, eps=0.0)


# ---------------------------------------------------------------------------
# truncated SVD


def test_svd_identity_matrix():
    f = svd_truncated(np.eye(5), 5)
    assert np.allclose(f.S.data, 1.0)
    assert np.allclose(f.reconstruct(), np.eye(5), atol=1e-12)


def test_svd_rank_one():
    u = np.array([3.0, 0.0, 4.0])
    v = np.array([1.0, 2.0, 2.0])
    a = np.outer(u, v)
    f = svd_truncated(a, 1)
    # single singular value is |u| * |v| = 5 * 3
    assert abs(f.S.data[0] - 15.0) < 1e-10
    assert np.allclose(f.reconstruct(), a, atol=1e-10)


def test_svd_exact_rank_recovery():
    rng = np.random.default_rng(20)
    for _ in range(5):
        r = int(rng.integers(1, 4))
        left = rng.standard_normal((8, r))
        right = rng.standard_normal((r, 6))
        a = left @ right
        f = svd_truncated(a, r)
        err = np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a)
        assert err < 1e-12


def test_svd_orthonormal_and_ordered():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((9, 7))
    f = svd_truncated(a, 5)
    assert np.allclose(f.U.data.T @ f.U.data, np.eye(5), atol=1e-10)
    assert np.allclose(f.V.data.T @ f.V.data, np.eye(5), atol=1e-10)
    assert np.all(np.diff(f.S.data) <= 1e-12)
    assert np.all(f.S.data >= 0)


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((6, 6))
    f1 = svd_truncated(a, 4)
    f2 = svd_truncated(a.copy(), 4)
    assert np.array_equal(f1.U.data, f2.U.data)
    assert np.array_equal(f1.S.data, f2.S.data)
    assert np.array_equal(f1.V.data, f2.V.data)
    for j in range(4):
        col = f1.U.data[:, j]
        nz = col[np.flatnonzero(col)[0]]
        assert nz >= 0


def test_svd_beats_random_rank_r_candidates():
    # Frobenius optimality spot check: no random rank-r factorization does better
    rng = np.random.default_rng(23)
    a = rng.standard_normal((10, 8))
    r = 3
    best = np.linalg.norm(svd_truncated(a, r).reconstruct() - a)
    for _ in range(50):
        l = rng.standard_normal((10, r))
        rgt = rng.standard_normal((r, 8))
        # least-squares polish of the right factor given the left
        rgt = np.linalg.lstsq(l, a, rcond=None)[0]
        cand = np.linalg.norm(l @ rgt - a)
        assert best <= cand + 1e-9


def test_svd_truncation_error_monotone():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((7, 7))
    errs = [np.linalg.norm(svd_truncated(a, r).reconstruct() - a) for r in range(1, 8)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(6))


def test_svd_rejects_bad_inputs():
    with pytest.raises(KernelError):
        svd_truncated(np.zeros((3, 3, 3)), 1)
    with pytest.raises(KernelError):
        svd_truncated(np.zeros((3, 4)), 0)
    with pytest.raises(KernelError):
        svd_truncated(np.zeros((3, 4)), 4)


def test_svd_factors_validate_order():
    with pytest.raises(KernelError):
        nk.SvdFactors(
            U=tensor(np.eye(2)), S=tensor([1.0, 2.0]), V=tensor(np.eye(2))
        )
