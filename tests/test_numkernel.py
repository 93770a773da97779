"""Kernel tests: autodiff against central differences, SVD against oracles."""

import tracemalloc
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
from oracle_helpers import finite_diff_grad, reference_attend, reference_ssm_scan


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def check_grads(f, params, tol=1e-4, eps=1e-5):
    """Both routes on the same parameters, compared coordinate by coordinate."""
    loss = f(params)
    analytic = backward(loss, params)
    numeric = finite_diff_grad(lambda p: f(p).item(), params, eps=eps)
    for path in analytic:
        a, n = analytic[path], numeric[path]
        scale = np.maximum(np.abs(n), 1.0)
        worst = (np.abs(a - n) / scale).max()
        assert worst <= tol, f"{path}: max rel grad error {worst:.3e}"


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
        ls = nk.log_softmax(x, axis=-1)
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
    pos = np.arange(5)

    def f(p):
        return nk.tsum(nk.mul(nk.rope_rotate(x, pos, 10000.0), x))

    check_grads(f, store)


@pytest.mark.parametrize("shape,positions", [
    ((1, 6, 2, 8), np.arange(6)),
    ((3, 2, 6), np.arange(3)),
    ((7, 3, 8), np.arange(7) * 13),
], ids=["batched", "unbatched", "wide-positions"])
def test_rope_preserves_norm_and_position_zero(shape, positions):
    rng = np.random.default_rng(11)
    x = tensor(rng.standard_normal(shape), dtype=np.float64)
    out = nk.rope_rotate(x, positions, 10000.0)
    n_in = np.linalg.norm(x.data, axis=-1)
    n_out = np.linalg.norm(out.data, axis=-1)
    assert np.allclose(n_in, n_out, atol=1e-12)
    out0 = nk.rope_rotate(x, np.zeros(len(positions), dtype=int), 10000.0)
    assert np.allclose(out0.data, x.data, atol=1e-12)


def test_rope_relative_phase():
    # score between a query at p+k and key at q+k matches p vs q (shift invariance)
    rng = np.random.default_rng(12)
    q = rng.standard_normal((1, 1, 1, 8))
    k = rng.standard_normal((1, 1, 1, 8))
    def score(pq, pk):
        rq = nk.rope_rotate(tensor(q, dtype=np.float64), np.array([pq]), 10000.0).data
        rk = nk.rope_rotate(tensor(k, dtype=np.float64), np.array([pk]), 10000.0).data
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


def test_attend_refuses_mismatched_shapes():
    q, k, v = (tensor(np.zeros(s)) for s in ((4, 3), (3, 3), (3, 2)))
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(q, k, v)  # more queries than positions
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(tensor(np.zeros((0, 3))), k, v)  # no queries
    with pytest.raises(KernelError, match="attend: mismatched shapes"):
        nk.attend(k, k, tensor(np.zeros((2, 2))))


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
        m1 = nk.tmean(a, axis=(0, 2))     # (4,)
        return nk.add(nk.tsum(nk.mul(s1, s1)), nk.tsum(nk.mul(m1, m1)))

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
