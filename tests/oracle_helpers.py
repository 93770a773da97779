"""Shared oracle utilities for the test suite (not a test module).

The latent-attention init keeps only the first d_qk key columns of each head
inside W_UK; the remaining d_r columns per head are dropped in favour of the
rotary key path. Reconstruction oracles below recover those dropped columns
through the same left factor (U^T A = S V^T holds exactly at any truncation
rank, because U's columns are orthonormal and span the kept subspace), so the
reassembled product U @ M measures exactly the factorization error and
nothing else.
"""

import numpy as np

from hybridforge.numkernel import ROPE_BASE, KernelError, backward
from hybridforge.smart import LayoutError, gap_bounds


def finite_diff_grad(f, params, eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient estimate, one coordinate at a time.

    The verification oracle for ``backward``: f is evaluated 2*n times with
    each coordinate of the ParamStore perturbed by +/-eps while everything
    else stays fixed.
    """
    if eps <= 0:
        raise KernelError("eps must be positive")
    out: dict[str, np.ndarray] = {}
    for path, t in params.trainable_items():
        flat = t.data.reshape(-1)
        grad = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(params)
            flat[i] = orig - eps
            lo = f(params)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise KernelError(f"objective non-finite while probing {path}[{i}]")
            grad[i] = (hi - lo) / (2.0 * eps)
        out[path] = grad.reshape(t.shape)
    return out


def check_grads(f, params, tol=1e-4, eps=1e-5):
    """``backward`` against ``finite_diff_grad`` on the same parameters, compared
    coordinate by coordinate; f maps the ParamStore to a scalar loss Tensor."""
    loss = f(params)
    analytic = backward(loss, params)
    numeric = finite_diff_grad(lambda p: f(p).item(), params, eps=eps)
    for path in analytic:
        a, n = analytic[path], numeric[path]
        scale = np.maximum(np.abs(n), 1.0)
        worst = (np.abs(a - n) / scale).max()
        assert worst <= tol, f"{path}: max rel grad error {worst:.3e}"


def reconstruct_query(mla_w, cfg, mcfg) -> np.ndarray:
    """Rebuild the query projection from the latent factors."""
    r_q, n_h = mcfg.r_q, cfg.n_h
    uq = mla_w.W_UQ.data.reshape(r_q, n_h, mcfg.d_qk)
    qr = mla_w.W_QR.data.reshape(r_q, n_h, mcfg.d_r)
    m = np.concatenate([uq, qr], axis=-1).reshape(r_q, n_h * cfg.d_h)
    return mla_w.W_DQ.data @ m


def reconstruct_kv(mla_w, attn_w, cfg, mcfg) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the stacked [key, value] block; returns (reconstruction, source)."""
    n_kv, d_h = cfg.n_kv, cfg.d_h
    r_kv, d_qk = mcfg.r_kv, mcfg.d_qk
    a = np.concatenate([attn_w.W_K.data, attn_w.W_V.data], axis=1)
    u = mla_w.W_DKV.data
    full = u.T @ a  # equals S V^T of the joint factorization, at any rank
    m = np.empty((r_kv, 2 * n_kv * d_h), dtype=a.dtype)
    key = m[:, : n_kv * d_h].reshape(r_kv, n_kv, d_h)
    key[:, :, :d_qk] = mla_w.W_UK.data.reshape(r_kv, n_kv, d_qk)
    key[:, :, d_qk:] = full[:, : n_kv * d_h].reshape(r_kv, n_kv, d_h)[:, :, d_qk:]
    m[:, n_kv * d_h :] = mla_w.W_UV.data
    return u @ m, a


def reference_select(scores, N) -> list[int]:
    """Straight-line layer placement, written independently of the library.

    Exhaustively scans every subset of intermediate indices with
    itertools.combinations instead of the library's dynamic program, applies
    the gap rule as a plain filter, and keeps the best-scoring candidate
    (first wins ties, which is the lexicographically smallest subset because
    combinations yields them in sorted order).
    """
    import itertools
    import math

    scores = list(scores)
    L = len(scores)
    if not 0 <= N <= L:
        raise ValueError("N out of range")
    if N == 0:
        return []
    if N == 1:
        return [max(range(L), key=lambda i: (scores[i], -i))]
    p = L // N
    first = max(range(p), key=lambda i: (scores[i], -i))
    last = max(range(L - p, L), key=lambda i: (scores[i], -i))
    spread = last - first - (N - 1)
    if spread < 0:
        raise ValueError("endpoints too close")
    g_lo, g_hi = spread // (N - 1), math.ceil(spread / (N - 1))
    best = None
    best_sum = None
    for mids in itertools.combinations(range(first + 1, last), N - 2):
        seq = (first,) + mids + (last,)
        if all(g_lo <= b - a - 1 <= g_hi for a, b in zip(seq, seq[1:])):
            s = sum(scores[i] for i in seq)
            if best is None or s > best_sum:
                best, best_sum = seq, s
    if best is None:
        raise ValueError("no candidate satisfies the gap rule")
    return list(best)


def enumerate_valid_configs(L1: int, LN: int, N: int) -> list[tuple[int, ...]]:
    """All (N-2)-tuples of intermediate indices with every gap in bounds.

    Gaps count the layers strictly between consecutive picks, including the
    runs to both endpoints. Results come out lexicographically sorted. An
    infeasible instance yields an empty list; the caller decides what that
    means. The count grows exponentially with N: keep N small.
    """
    if L1 >= LN:
        raise ValueError("L1 must be below LN")
    if N < 2:
        raise ValueError("N must be >= 2")
    try:
        g_min, g_max = gap_bounds(L1, LN, N)
    except LayoutError:
        return []
    if N == 2:
        return [()] if g_min <= LN - L1 - 1 <= g_max else []

    out: list[tuple[int, ...]] = []
    picks = N - 2

    def extend(prev: int, chosen: tuple[int, ...]) -> None:
        if len(chosen) == picks:
            if g_min <= LN - prev - 1 <= g_max:
                out.append(chosen)
            return
        for nxt in range(prev + g_min + 1, min(prev + g_max + 1, LN - 1) + 1):
            extend(nxt, chosen + (nxt,))

    extend(L1, ())
    return out


def reference_ssm_scan(x, b, c, log_decay, D, h0=None, dt=None):
    """Straight-line SSM recurrence, one batch row, head and step at a time.

    Per (row, head k) with group g = k // (heads / groups) of x and b:
    h <- exp(log_decay_t) h + dt_t outer(b_t, x_t), y_t = c_t @ h + D x_t,
    from h0 (zeros when None), dt defaulting to ones. Returns (y, final h)
    as float64 arrays.
    """
    n, t, heads, d_h = c.shape
    group = heads // x.shape[2]
    dt = np.ones((n, t, heads)) if dt is None else dt
    y = np.zeros((n, t, heads, d_h))
    h_last = np.zeros((n, heads, d_h, d_h))
    for r in range(n):
        for k in range(heads):
            g = k // group
            h = np.zeros((d_h, d_h))
            if h0 is not None:
                h = h + np.broadcast_to(h0, h_last.shape)[r, k]
            for i in range(t):
                h = np.exp(log_decay[r, i, k]) * h + dt[r, i, k] * np.outer(b[r, i, g], x[r, i, g])
                y[r, i, k] = c[r, i, k] @ h + D[k] * x[r, i, g]
            h_last[r, k] = h
    return y, h_last


def reference_attend(q, keys, values):
    """Straight-line causal softmax attention, one query at a time, in float64.

    q is (..., t, dk), keys (..., T, dk) and values (..., T, dv), their
    leading axes broadcast against each other; query i of t sits at position
    T - t + i and attends to keys 0 .. T - t + i. Returns (..., t, dv).
    """
    q, keys, values = (np.asarray(a, dtype=np.float64) for a in (q, keys, values))
    t, T = q.shape[-2], keys.shape[-2]
    lead = np.broadcast_shapes(q.shape[:-2], keys.shape[:-2], values.shape[:-2])
    q, keys, values = (np.broadcast_to(a, lead + a.shape[-2:]) for a in (q, keys, values))
    out = np.zeros(lead + (t, values.shape[-1]))
    for idx in np.ndindex(*lead):
        for i in range(t):
            seen = T - t + i + 1
            s = keys[idx][:seen] @ q[idx][i]
            a = np.exp(s - s.max())
            out[idx][i] = (a / a.sum()) @ values[idx][:seen]
    return out


def _reference_rope(x, positions, base):
    """Rotate adjacent pairs of x's last axis by pos * base**(-2i/d), row by row."""
    d = x.shape[-1]
    out = np.empty_like(x)
    for row, pos in enumerate(positions):
        for i in range(d // 2):
            ang = pos * base ** (-2.0 * i / d)
            c, s = np.cos(ang), np.sin(ang)
            e, o = x[row, 2 * i], x[row, 2 * i + 1]
            out[row, 2 * i] = e * c - o * s
            out[row, 2 * i + 1] = e * s + o * c
    return out


def interleaved_rope(x, positions, base, g=None):
    """Rotary rotation of x (..., t, heads, d) in the interleaved straight-line
    form: even and odd coordinates written apart, cos and sin of pos *
    base**(-2i/d) computed per call. With g, the vjp of that rotation at g.
    The pair frequencies are computed as ``numkernel._inv_freq`` computes them."""
    d = x.shape[-1]
    inv_freq = base ** -(np.arange(0, d, 2, dtype=x.dtype) / d)
    ang = np.asarray(positions, dtype=x.dtype)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    if g is None:
        xe, xo = x[..., 0::2], x[..., 1::2]
        out = np.empty_like(x)
        out[..., 0::2] = xe * cos - xo * sin
        out[..., 1::2] = xe * sin + xo * cos
        return out
    ge, go = g[..., 0::2], g[..., 1::2]
    gx = np.empty_like(g)
    gx[..., 0::2] = ge * cos + go * sin
    gx[..., 1::2] = -ge * sin + go * cos
    return gx


def reference_mla(h, w, cfg, mcfg):
    """Straight-line causal latent attention over one (t, d) sequence.

    Rebuilds every head's keys and values from the latent rows instead of
    scoring the latents directly: per query head h of kv group g = h // (n_h
    / n_kv), keys are [c_kv @ W_UK_g | rope(H @ W_KR)] and values c_kv @
    W_UV_g. Returns the (t, d) float64 output.
    """
    t = h.shape[0]
    pos = np.arange(t)
    group = cfg.n_h // cfg.n_kv
    d_qk, d_r, d_v = mcfg.d_qk, mcfg.d_r, mcfg.d_v
    W = {name: np.asarray(tns.data, dtype=np.float64) for name, tns in w.items()}
    c_q = h @ W["W_DQ"]
    c_kv = h @ W["W_DKV"]
    k_r = _reference_rope(h @ W["W_KR"], pos, ROPE_BASE)
    heads = []
    for k in range(cfg.n_h):
        g = k // group
        q = np.concatenate([
            c_q @ W["W_UQ"][:, k * d_qk:(k + 1) * d_qk],
            _reference_rope(c_q @ W["W_QR"][:, k * d_r:(k + 1) * d_r], pos, ROPE_BASE),
        ], axis=1)
        key = np.concatenate([c_kv @ W["W_UK"][:, g * d_qk:(g + 1) * d_qk], k_r], axis=1)
        val = c_kv @ W["W_UV"][:, g * d_v:(g + 1) * d_v]
        ctx = np.zeros((t, d_v))
        for i in range(t):
            s = key[: i + 1] @ q[i] / np.sqrt(d_qk + d_r)
            a = np.exp(s - s.max())
            ctx[i] = (a / a.sum()) @ val[: i + 1]
        heads.append(ctx)
    return np.concatenate(heads, axis=1) @ W["W_O"]


def reference_mha(h, w, cfg):
    """Straight-line causal grouped-query attention over one (t, d) sequence.

    Per query head k of kv group g = k // (n_h / n_kv): rotary query and key
    slices of H @ W_Q and H @ W_K, values H @ W_V, and a softmax over keys
    0..i for query i. Returns the (t, d) float64 output.
    """
    t = h.shape[0]
    pos = np.arange(t)
    group = cfg.n_h // cfg.n_kv
    d_h = cfg.d_h
    W = {name: np.asarray(tns.data, dtype=np.float64) for name, tns in w.items()}
    heads = []
    for k in range(cfg.n_h):
        g = k // group
        q = _reference_rope(h @ W["W_Q"][:, k * d_h:(k + 1) * d_h], pos, ROPE_BASE)
        key = _reference_rope(h @ W["W_K"][:, g * d_h:(g + 1) * d_h], pos, ROPE_BASE)
        val = h @ W["W_V"][:, g * d_h:(g + 1) * d_h]
        ctx = np.zeros((t, d_h))
        for i in range(t):
            s = key[: i + 1] @ q[i] / np.sqrt(d_h)
            a = np.exp(s - s.max())
            ctx[i] = (a / a.sum()) @ val[: i + 1]
        heads.append(ctx)
    return np.concatenate(heads, axis=1) @ W["W_O"]


def reference_mamba2(h, w, cfg):
    """Straight-line SSM mixer over one (t, d) sequence, in float64.

    Slices the x, B, C and dt column blocks out of W_in, convolves each
    channel tap by tap over zero left-padding, and runs the recurrence head
    by head, with query head k reading kv head k // (n_h / n_kv). Returns
    the (t, d) output.
    """
    t = h.shape[0]
    n_h, n_kv, d_h, k = cfg.n_h, cfg.n_kv, cfg.d_h, w.conv.shape[1]
    group = n_h // n_kv
    W = {name: np.asarray(tns.data, dtype=np.float64) for name, tns in w.items()}
    kv, q = n_kv * d_h, n_h * d_h
    pre = h @ W["W_in"]
    xbc = np.zeros((t, 2 * kv + q))
    for c in range(2 * kv + q):
        for i in range(t):
            for j in range(k):
                src = i - (k - 1) + j
                if src >= 0:
                    xbc[i, c] += W["conv"][c, j] * pre[src, c]
    x = xbc[:, :kv].reshape(t, n_kv, d_h)
    B = xbc[:, kv:2 * kv].reshape(t, n_kv, d_h)
    C = xbc[:, 2 * kv:].reshape(t, n_h, d_h)
    dt = np.log1p(np.exp(pre[:, 2 * kv + q:] + W["delta_b"]))
    a = -np.exp(W["a_log"])
    y = np.zeros((t, n_h, d_h))
    for head in range(n_h):
        g = head // group
        state = np.zeros((d_h, d_h))
        for i in range(t):
            state = np.exp(dt[i, head] * a[head]) * state
            state = state + dt[i, head] * np.outer(B[i, g], x[i, g])
            y[i, head] = C[i, head] @ state + W["D"][head] * x[i, g]
    return y.reshape(t, q) @ W["W_out"]


def reference_model(ids, model):
    """Straight-line logits of a model over one (t,) id sequence, in float64.

    Each block is an RMS norm, the layer's mixer oracle above, a residual
    add, an RMS norm and the gated MLP (silu(z W_gate) * z W_up) W_down with
    its residual add; the final norm and the head follow. Returns the
    (t, vocab) logits.
    """
    def norm(x, gain):
        return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6) * gain.data

    cfg = model.cfg
    x = model.embed.data[np.asarray(ids)].astype(np.float64)
    for kind, layer in zip(cfg.layer_kinds, model.layers):
        z = norm(x, layer.norm1)
        if kind == "mha":
            x = x + reference_mha(z, layer.mixer, cfg)
        elif kind == "mla":
            x = x + reference_mla(z, layer.mixer, cfg, model.mcfg)
        else:
            x = x + reference_mamba2(z, layer.mixer, cfg)
        z = norm(x, layer.norm2)
        gate = z @ layer.mlp_gate.data
        x = x + (gate / (1.0 + np.exp(-gate)) * (z @ layer.mlp_up.data)) @ layer.mlp_down.data
    return norm(x, model.final_norm) @ model.head.data
