"""Dense tensors with reverse-mode differentiation, plus truncated SVD.

Everything downstream (attention, SSM, distillation losses) is built from the
small set of primitives here: matmul, elementwise arithmetic, softmax family,
RMS normalization, causal depthwise 1-d convolution, rotary rotation, causal
softmax attention (``attend``), the gated state-space recurrence, and shape
surgery (slice / reshape / transpose / concat / repeat / gather).
``attend`` runs its queries in blocks of ``ATTEND_ROWS``, each scored against
only the causal key prefix its last query sees, so a call over T keys holds at
most ATTEND_ROWS x T scores per head, however long the prefill. Its blocks run
first to last, each writing its own rows of one output; an unrecorded call of
several blocks scores them all in one scratch array sized ATTEND_ROWS x T per
head, and one of a single block (a decode step) into one t x T array.
``silu`` and ``rms_norm`` write their temporaries in place. ``ssm_scan`` over
one unrecorded step (a decode step: x (batch, 1, groups, d_h) and an h0 state)
runs the plain update and returns a state array of its own, allocating no
chunk states. ``rope_rotate`` reads its tables from ``_rotation``, cached per
(start, t, d, dtype), so the layers of a pass share one. ``add`` and
``mul`` take a Tensor first; a second operand that is not a Tensor is a graph
constant cast to the first one's dtype: a number becomes a numpy scalar,
checked with ``math.isfinite`` even inside ``checked_once``, so a float32
tensor times a float64 scalar stays float32. Each primitive asks ``_recording``
once whether it records: under ``no_grad``, or over graph constants only, it
builds nothing and its output has no graph edge. Otherwise it records its
inputs and a vector-Jacobian closure so that ``backward`` can return exact
gradients. ``backward`` walks a graph once and frees it as it goes: a node
drops its inputs and closure, and the arrays the closure saved, once it has
passed its gradient on. Ops that make values check them for finiteness; ops
that only move checked values (slice, reshape, transpose, concat, cached rows)
do not.
Inside ``checked_once`` no op checks what it makes: the FPU's overflow and
invalid flags raise, and the pass checks what it returns once; a model's whole
forward pass is one ``checked_once``. On a flag or a non-finite result the
pass runs again with every op checking, so the error names the op that made
the value. A slice or transpose is a view of its input, and ``cached_rows`` a
view of a decode cache's buffer, whether recorded or not.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

__all__ = [
    "KernelError",
    "GraphError",
    "Tensor",
    "ParamStore",
    "SvdFactors",
    "no_grad",
    "tensor",
    "svd_truncated",
    "backward",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# Finite additive mask for causal attention: large enough that exp underflows
# to exactly 0 after max subtraction, small enough to stay representable in
# float32 (so tensors never carry inf, per the kernel finiteness invariant).
NEG_MASK = -1e30

# Added to rms_norm's mean square, so an all-zero row normalizes to zero, not NaN.
RMS_EPS = 1e-6


class KernelError(Exception):
    """A kernel produced or was handed non-finite / malformed data."""


class GraphError(KernelError):
    """The recorded computation graph cannot be differentiated as requested."""


# Ops whose output only moves values that were checked when they were made, so
# a Tensor built by one skips the check. "cache" is ``cached_rows``: decode-cache
# rows, each checked by the op that made it before it was cached.
_MOVES = frozenset({"getitem", "reshape", "transpose", "concat", "cache"})


class _GradState(threading.local):
    def __init__(self):
        self.enabled = True
        self.checking = True  # False inside ``checked_once``: no op checks what it makes


_grad_state = _GradState()


def grad_enabled() -> bool:
    """Whether graph recording is active on the current thread."""
    return _grad_state.enabled


@contextmanager
def no_grad():
    """Disable graph recording on the current thread (inference fast path)."""
    prev = _grad_state.enabled
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise KernelError(f"{op} produced non-finite values")
    return arr


def checked_once(run: Callable, made: Callable):
    """``run()``, its finiteness checked once instead of op by op.

    The fast pass calls ``run()`` with no op on this thread checking what it
    makes, under ``np.errstate(over="raise", invalid="raise")``, and then
    checks each array that ``made(out)`` lists. On a ``FloatingPointError``
    or a non-finite array it calls ``run()`` again, with every op checking
    and with overflow and invalid warnings silenced. A fault then raises the
    ``KernelError`` of the op that made it, and a benign flag gets the bytes
    the fast pass would have given. So ``run()`` must be safe to repeat, and
    ``made`` must list every array that leaves it: a NaN that only
    propagates raises no flag.
    """
    prev = _grad_state.checking
    _grad_state.checking = False
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = run()
        if all(np.isfinite(a).all() for a in made(out)):
            return out
    except FloatingPointError:
        pass
    finally:
        _grad_state.checking = prev
    with np.errstate(over="ignore", invalid="ignore"):
        return run()


class Tensor:
    """A float32/float64 ndarray plus the graph edge that produced it."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def tensor(data, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    """Wrap array-like data as a Tensor of the given float dtype."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)


def _operand(a: Tensor, b, op: str):
    """b's data and the parents of ``op`` over (a, b). A b that is no Tensor is a
    constant of a's dtype, checked here: a number becomes a numpy scalar."""
    if isinstance(b, Tensor):
        return b.data, (a, b)
    b = a.data.dtype.type(b)  # an array-like b becomes an array
    if not (math.isfinite(b) if b.ndim == 0 else np.isfinite(b).all()):
        raise KernelError(f"{op} got a non-finite constant operand")
    return b, (a,)


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` records: each op asks once, and builds its
    vjp closure only if so."""
    # a recorded node, or one a backward has walked, has a vjp
    return _grad_state.enabled and any(p.requires_grad or p._vjp is not None for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """The op's output: a graph edge to ``parents`` if it has a ``vjp``, none if None."""
    # an op makes a float array, or a numpy scalar from 0-d operands: no
    # Tensor.__init__ to convert it again
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    if _grad_state.checking and op not in _MOVES:
        _check_finite(data, op)
    out = object.__new__(Tensor)
    out.data, out.requires_grad, out._vjp = data, False, vjp
    out._parents = () if vjp is None else parents
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# arithmetic primitives


def add(a: Tensor, b) -> Tensor:
    """a + b; b is a Tensor, or a constant of a's dtype (see ``_operand``)."""
    bd, parents = _operand(a, b, "add")
    vjp = None
    if _recording(parents):
        def vjp(g):
            ga = _unbroadcast(g, a.shape)
            return (ga,) if len(parents) == 1 else (ga, _unbroadcast(g, bd.shape))
    return _make(a.data + bd, parents, vjp, "add")


def neg(a: Tensor) -> Tensor:
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (-g,)
    return _make(-a.data, (a,), vjp, "neg")


def mul(a: Tensor, b) -> Tensor:
    """a * b; b is a Tensor, or a constant of a's dtype (see ``_operand``)."""
    ad = a.data
    bd, parents = _operand(a, b, "mul")
    vjp = None
    if _recording(parents):
        def vjp(g):
            ga = _unbroadcast(g * bd, a.shape)
            return (ga,) if len(parents) == 1 else (ga, _unbroadcast(g * ad, bd.shape))
    return _make(ad * bd, parents, vjp, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise KernelError("matmul requires operands with ndim >= 2")
    vjp = None
    if _recording((a, b)):
        def vjp(g):
            ga = g @ np.swapaxes(bd, -1, -2)
            gb = np.swapaxes(ad, -1, -2) @ g
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)
    return _make(ad @ bd, (a, b), vjp, "matmul")


def texp(a: Tensor) -> Tensor:
    if not _grad_state.checking:  # in checked_once: a later exp(-inf) = 0 may hide
        out = np.exp(a.data)        # the inf, so the overflow flag must raise here
    else:
        with np.errstate(over="ignore"):  # the check reports the inf
            out = np.exp(a.data)
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (g * out,)
    return _make(out, (a,), vjp, "exp")


def tlog(a: Tensor) -> Tensor:
    ad = a.data
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (g / ad,)
    return _make(np.log(ad), (a,), vjp, "log")


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-a.data))
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (g * out * (1.0 - out),)
    return _make(out, (a,), vjp, "sigmoid")


def silu(a: Tensor) -> Tensor:
    s = np.negative(a.data)  # 1 / (1 + exp(-a)), in one array
    with np.errstate(over="ignore"):  # exp(-a) = inf gives exactly 0
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    out = a.data * s
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (g * (s + out * (1.0 - s)),)
    return _make(out, (a,), vjp, "silu")


def softplus(a: Tensor) -> Tensor:
    ad = a.data
    vjp = None
    if _recording((a,)):
        def vjp(g):  # the derivative is sigmoid(a), made only when asked for
            with np.errstate(over="ignore"):  # exp(-a) = inf gives exactly 0
                return (g * (1.0 / (1.0 + np.exp(-ad))),)
    return _make(np.logaddexp(0.0, ad), (a,), vjp, "softplus")


def tsum(a: Tensor, axis=None) -> Tensor:
    shape = a.shape
    vjp = None
    if _recording((a,)):
        def vjp(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).astype(a.dtype, copy=False),)
    return _make(a.data.sum(axis=axis), (a,), vjp, "sum")


def tmean(a: Tensor) -> Tensor:
    return mul(tsum(a), 1.0 / a.data.size)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    vjp = None
    if _recording((a,)):
        def vjp(g):
            dot = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - dot),)
    return _make(out, (a,), vjp, "softmax")


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    vjp = None
    if _recording((a,)):
        soft = np.exp(out)

        def vjp(g):
            return (g - soft * g.sum(axis=-1, keepdims=True),)
    return _make(out, (a,), vjp, "log_softmax")


# Query rows per block of ``attend``. Timed against one block on toy cached
# prefills: 32, 64 and 128 took 0.44, 0.48 and 0.52 of its time on 1024 MLA
# tokens and 0.68, 0.67 and 0.77 on 512 MHA tokens, and on 65-128-token hybrid
# prompts 64 read 0.97-1.02 where 32 and 128 read 1.01-1.04.
ATTEND_ROWS = 64


def _attend_block(qb: np.ndarray, kb: np.ndarray, vb: np.ndarray, scores: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Probabilities of n queries qb, the last n of kb's positions, scored into
    ``scores``; their output is written into ``out``."""
    n = qb.shape[-2]
    p = np.matmul(qb, kb.mT, out=scores)
    if _grad_state.checking:
        _check_finite(p, "attend")
    if n > 1:  # a single query is the newest position and sees every key
        p[..., -n:] += np.triu(np.full((n, n), NEG_MASK, p.dtype), 1)
    # the reductions .max and .sum run, without their Python wrappers
    p -= np.maximum.reduce(p, -1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, -1, keepdims=True)
    np.matmul(p, vb, out=out)
    return p


def _attend_block_vjp(g, qb, kb, vb, p):
    """Gradients of one block for qb, and for kb and vb in their own shapes."""
    gs = g @ np.swapaxes(vb, -1, -2)  # d/dp, then in place d/dscores
    gs -= (gs * p).sum(axis=-1, keepdims=True)
    gs *= p
    gk = np.swapaxes(np.swapaxes(qb, -1, -2) @ gs, -1, -2)
    return gs @ kb, _unbroadcast(gk, kb.shape), _unbroadcast(np.swapaxes(p, -1, -2) @ g, vb.shape)


def _mismatched(q: Tensor, keys: Tensor, values: Tensor) -> KernelError:
    return KernelError(f"attend: mismatched shapes q {q.shape}, keys {keys.shape}, "
                       f"values {values.shape}")


def attend(q: Tensor, keys: Tensor, values: Tensor) -> Tensor:
    """Causal softmax attention, softmax(q keys^T + mask) values, as one op.

    q is (..., t, dk), keys (..., T, dk) and values (..., T, dv); the leading
    axes of keys and values broadcast to q's, so a size-1 head axis of keys
    and values is shared by the query heads along it; other leading axes
    raise ``KernelError``. The t queries are the last t of the T positions.
    They run in blocks of ``ATTEND_ROWS``: the block of queries i0 .. i1 - 1
    scores only the causal key prefix its last query sees, keys 0 .. T - t +
    i1 - 1, and masks only the trailing (n, n) triangle above its diagonal. So
    a call holds at most an (..., ATTEND_ROWS, T) score array, not an
    (..., t, T) one, and a long prefill skips about half the score and value
    work; a call of at most ``ATTEND_ROWS`` queries is one block. The blocks
    run first to last, and each writes its output rows straight into the one
    output array. A block's scores are exponentiated and normalized in place.
    An unrecorded call of several blocks scores every block into a prefix of
    one scratch array of ``ATTEND_ROWS`` x T per head, so a long prefill does
    not allocate, and fault in, fresh scores per block; one of a single block
    scores into one t x T array per head. A recorded call keeps each block's
    probabilities in an array of their own, all its vjp keeps.
    Only the computed scores and the output are checked: finite scores give
    probabilities in [0, 1] over a sum >= 1.
    """
    qd, kd, vd = q.data, keys.data, values.data
    t, T = qd.shape[-2], kd.shape[-2]
    if (not 0 < t <= T or vd.shape[-2] != T or kd.shape[-1] != qd.shape[-1]
            or max(kd.ndim, vd.ndim) > qd.ndim):
        raise _mismatched(q, keys, values)
    parents = (q, keys, values)
    recorded, kept = _recording(parents), []
    lead = qd.shape[:-2]
    dtype = np.result_type(qd, kd, vd)
    out = np.empty(lead + (t, vd.shape[-1]), dtype)
    # np.empty: a block touches only the pages of the scratch that it writes
    scratch = (None if recorded or t <= ATTEND_ROWS
               else np.empty(math.prod(lead) * ATTEND_ROWS * T, dtype))
    try:
        for i0 in range(0, t, ATTEND_ROWS):
            i1 = min(i0 + ATTEND_ROWS, t)
            seen = T - t + i1
            shape = lead + (i1 - i0, seen)
            scores = (np.empty(shape, dtype) if scratch is None
                      else scratch[:math.prod(shape)].reshape(shape))
            kept.append(_attend_block(qd[..., i0:i1, :], kd[..., :seen, :], vd[..., :seen, :],
                                      scores, out[..., i0:i1, :]))
    except ValueError:  # numpy refuses to write a broadcast wider than q's into q's shape
        raise _mismatched(q, keys, values) from None
    vjp = None
    if recorded:
        def vjp(g):
            gq = np.empty(g.shape[:-1] + qd.shape[-1:], g.dtype)
            gk, gv = np.zeros(kd.shape, g.dtype), np.zeros(vd.shape, g.dtype)
            for i0, p in zip(range(0, t, ATTEND_ROWS), kept):
                i1 = i0 + p.shape[-2]
                seen = T - t + i1
                gq[..., i0:i1, :], bk, bv = _attend_block_vjp(
                    g[..., i0:i1, :], qd[..., i0:i1, :], kd[..., :seen, :], vd[..., :seen, :], p)
                gk[..., :seen, :] += bk
                gv[..., :seen, :] += bv
            return _unbroadcast(gq, q.shape), gk, gv
    return _make(out, parents, vjp, "attend")


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by ``gain``."""
    xd = x.data
    d = xd.shape[-1]
    # a square that overflows would make r = 0 and the output a finite 0; the
    # mean without ndarray.mean's Python wrapper, in the same bytes
    ms = np.add.reduce(xd * xd, -1, keepdims=True) / d
    if _grad_state.checking:
        _check_finite(ms, "rms_norm")
    r = 1.0 / np.sqrt(ms + RMS_EPS)
    out = xd * r
    out *= gain.data
    vjp = None
    if _recording((x, gain)):
        def vjp(g):
            gg = g * gain.data
            inner = (gg * xd).sum(axis=-1, keepdims=True)
            gx = r * gg - (r**3 / d) * xd * inner
            ggain = (g * xd * r).reshape(-1, d).sum(axis=0)
            return gx.astype(xd.dtype, copy=False), ggain.astype(gain.dtype, copy=False)
    return _make(out, (x, gain), vjp, "rms_norm")


def conv1d_depthwise(x: Tensor, w: Tensor, tail: np.ndarray | None = None) -> Tensor:
    """Causal depthwise temporal convolution.

    ``x`` has shape (..., t, channels), ``w`` has shape (channels, k).  Output
    position t mixes inputs t-k+1 .. t. The k-1 rows before the first input
    are ``tail``, a constant array: (..., k-1, channels) with x's leading
    axes, one tail per sequence, or (k-1, channels) shared across them. It is
    zeros when None, so a kernel whose last tap is 1 (and the rest 0) is the
    identity.
    """
    k = w.shape[1]
    xd, wd = x.data, w.data
    t, ch = xd.shape[-2], xd.shape[-1]
    want = xd.shape[:-2] + (k - 1, ch)
    if tail is not None and tail.shape not in (want, want[-2:]):
        raise KernelError(f"conv tail shape {tail.shape} is neither {want} nor {want[-2:]}")
    xp = np.empty(xd.shape[:-2] + (t + k - 1, ch), dtype=xd.dtype)
    xp[..., : k - 1, :] = 0.0 if tail is None else tail
    xp[..., k - 1 :, :] = xd
    out = np.zeros_like(xd)
    for j in range(k):
        out += wd[:, j] * xp[..., j : j + t, :]
    vjp = None
    if _recording((x, w)):
        def vjp(g):
            gxp = np.zeros_like(xp)
            gw = np.zeros_like(wd)
            for j in range(k):
                gxp[..., j : j + t, :] += wd[:, j] * g
                gw[:, j] = (g * xp[..., j : j + t, :]).reshape(-1, ch).sum(axis=0)
            return gxp[..., k - 1 :, :], gw
    return _make(out, (x, w), vjp, "conv1d_depthwise")


# The rotary base of every teacher here, RoFormer's (Su et al. 2021, arXiv 2104.09864);
# a teacher trained at another base (Llama 3: 500000) would make it a setting again.
ROPE_BASE = 10000.0


@functools.lru_cache(maxsize=32)
def _inv_freq(d: int, dtype: np.dtype) -> np.ndarray:
    """ROPE_BASE**(-2i/d) for the d/2 rotary pairs; read-only, as every call shares it."""
    inv_freq = ROPE_BASE ** -(np.arange(0, d, 2, dtype=dtype) / d)
    inv_freq.setflags(write=False)
    return inv_freq


@functools.lru_cache(maxsize=32)
def _rotation(start: int, t: int, d: int, dtype: np.dtype):
    """Read-only tables of positions start .. start+t-1, shared by every layer of a
    pass: (t, 1, d) [cos, cos] and (t, 1, d/2, 2) [-sin, sin] of pos * ROPE_BASE**(-2i/d)
    per pair i. The MLA upcycle's own rotary frequencies (ROADMAP item 1) change
    bytes, so they are not here yet; they will add their frequency set to this key."""
    ang = np.arange(start, start + t).astype(dtype)[:, None] * _inv_freq(d, dtype)
    cos, sin = np.cos(ang)[:, None, :, None], np.sin(ang)[:, None, :, None]
    tables = np.concatenate([cos, cos], -1).reshape(t, 1, d), np.concatenate([-sin, sin], -1)
    for table in tables:
        table.setflags(write=False)
    return tables


def rope_rotate(x: Tensor, start: int) -> Tensor:
    """Rotate adjacent coordinate pairs of the last axis by position-dependent angles.

    ``x`` has shape (..., t, heads, d) with d even, its t tokens at positions
    start .. start+t-1; pair i of a vector turns by angle pos * ROPE_BASE**(-2i/d).
    The turn is x*cos + swap_pairs(x)*[-sin, sin] (RoFormer, Su et al. 2021,
    arXiv 2104.09864, section 3.4.2), the bytes of the interleaved form. It is
    an isometry, so per-token norms are preserved and the vjp,
    g*cos - swap_pairs(g)*[-sin, sin], is the inverse turn.
    """
    d = x.shape[-1]
    if d % 2 != 0:
        raise KernelError("rotary dimension must be even")
    c2, s2 = _rotation(start, x.shape[-3], d, x.dtype)

    def turn(a, op):  # a*c2 op swap_pairs(a)*s2: np.add turns, np.subtract turns back
        out = a * c2
        op(out, (a.reshape(a.shape[:-1] + (-1, 2))[..., ::-1] * s2).reshape(a.shape), out=out)
        return out
    vjp = None
    if _recording((x,)):
        def vjp(g):
            return (turn(g, np.subtract),)
    return _make(turn(x.data, np.add), (x,), vjp, "rope")


# Steps per chunk of ssm_scan. Of 8, 16, 32 and 64, 16 was fastest on the toy
# 128-token prefill and training batch and tied 8 on the stacked sensitivity batch.
SCAN_CHUNK = 16


def _chunked(a: np.ndarray, nc: int, q: int, groups: int) -> np.ndarray:
    """(n, t, heads, ...) -> (n, nc, groups, heads/groups, q, ...), time zero-padded
    to nc*q steps. A padded step has zero log-decay and input: the state stays."""
    n, t = a.shape[:2]
    if nc * q > t:
        a = np.concatenate([a, np.zeros((n, nc * q - t) + a.shape[2:], a.dtype)], axis=1)
    return np.moveaxis(a.reshape((n, nc, q, groups, -1) + a.shape[3:]), 2, 4)


def _unchunked(a: np.ndarray, t: int) -> np.ndarray:
    """Inverse of ``_chunked``."""
    n, nc, groups, r, q = a.shape[:5]
    return np.moveaxis(a, 4, 2).reshape((n, nc * q, groups * r) + a.shape[5:])[:, :t]


def _decay(S: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """L[..., t, s] = exp(S_t - S_s), the decay from step s to step t >= s, and 0
    for s > t, from a chunk's cumulative log-decay S and the (q, q) ones ``tri``."""
    L = S[..., :, None] - S[..., None, :]  # in place from here: these arrays are big
    L *= tri  # 0, not -inf, above the diagonal: exp(-inf) is a slow path
    np.exp(L, out=L)
    L *= tri
    return L


def ssm_scan(
    x: Tensor, b: Tensor, c: Tensor, log_decay: Tensor, D: Tensor,
    h0: np.ndarray | None = None, *, dt: Tensor,
) -> tuple[Tensor, np.ndarray]:
    """Gated linear recurrence over per-head (d_h x d_h) state matrices:

        h_i = exp(log_decay_i) h_{i-1} + dt_i outer(b_i, x_i),   y_i = c_i . h_i + D x_i

    ``c`` is (batch, t, heads, d_h); ``x`` and ``b`` are (batch, t, groups, d_h),
    head k reading group k // (heads / groups). ``log_decay`` (< 0; finite where
    its exp underflows) and ``dt`` are (batch, t, heads), ``D`` is (heads,), and
    ``h0``, a graph constant, broadcasts to (batch, heads, d_h, d_h) (default
    zeros). Returns (y, h_t), h_t an array of its own. Chunks of at most ``SCAN_CHUNK`` steps run as matmuls
    (the SSD form, Dao & Gu 2024, arXiv 2405.21060): with S the
    cumulative log-decay in a chunk, y = ((C B^T) o exp(S_t - S_s) dt_s [s <= t]) X
    + exp(S) (C h_in), and a closing update carries h_out on. The vjp is the
    reverse chunked scan over the chunk-boundary states, the only states kept;
    it rebuilds the decay matrix exp(S_t - S_s) [s <= t] rather than keep it.
    """
    parents = (x, b, c, log_decay, D, dt)
    xd, bd, cd, ld, Dd, dtd = x.data, b.data, c.data, log_decay.data, D.data, dt.data
    ok = xd.ndim == cd.ndim == 4
    if ok:
        n, t, groups, d_h = xd.shape
        heads = cd.shape[2]
        lead = (n, t, heads)
        got = (bd.shape, cd.shape, ld.shape, Dd.shape, dtd.shape)
        ok = t >= 1 and heads % groups == 0 and got == (xd.shape, lead + (d_h,), lead,
                                                         (heads,), lead)
    if not ok:
        shapes = {k: p.shape for k, p in zip(("x", "b", "c", "log_decay", "D", "dt"), parents)}
        raise KernelError(f"ssm_scan: mismatched shapes {shapes}")
    r = heads // groups
    # h0 in x's dtype with its heads split (groups, r), as the states hold it
    h0 = 0.0 if h0 is None else h0.astype(xd.dtype, copy=False).reshape(
        h0.shape[:-3] + (groups, r, d_h, d_h))
    skip = Dd.reshape(groups, r, 1) * xd[:, :, :, None, :]  # (n, t, groups, r, d_h)

    recorded = _recording(parents)
    if t == 1 and not recorded:  # a decode step: the plain update, no chunks
        shape = (n, groups, r, 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            h = (np.exp(ld[:, 0]).reshape(shape) * h0 + dtd[:, 0].reshape(shape)
                 * bd[:, 0, :, None, :, None] * xd[:, 0, :, None, None, :])
            y = (cd[:, 0].reshape(n, groups, r, 1, d_h) @ h).reshape(skip.shape) + skip
        # h is made here, so the state returned shares no memory with h0
        return (_make(y.reshape(n, t, heads, d_h), parents, None, "ssm_scan"),
                h.reshape(n, heads, d_h, d_h))

    nc = -(-t // SCAN_CHUNK)
    q = -(-t // nc)  # balanced chunks: fewer than nc padded steps
    hs = np.empty((n, nc + 1, groups, r, d_h, d_h), dtype=xd.dtype)  # chunk-boundary states
    hs[:, 0] = h0
    with np.errstate(over="ignore", invalid="ignore"):  # what the vjp reads is made here
        xg, bg = (_chunked(v, nc, q, groups)[:, :, :, :1] for v in (xd, bd))
        cg, la, dg = (_chunked(v, nc, q, groups) for v in (cd, ld, dtd))
        S = np.cumsum(la, axis=-1)
        tri = np.tri(q, dtype=S.dtype)
        M = cg @ np.swapaxes(bg, -1, -2)  # C B^T, then in place (C B^T) o L o dt_s
        M *= _decay(S, tri)  # L is dropped here; the vjp rebuilds it
        M *= dg[..., None, :]
        to_end = np.exp(S[..., -1:] - S)  # decay from each step to the chunk's end
        local = np.swapaxes(bg * (to_end * dg)[..., None], -1, -2) @ xg
        for k in range(nc):
            hs[:, k + 1] = np.exp(S[:, k, ..., -1, None, None]) * hs[:, k] + local[:, k]
        yg = cg @ hs[:, :-1]
        yg *= np.exp(S)[..., None]
        yg += M @ xg
        y = _unchunked(yg, t).reshape(skip.shape)
        y += skip
    h_last = hs[:, -1].reshape(n, heads, d_h, d_h).copy()
    vjp = None
    if recorded:
        def vjp(g):
            gy, CB = _chunked(g, nc, q, groups), cg @ np.swapaxes(bg, -1, -2)
            eS, h_in, gh = np.exp(S), hs[:, :-1], np.zeros_like(hs[:, 1:])
            for k in range(nc - 1, 0, -1):  # dL/dh_out of each chunk, carried backwards
                gh[:, k - 1] = (np.exp(S[:, k, ..., -1, None, None]) * gh[:, k]
                                + np.swapaxes(cg[:, k] * eS[:, k, ..., None], -1, -2) @ gy[:, k])
            # y = M X + exp(S) (C h_in), with M = (C B^T) o L o dt_s
            A = (gy @ np.swapaxes(xg, -1, -2)) * _decay(S, tri)
            gCB = A * dg[..., None, :]
            gdt = (A * CB).sum(axis=-2)
            E = gCB * CB
            gS = E.sum(axis=-1) - E.sum(axis=-2) + eS * ((cg @ h_in) * gy).sum(axis=-1)
            gc = gCB @ bg + eS[..., None] * (gy @ np.swapaxes(h_in, -1, -2))
            gx = np.swapaxes(M, -1, -2) @ gy + Dd.reshape(groups, r, 1, 1) * gy
            gb = np.swapaxes(gCB, -1, -2) @ cg
            # h_out = exp(S_end) h_in + sum_s to_end_s dt_s outer(b_s, x_s)
            xgh = xg @ np.swapaxes(gh, -1, -2)
            gx += (to_end * dg)[..., None] * (bg @ gh)
            gb += (to_end * dg)[..., None] * xgh
            gw = (bg * xgh).sum(axis=-1) * to_end
            gdt += gw
            gS -= gw * dg
            gS[..., -1] += (gw * dg).sum(axis=-1) + eS[..., -1] * (gh * h_in).sum(axis=(-2, -1))
            gD = (gy * xg).sum(axis=(0, 1, 4, 5)).reshape(heads)
            grads = [_unchunked(gx.sum(axis=3, keepdims=True), t),
                     _unchunked(gb.sum(axis=3, keepdims=True), t), _unchunked(gc, t),
                     _unchunked(np.cumsum(gS[..., ::-1], axis=-1)[..., ::-1], t), gD,
                     _unchunked(gdt, t)]
            return tuple(grads)
    return _make(y.reshape(n, t, heads, d_h), parents, vjp, "ssm_scan"), h_last


# ---------------------------------------------------------------------------
# shape surgery


def getitem(a: Tensor, idx) -> Tensor:
    """A slice of ``a``: a view of it, recorded or not."""
    vjp = None
    if _recording((a,)):
        shape, dtype = a.shape, a.dtype

        def vjp(g):
            ga = np.zeros(shape, dtype=dtype)
            ga[idx] += g
            return (ga,)
    return _make(a.data[idx], (a,), vjp, "getitem")


def reshape(a: Tensor, shape) -> Tensor:
    vjp = None
    if _recording((a,)):
        orig = a.shape

        def vjp(g):
            return (g.reshape(orig),)
    return _make(a.data.reshape(shape), (a,), vjp, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    """Permuted axes of ``a``: a view of it, recorded or not."""
    axes = tuple(axes)
    vjp = None
    if _recording((a,)):
        def vjp(g):
            return (g.transpose(np.argsort(axes)),)
    return _make(a.data.transpose(axes), (a,), vjp, "transpose")


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(parts)
    vjp = None
    if _recording(parts):
        def vjp(g):
            splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
            return tuple(np.split(g, splits, axis=axis))
    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, vjp, "concat")


def cached_rows(rows: np.ndarray, new: Tensor) -> Tensor:
    """The (b, T, ...) rows of a decode cache, whose last t rows hold ``new`` (b, t, ...).

    ``rows`` is a view of the grown cache's buffer, read in place, recorded or
    not. The earlier rows are graph constants; the gradient of the last t rows
    goes to ``new``.
    """
    vjp = None
    if _recording((new,)):
        t = new.shape[1]

        def vjp(g):
            return (g[:, -t:],)
    return _make(rows, (new,), vjp, "cache")


def repeat(a: Tensor, times: int, axis: int) -> Tensor:
    """Repeat each slice along an axis ``times`` times (GQA head sharing)."""
    vjp = None
    if _recording((a,)):
        n = a.shape[axis]
        ax = axis % a.ndim

        def vjp(g):
            new_shape = g.shape[:ax] + (n, times) + g.shape[ax + 1 :]
            return (g.reshape(new_shape).sum(axis=ax + 1),)
    return _make(np.repeat(a.data, times, axis=axis), (a,), vjp, "repeat")


def _check_ids(ids: np.ndarray, n: int, op: str) -> None:
    """Refuse ids outside [0, n); numpy would raise IndexError or wrap a negative one."""
    if ids.size:  # the reductions, not ndarray.min/max and their Python wrappers
        lo, hi = np.minimum.reduce(ids, None), np.maximum.reduce(ids, None)
        if lo < 0 or hi >= n:
            raise KernelError(f"{op} ids must lie in [0, {n}), got {lo}..{hi}")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` by integer id array; scatter-add on backward."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise KernelError("embedding ids must be integers")
    _check_ids(ids, table.shape[0], "embedding")
    vjp = None
    if _recording((table,)):
        vshape = table.shape

        def vjp(g):
            gt = np.zeros(vshape, dtype=table.dtype)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, vshape[-1]))
            return (gt,)
    return _make(table.data[ids], (table,), vjp, "embedding")


def take_last_axis(a: Tensor, ids: np.ndarray) -> Tensor:
    """Select one entry per row along the last axis (label gather)."""
    ids = np.asarray(ids)
    _check_ids(ids, a.shape[-1], "take_last_axis")
    vjp = None
    if _recording((a,)):
        shape, dtype = a.shape, a.dtype

        def vjp(g):
            ga = np.zeros(shape, dtype=dtype)
            lead = np.ix_(*[np.arange(n) for n in shape[:-1]])
            np.add.at(ga, lead + (ids,), g)
            return (ga,)
    return _make(np.take_along_axis(a.data, ids[..., None], axis=-1)[..., 0], (a,), vjp,
                 "take_last_axis")


# ---------------------------------------------------------------------------
# parameters and reverse-mode driver


class ParamStore:
    """Named parameter registry: dotted path -> Tensor, every one trainable."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, path: str, t: Tensor) -> Tensor:
        if path in self._entries:
            raise KernelError(f"duplicate parameter path {path!r}")
        t.requires_grad = True
        self._entries[path] = t
        return t

    def trainable_items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._entries.items())


def _walked(g):
    """The vjp a walked node keeps: its graph is gone, so it has no gradient to pass on."""
    raise GraphError("graph node was already walked by an earlier backward")


def backward(loss: Tensor, params: ParamStore) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a recorded scalar loss, walking its graph once.

    Returns one gradient array per trainable parameter; parameters that do not
    participate in the graph get zeros of the matching shape. The walk frees
    the graph as it goes: once a node has passed its gradient on, it drops its
    parents and its vjp closure, and with them the arrays the closure saved.
    So the loss holds no graph when this returns, and a later ``backward``
    that meets a walked node, as its loss or inside its graph, raises
    ``GraphError`` rather than treat the node as a constant.
    """
    if loss.data.shape != ():
        raise GraphError("loss must be a scalar")

    # iterative topological order over the recorded graph
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _walked:
            _walked(None)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    while topo:  # popped in reverse topological order, so each node is freed once walked
        node = topo.pop()
        if not node._parents:
            continue  # leaf: keep its accumulated grad for collection below
        parents, vjp = node._parents, node._vjp
        node._parents, node._vjp = (), _walked
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if vjp is None:
            raise GraphError("graph node has parents but no recorded primitive")
        parent_grads = vjp(g)
        for parent, pg in zip(parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg

    out: dict[str, np.ndarray] = {}
    for path, t in params.trainable_items():
        g = grads.get(id(t))
        out[path] = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=t.dtype)
    return out


# ---------------------------------------------------------------------------
# truncated SVD


@dataclass
class SvdFactors:
    """Rank-r factorization A ~ U @ diag(S) @ V.T with a fixed sign convention."""

    U: Tensor
    S: Tensor
    V: Tensor

    def __post_init__(self):
        s = self.S.data
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise KernelError("singular values must be non-negative and non-increasing")

    def reconstruct(self) -> np.ndarray:
        return (self.U.data * self.S.data) @ self.V.data.T


def svd_truncated(a, r: int) -> SvdFactors:
    """Best rank-r approximation factors of a 2-d matrix (Frobenius-optimal).

    Deterministic: each U column is flipped, together with its V column, so
    that its first nonzero entry is non-negative.
    """
    ad = a.data if isinstance(a, Tensor) else np.asarray(a)
    if ad.ndim != 2:
        raise KernelError("svd_truncated expects a 2-d matrix")
    _check_finite(ad, "svd_truncated")
    m, n = ad.shape
    if not 1 <= r <= min(m, n):
        raise KernelError(f"rank {r} out of range for {m}x{n} matrix")
    try:
        u, s, vt = np.linalg.svd(ad, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise KernelError(f"svd failed to converge: {exc}") from None
    u, s, v = u[:, :r], s[:r], vt[:r].T
    for j in range(r):
        col = u[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(v)
    return SvdFactors(U=Tensor(u), S=Tensor(s), V=Tensor(v))
