"""Outside-in instrumentation of hybridforge for the benchmark.

Nothing here edits the package. Each instrumented function is replaced, in
every hybridforge module namespace that binds it (so ``from .x import f``
callers and ``nk.f`` callers are both covered), by a wrapper that times the
call. Class methods are patched on the class. ``uninstall`` puts every
original back.

Two instruments:

- ``StepClock`` times optimizer steps of the training loop. It adds two
  clock reads per step and is the only patch active in untraced runs.
- ``Tracer`` records a span per call at each layer boundary (name, start,
  end, parent span, request id, thread) and counts at the same boundaries.
  Primitive ops of ``numkernel`` are too many to keep one span each, so they
  are aggregated in place. A span's self time is its duration minus the part
  of it that its child calls cover, on any thread: work a span hands to a
  thread pool of the package gets that span as its parent.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from hybridforge import (attention, cli, compose, distill, harness,  # noqa: F401
                         numkernel, smart, ssm, upcycle)

# Primitives that build a graph node through numkernel._make.
OPS = ("add", "neg", "mul", "matmul", "texp", "tlog", "sigmoid", "silu", "softplus",
       "tsum", "softmax", "log_softmax", "rms_norm", "conv1d_depthwise", "rope_rotate",
       "getitem", "reshape", "transpose", "concat", "repeat", "embedding",
       "take_last_axis")
# Ops reported one by one; the rest only enter the totals.
REPORTED_OPS = ("matmul", "add", "mul", "concat", "getitem", "reshape", "transpose",
                "repeat", "softmax", "rms_norm")

_PACKAGE_MODULES = [m for name, m in sorted(sys.modules.items())
                    if name == "hybridforge" or name.startswith("hybridforge.")]


class _Patches:
    """Replace a callable everywhere callers look it up; undo on request."""

    def __init__(self):
        self._undo = []

    def function(self, fn, make_wrapper) -> None:
        wrapper = make_wrapper(fn)
        for mod in _PACKAGE_MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def method(self, cls, attr, make_wrapper) -> None:
        fn = cls.__dict__[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, make_wrapper(fn))

    def undo(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


class StepClock:
    """Wall time of each optimizer step, keyed by the stage the caller names.

    A step runs from the request for its batch to the end of its Adam update,
    which covers forward, loss, backward and update.
    """

    def __init__(self):
        self.stage = "train"
        self.samples = defaultdict(list)
        self._start = None
        self._patches = _Patches()

    def install(self) -> None:
        clock = self

        def wrap_train(fn):
            def timed_batches(batches):
                it = iter(batches)
                while True:
                    clock._start = perf_counter()
                    try:
                        batch = next(it)
                    except StopIteration:
                        return
                    yield batch

            def _train(model, batches, *args, **kwargs):
                return fn(model, timed_batches(batches), *args, **kwargs)
            return _train

        def wrap_update(fn):
            def update(self, *args, **kwargs):
                out = fn(self, *args, **kwargs)
                if clock._start is not None:
                    clock.samples[clock.stage].append(perf_counter() - clock._start)
                    clock._start = None
                return out
            return update

        self._patches.function(distill._train, wrap_train)
        self._patches.method(distill.AdamState, "update", wrap_update)

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Spans and counts at the public boundaries of every hybridforge layer."""

    def __init__(self):
        self.rid = None            # request / stage id shared by a unit's spans
        self.spans = []            # (id, name, start, end, parent, rid, thread)
        self.stats = defaultdict(lambda: [0, 0.0])   # name -> calls, self time
        self.counts = defaultdict(float)
        self.samples = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = _Patches()
        self._sensitivity_depth = 0

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list:
        """This thread's open spans, as frames [child seconds, span id, intervals].

        Children on the frame's own thread add up their durations while
        ``intervals`` is None. Once the span has handed work to a pool, the
        list exists and every child, on any thread, adds its (start, end)
        instead, so that children running at once count once.
        """
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _in_training(self) -> bool:
        return getattr(self._local, "training", 0) > 0

    def span(self, name, fn, args, kwargs, keep=True, after=None):
        """Run fn inside a span; ``after(out, dur)`` sees the result."""
        st = self._stack()
        up = st[-1] if st else None
        parent = up[1] if up else None
        if keep:
            with self._lock:
                sid = self._next_id
                self._next_id += 1
        else:
            sid = parent
        frame = [0.0, sid, None]
        st.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            st.pop()
            dur = t1 - t0
            if up is not None and up[2] is None:
                up[0] += dur
            with self._lock:
                if up is not None and up[2] is not None:
                    up[2].append((t0, t1))
                covered = frame[0] + (_covered(frame[2], t0, t1) if frame[2] else 0.0)
                rec = self.stats[name]
                rec[0] += 1
                rec[1] += dur - covered
                if keep:
                    self.spans.append((sid, name, t0, t1, parent, self.rid,
                                       threading.current_thread().name))
        if after is not None:
            after(out, dur)
        return out

    def _wrap(self, name, keep=True, after=None, name_of=None):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                n = name_of(args) if name_of else name
                a = (lambda out, dur: after(args, out, dur)) if after else None
                return tracer.span(n, fn, args, kwargs, keep, a)
            return wrapper
        return make

    def _op_wrapper(self, op):
        tracer = self
        name = f"numkernel.{op}"

        def make(fn):
            def wrapper(*args, **kwargs):
                out = tracer.span(name, fn, args, kwargs, keep=False)
                with tracer._lock:
                    tracer.counts["numkernel.out_bytes"] += out.data.nbytes
                    if numkernel.grad_enabled():
                        tracer.counts["numkernel.grad_op_calls"] += 1
                return out
            return wrapper
        return make

    def _pool_class(self, base):
        """A thread pool whose tasks run as children of the submitting span."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                st = tracer._stack()
                seed = None
                if st:
                    up = st[-1]
                    if up[2] is None:
                        up[2] = []
                    seed = [0.0, up[1], up[2]]

                def task(*a, **kw):
                    tracer._local.stack = [seed] if seed else []
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.stack = []
                return super().submit(task, *args, **kwargs)
        return TracedPool

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        p = self._patches
        tracer = self

        p.function(ThreadPoolExecutor, self._pool_class)

        for op in OPS:
            p.function(getattr(numkernel, op), self._op_wrapper(op))

        def count_init(fn):
            def __init__(self, *args, **kwargs):
                fn(self, *args, **kwargs)
                with tracer._lock:
                    tracer.counts["numkernel.tensor_inits"] += 1
            return __init__
        p.method(numkernel.Tensor, "__init__", count_init)

        def training_time(key):
            def after(args, out, dur):
                if tracer._in_training():
                    with tracer._lock:
                        tracer.counts[key] += dur
            return after

        p.function(numkernel.backward,
                   self._wrap("numkernel.backward", after=training_time("distill.backward_s")))

        def mla_after(args, out, dur):
            H, cache = args[0], (args[4] if len(args) > 4 else None)
            if cache is not None and H.shape[0] == 1:
                with tracer._lock:
                    tracer.samples["mla_decode"].append((cache.t, dur))
        p.function(attention.mha_forward, self._wrap("attention.mha_forward"))
        p.function(attention.mla_forward, self._wrap("attention.mla_forward", after=mla_after))

        def ssm_phase(args):
            if numkernel.grad_enabled():
                return "ssm.train"
            return "ssm.prefill" if args[0].shape[-2] > 1 else "ssm.decode"

        def ssm_after(args, out, dur):
            if not numkernel.grad_enabled() and args[0].shape[-2] == 1:
                with tracer._lock:
                    tracer.samples["ssm_decode"].append(dur)
        p.function(ssm.mamba2_forward_seq, self._wrap(None, name_of=ssm_phase, after=ssm_after))

        forward_time = training_time("distill.forward_s")

        def forward_after(args, out, dur):
            forward_time(args, out, dur)
            if tracer._sensitivity_depth:
                with tracer._lock:
                    tracer.counts["smart.forward_calls"] += 1
        p.method(compose.HybridModel, "forward",
                 self._wrap("compose.forward", after=forward_after))
        p.method(compose.HybridModel, "forward_cached", self._wrap("compose.forward_cached"))

        def checkpoint_after(args, out, dur):
            with tracer._lock:
                tracer.counts["compose.checkpoint_bytes"] += os.path.getsize(args[1])
        p.function(compose.save_checkpoint,
                   self._wrap("compose.save_checkpoint", after=checkpoint_after))
        for fn in (compose.load_checkpoint, compose.convert_model, compose.assemble):
            p.function(fn, self._wrap(f"compose.{fn.__name__}"))
        for fn in (upcycle.init_mla_from_attention, upcycle.init_mamba2_from_attention):
            p.function(fn, self._wrap(f"upcycle.{fn.__name__}"))

        def adam_update(fn):
            inner = self._wrap("distill.update", after=training_time("distill.optimizer_s"))(fn)

            def update(opt, *args, **kwargs):
                with tracer._lock:
                    tracer.counts["distill.steps"] += 1
                return inner(opt, *args, **kwargs)
            return update
        p.method(distill.AdamState, "update", adam_update)

        def train_loop(fn):
            inner = self._wrap("distill._train")(fn)

            def _train(*args, **kwargs):
                tracer._local.training = getattr(tracer._local, "training", 0) + 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer._local.training -= 1
            return _train
        p.function(distill._train, train_loop)

        def sensitivity(fn):
            inner = self._wrap("smart.score_sensitivity")(fn)

            def score_sensitivity(*args, **kwargs):
                data = args[3] if len(args) > 3 else kwargs["data"]
                with tracer._lock:
                    tracer.counts["smart.batches"] += len(data)
                tracer._sensitivity_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    tracer._sensitivity_depth -= 1
            return score_sensitivity
        p.function(smart.score_sensitivity, sensitivity)
        p.function(smart.smart_select, self._wrap("smart.smart_select"))
        for fn in (harness.sequences, harness.eval_model, harness.train_teacher):
            p.function(fn, self._wrap(f"harness.{fn.__name__}"))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results ---------------------------------------------------------------

    def root(self, name: str, rid, fn, *args, **kwargs):
        """Run fn as a top-level span of the benchmark's own loop."""
        self.rid = rid
        return self.span(name, fn, args, kwargs, keep=True)

    def metrics(self) -> dict:
        """Per-layer numbers named as in BENCHMARK.json (without ``cli.*``)."""
        s, c = self.stats, self.counts
        m = {}
        op_names = [f"numkernel.{op}" for op in OPS]
        m["numkernel.op_calls"] = sum(s[n][0] for n in op_names if n in s)
        m["numkernel.op_self_s"] = sum(s[n][1] for n in op_names if n in s)
        for key in ("numkernel.out_bytes", "numkernel.tensor_inits",
                    "numkernel.grad_op_calls"):
            m[key] = c[key]
        for op in REPORTED_OPS:
            rec = s.get(f"numkernel.{op}", [0, 0.0])
            m[f"numkernel.{op}.calls"] = rec[0]
            m[f"numkernel.{op}.self_s"] = rec[1]
        for name in ("numkernel.backward", "attention.mha_forward", "attention.mla_forward",
                     "ssm.train", "ssm.prefill", "ssm.decode",
                     "compose.forward", "compose.forward_cached"):
            rec = s.get(name, [0, 0.0])
            m[f"{name}.calls"] = rec[0]
            m[f"{name}.self_s"] = rec[1]
        dec = self.samples["mla_decode"]
        m["attention.mla_decode_ms_p50"] = (
            1e3 * statistics.median(d for _, d in dec) if dec else 0.0)
        m["attention.mla_decode_us_per_pos"] = 1e6 * _slope(dec)
        sd = self.samples["ssm_decode"]
        m["ssm.decode_ms_p50"] = 1e3 * statistics.median(sd) if sd else 0.0
        for name in ("compose.save_checkpoint", "compose.load_checkpoint",
                     "compose.convert_model", "compose.assemble",
                     "upcycle.init_mla_from_attention", "upcycle.init_mamba2_from_attention",
                     "smart.score_sensitivity", "smart.smart_select",
                     "harness.sequences", "harness.eval_model", "harness.train_teacher"):
            m[f"{name}.self_s"] = s.get(name, [0, 0.0])[1]
        m["compose.checkpoint_bytes"] = c["compose.checkpoint_bytes"]
        m["distill.steps"] = c["distill.steps"]
        for key in ("distill.forward_s", "distill.backward_s", "distill.optimizer_s"):
            m[key] = c[key]
        m["smart.forward_calls_per_batch"] = (
            c["smart.forward_calls"] / c["smart.batches"] if c["smart.batches"] else 0.0)
        return m

    def write(self, path: str) -> None:
        """Dump every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, rid, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "rid": rid, "thread": thread}) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _slope(points) -> float:
    """Least-squares slope of duration against cache length (0 if undefined)."""
    if len(points) < 2:
        return 0.0
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    if np.ptp(x) == 0:
        return 0.0
    return float(np.polyfit(x, y, 1)[0])
