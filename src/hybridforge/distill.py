"""Distillation losses and training loops.

Two alignment signals move knowledge from the attention teacher into a
converted student: a per-layer mean-squared error between the token-mixer
sublayer outputs of the two stacks (both teacher-forced on the same tokens),
and a token-wise forward KL between output distributions. Both loops share
one optimizer (Adam-style moments, beta2 deliberately low at 0.8, no weight
decay) and one schedule (linear warmup into cosine decay), and both are
bit-deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from . import numkernel as nk
from .numkernel import ParamStore, Tensor

__all__ = [
    "TrainConfig",
    "Batch",
    "DivergenceError",
    "ild_loss",
    "kd_loss",
    "run_ild",
    "run_kd",
    "AdamState",
    "lr_at",
]

# Adam moment decays, beta2 deliberately low, and the denominator's epsilon
BETAS = (0.9, 0.8)
ADAM_EPS = 1e-8
# share of a run's steps spent in linear warmup; a run always warms up for one step or more
WARMUP_FRACTION = 0.01


class DivergenceError(Exception):
    """Training loss or weights became non-finite; the run is aborted, not papered over."""


@dataclass
class TrainConfig:
    steps: int = 200
    learning_rate: float = 3e-3
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")


@dataclass
class Batch:
    """Token ids (batch, seq); next-token targets are the ids shifted left."""

    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x)
        if self.x.ndim != 2 or self.x.shape[1] < 2:
            raise ValueError("batch must be (batch, seq) with seq >= 2")
        if not np.issubdtype(self.x.dtype, np.integer):
            raise ValueError("token ids must be integers")

    @property
    def inputs(self) -> np.ndarray:
        return self.x[:, :-1]

    @property
    def targets(self) -> np.ndarray:
        return self.x[:, 1:]


# ---------------------------------------------------------------------------
# losses


def ild_loss(teacher_layer_outputs: list, student_layer_outputs: list) -> Tensor:
    """Sum over layers of per-layer MSE between mixer sublayer outputs.

    Each layer term is the squared L2 norm over features, averaged over batch
    and tokens; the teacher side is treated as a constant target.
    """
    if len(teacher_layer_outputs) != len(student_layer_outputs):
        raise ValueError("layer count mismatch")
    if not teacher_layer_outputs:
        raise ValueError("need at least one layer")
    total = None
    for t_out, s_out in zip(teacher_layer_outputs, student_layer_outputs):
        if t_out.shape != s_out.shape:
            raise ValueError(f"layer shape mismatch {t_out.shape} vs {s_out.shape}")
        diff = nk.add(s_out, Tensor(-np.asarray(t_out.data)))
        term = nk.tmean(nk.tsum(nk.mul(diff, diff), axis=-1))
        total = term if total is None else nk.add(total, term)
    return total


def kd_loss(teacher_logits: Tensor, student_logits: Tensor) -> Tensor:
    """Forward KL(teacher || student), summed over positions, averaged over batch."""
    if teacher_logits.shape != student_logits.shape:
        raise ValueError("logit shape mismatch")
    t_logp = nk.log_softmax(Tensor(np.asarray(teacher_logits.data)), axis=-1)
    s_logp = nk.log_softmax(student_logits, axis=-1)
    p = Tensor(np.exp(t_logp.data))  # teacher side carries no gradient
    per_token = nk.tsum(nk.mul(p, nk.add(Tensor(t_logp.data), nk.neg(s_logp))), axis=-1)
    if per_token.ndim == 1:  # single unbatched sequence
        return nk.tsum(per_token)
    batch = per_token.shape[0]
    return nk.mul(nk.tsum(per_token), 1.0 / batch)


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass
class AdamState:
    """Adam moments per parameter path; betas ``BETAS``, no weight decay."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def update(self, params: ParamStore, grads: dict, lr: float) -> None:
        self.step += 1
        b1, b2 = BETAS
        for path, t in params.trainable_items():
            g = grads[path]
            m = self.m.get(path)
            if m is None:
                m = np.zeros_like(t.data)
                self.m[path] = m
                self.v[path] = np.zeros_like(t.data)
            v = self.v[path]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.step)
            vhat = v / (1 - b2**self.step)
            t.data -= (lr * mhat / (np.sqrt(vhat) + ADAM_EPS)).astype(t.dtype)


def lr_at(step: int, tc: TrainConfig) -> float:
    """Linear warmup over the first WARMUP_FRACTION of steps, then cosine decay."""
    warm = max(int(round(tc.steps * WARMUP_FRACTION)), 1)
    if step < warm:
        return tc.learning_rate * (step + 1) / warm
    if tc.steps <= warm:
        return tc.learning_rate
    frac = (step - warm) / (tc.steps - warm)
    return tc.learning_rate * 0.5 * (1.0 + np.cos(np.pi * frac))


def _log(label: str, step: int, loss: float, lr: float, t0: float, log) -> None:
    if log is None:
        return
    line = f"{label} step {step} loss {loss:.6f} lr {lr:.3e} wall {time.monotonic() - t0:.1f}s"
    print(line, file=log)


# ---------------------------------------------------------------------------
# training loops


def _train(model, batches, tc, loss_fn, label, log):
    """Shared loop: forward, loss, backward, Adam step, divergence guard.

    The guard raises ``DivergenceError`` for a non-finite loss or gradient, and
    for an update that leaves a parameter non-finite, naming the step and the
    first such parameter path, so no caller gets a diverged model back.
    """
    if tc.steps == 0:
        return model
    params = model.param_store()
    opt = AdamState()
    t0 = time.monotonic()
    for step, batch in zip(range(tc.steps), batches):  # range first: no batch past the last step
        try:
            loss = loss_fn(model, batch)
            val = loss.item()
            if not np.isfinite(val):
                raise DivergenceError(f"{label} loss non-finite at step {step}")
            grads = nk.backward(loss, params)
        except nk.KernelError as exc:
            # the kernel rejects non-finite values at the op that makes them
            raise DivergenceError(f"{label} step {step}: {exc}") from exc
        lr = lr_at(step, tc)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            opt.update(params, grads, lr)
        bad = next((path for path, t in params.trainable_items()
                    if not np.isfinite(t.data).all()), None)
        if bad is not None:
            raise DivergenceError(f"{label} step {step}: the update made {bad} non-finite")
        if tc.log_every and (step % tc.log_every == 0 or step == tc.steps - 1):
            _log(label, step, val, lr, t0, log)
    return model


def run_ild(teacher, student, data: Iterable[Batch], tc: TrainConfig, log=None):
    """Align every student mixer sublayer to the teacher's, training all params.

    Both stacks run teacher-forced on the same token ids; gradients flow into
    every student parameter that contributes to any mixer output (the MLP of
    the last block sits after the final alignment point and is updated only by
    the later end-to-end phase).
    """
    _check_family(teacher, student)
    kinds = set(student.cfg.layer_kinds)
    if len(kinds) != 1:
        raise ValueError("layer alignment expects a single-kind student")

    def loss_fn(model, batch):
        with nk.no_grad():
            _, t_outs = teacher.forward(batch.inputs, collect_mixer_outputs=True)
        _, s_outs = model.forward(batch.inputs, collect_mixer_outputs=True)
        return ild_loss(t_outs, s_outs)

    return _train(student, data, tc, loss_fn, "ild", log)


def run_kd(teacher, student, data: Iterable[Batch], tc: TrainConfig, log=None):
    """Match the student's token distributions to the teacher's everywhere."""
    _check_family(teacher, student)

    def loss_fn(model, batch):
        with nk.no_grad():
            t_logits = teacher.forward(batch.inputs)
        s_logits = model.forward(batch.inputs)
        return kd_loss(t_logits, s_logits)

    return _train(student, data, tc, loss_fn, "kd", log)


def _check_family(teacher, student) -> None:
    for f in ("L", "d", "vocab"):
        if getattr(teacher.cfg, f) != getattr(student.cfg, f):
            raise ValueError(f"teacher/student disagree on cfg.{f}")
