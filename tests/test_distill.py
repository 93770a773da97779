"""Distillation tests: loss closed forms, optimizer behaviour, training loops."""

import io
import tracemalloc

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge import distill
from hybridforge.attention import KIND_MHA, KIND_MLA, KIND_MAMBA2, MLAConfig, ModelConfig
from hybridforge.compose import build_model, convert_model
from hybridforge.distill import (
    AdamState,
    Batch,
    DivergenceError,
    TrainConfig,
    ild_loss,
    kd_loss,
    lr_at,
    run_ild,
    run_kd,
)
from hybridforge.harness import cross_entropy, train_teacher
from hybridforge.numkernel import ParamStore, Tensor, backward, tensor
from oracle_helpers import check_grads


# -- layer alignment loss ------------------------------------------------------


def test_ild_identical_outputs_is_zero():
    rng = np.random.default_rng(0)
    outs = [Tensor(rng.normal(size=(2, 5, 7))) for _ in range(3)]
    copies = [Tensor(o.data.copy()) for o in outs]
    assert ild_loss(outs, copies).item() == 0.0


def test_ild_closed_form():
    # teacher at zero, student at one: each layer term is the feature count
    t = [Tensor(np.zeros((2, 5, 7))), Tensor(np.zeros((2, 5, 7)))]
    s = [Tensor(np.ones((2, 5, 7))), Tensor(np.ones((2, 5, 7)))]
    assert ild_loss(t, s).item() == pytest.approx(14.0)
    # scaling one student feature plane scales only its layer's term
    s2 = [Tensor(np.ones((2, 5, 7)) * 2.0), Tensor(np.ones((2, 5, 7)))]
    assert ild_loss(t, s2).item() == pytest.approx(4 * 7 + 7)


def test_ild_matches_direct_mse():
    rng = np.random.default_rng(3)
    t = [Tensor(rng.normal(size=(3, 4, 6))) for _ in range(2)]
    s = [Tensor(rng.normal(size=(3, 4, 6))) for _ in range(2)]
    want = sum(((a.data - b.data) ** 2).sum(axis=-1).mean() for a, b in zip(t, s))
    assert ild_loss(t, s).item() == pytest.approx(want, rel=1e-12)


def test_ild_input_validation():
    a = [Tensor(np.zeros((2, 3, 4)))]
    with pytest.raises(ValueError):
        ild_loss(a, [])
    with pytest.raises(ValueError):
        ild_loss([], [])
    with pytest.raises(ValueError):
        ild_loss(a, [Tensor(np.zeros((2, 3, 5)))])


def test_ild_gradient():
    rng = np.random.default_rng(11)
    store = ParamStore()
    s1 = store.add("s1", tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64))
    s2 = store.add("s2", tensor(rng.normal(size=(2, 3, 4)), dtype=np.float64))
    t1 = Tensor(rng.normal(size=(2, 3, 4)))
    t2 = Tensor(rng.normal(size=(2, 3, 4)))
    check_grads(lambda p: ild_loss([t1, t2], [s1, s2]), store)


# -- distribution matching loss -------------------------------------------------


def test_kd_identical_logits_is_zero():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(2, 5, 9)))
    assert kd_loss(logits, Tensor(logits.data.copy())).item() == 0.0


def test_kd_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = Tensor(rng.normal(size=(2, 4, 8)) * 3)
        s = Tensor(rng.normal(size=(2, 4, 8)) * 3)
        assert kd_loss(t, s).item() >= 0.0


def test_kd_matches_direct_formula():
    # plain softmax arithmetic, no shared log-softmax helper
    rng = np.random.default_rng(4)
    t = rng.normal(size=(3, 6, 5))
    s = rng.normal(size=(3, 6, 5))
    p = np.exp(t) / np.exp(t).sum(axis=-1, keepdims=True)
    q = np.exp(s) / np.exp(s).sum(axis=-1, keepdims=True)
    want = (p * (np.log(p) - np.log(q))).sum(axis=-1).sum() / 3
    assert kd_loss(Tensor(t), Tensor(s)).item() == pytest.approx(want, rel=1e-10)


def test_kd_batched_averages_over_batch():
    rng = np.random.default_rng(5)
    t1, s1 = rng.normal(size=(4, 7)), rng.normal(size=(4, 7))
    t2, s2 = rng.normal(size=(4, 7)), rng.normal(size=(4, 7))
    single = kd_loss(Tensor(t1), Tensor(s1)).item() + kd_loss(Tensor(t2), Tensor(s2)).item()
    both = kd_loss(Tensor(np.stack([t1, t2])), Tensor(np.stack([s1, s2]))).item()
    assert both == pytest.approx(single / 2, rel=1e-12)


def test_kd_gradient_student_only():
    rng = np.random.default_rng(6)
    store = ParamStore()
    s = store.add("s", tensor(rng.normal(size=(2, 4, 6)), dtype=np.float64))
    t = store.add("t", tensor(rng.normal(size=(2, 4, 6)), dtype=np.float64))
    loss = kd_loss(nk.mul(t, 1.0), nk.mul(s, 1.0))
    grads = backward(loss, store)
    assert np.all(grads["t"] == 0.0)  # teacher side is detached
    assert np.any(grads["s"] != 0.0)
    t_const = t.data.copy()
    student_only = ParamStore()
    student_only.add("s", s)
    check_grads(lambda p: kd_loss(Tensor(t_const), nk.mul(s, 1.0)), student_only)


def test_kd_shape_mismatch():
    with pytest.raises(ValueError):
        kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


# -- optimizer and schedule ------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    store = ParamStore()
    t = store.add("w", tensor(np.zeros(4), dtype=np.float64))
    opt = AdamState()
    g = np.array([1.0, -2.0, 0.5, -0.1])
    opt.update(store, {"w": g}, lr=0.01)
    # bias correction makes the first step lr * g / (|g| + eps)
    assert np.allclose(t.data, -0.01 * np.sign(g), atol=1e-6)


def test_adam_zero_grad_is_exact_noop():
    store = ParamStore()
    t = store.add("w", tensor(np.array([1.0, 2.0]), dtype=np.float64))
    before = t.data.copy()
    opt = AdamState()
    for _ in range(3):
        opt.update(store, {"w": np.zeros(2)}, lr=0.5)
    assert np.array_equal(t.data, before)


def test_adam_moments_follow_betas():
    store = ParamStore()
    t = store.add("w", tensor(np.zeros(1), dtype=np.float64))
    opt = AdamState()
    opt.update(store, {"w": np.array([2.0])}, lr=0.0)  # lr 0: moments move, weights do not
    assert opt.m["w"][0] == pytest.approx(0.1 * 2.0)
    assert opt.v["w"][0] == pytest.approx(0.2 * 4.0)
    assert t.data[0] == 0.0


def test_lr_schedule_shape():
    tc = TrainConfig(steps=1000, learning_rate=1.0)  # warms up for 1% of steps: 10
    assert lr_at(0, tc) == pytest.approx(0.1)
    assert lr_at(9, tc) == pytest.approx(1.0)
    assert lr_at(10, tc) == pytest.approx(1.0)
    assert lr_at(505, tc) == pytest.approx(0.5)  # cosine midpoint
    ramp = [lr_at(s, tc) for s in range(10)]
    decay = [lr_at(s, tc) for s in range(10, 1000)]
    assert all(a < b for a, b in zip(ramp, ramp[1:]))
    assert all(a >= b for a, b in zip(decay, decay[1:]))
    assert decay[-1] >= 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    for lr in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)


def test_batch_validation_and_views():
    b = Batch(np.arange(18).reshape(2, 9))
    assert b.inputs.shape == (2, 8)
    assert np.array_equal(b.targets, b.x[:, 1:])
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        Batch(np.arange(6))


# -- training loops ---------------------------------------------------------------


def family(dtype=np.float64):
    cfg = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=24)
    mcfg = MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)
    teacher = build_model(cfg, seed=3, dtype=dtype)
    rng = np.random.default_rng(9)
    teacher.head.data[...] = (rng.normal(size=teacher.head.shape) * 0.4).astype(dtype)
    return cfg, mcfg, teacher, rng


def batches(rng, vocab, count, shape=(2, 9)):
    return [Batch(rng.integers(0, vocab, size=shape)) for _ in range(count)]


def mean_kd(teacher, student, data):
    with nk.no_grad():
        vals = [
            kd_loss(teacher.forward(b.inputs), student.forward(b.inputs)).item()
            for b in data
        ]
    return float(np.mean(vals))


def mean_ild(teacher, student, data):
    with nk.no_grad():
        vals = []
        for b in data:
            _, t_outs = teacher.forward(b.inputs, collect_mixer_outputs=True)
            _, s_outs = student.forward(b.inputs, collect_mixer_outputs=True)
            vals.append(ild_loss(t_outs, s_outs).item())
    return float(np.mean(vals))


def test_zero_steps_returns_model_untouched():
    cfg, mcfg, teacher, rng = family()
    student = convert_model(teacher, KIND_MLA, mcfg)
    before = [(n, t.data.copy()) for n, t in student.named_tensors()]
    out = run_kd(teacher, student, batches(rng, 24, 3), TrainConfig(steps=0))
    assert out is student
    for (name, data), (_, t) in zip(before, student.named_tensors()):
        assert np.array_equal(data, t.data), name


def test_kd_fixed_point_has_vanishing_gradient():
    # an identical student sits at the loss minimum: the loss is exactly zero
    # and every parameter gradient is at rounding level (the optimizer is
    # scale-free, so training from here amplifies that rounding noise rather
    # than holding parameters bitwise fixed; stability is not claimed)
    cfg, mcfg, teacher, rng = family()
    student = teacher.clone()
    batch = batches(rng, 24, 1)[0]
    params = student.param_store()
    with nk.no_grad():
        t_logits = teacher.forward(batch.inputs)
    loss = kd_loss(t_logits, student.forward(batch.inputs))
    assert loss.item() == 0.0
    grads = backward(loss, params)
    assert max(np.abs(g).max() for g in grads.values()) < 1e-12


def test_kd_reduces_loss():
    cfg, mcfg, teacher, rng = family()
    student = teacher.clone()
    student.head.data[...] = 0.0  # flat output distribution to start from
    data = batches(rng, 24, 4)
    before = mean_kd(teacher, student, data)
    run_kd(teacher, student, data * 10, TrainConfig(steps=30, learning_rate=3e-2, log_every=0))
    after = mean_kd(teacher, student, data)
    assert before > 0.01
    assert after < 0.5 * before


def test_ild_reduces_loss_latent_attention_student():
    cfg, mcfg, teacher, rng = family()
    student = convert_model(teacher, KIND_MLA, mcfg, random_seed=77)
    data = batches(rng, 24, 4)
    before = mean_ild(teacher, student, data)
    run_ild(teacher, student, data * 10, TrainConfig(steps=25, learning_rate=1e-2, log_every=0))
    after = mean_ild(teacher, student, data)
    assert after < before


def test_ild_reduces_loss_ssm_student():
    cfg, mcfg, teacher, rng = family()
    student = convert_model(teacher, KIND_MAMBA2, random_seed=78)
    data = batches(rng, 24, 3, shape=(2, 7))
    before = mean_ild(teacher, student, data)
    run_ild(teacher, student, data * 10, TrainConfig(steps=15, learning_rate=1e-2, log_every=0))
    after = mean_ild(teacher, student, data)
    assert after < before


def test_ild_rejects_mixed_student():
    cfg, mcfg, teacher, rng = family()
    mixed_cfg = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=24,
                            layer_kinds=[KIND_MLA, KIND_MAMBA2])
    student = build_model(mixed_cfg, mcfg, seed=0, dtype=np.float64)
    with pytest.raises(ValueError):
        run_ild(teacher, student, batches(rng, 24, 1), TrainConfig(steps=1))


def test_family_mismatch_rejected():
    cfg, mcfg, teacher, rng = family()
    other = build_model(ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32),
                        seed=0, dtype=np.float64)
    with pytest.raises(ValueError):
        run_kd(teacher, other, batches(rng, 24, 1), TrainConfig(steps=1))


def test_training_is_deterministic():
    cfg, mcfg, teacher, rng = family()
    data = batches(rng, 24, 6)
    tc = TrainConfig(steps=6, learning_rate=1e-2, log_every=0)
    a = run_kd(teacher, teacher.clone(), list(data), tc)
    b = run_kd(teacher, teacher.clone(), list(data), tc)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name


def count_logged_steps(log_text):
    return sum(1 for line in log_text.splitlines() if " step " in line)


def test_data_exhaustion_stops_early():
    cfg, mcfg, teacher, rng = family()
    log = io.StringIO()
    tc = TrainConfig(steps=50, learning_rate=1e-3, log_every=1)
    run_kd(teacher, teacher.clone(), batches(rng, 24, 4), tc, log=log)
    assert count_logged_steps(log.getvalue()) == 4


def test_divergence_guard_aborts():
    cfg, mcfg, teacher, rng = family(dtype=np.float32)
    student = teacher.clone()
    student.head.data[...] = 0.0
    tc = TrainConfig(steps=20, learning_rate=1e12, log_every=0)
    with pytest.raises(DivergenceError):
        run_kd(teacher, student, batches(rng, 24, 20), tc)


def test_divergence_guard_checks_the_weights_after_each_update():
    # the loss of step 0 is finite; its update leaves every weight non-finite
    cfg = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=24)
    data = batches(np.random.default_rng(10), 24, 1)
    tc = TrainConfig(steps=1, learning_rate=1e39, log_every=0)
    with pytest.raises(DivergenceError, match=r"^teacher step 0: the update made embed non-finite$"):
        train_teacher(cfg, data, tc)


def test_training_holds_one_graph_at_a_time():
    # backward frees each step's graph, so step k's graph is gone before step
    # k + 1 records its own: three steps peak near one recorded step, not two
    cfg = ModelConfig(L=4, d=32, n_h=4, n_kv=2, d_h=8, vocab=64)
    model = build_model(cfg, seed=0)
    data = batches(np.random.default_rng(11), 64, 3, shape=(4, 33))
    params = model.param_store()  # makes every weight trainable, so forward records

    def loss_fn(m, batch):
        return cross_entropy(m.forward(batch.inputs), batch.targets)

    tracemalloc.start()
    try:
        backward(loss_fn(model, data[0]), params)
        one_step = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        distill._train(model, data, TrainConfig(steps=3, log_every=0), loss_fn, "teacher", None)
        three_steps = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert three_steps <= 1.5 * one_step, (three_steps, one_step)
