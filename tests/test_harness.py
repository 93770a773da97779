"""Harness tests: stream determinism, teacher training, evaluation, bench."""

import json

import numpy as np
import pytest

from hybridforge.attention import KIND_MAMBA2, KIND_MLA, MLAConfig, ModelConfig
from hybridforge.compose import build_model, convert_model, kv_report
from hybridforge.distill import TrainConfig
from hybridforge.harness import (
    EvalReport,
    SynthSpec,
    batches,
    bench,
    bench_csv,
    bench_rows,
    cross_entropy,
    eval_model,
    greedy_decode,
    is_copy_position,
    sequences,
    stream_splits,
    toy_mla_config,
    toy_model_config,
    train_teacher,
    unigram_perplexity,
)
from hybridforge.numkernel import Tensor
from hybridforge.smart import HybridLayout


def small_spec(**kw):
    base = dict(vocab=64, seq_len=33, copy_span=8, copy_every=4, buckets=64, seed=7)
    base.update(kw)
    return SynthSpec(**base)


def small_cfg(**kw):
    base = dict(L=2, d=32, n_h=4, n_kv=2, d_h=8, vocab=64)
    base.update(kw)
    return ModelConfig(**base)


# -- stream generation -------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(vocab=1)
    with pytest.raises(ValueError):
        SynthSpec(seq_len=1)
    with pytest.raises(ValueError):
        SynthSpec(copy_span=4)  # must exceed the widest conv kernel
    with pytest.raises(ValueError):
        SynthSpec(copy_every=1)


def test_stream_deterministic_per_spec():
    spec = small_spec()
    assert np.array_equal(sequences(spec, 0, 4), sequences(spec, 0, 4))
    other = small_spec(seed=8)
    assert not np.array_equal(sequences(spec, 0, 4), sequences(other, 0, 4))


def test_stream_windows_are_independent():
    # any window regenerates identically without generating its predecessors
    spec = small_spec()
    whole = sequences(spec, 0, 8)
    assert np.array_equal(sequences(spec, 5, 3), whole[5:])
    assert np.array_equal(sequences(spec, 2, 2), whole[2:4])


def test_planted_copies_hold_everywhere():
    spec = small_spec()
    tokens = sequences(spec, 0, 40)
    marked = [t for t in range(spec.seq_len) if is_copy_position(spec, t)]
    assert marked  # the sequence length admits marked positions
    for t in marked:
        assert np.array_equal(tokens[:, t], tokens[:, t - spec.copy_span])
    # unmarked positions are genuinely stochastic, not copies in disguise
    free = [t for t in range(spec.copy_span, spec.seq_len) if not is_copy_position(spec, t)]
    diffs = sum(
        int(not np.array_equal(tokens[:, t], tokens[:, t - spec.copy_span]))
        for t in free
    )
    assert diffs > len(free) // 2


def test_token_histogram_covers_vocab():
    spec = SynthSpec(vocab=256, seq_len=128, seed=1)
    tokens = sequences(spec, 0, 800)  # ~1e5 tokens
    counts = np.bincount(tokens.ravel(), minlength=spec.vocab)
    assert tokens.size >= 100_000
    assert np.all(counts > 0)


def test_batches_and_split():
    spec = small_spec()
    parts = batches(spec, 0, 10, 4)
    assert [b.x.shape[0] for b in parts] == [4, 4, 2]
    splits = {name: batches(spec, start, n, 5)
              for name, (start, n) in stream_splits(50).items()}
    ild_tokens = np.concatenate([b.x for b in splits["ild"]])
    kd_tokens = np.concatenate([b.x for b in splits["kd"]])
    assert ild_tokens.shape[0] == 10  # leading 20% of the stream
    assert kd_tokens.shape[0] == 40
    assert np.array_equal(ild_tokens, sequences(spec, 0, 10))
    assert np.array_equal(kd_tokens, sequences(spec, 10, 40))


def test_gen_data_held_out_is_disjoint():
    spec = small_spec()
    splits = stream_splits(20)
    assert set(splits) == {"ild", "kd", "eval"}
    eval_tokens = np.concatenate([b.x for b in batches(spec, *splits["eval"], 4)])
    assert np.array_equal(eval_tokens, sequences(spec, 20, 2))


# -- teacher training -----------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 5, 64)))
    targets = np.zeros((2, 5), dtype=np.int64)
    assert cross_entropy(logits, targets).item() == pytest.approx(np.log(64), rel=1e-12)


def test_cross_entropy_matches_direct():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    p = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    want = -np.mean(np.log(np.take_along_axis(p, targets[..., None], axis=-1)))
    assert cross_entropy(Tensor(logits), targets).item() == pytest.approx(want, rel=1e-10)


def test_untrained_teacher_scores_vocab_perplexity():
    spec = small_spec()
    teacher = train_teacher(small_cfg(), [], TrainConfig(steps=0))
    report = eval_model(teacher, batches(spec, 0, 8, 4))
    assert report.perplexity == pytest.approx(64.0, rel=1e-6)


def test_train_teacher_rejects_mixed_stack():
    cfg = small_cfg(layer_kinds=[KIND_MLA, KIND_MAMBA2])
    with pytest.raises(ValueError):
        train_teacher(cfg, [], TrainConfig(steps=0))


def test_teacher_beats_unigram_baseline():
    spec = small_spec()
    train = batches(spec, 0, 64, 8)
    tc = TrainConfig(steps=150, learning_rate=3e-3, log_every=0)
    teacher = train_teacher(small_cfg(), train * 8, tc)
    ppl = eval_model(teacher, train).perplexity
    assert ppl < unigram_perplexity(train)
    assert ppl <= 64.0  # never worse than uniform on its own stream


def test_teacher_training_deterministic():
    spec = small_spec()
    train = batches(spec, 0, 16, 8)
    tc = TrainConfig(steps=10, learning_rate=3e-3, log_every=0)
    a = train_teacher(small_cfg(), train, tc)
    b = train_teacher(small_cfg(), train, tc)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.data, tb.data), name


# -- evaluation -------------------------------------------------------------------


def test_eval_model_self_kl_zero():
    spec = small_spec()
    teacher = train_teacher(small_cfg(), [], TrainConfig(steps=0))
    report = eval_model(teacher, batches(spec, 0, 4, 4), teacher=teacher)
    assert report.mean_kl_to_teacher == 0.0


def test_eval_model_validation():
    spec = small_spec()
    teacher = train_teacher(small_cfg(), [], TrainConfig(steps=0))
    with pytest.raises(ValueError):
        eval_model(teacher, [])
    big = batches(SynthSpec(vocab=128, seq_len=33, copy_span=8), 0, 4, 4)
    with pytest.raises(ValueError):
        eval_model(teacher, big)  # tokens outside the model vocab
    other = build_model(small_cfg(vocab=128), seed=0)
    with pytest.raises(ValueError):
        eval_model(teacher, batches(spec, 0, 4, 4), teacher=other)


def test_eval_report_json_round_trip():
    report = EvalReport(perplexity=12.5, mean_kl_to_teacher=0.25)
    again = EvalReport(**json.loads(report.to_json()))
    assert again == report
    assert json.loads(EvalReport(perplexity=12.5).to_json()) == {
        "perplexity": 12.5, "mean_kl_to_teacher": None}  # a KL without a teacher is null


def test_eval_report_rejects_bad_values():
    with pytest.raises(ValueError):
        EvalReport(perplexity=-1.0)
    with pytest.raises(ValueError):
        EvalReport(mean_kl_to_teacher=float("nan"))
    with pytest.raises(ValueError):
        EvalReport(perplexity=float("inf"))


def test_distilled_student_closes_held_out_kl():
    # paired evaluation on data disjoint from the training stream
    import itertools

    from hybridforge.distill import run_kd

    spec = small_spec()
    train = batches(spec, 0, 32, 8)
    held_out = batches(spec, 40, 8, 8)
    teacher = train_teacher(small_cfg(), train * 4,
                            TrainConfig(steps=120, learning_rate=3e-3, log_every=0))
    mcfg = MLAConfig(r_q=16, r_kv=4, d_qk=6, d_v=8, d_r=2)
    student = convert_model(teacher, KIND_MLA, mcfg)
    before = eval_model(student, held_out, teacher=teacher).mean_kl_to_teacher
    run_kd(teacher, student, itertools.islice(itertools.cycle(train), 40),
           TrainConfig(steps=40, learning_rate=1e-3, log_every=0))
    after = eval_model(student, held_out, teacher=teacher).mean_kl_to_teacher
    assert after < before


# -- benchmarks ----------------------------------------------------------------------


def bench_model(kind):
    cfg = small_cfg()
    mcfg = MLAConfig(r_q=16, r_kv=8, d_qk=6, d_v=8, d_r=2)
    teacher = build_model(cfg, seed=2, dtype=np.float32)
    if kind == "mamba":
        return convert_model(teacher, KIND_MAMBA2)
    return convert_model(teacher, KIND_MLA, mcfg)


def test_bench_validation():
    model = bench_model("mamba")
    with pytest.raises(ValueError):
        bench(model, 0, 4)
    with pytest.raises(ValueError):
        bench(model, 8, 0)


def test_bench_pure_ssm_stack_has_no_kv():
    row = bench(bench_model("mamba"), prompt_len=8, gen_len=5)
    assert row["gen_len"] == 5
    assert row["peak_cache_bytes"] == 0
    assert row["tokens_per_s"] > 0


def test_bench_peak_matches_kv_report():
    model = bench_model("mla")
    prompt_len, gen_len = 8, 5
    row = bench(model, prompt_len, gen_len)
    predicted = kv_report(
        model.cfg,
        HybridLayout(mla_indices=list(range(model.cfg.L))),
        model.mcfg,
        t=prompt_len + gen_len,
        elem_bytes=4,
    )
    assert row["peak_cache_bytes"] == predicted["total_kv_bytes"]


def test_greedy_decode_deterministic():
    model = bench_model("mla")
    prompt = np.arange(6) % 64
    ids_a, _, _, _ = greedy_decode(model, prompt, 12)
    ids_b, _, _, _ = greedy_decode(model, prompt, 12)
    assert np.array_equal(ids_a, ids_b)


def test_bench_csv_shape():
    model = bench_model("mamba")
    rows = bench_rows(model, prompt_len=4, gen_lens=[2, 4])
    text = bench_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "gen_len,tokens_per_s,peak_cache_bytes"
    assert len(lines) == 3
    assert lines[1].startswith("2,")
    assert lines[2].startswith("4,")
    assert lines[1].endswith(",0")
