"""Synthetic token streams, toy teacher training, evaluation, benchmarks.

The data generator is an order-2 bucket process: the pair of preceding
tokens hashes into a bucket whose small preferred-token table drives the
next draw, lightly mixed with uniform noise. On top of that, marked
positions copy the token from a fixed span back, planting a long-range
dependency much wider than any convolution kernel in the model family, so
recurrent and attention mixers are genuinely distinguishable on this
stream. Every sequence derives from its own counter-keyed generator, which
makes any window of the stream reproducible in isolation.

Benchmarks run the real cached decode path one token at a time on a single
thread and report medians over repetitions; everything except the
wall-clock figures is bit-deterministic per seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numkernel as nk
from . import distill
from .attention import KIND_MHA, MLAConfig, ModelConfig
from .compose import HybridModel, build_model
from .distill import Batch, TrainConfig, kd_loss
from .numkernel import Tensor
from .ssm import CONV_K

__all__ = [
    "SynthSpec",
    "EvalReport",
    "toy_model_config",
    "toy_mla_config",
    "sequences",
    "pack_batches",
    "batches",
    "stream_splits",
    "is_copy_position",
    "cross_entropy",
    "train_teacher",
    "unigram_perplexity",
    "eval_model",
    "bench",
    "bench_rows",
    "bench_csv",
    "greedy_decode",
]

# share of positions drawn uniformly at random instead of from the bucket table
MIX_UNIFORM = 0.05
# decode runs per bench row; the row reports their median throughput
BENCH_REPS = 3


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic character process."""

    vocab: int = 256
    seq_len: int = 128
    copy_span: int = 24
    copy_every: int = 6
    buckets: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2")
        # the planted copy must lie beyond the conv's reach, so no conv path shortcuts it
        if self.copy_span <= CONV_K:
            raise ValueError(f"copy_span must exceed the conv width {CONV_K}")
        if self.copy_every < 2:
            raise ValueError("copy_every must be >= 2")
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")


def toy_model_config(**overrides) -> ModelConfig:
    """Desk-scale stack: big enough that rank and placement choices matter."""
    base = dict(L=8, d=64, n_h=4, n_kv=2, d_h=16, vocab=256)
    base.update(overrides)
    return ModelConfig(**base)


def toy_mla_config(**overrides) -> MLAConfig:
    base = dict(r_q=48, r_kv=16, d_qk=12, d_v=16, d_r=4)
    base.update(overrides)
    return MLAConfig(**base)


# ---------------------------------------------------------------------------
# stream generation


def is_copy_position(spec: SynthSpec, t: int) -> bool:
    """Marked positions repeat the token copy_span steps back."""
    return t >= spec.copy_span and t % spec.copy_every == 0


def _bucket_tables(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-bucket preferred tokens and cumulative weights, fixed by the seed."""
    rng = np.random.default_rng([spec.seed, 0xB0C])
    top = min(4, spec.vocab)
    preferred = rng.integers(0, spec.vocab, size=(spec.buckets, top))
    weights = rng.random((spec.buckets, top)) + 0.25
    cumulative = np.cumsum(weights, axis=1)
    cumulative /= cumulative[:, -1:]
    return preferred, cumulative


def _bucket_of(spec: SynthSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # odd multipliers spread the token pair across buckets
    return (a * 2654435761 + b * 40503 + spec.seed * 97) % spec.buckets


def sequences(spec: SynthSpec, start: int, count: int) -> np.ndarray:
    """Token ids for stream sequences [start, start+count), shape (count, seq_len).

    Each sequence draws from default_rng([seed, index]), so any window of the
    stream regenerates identically without touching its neighbours.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    preferred, cumulative = _bucket_tables(spec)
    out = np.empty((count, spec.seq_len), dtype=np.int64)
    for row, index in enumerate(range(start, start + count)):
        rng = np.random.default_rng([spec.seed, index])
        # all randomness drawn up front so the position loop stays cheap
        u_mix = rng.random(spec.seq_len)
        u_pick = rng.random(spec.seq_len)
        uniform_draws = rng.integers(0, spec.vocab, size=spec.seq_len)
        x = out[row]
        x[:2] = uniform_draws[:2]
        for t in range(2, spec.seq_len):
            if is_copy_position(spec, t):
                x[t] = x[t - spec.copy_span]
            elif u_mix[t] < MIX_UNIFORM:
                x[t] = uniform_draws[t]
            else:
                bucket = _bucket_of(spec, x[t - 2], x[t - 1])
                slot = np.searchsorted(cumulative[bucket], u_pick[t])
                x[t] = preferred[bucket, slot]
    return out


def pack_batches(tokens: np.ndarray, batch_size: int) -> list[Batch]:
    """Consecutive batches of batch_size rows of (n, seq_len) tokens."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [Batch(tokens[i : i + batch_size]) for i in range(0, len(tokens), batch_size)]


def batches(spec: SynthSpec, start: int, count: int, batch_size: int) -> list[Batch]:
    """Consecutive stream sequences packed into (batch_size, seq_len) batches."""
    return pack_batches(sequences(spec, start, count), batch_size)


def stream_splits(count: int) -> dict[str, tuple[int, int]]:
    """(start, count) stream window of each split over ``count`` training sequences.

    The leading fifth is for layer alignment ("ild"), the rest for KD ("kd");
    the held-out window ("eval") starts right after them, disjoint from both.
    """
    n_align = count // 5
    return {"ild": (0, n_align), "kd": (n_align, count - n_align),
            "eval": (count, max(count // 10, 1))}


# ---------------------------------------------------------------------------
# teacher training


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean next-token negative log-likelihood over every position."""
    logp = nk.log_softmax(logits)
    picked = nk.take_last_axis(logp, np.asarray(targets))
    return nk.neg(nk.tmean(picked))


def train_teacher(
    cfg: ModelConfig,
    data: Iterable[Batch],
    tc: TrainConfig,
    log=None,
) -> HybridModel:
    """Cross-entropy train a fresh float32 attention-only stack on the stream."""
    if any(kind != KIND_MHA for kind in cfg.layer_kinds):
        raise ValueError("teacher must be attention-only")
    model = build_model(cfg, seed=tc.seed)

    def loss_fn(m, batch):
        return cross_entropy(m.forward(batch.inputs), batch.targets)

    return distill._train(model, data, tc, loss_fn, "teacher", log)


def unigram_perplexity(data: Sequence[Batch]) -> float:
    """Perplexity of the best context-free model of the same tokens."""
    tokens = np.concatenate([b.targets.ravel() for b in data])
    counts = np.bincount(tokens)
    freqs = counts[tokens] / tokens.size
    return float(np.exp(-np.mean(np.log(freqs))))


# ---------------------------------------------------------------------------
# evaluation


@dataclass
class EvalReport:
    """Quality summary; a KL without a teacher stays None."""

    perplexity: Optional[float] = None
    mean_kl_to_teacher: Optional[float] = None

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value is None:
                continue
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def eval_model(
    model: HybridModel,
    data: Sequence[Batch],
    teacher: Optional[HybridModel] = None,
) -> EvalReport:
    """Teacher-forced perplexity, plus mean per-token KL when a teacher is given."""
    data = list(data)
    if not data:
        raise ValueError("need at least one evaluation batch")
    top = max(int(b.x.max()) for b in data)
    if top >= model.cfg.vocab:
        raise ValueError(f"token id {top} outside model vocab {model.cfg.vocab}")
    if teacher is not None and teacher.cfg.vocab != model.cfg.vocab:
        raise ValueError("teacher/model vocab mismatch")

    ce_vals = []
    kl_vals = []
    with nk.no_grad():
        for batch in data:
            logits = model.forward(batch.inputs)
            ce_vals.append(cross_entropy(logits, batch.targets).item())
            if teacher is not None:
                t_logits = teacher.forward(batch.inputs)
                positions = batch.inputs.shape[1]
                kl_vals.append(kd_loss(t_logits, logits).item() / positions)
    kl = float(np.mean(kl_vals)) if teacher is not None else None
    # KL of near-identical models can round epsilon-negative; clamp to the domain
    if kl is not None and kl < 0:
        kl = 0.0
    return EvalReport(perplexity=float(np.exp(np.mean(ce_vals))), mean_kl_to_teacher=kl)


# ---------------------------------------------------------------------------
# throughput and cache benchmarks


def greedy_decode(
    model: HybridModel,
    prompt: np.ndarray,
    gen_len: int,
) -> tuple[np.ndarray, np.ndarray, float, list]:
    """Cached prefill + one-token-at-a-time argmax decode.

    Returns (generated ids, per-token decode seconds, prefill seconds, caches).
    """
    caches = model.init_caches()
    out = np.empty(gen_len, dtype=np.int64)
    times = np.empty(gen_len)
    with nk.no_grad():
        t0 = time.perf_counter()
        logits, caches = model.forward_cached(np.asarray(prompt), caches)
        prefill_s = time.perf_counter() - t0
        last = int(np.argmax(logits.data[-1]))
        for j in range(gen_len):
            t0 = time.perf_counter()
            logits, caches = model.forward_cached(np.array([last]), caches)
            times[j] = time.perf_counter() - t0
            last = int(np.argmax(logits.data[-1]))
            out[j] = last
    return out, times, prefill_s, caches


def bench(model: HybridModel, prompt_len: int, gen_len: int, seed: int = 0) -> dict:
    """One ``bench_csv`` row: median single-sequence decode throughput over
    ``BENCH_REPS`` runs and the peak cache footprint."""
    if prompt_len < 1 or gen_len < 1:
        raise ValueError("prompt_len and gen_len must be >= 1")
    prompt = np.random.default_rng([seed, 0]).integers(0, model.cfg.vocab, size=prompt_len)
    decode_times = []
    peak = 0
    for _ in range(BENCH_REPS):
        _, times, _, caches = greedy_decode(model, prompt, gen_len)
        decode_times.append(times.sum())
        kv, _ = model.cache_bytes(caches)
        peak = max(peak, kv)  # caches only grow
    return {"gen_len": int(gen_len),
            "tokens_per_s": gen_len / float(np.median(decode_times)),
            "peak_cache_bytes": int(peak)}


def bench_rows(model: HybridModel, prompt_len: int, gen_lens: Sequence[int],
               seed: int = 0) -> list[dict]:
    return [bench(model, prompt_len, g, seed=seed) for g in gen_lens]


def bench_csv(rows: Sequence[dict]) -> str:
    lines = ["gen_len,tokens_per_s,peak_cache_bytes"]
    for row in rows:
        lines.append(f"{row['gen_len']},{row['tokens_per_s']:.3f},{row['peak_cache_bytes']}")
    return "\n".join(lines) + "\n"
