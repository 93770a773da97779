"""The three benchmark workloads, each driven through hybridforge's public API.

Every workload has the same life cycle, run by ``run.py``:

- ``setup()`` builds everything the timed loop needs from the seed, then warms
  up once; it is repeated ``setup_reps`` times and timed as set-up.
- ``check()`` runs correctness checks that are too slow for every request.
- ``unit(tracer, repeat)`` runs one timed unit (a pipeline pass or one
  request), checks its output, and records samples into ``self.samples``.
  With ``repeat`` it runs the same unit as last time.
- ``metrics()`` reduces the samples to end-to-end metrics as
  ``{name: (value, n)}`` (``run.py`` adds set-up and memory, and the units
  from BENCHMARK.json) plus report-only metrics with their units.
  ``layer_metrics()`` gives the per-layer numbers the benchmark's own loop
  measures; ``tracer.Tracer`` gives the rest.

All loops are closed with one client: the next unit starts when the previous
one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

from hybridforge import cli, compose, smart
from hybridforge import numkernel as nk
from hybridforge.attention import KIND_MAMBA2, KIND_MLA, kv_bytes
from hybridforge.harness import toy_mla_config, toy_model_config
from hybridforge.smart import HybridLayout


class CheckFailed(Exception):
    """The program's output was wrong; the run fails."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)
    return float(ordered[k])


def stat(value, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def loop_layer_metrics(stage_walls: dict, steps: dict, cache_bytes_per_token: float) -> dict:
    """Per-layer numbers timed by the benchmark's loop; 0 where a layer never runs."""
    m = {"attention.cache_bytes_per_token": cache_bytes_per_token}
    for key in TRAIN_STAGES.values():
        got = steps.get(key)
        m[f"distill.step_ms_p50.{key}"] = 1e3 * statistics.median(got) if got else 0.0
    for label in STAGES:
        m[f"cli.stage_s.{label}"] = stage_walls.get(label, 0.0)
    return m


# ---------------------------------------------------------------------------
# pipeline: the CLI stage chain


# Reference model and data size: large enough that kernels, not per-stage
# overhead, dominate. Step counts are a quarter of the reference (100/30/30),
# so that a run holds several passes and every stage is timed at several
# moments of the run.
PIPELINE_SIZE = {
    "model": {"L": 8, "d": 32, "n_h": 4, "n_kv": 2, "d_h": 8, "vocab": 64},
    "mla": {"r_q": 16, "r_kv": 8, "d_qk": 6, "d_v": 8, "d_r": 2},
    "count": 400, "batch_size": 8, "seq_len": 33,
    "teacher_steps": 25, "ild_steps": 8, "kd_steps": 8,
}
# Warm-up size (the end-to-end demo's): touches every stage, costs ~1 s.
WARMUP_SIZE = {
    "model": {"L": 4, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32},
    "mla": {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2},
    "count": 50, "batch_size": 4, "seq_len": 17,
    "teacher_steps": 6, "ild_steps": 6, "kd_steps": 6,
}
# Benchmark names of the twelve stage calls, in manifest order.
STAGES = ("gen-data", "train-teacher", "upcycle-mla", "upcycle-mamba2", "ild-mla",
          "ild-mamba2", "sensitivity", "smart-select", "compose", "distill", "eval",
          "kv-report")
TRAIN_STAGES = {"train-teacher": "teacher", "ild-mla": "ild_mla",
                "ild-mamba2": "ild_mamba2", "distill": "kd_hybrid"}
KV_TOKENS = 2048


def write_pipeline(root: str, size: dict, seed: int) -> str:
    """Write stage configs and a manifest under root; return the manifest path."""
    cfg_dir = os.path.join(root, "configs")
    os.makedirs(cfg_dir)

    def write(name, obj):
        with open(os.path.join(cfg_dir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)

    vocab = size["model"]["vocab"]
    train = {"learning_rate": 1e-3, "log_every": 0}
    write("data.json", {"count": size["count"], "batch_size": size["batch_size"],
                        "spec": {"vocab": vocab, "seq_len": size["seq_len"], "copy_span": 8,
                                 "copy_every": 4, "buckets": vocab}})
    write("teacher.json", {"model": size["model"], "data": "../out",
                           "train": dict(train, steps=size["teacher_steps"])})
    write("upcycle_mla.json", {"teacher": "../out/teacher.hfrg", "mla": size["mla"]})
    write("upcycle_mamba2.json", {"teacher": "../out/teacher.hfrg"})
    for kind in ("mla", "mamba2"):
        write(f"ild_{kind}.json", {"teacher": "../out/teacher.hfrg",
                                   "student": f"../out/student_{kind}.hfrg", "data": "../out",
                                   "train": dict(train, steps=size["ild_steps"])})
    write("sensitivity.json", {"teacher": "../out/teacher.hfrg",
                               "full_mla": "../out/student_mla_ild.hfrg",
                               "full_mamba": "../out/student_mamba2_ild.hfrg",
                               "data": "../out"})
    write("compose.json", {"mla": "../out/student_mla_ild.hfrg",
                           "mamba": "../out/student_mamba2_ild.hfrg",
                           "layout": "../out/layout.json"})
    write("distill.json", {"teacher": "../out/teacher.hfrg", "student": "../out/hybrid.hfrg",
                           "data": "../out", "train": dict(train, steps=size["kd_steps"])})
    write("eval.json", {"model": "../out/hybrid_kd.hfrg", "teacher": "../out/teacher.hfrg",
                        "data": "../out"})
    write("kv.json", {"model": size["model"], "mla": size["mla"]})

    def entry(stage, outputs, **kw):
        return dict(stage=stage, out="out", seed=seed,
                    outputs=[f"out/{o}" for o in outputs], **kw)

    stages = [
        entry("gen-data", ["ild.npy", "kd.npy", "eval.npy", "meta.json"],
              config="configs/data.json"),
        entry("train-teacher", ["teacher.hfrg"], config="configs/teacher.json"),
        entry("upcycle", ["student_mla.hfrg"], config="configs/upcycle_mla.json", kind="mla"),
        entry("upcycle", ["student_mamba2.hfrg"], config="configs/upcycle_mamba2.json",
              kind="mamba2"),
        entry("ild", ["student_mla_ild.hfrg"], config="configs/ild_mla.json"),
        entry("ild", ["student_mamba2_ild.hfrg"], config="configs/ild_mamba2.json"),
        entry("sensitivity", ["sensitivity.json"], config="configs/sensitivity.json",
              jobs=2),
        entry("smart-select", ["layout.json"], scores="out/sensitivity.json", n=2),
        entry("compose", ["hybrid.hfrg"], config="configs/compose.json"),
        entry("distill", ["hybrid_kd.hfrg"], config="configs/distill.json"),
        entry("eval", ["eval.json"], config="configs/eval.json"),
        entry("kv-report", ["kv_report.json"], config="configs/kv.json",
              layout="out/layout.json", tokens=KV_TOKENS),
    ]
    path = os.path.join(root, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stages": stages}, fh, indent=2)
    return path


def call_stage(cmd) -> tuple[int, str]:
    """One in-process CLI call; its stdout and stderr are kept, not shown."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(cmd)
    return rc, buf.getvalue()


class Pipeline:
    name = "pipeline"
    trace_setup = False  # a pass upcycles and composes by itself; the warm-up is smaller
    setup_reps = 7       # about 1 s each, import included

    def __init__(self, seed: int, work_dir: str, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.reset_samples()

    def reset_samples(self) -> None:
        self.samples = {"pass_s": [], "stage_s": {s: [] for s in STAGES},
                        "train": [], "steps": {k: [] for k in TRAIN_STAGES.values()},
                        "pass_step_s": {k: [] for k in TRAIN_STAGES.values()},
                        "scoring": [], "eval": None}

    def _run(self, size: dict, tracer=None, timed=False) -> dict:
        """One pass of every stage in a fresh directory; returns stage walls."""
        root = tempfile.mkdtemp(prefix="pipeline-", dir=self.work_dir)
        try:
            manifest = cli.load_manifest(write_pipeline(root, size, self.seed))
            walls = {}
            for label, cmd in zip(STAGES, manifest.commands()):
                self.clock.stage = TRAIN_STAGES.get(label, label)
                if timed:
                    self.attempted += 1
                t0 = perf_counter()
                try:
                    if tracer is not None:
                        rc, log = tracer.root(f"cli.stage.{label}", label, call_stage, cmd)
                    else:
                        rc, log = call_stage(cmd)
                except Exception:
                    rc, log = "by raising", traceback.format_exc()
                walls[label] = perf_counter() - t0
                if rc != 0:
                    if timed:
                        self.failed += 1
                    sys.stderr.write(log)
                    raise CheckFailed(f"stage {label} exited {rc}")
            self._check(manifest, root, size)
            return walls
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _check(self, manifest, root: str, size: dict) -> None:
        undone = [stage for stage, done in manifest.status() if not done]
        if undone:
            raise CheckFailed(f"stages without their outputs: {undone}")
        out = os.path.join(root, "out")
        for name in sorted(os.listdir(out)):
            if name.endswith(".hfrg"):
                compose.load_checkpoint(os.path.join(out, name))  # CRC-checked
        with open(os.path.join(out, "layout.json"), encoding="utf-8") as fh:
            layout = HybridLayout.from_json(fh.read())
        layout.validate(size["model"]["L"])
        if layout.N != 2:
            raise CheckFailed(f"layout has {layout.N} attention layers, want 2")
        with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        kl, ppl = report["mean_kl_to_teacher"], report["perplexity"]
        if not (math.isfinite(kl) and math.isfinite(ppl) and kl >= 0 and ppl >= 1):
            raise CheckFailed(f"eval out of range: {report}")
        self._last_eval = report

    def setup(self) -> None:
        self._run(WARMUP_SIZE)

    def check(self) -> None:
        pass  # every pass is checked in unit()

    def unit(self, tracer=None, repeat=False) -> None:
        """One timed pass; every pass with one seed is the same, so ``repeat`` is moot."""
        for samples in self.clock.samples.values():
            samples.clear()
        walls = self._run(PIPELINE_SIZE, tracer, timed=True)
        size = PIPELINE_SIZE
        if self.samples["eval"] is None:
            self.samples["eval"] = self._last_eval
        elif self.samples["eval"] != self._last_eval:
            raise CheckFailed("two passes with one seed evaluated differently")
        self.samples["pass_s"].append(sum(walls.values()))
        for label, wall in walls.items():
            self.samples["stage_s"][label].append(wall)
        tokens_per_step = size["batch_size"] * size["seq_len"]
        steps = sum(len(self.clock.samples[k]) for k in TRAIN_STAGES.values())
        self.samples["train"].append(
            (steps * tokens_per_step, sum(walls[s] for s in TRAIN_STAGES)))
        for key in TRAIN_STAGES.values():
            self.samples["steps"][key].extend(self.clock.samples[key])
            self.samples["pass_step_s"][key].append(statistics.fmean(self.clock.samples[key]))
        # Sensitivity scores L+1 models (all-SSM plus each single swap) and eval
        # scores one, each over every token of the eval split.
        eval_tokens = max(size["count"] // 10, 1) * (size["seq_len"] - 1)
        scored = (size["model"]["L"] + 2) * eval_tokens
        self.samples["scoring"].append(
            (scored, walls["sensitivity"] + walls["eval"]))

    def metrics(self) -> tuple[dict, dict]:
        s = self.samples
        n = len(s["pass_s"])
        by_stage = [[1e3 * x for x in v] for v in s["steps"].values()]
        n_steps = sum(map(len, by_stage))
        # Gated (see "Noise" in README.md). Every training stage weighs the
        # same; their step times differ 6-fold.
        step_ms = 1e3 * statistics.fmean(statistics.median(v)
                                         for v in s["pass_step_s"].values())
        scoring_tok_s = sum(t for t, _ in s["scoring"]) / sum(w for _, w in s["scoring"])
        contract = {
            "step_ms": (step_ms, n_steps),
            "forward_tok_s": (scoring_tok_s, n),
        }
        # Reported.
        train_tok_s = sum(t for t, _ in s["train"]) / sum(w for _, w in s["train"])
        pipeline_s = statistics.fmean(s["pass_s"])
        report = {
            "pipeline_s": stat(pipeline_s, "s", n),
            "train_tok_s": stat(train_tok_s, "tok/s", n_steps),
            "step_ms_p50": stat(statistics.fmean(percentile(v, 50) for v in by_stage),
                                "ms", n_steps),
            "step_ms_p90": stat(statistics.fmean(percentile(v, 90) for v in by_stage),
                                "ms", n_steps),
            "eval_kl": stat(s["eval"]["mean_kl_to_teacher"], "nats/token", 1),
            "eval_ppl": stat(s["eval"]["perplexity"], "-", 1),
        }
        for label, walls in s["stage_s"].items():
            report[f"cli.stage_s.{label}"] = stat(statistics.median(walls), "s", len(walls))
        return contract, report

    def layer_metrics(self) -> dict:
        walls = {k: statistics.median(v) for k, v in self.samples["stage_s"].items() if v}
        return loop_layer_metrics(walls, self.samples["steps"], 0.0)


# ---------------------------------------------------------------------------
# decode workloads: cached generation from one client


# Decode steps per window of the gated step time: the shortest windows,
# about 50-100 ms, give the steadiest best figure.
STEP_WINDOW = 8


class Decode:
    """Greedy generation with ``forward_cached``, one request at a time."""

    trace_setup = True  # models are converted and assembled in setup only
    # About 0.2 s each, import included: one is a sample of a fraction of a
    # second on a machine whose speed shifts over seconds.
    setup_reps = 15

    def __init__(self, seed: int, work_dir: str, clock):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.cache_bytes_per_token = 0.0
        self._queue = None
        self._last = None
        self.reset_samples()

    def reset_samples(self) -> None:
        self.samples = {"request_s": [], "ttft_s": [], "prefill": [], "itl_s": []}

    def build(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.model, self.layout = self.build()
        self.request(np.arange(16) % self.model.cfg.vocab, 4)  # warm-up

    def _teacher(self):
        """A seeded attention teacher with a non-zero head, so logits differ."""
        cfg = toy_model_config()
        teacher = compose.build_model(cfg, seed=self.seed, dtype=np.float32)
        rng = np.random.default_rng([self.seed, 1])
        teacher.head.data[...] = (rng.standard_normal(teacher.head.shape)
                                  / np.sqrt(cfg.d)).astype(np.float32)
        return teacher

    def request(self, prompt: np.ndarray, gen_len: int) -> dict:
        """Prefill then ``gen_len`` single-token greedy steps; returns timings."""
        model = self.model
        itl = np.empty(gen_len)
        with nk.no_grad():
            caches = model.init_caches(model.embed.dtype)
            t0 = perf_counter()
            logits, caches = model.forward_cached(prompt, caches)
            t_prefill = perf_counter()
            last = int(np.argmax(logits.data[-1]))
            t_first = perf_counter()
            for j in range(gen_len):
                t = perf_counter()
                logits, caches = model.forward_cached(np.array([last]), caches)
                last = int(np.argmax(logits.data[-1]))
                itl[j] = perf_counter() - t
            t_end = perf_counter()
        self._check_cache(caches, prompt.size + gen_len)
        return {"prefill_s": t_prefill - t0, "ttft_s": t_first - t0, "itl_s": itl,
                "request_s": t_end - t0}

    def _check_cache(self, caches, t: int) -> None:
        """Cache bytes must equal the kv_bytes / kv_report accounting for t tokens."""
        model = self.model
        kv, ssm_bytes = model.cache_bytes(caches)
        elem = model.embed.dtype.itemsize
        want_kv = sum(kv_bytes(kind, model.cfg, model.mcfg if kind == KIND_MLA else None,
                               t, elem) for kind in model.cfg.layer_kinds)
        want_ssm = compose.kv_report(model.cfg, self.layout, model.mcfg, t,
                                     elem_bytes=elem)["ssm_state_bytes"]
        if (kv, ssm_bytes) != (want_kv, want_ssm):
            raise CheckFailed(f"cache bytes {(kv, ssm_bytes)} after {t} tokens, "
                              f"accounting says {(want_kv, want_ssm)}")
        self.cache_bytes_per_token = kv / t

    def check(self) -> None:
        """Cached decode of a float64 copy matches one full forward to 1e-5."""
        model64 = self.model.astype(np.float64)
        rng = np.random.default_rng([self.seed, 2])
        ids = rng.integers(0, model64.cfg.vocab, size=24)
        with nk.no_grad():
            full = model64.forward(ids).data
            caches = model64.init_caches(np.float64)
            rows = []
            logits, caches = model64.forward_cached(ids[:16], caches)
            rows.append(logits.data)
            for tok in ids[16:]:
                logits, caches = model64.forward_cached(np.array([tok]), caches)
                rows.append(logits.data)
        diff = float(np.abs(np.concatenate(rows) - full).max())
        if not diff <= 1e-5:
            raise CheckFailed(f"cached decode differs from full forward by {diff:.3e}")

    def requests(self):
        raise NotImplementedError

    def unit(self, tracer=None, repeat=False) -> None:
        if self._queue is None:
            self._queue = self.requests()
        if not repeat:
            self._last = next(self._queue)
        prompt, gen_len = self._last
        self.attempted += 1
        rid = self.attempted
        try:
            if tracer is not None:
                r = tracer.root("request", rid, self.request, prompt, gen_len)
            else:
                r = self.request(prompt, gen_len)
        except Exception:
            self.failed += 1
            raise
        s = self.samples
        s["request_s"].append(r["request_s"])
        s["ttft_s"].append(r["ttft_s"])
        s["prefill"].append((prompt.size, r["prefill_s"]))
        s["itl_s"].extend(r["itl_s"])

    def metrics(self) -> tuple[dict, dict]:
        s = self.samples
        n = len(s["request_s"])
        itl_ms = [1e3 * x for x in s["itl_s"]]
        ttft_ms = [1e3 * x for x in s["ttft_s"]]
        # Gated: the fastest STEP_WINDOW consecutive decode steps, and the
        # fastest prefill (see "Noise" in README.md).
        windows = np.convolve(itl_ms, np.ones(STEP_WINDOW) / STEP_WINDOW, "valid")
        contract = {
            "step_ms": (float(windows.min()), len(itl_ms)),
            "forward_tok_s": (max(p / t for p, t in s["prefill"]), n),
        }
        # Reported: means and percentiles over the whole run.
        report = {
            "request_s": stat(statistics.fmean(s["request_s"]), "s", n),
            "ttft_ms_p50": stat(percentile(ttft_ms, 50), "ms", n),
            "ttft_ms_p90": stat(percentile(ttft_ms, 90), "ms", n),
            "itl_ms_p50": stat(percentile(itl_ms, 50), "ms", len(itl_ms)),
            "itl_ms_p99": stat(percentile(itl_ms, 99), "ms", len(itl_ms)),
            "decode_tok_s": stat(len(itl_ms) / (sum(itl_ms) / 1e3), "tok/s", len(itl_ms)),
            "prefill_tok_s": stat(sum(p for p, _ in s["prefill"])
                                  / sum(t for _, t in s["prefill"]), "tok/s", n),
        }
        return contract, report

    def layer_metrics(self) -> dict:
        return loop_layer_metrics({}, {}, self.cache_bytes_per_token)


class DecodeLong(Decode):
    """All-MLA student of the toy config; 1k-token prompt, 512 generated tokens.

    Generation stops at 512 tokens, not 1k, so that a run holds several
    requests: whole requests are the unit a run repeats.
    """

    name = "decode_long"
    PROMPT = 1024
    GEN = 512

    def build(self):
        teacher = self._teacher()
        student = compose.convert_model(teacher, KIND_MLA, toy_mla_config())
        return student, HybridLayout(list(range(student.cfg.L)))

    def requests(self):
        rng = np.random.default_rng([self.seed, 3])
        while True:
            yield rng.integers(0, self.model.cfg.vocab, size=self.PROMPT), self.GEN


class ServeShort(Decode):
    """N=2 hybrid of the toy config; many short requests."""

    name = "serve_short"
    BLOCK = 32           # request sizes are stratified within each block
    PROMPT = (16, 128)
    GEN = (8, 32)

    def build(self):
        teacher = self._teacher()
        mcfg = toy_mla_config()
        mla = compose.convert_model(teacher, KIND_MLA, mcfg)
        ssm = compose.convert_model(teacher, KIND_MAMBA2)
        scores = np.random.default_rng([self.seed, 4]).random(teacher.cfg.L)
        layout = smart.smart_select(scores, 2)
        return compose.assemble(mla, ssm, layout), layout

    def requests(self):
        rng = np.random.default_rng([self.seed, 3])
        while True:
            # one draw per stratum keeps every block's size mix alike across seeds
            strata = (np.arange(self.BLOCK) + rng.random(self.BLOCK)) / self.BLOCK
            lo, hi = self.PROMPT
            prompts = (lo + strata * (hi - lo + 1)).astype(int)
            lo, hi = self.GEN
            gens = (lo + rng.permutation(strata) * (hi - lo + 1)).astype(int)
            for p, g in zip(rng.permutation(prompts), gens):
                yield rng.integers(0, self.model.cfg.vocab, size=p), int(g)


WORKLOADS = {w.name: w for w in (Pipeline, DecodeLong, ServeShort)}
