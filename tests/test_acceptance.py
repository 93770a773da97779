"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Each test prints `[criterion NN] PASS/FAIL` straight to the terminal (outside
pytest's capture) and then asserts, so a plain `pytest -v` run shows every
verdict with its measured margin and stated tolerance.
"""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hybridforge
from hybridforge import numkernel as nk
from hybridforge.attention import (
    KIND_MAMBA2,
    KIND_MHA,
    KIND_MLA,
    MLAConfig,
    ModelConfig,
    mla_forward,
)
from hybridforge.compose import (
    HybridModel,
    build_model,
    convert_model,
    kv_report,
)
from hybridforge.distill import Batch, TrainConfig, ild_loss, kd_loss, run_ild, run_kd
from hybridforge.harness import SynthSpec, batches, bench, greedy_decode, train_teacher
from hybridforge.numkernel import Tensor, svd_truncated, tensor
from hybridforge.smart import (
    HybridLayout,
    score_sensitivity,
    smart_select,
)
from hybridforge.ssm import SsmState, mamba2_forward_seq
from hybridforge.upcycle import init_mla_from_attention, init_random
from hybridforge.cli import load_manifest

from oracle_helpers import (enumerate_valid_configs, finite_diff_grad, reconstruct_kv,
                            reconstruct_query, reference_mamba2, reference_select)
from test_cli import pipeline_workspace
from test_upcycle import full_rank_mcfg, rand_attn


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


# the 16-layer reference sensitivity profile with known-good selections
SCORES_16 = np.array([
    1185.06, 382.73, 480.68, 350.95, 196.03, 367.82, 250.45, 114.44,
    238.10, 120.56, 323.23, 228.90, 168.69, 233.87, 624.03, 361.47,
])


def test_criterion_01_smart_golden_replay(capsys):
    t0 = time.perf_counter()
    ok = smart_select(SCORES_16, 4).mla_indices == [0, 5, 10, 14]
    ok &= smart_select(SCORES_16, 6).mla_indices == [0, 2, 5, 8, 11, 14]
    ok &= smart_select(SCORES_16, 8).mla_indices == [0, 2, 4, 6, 8, 10, 12, 14]

    cands4 = enumerate_valid_configs(0, 14, 4)
    ok &= cands4 == [(4, 9), (5, 9), (5, 10)]
    sums4 = [SCORES_16[list(c)].sum() for c in cands4]
    ok &= np.allclose(sums4, [316.59, 488.38, 691.05], atol=1e-6)

    cands6 = enumerate_valid_configs(0, 14, 6)
    ok &= cands6 == [(2, 5, 8, 11), (3, 5, 8, 11), (3, 6, 8, 11),
                     (3, 6, 9, 11), (3, 6, 9, 12)]
    sums6 = [SCORES_16[list(c)].sum() for c in cands6]
    ok &= np.allclose(sums6, [1315.5, 1185.77, 1068.4, 950.86, 890.65], atol=1e-6)
    ok &= abs(max(sums6) - 1315.5) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(capsys, 1, ok,
            f"all reference selections and candidate sums replay exactly "
            f"({elapsed*1e3:.1f} ms < 1 s)")


PUBLISHED_BUDGETS = [
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32, [0, 2, 4, 6, 8, 10, 12, 14], 7.81),
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32, [0, 2, 5, 8, 11, 14], 5.86),
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32, [0, 5, 10, 14], 3.91),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64,
     [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27], 4.69),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64, [0, 4, 8, 12, 16, 20, 24, 27], 2.68),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64, [0, 5, 11, 17, 22, 27], 2.01),
    (32, 4096, 32, 8, 128, 2048, 160, 64, 64,
     [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 31], 5.47),
    (32, 4096, 32, 8, 128, 2048, 160, 64, 64, [0, 4, 8, 13, 18, 23, 27, 31], 2.73),
]


def test_criterion_02_kv_cache_arithmetic(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for L, d, n_h, n_kv, d_h, r_q, r_kv, d_qk, d_r, indices, want in PUBLISHED_BUDGETS:
        cfg = ModelConfig(L=L, d=d, n_h=n_h, n_kv=n_kv, d_h=d_h, vocab=256)
        mcfg = MLAConfig(r_q=r_q, r_kv=r_kv, d_qk=d_qk, d_v=d_h, d_r=d_r)
        got = kv_report(cfg, HybridLayout(mla_indices=indices), mcfg,
                        t=2048)["percent_of_baseline"]
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 1.0
    verdict(capsys, 2, ok,
            f"all 8 published cache percentages reproduced, worst deviation "
            f"{worst:.4f} pp <= 0.01 ({elapsed*1e3:.1f} ms < 1 s)")


def test_criterion_03_svd_init_exactness(capsys):
    cfg = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)
    rng = np.random.default_rng(3)
    worst_full = 0.0
    worst_trunc = 0.0
    for draw in range(20):
        w = rand_attn(cfg, rng)
        mw = init_mla_from_attention(w, cfg, full_rank_mcfg(cfg))
        q_hat = reconstruct_query(mw, cfg, full_rank_mcfg(cfg))
        kv_hat, kv_src = reconstruct_kv(mw, w, cfg, full_rank_mcfg(cfg))
        worst_full = max(
            worst_full,
            np.linalg.norm(q_hat - w.W_Q.data) / np.linalg.norm(w.W_Q.data),
            np.linalg.norm(kv_hat - kv_src) / np.linalg.norm(kv_src),
        )
        r = (4, 8, 12)[draw % 3]
        mcfg_r = MLAConfig(r_q=10, r_kv=r, d_qk=2, d_v=cfg.d_h, d_r=2)
        mw_r = init_mla_from_attention(w, cfg, mcfg_r)
        kv_hat, kv_src = reconstruct_kv(mw_r, w, cfg, mcfg_r)
        got = np.linalg.norm(kv_hat - kv_src)
        best = np.linalg.norm(svd_truncated(kv_src, r).reconstruct() - kv_src)
        worst_trunc = max(worst_trunc, abs(got - best))
    ok = worst_full <= 1e-5 and worst_trunc <= 1e-10
    verdict(capsys, 3, ok,
            f"20 float64 draws: full-rank relative error {worst_full:.2e} <= 1e-5; "
            f"truncated error within {worst_trunc:.2e} <= 1e-10 of the optimal rank-r")


def _grad_worst(loss_fn, store) -> tuple[float, int]:
    analytic = nk.backward(loss_fn(store), store)
    numeric = finite_diff_grad(lambda p: loss_fn(p).item(), store, eps=1e-5)
    worst = 0.0
    coords = 0
    for path in analytic:
        scale = np.maximum(np.abs(numeric[path]), 1.0)
        worst = max(worst, (np.abs(analytic[path] - numeric[path]) / scale).max())
        coords += analytic[path].size
    return worst, coords


@pytest.mark.slow
def test_criterion_04_gradient_correctness(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    coords = 0

    # latent-attention mixer loss over every weight coordinate
    cfg = ModelConfig(L=1, d=12, n_h=2, n_kv=1, d_h=6, vocab=16)
    mcfg = MLAConfig(r_q=8, r_kv=5, d_qk=4, d_v=6, d_r=2)
    mw = init_random(KIND_MLA, cfg, mcfg, seed=0, dtype=np.float64)
    store = nk.ParamStore()
    for name, t in mw.items():
        store.add(name, t)
    h = tensor(rng.standard_normal((1, 3, cfg.d)), dtype=np.float64)
    target = rng.standard_normal((1, 3, cfg.d))

    def mla_loss(p):
        out, _ = mla_forward(h, mw, cfg, mcfg)
        diff = nk.add(out, nk.neg(Tensor(target)))
        return nk.tsum(nk.mul(diff, diff))

    w, c = _grad_worst(mla_loss, store)
    worst, coords = max(worst, w), coords + c

    # selective-SSM mixer loss through the recorded (sequential) scan; the
    # chunked scan is an inference-only fast path covered by the equivalence
    # criterion below
    cfg_m = ModelConfig(L=1, d=6, n_h=2, n_kv=1, d_h=2, vocab=16)
    sw = init_random(KIND_MAMBA2, cfg_m, seed=1, dtype=np.float64)
    store_m = nk.ParamStore()
    for name, t in sw.items():
        store_m.add(name, t)
    h_m = tensor(rng.standard_normal((1, 5, cfg_m.d)), dtype=np.float64)
    target_m = rng.standard_normal((1, 5, cfg_m.d))

    def mamba_loss(p):
        out, _ = mamba2_forward_seq(h_m, sw, cfg_m)
        diff = nk.add(out, nk.neg(Tensor(target_m)))
        return nk.tsum(nk.mul(diff, diff))

    w, c = _grad_worst(mamba_loss, store_m)
    worst, coords = max(worst, w), coords + c

    # layer-alignment and distillation losses over every student coordinate
    cfg_f = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=24)
    mcfg_f = MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)
    teacher = build_model(cfg_f, seed=7, dtype=np.float64)
    teacher.head.data[...] = rng.standard_normal(teacher.head.data.shape) * 0.4
    ids = rng.integers(0, cfg_f.vocab, size=(1, 5))

    mamba_student = convert_model(teacher, KIND_MAMBA2).clone()

    def ild_student_loss(p):
        with nk.no_grad():
            _, t_outs = teacher.forward(ids, collect_mixer_outputs=True)
        _, s_outs = mamba_student.forward(ids, collect_mixer_outputs=True)
        return ild_loss(t_outs, s_outs)

    w, c = _grad_worst(ild_student_loss, mamba_student.param_store())
    worst, coords = max(worst, w), coords + c

    mla_student = convert_model(teacher, KIND_MLA, mcfg_f).clone()

    def kd_student_loss(p):
        with nk.no_grad():
            t_logits = teacher.forward(ids)
        return kd_loss(t_logits, mla_student.forward(ids))

    w, c = _grad_worst(kd_student_loss, mla_student.param_store())
    worst, coords = max(worst, w), coords + c

    ok = worst <= 1e-4
    verdict(capsys, 4, ok,
            f"worst central-difference relative error {worst:.2e} <= 1e-4 over "
            f"{coords} parameter coordinates (eps 1e-5, float64)")


def test_criterion_05_cache_state_equivalence(capsys):
    rng = np.random.default_rng(5)
    mcfg = MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)
    worst = 0.0
    for case in range(50):
        T = int(rng.integers(4, 13))
        split = int(rng.integers(0, T))  # prefill length; rest decodes stepwise
        base = ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)
        for kinds in ([KIND_MHA] * 2, [KIND_MLA] * 2, [KIND_MAMBA2] * 2):
            cfg = dataclasses.replace(base, layer_kinds=list(kinds))
            model = build_model(cfg, mcfg, seed=case, dtype=np.float64)
            model.head.data[...] = rng.standard_normal(model.head.data.shape) * 0.5
            ids = rng.integers(0, cfg.vocab, size=T)
            with nk.no_grad():
                full = model.forward(ids).data
                caches = model.init_caches(np.float64)
                rows = []
                if split > 0:
                    logits, caches = model.forward_cached(ids[:split], caches)
                    rows.append(logits.data)
                for t in range(split, T):
                    logits, caches = model.forward_cached(ids[t:t + 1], caches)
                    rows.append(logits.data)
            worst = max(worst, np.abs(np.concatenate(rows) - full).max())
        # the chunked scan at the mixer level: a prefill spanning a chunk
        # boundary, then two more pieces, against the straight-line oracle
        Q = nk.SCAN_CHUNK
        cfg_m = ModelConfig(L=1, d=8, n_h=2, n_kv=1, d_h=4, vocab=16)
        w = init_random(KIND_MAMBA2, cfg_m, seed=case, dtype=np.float64)
        T2 = int(rng.integers(Q + 3, 3 * Q + 1))
        cuts = [int(rng.integers(Q + 1, T2 - 1))]
        cuts.append(int(rng.integers(cuts[0] + 1, T2)))
        h = rng.standard_normal((T2, 8))
        state, rows = SsmState.empty(cfg_m, dtype=np.float64), []
        with nk.no_grad():
            for lo, hi in zip([0] + cuts, cuts + [T2]):
                out, state = mamba2_forward_seq(tensor(h[None, lo:hi], dtype=np.float64), w, cfg_m,
                                                state)
                rows.append(out.data[0])
        worst = max(worst, np.abs(np.concatenate(rows) - reference_mamba2(h, w, cfg_m)).max())
    ok = worst <= 1e-5
    verdict(capsys, 5, ok,
            f"50 randomized prefill/decode splits: cached decode and chunked-scan "
            f"prefill cuts match full recomputation, max abs diff {worst:.2e} <= 1e-5 (float64)")


def _mean_eval_kd(teacher, student, data) -> float:
    with nk.no_grad():
        vals = [kd_loss(teacher.forward(b.inputs), student.forward(b.inputs)).item()
                for b in data]
    return float(np.mean(vals))


@pytest.mark.slow
def test_criterion_06_ordering_of_init_and_alignment(capsys):
    t_start = time.perf_counter()
    cfg = ModelConfig(L=4, d=32, n_h=4, n_kv=2, d_h=8, vocab=64)
    mcfg = MLAConfig(r_q=24, r_kv=8, d_qk=6, d_v=8, d_r=2)
    n_align, n_kd = 60, 140
    total = n_align + n_kd  # identical update budget for every arm
    results = []
    for seed in (0, 1, 2):
        spec = SynthSpec(vocab=64, seq_len=32, copy_span=8, copy_every=4,
                         buckets=64, seed=seed)
        align_data = batches(spec, 0, 40, 8)
        kd_data = batches(spec, 40, 160, 8)
        held_out = batches(spec, 220, 24, 8)
        teacher = train_teacher(
            cfg, itertools.islice(itertools.cycle(kd_data), 250),
            TrainConfig(steps=250, learning_rate=3e-3, seed=seed, log_every=0))
        for kind in (KIND_MLA, KIND_MAMBA2):
            mk = mcfg if kind == KIND_MLA else None
            structured_ild = convert_model(teacher, kind, mk)
            run_ild(teacher, structured_ild,
                    itertools.islice(itertools.cycle(align_data), n_align),
                    TrainConfig(steps=n_align, learning_rate=1e-3, seed=seed,
                                log_every=0))
            run_kd(teacher, structured_ild,
                   itertools.islice(itertools.cycle(kd_data), n_kd),
                   TrainConfig(steps=n_kd, learning_rate=1e-3, seed=seed,
                               log_every=0))
            structured_only = convert_model(teacher, kind, mk)
            run_kd(teacher, structured_only,
                   itertools.islice(itertools.cycle(kd_data), total),
                   TrainConfig(steps=total, learning_rate=1e-3, seed=seed,
                               log_every=0))
            random_only = convert_model(teacher, kind, mk, random_seed=seed * 101 + 7)
            run_kd(teacher, random_only,
                   itertools.islice(itertools.cycle(kd_data), total),
                   TrainConfig(steps=total, learning_rate=1e-3, seed=seed,
                               log_every=0))
            la = _mean_eval_kd(teacher, structured_ild, held_out)
            lb = _mean_eval_kd(teacher, structured_only, held_out)
            lc = _mean_eval_kd(teacher, random_only, held_out)
            results.append((seed, kind, la, lb, lc, la < lb and la < lc))
    elapsed = time.perf_counter() - t_start
    wins = sum(1 for r in results if r[5])
    ok = wins == 6 and total <= 2000 and elapsed < 900
    verdict(capsys, 6, ok,
            f"structured-init+alignment beats both ablations in {wins}/6 runs "
            f"(3 seeds x 2 student kinds, {total} steps per arm <= 2000, "
            f"{elapsed:.0f} s < 900 s)")


def test_criterion_07_sensitivity_definitional_oracle(capsys):
    rng = np.random.default_rng(7)
    cfg = ModelConfig(L=3, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)
    mcfg = MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)
    teacher = build_model(cfg, seed=1, dtype=np.float64)
    teacher.head.data[...] = rng.standard_normal(teacher.head.data.shape) * 0.3
    full_mla = convert_model(teacher, KIND_MLA, mcfg)
    full_mamba = convert_model(teacher, KIND_MAMBA2)
    data = [Batch(rng.integers(0, cfg.vocab, size=(2, 9))) for _ in range(2)]

    profile = score_sensitivity(teacher, full_mamba, full_mla, data)

    # independent straight-line evaluation: plain-numpy softmax arithmetic and
    # manual variant assembly, sharing no scoring helpers with the library
    def np_logits(model, ids):
        with nk.no_grad():
            return model.forward(ids).data

    def np_mean_kl(student):
        per_batch = []
        for b in data:
            t = np_logits(teacher, b.inputs)
            s = np_logits(student, b.inputs)
            t_log = t - t.max(-1, keepdims=True)
            t_log = t_log - np.log(np.exp(t_log).sum(-1, keepdims=True))
            s_log = s - s.max(-1, keepdims=True)
            s_log = s_log - np.log(np.exp(s_log).sum(-1, keepdims=True))
            kl = (np.exp(t_log) * (t_log - s_log)).sum(-1)  # (batch, positions)
            per_batch.append(kl.sum(-1).mean())
        return float(np.mean(per_batch))

    base = np_mean_kl(full_mamba)
    independent = []
    for i in range(cfg.L):
        layers = list(full_mamba.layers)
        layers[i] = full_mla.layers[i]
        kinds = list(full_mamba.cfg.layer_kinds)
        kinds[i] = full_mla.cfg.layer_kinds[i]
        variant = HybridModel(
            cfg=dataclasses.replace(full_mamba.cfg, layer_kinds=kinds),
            mcfg=full_mla.mcfg, embed=full_mamba.embed, layers=layers,
            final_norm=full_mamba.final_norm, head=full_mamba.head)
        independent.append(base - np_mean_kl(variant))
    gap = np.abs(profile.scores - np.asarray(independent)).max()

    degenerate = score_sensitivity(teacher, full_mamba, full_mamba.clone(), data)
    zeros_exact = all(s == 0.0 for s in degenerate.scores)
    ok = gap <= 1e-6 and zeros_exact
    verdict(capsys, 7, ok,
            f"scores match the independent straight-line evaluation within "
            f"{gap:.2e} <= 1e-6; degenerate variant scores exactly zero: {zeros_exact}")


def test_criterion_08_layout_validity_property(capsys):
    rng = np.random.default_rng(8)
    checked = brute = 0
    ok = True
    for _ in range(1000):
        L = int(rng.integers(1, 25))
        N = int(rng.integers(0, L + 1))
        scores = rng.uniform(0.0, 100.0, size=L)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)  # force tie-breaking paths
        layout = smart_select(scores, N)
        layout.validate(L)
        ok &= len(layout.mla_indices) == N
        checked += 1
        if L <= 20:
            ok &= layout.mla_indices == reference_select(scores, N)
            brute += 1
        if not ok:
            break
    verdict(capsys, 8, ok,
            f"{checked} random (L, N, scores) instances satisfy every layout "
            f"invariant; {brute} with L <= 20 match the exhaustive brute force")


def test_criterion_09_pipeline_determinism(capsys, tmp_path):
    manifest, out_dir = pipeline_workspace(tmp_path)
    cmds = load_manifest(manifest).commands()
    # the CLI children must import the package this session imported, from
    # any cwd: put its absolute root ahead of any inherited PYTHONPATH
    pkg_root = str(Path(hybridforge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)

    def run_pipeline():
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "hybridforge", *cmd],
                                  capture_output=True, text=True, cwd=tmp_path,
                                  env=env)
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"

    def digests():
        return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in sorted(os.listdir(out_dir))}

    run_pipeline()
    first = digests()
    run_pipeline()
    second = digests()
    same = [k for k in first if first[k] == second.get(k)]
    ok = first == second and len(first) == 14
    verdict(capsys, 9, ok,
            f"two CLI pipeline replays from one manifest: {len(same)}/{len(first)} "
            f"artifacts byte-identical (checkpoints, profiles, reports)")


def test_criterion_10_bench_consistency(capsys):
    cfg = ModelConfig(L=4, d=32, n_h=4, n_kv=2, d_h=8, vocab=64)
    mcfg = MLAConfig(r_q=24, r_kv=8, d_qk=6, d_v=8, d_r=2)
    teacher = build_model(cfg, mcfg, seed=10, dtype=np.float32)
    prompt_len, gen_len = 16, 32
    t_total = prompt_len + gen_len

    # full-attention stack: measured peak equals the all-attention baseline
    mha_peak = bench(teacher, prompt_len, gen_len)["peak_cache_bytes"]
    report = kv_report(cfg, HybridLayout(mla_indices=list(range(cfg.L))), mcfg,
                       t=t_total, elem_bytes=4)
    full_kv_ok = mha_peak == report["baseline_kv_bytes"]

    # latent-attention stack: measured peak equals the report exactly
    mla_model = convert_model(teacher, KIND_MLA, mcfg)
    mla_peak = bench(mla_model, prompt_len, gen_len)["peak_cache_bytes"]
    latent_ok = mla_peak == report["total_kv_bytes"]

    # pure-SSM stack: zero KV bytes and flat per-token decode time
    mamba_model = convert_model(teacher, KIND_MAMBA2)
    mamba_peak = bench(mamba_model, prompt_len, gen_len)["peak_cache_bytes"]
    zero_ok = mamba_peak == 0

    # Decode to absolute positions 200 and 2000 and keep both caches, then time
    # single-token steps from each in adjacent pairs, alternating which goes
    # first. A pair shares the machine's state of the moment, so drift in clock
    # speed cancels in its ratio; the median over pairs discounts a step hit by
    # a GC pause or preemption. Neither step grows the saved caches.
    prompt = np.random.default_rng(10).integers(0, cfg.vocab, size=8)
    saved = {"early": greedy_decode(mamba_model, prompt, 192)[3],
             "late": greedy_decode(mamba_model, prompt, 1992)[3]}
    ratios = []
    with nk.no_grad():
        for j in range(30):
            step_s = {}
            for pos in (("early", "late") if j % 2 == 0 else ("late", "early")):
                t0 = time.perf_counter()
                mamba_model.forward_cached(prompt[:1], saved[pos])
                step_s[pos] = time.perf_counter() - t0
            ratios.append(step_s["late"] / step_s["early"])
    ratio = float(np.median(ratios))
    flat_ok = ratio <= 1.5

    ok = full_kv_ok and latent_ok and zero_ok and flat_ok
    verdict(capsys, 10, ok,
            f"peak cache bytes: full-attention {mha_peak} == report, latent "
            f"{mla_peak} == report, pure-SSM {mamba_peak} == 0; per-token decode "
            f"time ratio pos 2000/200 = {ratio:.2f} <= 1.5 (median of 30 interleaved pairs)")
