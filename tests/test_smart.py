"""Placement tests: reference score replays, gap rules, brute-force sweeps."""

import dataclasses
import json
import time

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.attention import KIND_MHA, KIND_MLA, KIND_MAMBA2, MLAConfig, ModelConfig
from hybridforge.compose import HybridModel, assemble, build_model, convert_model
from hybridforge.distill import Batch
from hybridforge.smart import (
    HybridLayout,
    LayoutError,
    SensitivityProfile,
    gap_bounds,
    score_sensitivity,
    smart_select,
)
from oracle_helpers import enumerate_valid_configs, reference_select

# Reference per-layer sensitivity profile for a 16-layer stack; the expected
# selections and candidate sums below are the known-good results for it.
SCORES_16 = np.array([
    1185.06, 382.73, 480.68, 350.95, 196.03, 367.82, 250.45, 114.44,
    238.10, 120.56, 323.23, 228.90, 168.69, 233.87, 624.03, 361.47,
])


# -- reference replays -------------------------------------------------------


def test_select_four_of_sixteen():
    layout = smart_select(SCORES_16, 4)
    assert layout.mla_indices == [0, 5, 10, 14]
    # the full candidate set between those endpoints, with score sums
    cands = enumerate_valid_configs(0, 14, 4)
    assert cands == [(4, 9), (5, 9), (5, 10)]
    sums = [SCORES_16[list(c)].sum() for c in cands]
    assert np.allclose(sums, [316.59, 488.38, 691.05], atol=1e-6)


def test_select_six_of_sixteen():
    layout = smart_select(SCORES_16, 6)
    assert layout.mla_indices == [0, 2, 5, 8, 11, 14]
    cands = enumerate_valid_configs(0, 14, 6)
    assert cands == [
        (2, 5, 8, 11), (3, 5, 8, 11), (3, 6, 8, 11), (3, 6, 9, 11), (3, 6, 9, 12),
    ]
    sums = [SCORES_16[list(c)].sum() for c in cands]
    assert np.allclose(sums, [1315.5, 1185.77, 1068.4, 950.86, 890.65], atol=1e-6)
    assert sums[0] == max(sums)


def test_select_eight_of_sixteen():
    layout = smart_select(SCORES_16, 8)
    assert layout.mla_indices == [0, 2, 4, 6, 8, 10, 12, 14]


def test_selected_layouts_validate():
    for n in range(0, 17):
        smart_select(SCORES_16, n).validate(16)


# -- gap arithmetic ----------------------------------------------------------


def test_gap_bounds_values():
    # spread of 11 over 3 pairs: floor 3, ceil 4
    assert gap_bounds(0, 14, 4) == (3, 4)
    # spread divides evenly: bounds collapse
    assert gap_bounds(0, 14, 8) == (1, 1)
    assert gap_bounds(0, 15, 16) == (0, 0)
    # two picks: single pair takes the whole spread
    assert gap_bounds(3, 9, 2) == (5, 5)


def test_gap_bounds_errors():
    with pytest.raises(ValueError):
        gap_bounds(0, 10, 1)
    with pytest.raises(LayoutError):
        gap_bounds(0, 2, 5)  # five picks cannot fit in three slots


def test_enumerate_two_picks_no_intermediates():
    assert enumerate_valid_configs(0, 9, 2) == [()]
    assert enumerate_valid_configs(4, 5, 2) == [()]


def test_enumerate_infeasible_is_empty():
    assert enumerate_valid_configs(0, 2, 5) == []


def test_enumerate_bad_args():
    with pytest.raises(ValueError):
        enumerate_valid_configs(5, 5, 3)
    with pytest.raises(ValueError):
        enumerate_valid_configs(6, 5, 3)
    with pytest.raises(ValueError):
        enumerate_valid_configs(0, 5, 1)


def test_enumerate_is_sorted_and_within_bounds():
    rng = np.random.default_rng(11)
    for _ in range(200):
        first = int(rng.integers(0, 5))
        last = first + int(rng.integers(2, 18))
        n = int(rng.integers(3, 8))
        cands = enumerate_valid_configs(first, last, n)
        assert cands == sorted(cands)
        assert len(set(cands)) == len(cands)
        if last - first < n - 1:
            assert cands == []
            continue
        g_lo, g_hi = gap_bounds(first, last, n)
        for cand in cands:
            seq = (first, *cand, last)
            assert len(seq) == n
            gaps = [b - a - 1 for a, b in zip(seq, seq[1:])]
            assert all(g_lo <= g <= g_hi for g in gaps)


# -- selection properties ----------------------------------------------------


def test_select_trivial_sizes():
    assert smart_select(SCORES_16, 0).mla_indices == []
    assert smart_select(SCORES_16, 1).mla_indices == [0]
    shuffled = np.roll(SCORES_16, 3)
    assert smart_select(shuffled, 1).mla_indices == [int(np.argmax(shuffled))]


def test_select_out_of_range():
    with pytest.raises(ValueError):
        smart_select(SCORES_16, 17)
    with pytest.raises(ValueError):
        smart_select(SCORES_16, -1)


def test_select_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        L = int(rng.integers(4, 24))
        n = int(rng.integers(2, L + 1))
        scores = rng.normal(size=L) * 10
        base = smart_select(scores, n).mla_indices
        for shift in (-3.0, 0.5, 100.0):
            assert smart_select(scores + shift, n).mla_indices == base


def test_select_endpoints_in_terminal_windows():
    rng = np.random.default_rng(7)
    for _ in range(100):
        L = int(rng.integers(2, 24))
        n = int(rng.integers(2, L + 1))
        scores = rng.normal(size=L)
        picks = smart_select(scores, n).mla_indices
        p = L // n
        assert 0 <= picks[0] < p
        assert L - p <= picks[-1] < L


def test_select_accepts_profile_object():
    prof = SensitivityProfile(scores=SCORES_16, provenance={"sample_count": 4})
    assert smart_select(prof, 4).mla_indices == [0, 5, 10, 14]


def test_select_matches_brute_force():
    # independent combinations-based reference on small random instances
    rng = np.random.default_rng(2024)
    for trial in range(300):
        L = int(rng.integers(2, 21))
        n = int(rng.integers(0, L + 1))
        scores = np.round(rng.normal(size=L) * 50, 3)
        got = smart_select(scores, n)
        got.validate(L)
        assert got.mla_indices == reference_select(scores, n), (L, n, trial)


def test_select_tie_breaks_to_smallest():
    # equal scores everywhere: every candidate sums the same, the
    # lexicographically smallest index set must win
    scores = np.ones(16)
    assert smart_select(scores, 4).mla_indices == reference_select(scores, 4)
    assert smart_select(scores, 6).mla_indices == reference_select(scores, 6)


def test_select_matches_enumeration_mid_range():
    # beyond the combinations oracle's reach: the DP's interior picks are the
    # first maximum-sum candidate of the brute-force enumeration
    rng = np.random.default_rng(21)
    for L in range(21, 41):
        scores = rng.normal(size=L) * 10
        for n in sorted({2, 3, L // 6, L // 4, L // 3, L // 2}):
            p = L // n
            first = int(np.argmax(scores[:p]))
            last = L - p + int(np.argmax(scores[L - p:]))
            cands = enumerate_valid_configs(first, last, n)
            sums = [scores[list(c)].sum() for c in cands]
            want = [first, *cands[int(np.argmax(sums))], last]
            assert smart_select(scores, n).mla_indices == want, (L, n)


@pytest.mark.parametrize("L,n", [(128, 32), (256, 64)])
def test_select_never_hangs_at_paper_sizes(L, n):
    scores = np.random.default_rng(L).normal(size=L)
    t0 = time.perf_counter()
    layout = smart_select(scores, n)
    elapsed = time.perf_counter() - t0
    layout.validate(L)
    picks = layout.mla_indices
    assert len(picks) == n
    assert 0 <= picks[0] < L // n and L - L // n <= picks[-1] < L
    assert elapsed < 2.0, f"L={L}, N={n} took {elapsed:.2f} s"


def test_select_rejects_non_finite_or_non_vector_scores():
    with pytest.raises(ValueError, match="finite"):
        smart_select([1, np.nan, 3, 2, 5, 1], 3)
    with pytest.raises(ValueError, match="finite"):
        smart_select([np.nan] * 6, 3)
    with pytest.raises(ValueError, match="vector"):
        smart_select(np.ones((2, 3)), 2)


# -- layout and profile containers --------------------------------------------


def test_layout_validation():
    HybridLayout(mla_indices=[0, 5, 10, 14]).validate(16)
    with pytest.raises(ValueError):
        HybridLayout(mla_indices=[3, 1])
    with pytest.raises(ValueError):
        HybridLayout(mla_indices=[1, 1, 2])
    with pytest.raises(ValueError):
        HybridLayout(mla_indices=[-1, 2])
    with pytest.raises(ValueError):
        HybridLayout(mla_indices=[0, 15]).validate(15)
    with pytest.raises(ValueError):
        HybridLayout(mla_indices=[0, 1, 14]).validate(16)  # gaps 0 and 12


def test_layout_json_round_trip():
    layout = HybridLayout(mla_indices=[0, 2, 5, 8, 11, 14])
    again = HybridLayout.from_json(layout.to_json())
    assert again.mla_indices == layout.mla_indices
    assert json.loads(layout.to_json()) == {"mla_indices": [0, 2, 5, 8, 11, 14]}


def test_profile_json_round_trip():
    prof = SensitivityProfile(scores=SCORES_16, provenance={"sample_count": 9, "decode_steps": 17})
    again = SensitivityProfile.from_json(prof.to_json())
    assert np.array_equal(again.scores, prof.scores)
    assert again.provenance == prof.provenance
    assert again.L == 16


def test_profile_rejects_bad_scores():
    with pytest.raises(ValueError):
        SensitivityProfile(scores=np.array([]))
    with pytest.raises(ValueError):
        SensitivityProfile(scores=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        SensitivityProfile(scores=np.array([1.0, np.nan]))


# -- sensitivity measurement ---------------------------------------------------


def family(L=3, dtype=np.float64, batches=2):
    cfg = ModelConfig(L=L, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)
    mcfg = MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)
    teacher = build_model(cfg, seed=3, dtype=dtype)
    # give the teacher a non-flat output head so KL gaps are informative
    rng = np.random.default_rng(9)
    teacher.head.data[...] = rng.normal(size=teacher.head.shape) * 0.3
    mla = convert_model(teacher, KIND_MLA, mcfg)
    mamba = convert_model(teacher, KIND_MAMBA2)
    data = [Batch(rng.integers(0, 32, size=(2, 9))) for _ in range(batches)]
    return teacher, mamba, mla, data


def drifted_family():
    """Float64 family whose donor's shared weights differ from the base's.

    Conversion copies norms and MLPs, so the plain family cannot tell a
    mixer-only swap from a whole-block swap. After layer alignment the two
    students' shared weights drift apart; this family has that drift.
    """
    teacher, mamba, mla, data = family(L=4)
    rng = np.random.default_rng(21)
    for layer in mla.layers:
        for t in (layer.norm1, layer.norm2, layer.mlp_gate, layer.mlp_up, layer.mlp_down):
            t.data[...] += rng.normal(size=t.shape) * 0.2
    for t in (mla.embed, mla.final_norm, mla.head):
        t.data[...] += rng.normal(size=t.shape) * 0.2
    return teacher, mamba, mla, data


def plain_kl(teacher, model, data):
    """Mean over batches of KL(teacher || model) from full forwards, in plain numpy."""
    per_batch = []
    for b in data:
        with nk.no_grad():
            t = teacher.forward(b.inputs).data
            s = model.forward(b.inputs).data
        t_log = t - t.max(-1, keepdims=True)
        t_log = t_log - np.log(np.exp(t_log).sum(-1, keepdims=True))
        s_log = s - s.max(-1, keepdims=True)
        s_log = s_log - np.log(np.exp(s_log).sum(-1, keepdims=True))
        per_batch.append((np.exp(t_log) * (t_log - s_log)).sum(-1).sum(-1).mean())
    return float(np.mean(per_batch))


def straight_line_scores(teacher, base, donor, data, whole_block=False):
    """s_i from full forwards of hand-built variants and plain-numpy KL.

    Variant i is the base with layer i's mixer and kind taken from the donor
    (or, with whole_block, the donor's entire layer i).
    """
    base_kl = plain_kl(teacher, base, data)
    scores = []
    for i in range(base.cfg.L):
        layers = list(base.layers)
        layers[i] = (donor.layers[i] if whole_block
                     else dataclasses.replace(base.layers[i], mixer=donor.layers[i].mixer))
        kinds = list(base.cfg.layer_kinds)
        kinds[i] = donor.cfg.layer_kinds[i]
        variant = HybridModel(
            cfg=dataclasses.replace(base.cfg, layer_kinds=kinds), mcfg=donor.mcfg,
            embed=base.embed, layers=layers, final_norm=base.final_norm, head=base.head)
        scores.append(base_kl - plain_kl(teacher, variant, data))
    return np.asarray(scores)


def test_sensitivity_shape_and_provenance():
    teacher, mamba, mla, data = family()
    prof = score_sensitivity(teacher, mamba, mla, data, provenance={"tag": 7})
    assert prof.L == 3
    assert prof.provenance["sample_count"] == 2
    assert prof.provenance["decode_steps"] == 8
    assert prof.provenance["tag"] == 7


def test_sensitivity_degenerate_donor_scores_zero():
    # donor equal to the base model: every swap is a no-op, so every score
    # must come out exactly zero, not merely small
    teacher, mamba, _, data = family()
    prof = score_sensitivity(teacher, mamba, mamba.clone(), data)
    assert prof.scores.tolist() == [0.0, 0.0, 0.0]


def test_sensitivity_single_layer_oracle():
    # recompute s_0 with plain loops and no shared helpers
    teacher, mamba, mla, data = family()
    prof = score_sensitivity(teacher, mamba, mla, data)

    def mean_kl(model):
        vals = []
        with nk.no_grad():
            for batch in data:
                t = teacher.forward(batch.inputs).data
                s = model.forward(batch.inputs).data
                tp = np.exp(t - np.log(np.sum(np.exp(t), axis=-1, keepdims=True)))
                tl = t - np.log(np.sum(np.exp(t), axis=-1, keepdims=True))
                sl = s - np.log(np.sum(np.exp(s), axis=-1, keepdims=True))
                vals.append((tp * (tl - sl)).sum(axis=-1).sum() / batch.inputs.shape[0])
        return sum(vals) / len(vals)

    variant = mamba.clone()
    variant.layers[0].mixer = mla.layers[0].mixer
    variant.cfg.layer_kinds[0] = KIND_MLA
    variant.mcfg = mla.mcfg
    want = mean_kl(mamba) - mean_kl(variant)
    assert abs(prof.scores[0] - want) < 1e-9


def test_sensitivity_threaded_matches_serial():
    teacher, mamba, mla, data = family()
    serial = score_sensitivity(teacher, mamba, mla, data, jobs=1)
    threaded = score_sensitivity(teacher, mamba, mla, data, jobs=4)
    assert np.array_equal(serial.scores, threaded.scores)


@pytest.mark.parametrize("jobs,donor_kind", [(1, KIND_MLA), (2, KIND_MLA), (1, KIND_MAMBA2),
                                             (2, KIND_MAMBA2)],
                         ids=["1", "2", "1-mamba2", "2-mamba2"])
def test_sensitivity_swaps_only_the_mixer(jobs, donor_kind):
    # an all-Mamba2 donor with weights of its own lends its mixer, not the base's
    teacher, mamba, mla, data = drifted_family()
    donor = mla
    if donor_kind == KIND_MAMBA2:
        donor = mamba.clone()
        rng = np.random.default_rng(22)
        for _, t in donor.named_tensors():
            t.data[...] += rng.normal(size=t.shape) * 0.2
    prof = score_sensitivity(teacher, mamba, donor, data, jobs=jobs)
    want = straight_line_scores(teacher, mamba, donor, data)
    assert np.abs(prof.scores - want).max() <= 1e-12
    assert np.abs(want).min() > 1e-6
    # the drift is large enough that a whole-block swap scores differently
    whole = straight_line_scores(teacher, mamba, donor, data, whole_block=True)
    assert np.abs(whole - want).min() > 1e-6


@pytest.mark.parametrize("jobs,donor_kind", [(1, KIND_MLA), (2, KIND_MLA), (1, KIND_MHA),
                                             (2, KIND_MHA)], ids=["1", "2", "1-mha", "2-mha"])
def test_sensitivity_scores_the_assembled_hybrid(jobs, donor_kind):
    # s_i is the KL gain of the very hybrid that assemble builds for layout [i],
    # even when the students' shared weights have drifted apart; the donor is the
    # MLA student or the teacher itself
    teacher, mamba, mla, data = drifted_family()
    donor = {KIND_MLA: mla, KIND_MHA: teacher}[donor_kind]
    prof = score_sensitivity(teacher, mamba, donor, data, jobs=jobs)
    base_kl = plain_kl(teacher, mamba, data)
    hybrids = [assemble(donor, mamba, HybridLayout([i])) for i in range(mamba.cfg.L)]
    assert [h.cfg.layer_kinds[i] for i, h in enumerate(hybrids)] == [donor_kind] * mamba.cfg.L
    want = [base_kl - plain_kl(teacher, h, data) for h in hybrids]
    assert np.abs(prof.scores - want).max() <= 1e-12


def test_sensitivity_records_no_graph(monkeypatch):
    # trainable weights with grad mode on: any op outside no_grad records,
    # on the calling thread or on a pool worker
    teacher, mamba, mla, data = family()
    for model in (teacher, mamba, mla):
        for _, t in model.named_tensors():
            t.requires_grad = True
    recording = nk._recording

    def refuse(parents):
        if recording(parents):
            raise AssertionError("an op recorded a graph")
        return False

    monkeypatch.setattr(nk, "_recording", refuse)
    assert nk.grad_enabled()
    score_sensitivity(teacher, mamba, mla, data, jobs=2)
    with pytest.raises(AssertionError, match="recorded"):
        nk.add(teacher.head, teacher.head)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sensitivity_jobs_uneven_split_byte_equal(dtype):
    # 5 batches over 2 or 3 workers: some worker scores more than one batch.
    # float32 KLs add exactly in float64 whatever the order; float64 ones do not.
    teacher, mamba, mla, data = family(L=16, dtype=dtype, batches=5)
    runs = [score_sensitivity(teacher, mamba, mla, data, jobs=j).scores.tobytes()
            for j in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]


def test_sensitivity_bad_inputs():
    teacher, mamba, mla, data = family()
    with pytest.raises(ValueError):
        score_sensitivity(teacher, mamba, mla, [])
    other = build_model(ModelConfig(L=3, d=16, n_h=4, n_kv=2, d_h=4, vocab=64), seed=0)
    with pytest.raises(ValueError):
        score_sensitivity(other, mamba, mla, data)


@pytest.mark.parametrize("field,change", [("n_h", dict(n_h=2, d_h=8))], ids=["n_h"])
def test_scoring_and_assembly_refuse_the_same_donors(field, change):
    # a donor scoring accepts is one assemble builds: both check the same skeleton
    teacher, mamba, _, data = family()
    cfg = dataclasses.replace(teacher.cfg, **change)
    donor = build_model(cfg, seed=5, dtype=np.float64)
    with pytest.raises(ValueError, match=f"cfg.{field}$"):
        score_sensitivity(teacher, mamba, donor, data)
    with pytest.raises(ValueError, match=f"cfg.{field}$"):
        assemble(donor, mamba, HybridLayout([0]))
