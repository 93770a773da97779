"""Model container tests: assembly, cache budgeting, checkpoint integrity."""

import contextlib
import dataclasses
import json
import re
import warnings
import zlib

import numpy as np
import pytest

import hybridforge.numkernel as nk
from hybridforge.attention import (
    KIND_MHA,
    KIND_MLA,
    KIND_MAMBA2,
    MixerWeights,
    MLAConfig,
    ModelConfig,
)
from hybridforge.compose import (
    FORMAT_VERSION,
    MIXERS,
    CheckpointError,
    HybridModel,
    assemble,
    build_model,
    convert_model,
    kv_report,
    load_checkpoint,
    save_checkpoint,
)
from hybridforge.smart import HybridLayout
from hybridforge.ssm import SsmState
from oracle_helpers import reference_model


def toy_cfg(**kw):
    base = dict(L=4, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)
    base.update(kw)
    return ModelConfig(**base)


def toy_mcfg():
    return MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2)


def converted_pair(dtype=np.float64, seed=3):
    cfg = toy_cfg()
    mcfg = toy_mcfg()
    teacher = build_model(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(60)
    teacher.head.data[...] = (rng.normal(size=teacher.head.shape) * 0.3).astype(dtype)
    return teacher, convert_model(teacher, KIND_MLA, mcfg), convert_model(teacher, KIND_MAMBA2)


# -- construction ----------------------------------------------------------------


def test_build_model_flat_logits_at_init():
    model = build_model(toy_cfg(), seed=0)
    ids = np.arange(10) % 32
    logits = model.forward(ids)
    assert np.all(logits.data == 0.0)  # zero head: every token starts uniform


def test_build_model_honors_layer_kinds():
    kinds = [KIND_MHA, KIND_MLA, KIND_MAMBA2, KIND_MLA]
    model = build_model(toy_cfg(layer_kinds=kinds), toy_mcfg(), seed=1)
    assert model.cfg.layer_kinds == kinds
    logits = model.forward(np.arange(6))
    assert logits.shape == (6, 32)


def test_named_tensor_order_and_param_count():
    model = build_model(toy_cfg(), seed=0)
    names = [n for n, _ in model.named_tensors()]
    assert names[0] == "embed"
    assert names[-1] == "head"
    assert names[1] == "layers.0.norm1"
    assert len(names) == len(set(names))
    # every parameter listed once: embed, head, final norm, and per MHA block
    # two norms, four projections and a 2d-wide gated MLP
    d, hd, kvd = 16, 4 * 4, 2 * 4
    layer = 2 * d + (2 * d * hd + 2 * d * kvd) + 3 * d * 2 * d
    assert sum(t.data.size for _, t in model.named_tensors()) == 2 * 32 * d + d + 4 * layer


def test_mixer_records_share_one_convention():
    # plain tensor records: no dims of their own, and one items()
    for cls in MIXERS.values():
        assert [f.name for f in dataclasses.fields(cls)] == list(cls.NAMES)
        assert cls.items is MixerWeights.items


def test_kind_mixer_mismatch_rejected():
    model = build_model(toy_cfg(), seed=0)
    bad_cfg = toy_cfg(layer_kinds=[KIND_MAMBA2] + [KIND_MHA] * 3)
    with pytest.raises(ValueError):
        HybridModel(cfg=bad_cfg, mcfg=None, embed=model.embed, layers=model.layers,
                    final_norm=model.final_norm, head=model.head)


def test_direct_construction_checks_every_shape():
    # the constructor is the one gate: a bad tensor is refused before any forward
    model = build_model(toy_cfg(layer_kinds=[KIND_MHA, KIND_MLA, KIND_MAMBA2, KIND_MLA]),
                        toy_mcfg(), seed=0)
    for owner, name, shape, path in (
        (lambda m: m.layers[0].mixer, "W_K", (16, 3), "layers.0.mixer.W_K"),
        (lambda m: m.layers[1].mixer, "W_UK", (6, 5), "layers.1.mixer.W_UK"),
        (lambda m: m.layers[2].mixer, "conv", (32, 3), "layers.2.mixer.conv"),
        (lambda m: m.layers[3], "mlp_down", (32, 15), "layers.3.mlp_down"),
        (lambda m: m, "head", (16, 31), "head"),
    ):
        bad = model.clone()
        setattr(owner(bad), name, nk.Tensor(np.zeros(shape, dtype=np.float32)))
        with pytest.raises(ValueError, match=rf"^{re.escape(path)} shape {re.escape(str(shape))} "
                                             r"!= expected"):
            HybridModel(**vars(bad))
    with pytest.raises(ValueError, match="needs an MLAConfig"):
        HybridModel(**{**vars(model), "mcfg": None})
    with pytest.raises(ValueError, match="r_q out of range"):
        HybridModel(**{**vars(model), "mcfg": MLAConfig(r_q=99, r_kv=6, d_qk=2, d_v=4, d_r=2)})
    # a model with no MLA layer keeps no MLA config
    mha = build_model(toy_cfg(), seed=0)
    assert HybridModel(**{**vars(mha), "mcfg": toy_mcfg()}).mcfg is None


def test_clone_is_independent():
    model = build_model(toy_cfg(), seed=0)
    twin = model.clone()
    twin.embed.data[0, 0] += 1.0
    assert model.embed.data[0, 0] != twin.embed.data[0, 0]


def assert_independent(result, sources):
    # no tensor of result aliases a source's, and writing all of result leaves them be
    before = [[t.data.copy() for _, t in src.named_tensors()] for src in sources]
    for path, t in result.named_tensors():
        for src in sources:
            assert not any(np.shares_memory(t.data, s.data) for _, s in src.named_tensors()), path
        t.data += 1.0
    for src, saved in zip(sources, before):
        for (path, t), old in zip(src.named_tensors(), saved):
            assert np.array_equal(t.data, old), path


def test_convert_and_assemble_share_no_memory_with_sources():
    teacher, mla, mamba = converted_pair()
    assert_independent(assemble(mla, mamba, HybridLayout(mla_indices=[0, 2])), [mla, mamba])
    assert_independent(mla, [teacher])
    assert_independent(mamba, [teacher])
    assert_independent(convert_model(teacher, KIND_MAMBA2, random_seed=1), [teacher])


def test_astype_converts_every_tensor():
    model = build_model(toy_cfg(), seed=0, dtype=np.float32)
    wide = model.astype(np.float64)
    assert all(t.dtype == np.float64 for _, t in wide.named_tensors())
    assert all(t.dtype == np.float32 for _, t in model.named_tensors())


# -- conversion -------------------------------------------------------------------


def test_convert_shares_non_mixer_parameters():
    teacher, mla, mamba = converted_pair()
    for student in (mla, mamba):
        assert np.array_equal(student.embed.data, teacher.embed.data)
        assert np.array_equal(student.head.data, teacher.head.data)
        for lt, ls in zip(teacher.layers, student.layers):
            assert np.array_equal(ls.norm1.data, lt.norm1.data)
            assert np.array_equal(ls.mlp_down.data, lt.mlp_down.data)
    assert all(k == KIND_MLA for k in mla.cfg.layer_kinds)
    assert all(k == KIND_MAMBA2 for k in mamba.cfg.layer_kinds)


def test_convert_random_arm_differs_from_structured():
    teacher, mla, _ = converted_pair()
    scramble = convert_model(teacher, KIND_MLA, toy_mcfg(), random_seed=5)
    assert not np.allclose(scramble.layers[0].mixer.W_DQ.data,
                           mla.layers[0].mixer.W_DQ.data)
    again = convert_model(teacher, KIND_MLA, toy_mcfg(), random_seed=5)
    assert np.array_equal(scramble.layers[0].mixer.W_DQ.data,
                          again.layers[0].mixer.W_DQ.data)


def test_convert_input_validation():
    teacher, mla, _ = converted_pair()
    with pytest.raises(ValueError):
        convert_model(teacher, KIND_MHA)
    with pytest.raises(ValueError):
        convert_model(teacher, KIND_MLA)  # missing latent shape config
    with pytest.raises(ValueError):
        convert_model(mla, KIND_MAMBA2)  # source must be all-attention


# -- hybrid assembly -----------------------------------------------------------------


def test_assemble_full_layout_equals_mla_source():
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 1, 2, 3]))
    ids = np.arange(8) % 32
    assert np.array_equal(hybrid.forward(ids).data, mla.forward(ids).data)
    assert hybrid.cfg.layer_kinds == [KIND_MLA] * 4


def test_assemble_empty_layout_equals_mamba_source():
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[]))
    ids = np.arange(8) % 32
    assert np.array_equal(hybrid.forward(ids).data, mamba.forward(ids).data)
    assert hybrid.cfg.layer_kinds == [KIND_MAMBA2] * 4


def test_assemble_partial_layout_kind_pattern():
    teacher, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    assert hybrid.cfg.layer_kinds == [KIND_MLA, KIND_MAMBA2, KIND_MLA, KIND_MAMBA2]
    assert np.array_equal(hybrid.layers[0].mixer.W_DQ.data, mla.layers[0].mixer.W_DQ.data)
    assert np.array_equal(hybrid.layers[1].mixer.W_in.data, mamba.layers[1].mixer.W_in.data)
    # assemble is with_mixers, cloned: the swap takes exactly the indexed mixers,
    # their kinds and the donor's MLA config, and shares every tensor
    other = mamba.clone()  # an all-Mamba2 donor with its own weights
    for _, t in other.named_tensors():
        t.data += 0.5
    for donor, kinds, mcfg in (
            (mla, [KIND_MLA, KIND_MAMBA2, KIND_MLA, KIND_MAMBA2], mla.mcfg),
            (teacher, [KIND_MHA, KIND_MAMBA2, KIND_MHA, KIND_MAMBA2], None),
            (other, [KIND_MAMBA2] * 4, None)):
        swapped = mamba.with_mixers(donor, [0, 2])
        assert swapped.cfg.layer_kinds == kinds and swapped.mcfg == mcfg
        theirs, mine = dict(donor.named_tensors()), dict(mamba.named_tensors())
        for path, t in swapped.named_tensors():
            picked = path.startswith(("layers.0.mixer.", "layers.2.mixer."))
            assert t is (theirs if picked else mine)[path], path
    assert mamba.cfg.layer_kinds == [KIND_MAMBA2] * 4


def test_assemble_takes_shared_paths_from_the_ssm_source():
    _, mla, mamba = converted_pair()
    rng = np.random.default_rng(5)
    for model in (mla, mamba):
        for t in (model.embed, model.layers[1].norm2, model.layers[2].mlp_up):
            t.data[...] += rng.normal(size=t.shape) * 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 3]))
    ssm_paths, mla_paths = dict(mamba.named_tensors()), dict(mla.named_tensors())
    for path, t in hybrid.named_tensors():
        picked = path.startswith(("layers.0.mixer.", "layers.3.mixer."))
        assert np.array_equal(t.data, (mla_paths if picked else ssm_paths)[path].data), path
    # the perturbed shared tensors differ between the students, so the check bites
    for path in ("embed", "layers.1.norm2", "layers.2.mlp_up"):
        assert not np.array_equal(ssm_paths[path].data, mla_paths[path].data)


def test_assemble_input_validation():
    teacher, mla, mamba = converted_pair()
    with pytest.raises(ValueError):
        assemble(mamba, mla, HybridLayout(mla_indices=[0]))  # sources swapped
    with pytest.raises(ValueError):
        assemble(mla, teacher, HybridLayout(mla_indices=[0]))
    with pytest.raises(ValueError):
        assemble(mla, mamba, HybridLayout(mla_indices=[0, 7]))  # out of range
    other = convert_model(build_model(toy_cfg(vocab=64), seed=0, dtype=np.float64),
                          KIND_MAMBA2)
    with pytest.raises(ValueError):
        assemble(mla, other, HybridLayout(mla_indices=[0]))
    # the donor is a single-kind attention model: not a hybrid, not all-Mamba2
    mixed = assemble(mla, mamba, HybridLayout(mla_indices=[0]))
    for donor in (mixed, mamba):
        with pytest.raises(ValueError, match="donor must be all-MHA or all-MLA"):
            assemble(donor, mamba, HybridLayout(mla_indices=[1]))


def test_assembled_hybrid_cached_decode_matches_full():
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    ids = np.arange(12) % 32
    full = hybrid.forward(ids).data
    caches = hybrid.init_caches(np.float64)
    out1, caches = hybrid.forward_cached(ids[:7], caches)
    parts = [out1.data]
    for t in range(7, 12):
        step, caches = hybrid.forward_cached(ids[t : t + 1], caches)
        parts.append(step.data)
    assert np.abs(np.concatenate(parts) - full).max() < 1e-5


def test_default_caches_take_the_model_dtype():
    # init_caches() with no dtype: a float64 hybrid keeps float64 cache rows
    # and SSM state, so its cached decode matches its full forward to rounding
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    ids = np.random.default_rng(7).integers(0, 32, size=40)
    with nk.no_grad():
        full = hybrid.forward(ids).data
        logits, caches = hybrid.forward_cached(ids[:30], hybrid.init_caches())
        parts = [logits.data]
        for t in range(30, ids.size):
            logits, caches = hybrid.forward_cached(ids[t : t + 1], caches)
            parts.append(logits.data)
    assert np.abs(np.concatenate(parts) - full).max() <= 1e-12
    assert {c.h.dtype if isinstance(c, SsmState) else c.rows.dtype for c in caches} == {
        np.dtype(np.float64)}


@pytest.mark.parametrize("which", ["mha", "mla"])
def test_long_prefill_in_query_blocks_matches_full(which):
    # a prefill that spans several of attend's query blocks, then single steps
    teacher, mla, _ = converted_pair()
    model = {"mha": teacher, "mla": mla}[which]
    prefill = 150
    assert prefill > 2 * nk.ATTEND_ROWS
    ids = np.random.default_rng(62).integers(0, 32, size=prefill + 4)
    with nk.no_grad():
        full = model.forward(ids).data
        logits, caches = model.forward_cached(ids[:prefill], model.init_caches(np.float64))
        parts = [logits.data]
        for t in range(prefill, ids.size):
            logits, caches = model.forward_cached(ids[t : t + 1], caches)
            parts.append(logits.data)
    assert np.abs(np.concatenate(parts) - full).max() <= 1e-5
    assert np.abs(full - reference_model(ids, model)).max() <= 1e-10


@pytest.mark.parametrize("which", ["mha", "mla", "mamba2", "hybrid", "mha-hybrid"])
def test_batched_cached_decode_matches_single_sequences(which):
    # three equal-length prompts decode as one (3, t) batch: a prefill, then
    # single-token steps. Each row equals its own b=1 decode and the oracle.
    teacher, mla, mamba = converted_pair()
    model = {"mha": teacher, "mla": mla, "mamba2": mamba,
             "hybrid": assemble(mla, mamba, HybridLayout(mla_indices=[0, 2])),
             "mha-hybrid": assemble(teacher, mamba, HybridLayout(mla_indices=[0, 3]))}[which]
    ids = np.random.default_rng(61).integers(0, 32, size=(3, 9))

    def decode(rows, prefill=5):
        caches = model.init_caches(np.float64)
        logits, caches = model.forward_cached(rows[..., :prefill], caches)
        parts = [logits.data]
        for t in range(prefill, rows.shape[-1]):
            logits, caches = model.forward_cached(rows[..., t:t + 1], caches)
            parts.append(logits.data)
        return np.concatenate(parts, axis=-2), caches

    with nk.no_grad():
        batched, caches = decode(ids)
        assert batched.shape == (3, 9, 32)
        for row, got in zip(ids, batched):
            single, _ = decode(row)
            assert np.abs(got - single).max() <= 1e-12
            assert np.abs(got - reference_model(row, model)).max() <= 1e-12
        # the first layer's cache or state of batch 3 refuses a batch of 2
        with pytest.raises(ValueError, match=r"batch of 3\b.*batch of 2\b"):
            model.forward_cached(ids[:2, :1], caches)


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
def test_empty_ids_are_refused_by_both_entry_points(shape):
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    ids = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^empty input: ids of shape"):
        hybrid.forward(ids)
    with pytest.raises(ValueError, match=r"^empty input: ids of shape"):
        hybrid.forward_cached(ids, hybrid.init_caches(np.float64))


def test_kernel_error_names_its_layer():
    # an overflowing decay exponent in SSM layer 1 is reported with that layer's path
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    hybrid.layers[1].mixer.a_log.data[:] = 1000.0
    ids = np.arange(6) % 32
    with pytest.raises(nk.KernelError, match=r"^layers\.1\.mixer: exp produced") as info:
        hybrid.forward(ids)
    assert isinstance(info.value.__cause__, nk.KernelError)
    with pytest.raises(nk.KernelError, match=r"^layers\.1\.mixer: exp produced"):
        hybrid.forward_cached(ids, hybrid.init_caches(np.float64))
    hybrid.layers[1].mixer.a_log.data[:] = 0.0
    hybrid.layers[3].norm2.data[:] = np.inf
    with pytest.raises(nk.KernelError, match=r"^layers\.3\.mlp: rms_norm produced"):
        hybrid.forward(ids)


def test_nan_is_reported_where_a_value_is_made():
    # W_UK passes through a reshape and a transpose, which only move values,
    # before its first matmul: that matmul reports the NaN, behind its layer
    _, mla, _ = converted_pair()
    mla.layers[2].mixer.W_UK.data[0, 0] = np.nan
    ids = np.arange(6) % 32
    with pytest.raises(nk.KernelError, match=r"^layers\.2\.mixer: matmul produced"):
        mla.forward(ids)
    with pytest.raises(nk.KernelError, match=r"^layers\.2\.mixer: matmul produced"):
        mla.forward_cached(ids, mla.init_caches(np.float64))


def test_nan_query_is_reported_by_attend_behind_its_layer(monkeypatch):
    # every value a query is built from is checked when made, so the NaN is
    # planted in the query that attend is handed
    teacher, mla, _ = converted_pair()
    attend = nk.attend

    def poisoned(q, keys, values):
        q.data[..., -1, 0] = np.nan
        return attend(q, keys, values)

    monkeypatch.setattr(nk, "attend", poisoned)
    ids = np.arange(6) % 32
    for model in (teacher, mla):
        with pytest.raises(nk.KernelError, match=r"^layers\.0\.mixer: attend produced non-finite"):
            model.forward(ids)
        with nk.no_grad(), pytest.raises(nk.KernelError, match=r"^layers\.0\.mixer: attend"):
            model.forward_cached(ids, model.init_caches(np.float64))


@pytest.mark.parametrize("path, where", [("layers.3.norm1", r"layers\.3\.mixer: attend"),
                                         ("layers.0.norm2", r"layers\.0\.mlp: mul"),
                                         ("layers.0.mlp_gate", r"layers\.1\.mlp: rms_norm")])
def test_overflow_is_a_kernel_error_not_a_warning(path, where):
    # a norm gain of 1e30 overflows float32 in the product of two projections
    # of its output, and an MLP weight of 1e30 in the next norm's squares: the
    # check reports it behind its layer, and no warning escapes
    cfg = toy_cfg(layer_kinds=[KIND_MHA, KIND_MLA, KIND_MAMBA2, KIND_MHA])
    model = build_model(cfg, toy_mcfg(), seed=1, dtype=np.float32)
    dict(model.named_tensors())[path].data[...] = 1e30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nk.KernelError, match=rf"^{where} produced non-finite values$"):
            model.forward(np.arange(6) % 32)


def test_decode_checks_only_the_values_a_step_makes(monkeypatch):
    # a cached row adds only its score per head to the elements a
    # single-token MLA step checks; the rows were checked when made
    cfg = toy_cfg(layer_kinds=[KIND_MLA] * 4)
    model = build_model(cfg, toy_mcfg(), seed=5)
    ids = np.random.default_rng(7).integers(0, cfg.vocab, size=513)
    checked = []
    check = nk._check_finite

    def counting(arr, op):
        checked.append(arr.size)
        return check(arr, op)

    monkeypatch.setattr(nk, "_check_finite", counting)

    def step_elements(rows):
        with nk.no_grad():
            _, caches = model.forward_cached(ids[:rows], model.init_caches())
            checked.clear()
            model.forward_cached(ids[rows : rows + 1], caches)
        return sum(checked)

    per_row_per_layer = (step_elements(512) - step_elements(64)) / (448 * cfg.L)
    assert per_row_per_layer <= cfg.n_h


def test_a_single_token_step_reports_an_overflow_its_scan_would_squash():
    # a decode step's scan turns exp(-inf) into a decay of exactly 0, so an exp
    # overflow of the decay rate must be reported where exp makes it
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    ids = np.arange(7) % 32
    with nk.no_grad():
        _, caches = hybrid.forward_cached(ids[:6], hybrid.init_caches(np.float64))
        hybrid.layers[1].mixer.a_log.data[:] = 1000.0
        with pytest.raises(nk.KernelError,
                           match=r"^layers\.1\.mixer: exp produced non-finite values$"):
            hybrid.forward_cached(ids[6:], caches)


def watch_block(monkeypatch, layer):
    """Patch the kernel to watch the values block ``layer`` makes, on each run.

    Returns a dict: ``seen`` maps each value-making op to the sublayer of the
    first value it makes there; an op named in ``plant`` has the first value it
    makes overflow, on every run of the block; ``runs`` counts the runs of
    every block."""
    make, sublayers, mix = nk._make, HybridModel._sublayers, HybridModel._mix
    st = {"part": None, "planted": False, "seen": {}, "plant": None, "runs": 0}

    def watched_sublayers(self, x, i, cache):
        st["part"], st["planted"] = ("mlp" if i == layer else None), False
        st["runs"] += 1
        try:
            return sublayers(self, x, i, cache)
        finally:
            st["part"] = None

    def watched_mix(self, z, i, cache):
        outer = st["part"]
        st["part"] = outer and "mixer"
        try:
            return mix(self, z, i, cache)
        finally:
            st["part"] = outer

    def watched_make(data, parents, vjp, op):
        if st["part"] and op not in nk._MOVES:
            st["seen"].setdefault(op, st["part"])
            if op == st["plant"] and not st["planted"]:
                st["planted"] = True
                data = data.copy()
                data.flat[0] = np.finfo(data.dtype).max
                data *= 2  # a fast pass raises the overflow flag; a replay makes an inf
        return make(data, parents, vjp, op)

    monkeypatch.setattr(HybridModel, "_sublayers", watched_sublayers)
    monkeypatch.setattr(HybridModel, "_mix", watched_mix)
    monkeypatch.setattr(nk, "_make", watched_make)
    return st


BLOCK_OPS = {
    KIND_MHA: {"rms_norm": "mlp", "matmul": "mixer", "rope": "mixer", "mul": "mixer",
               "attend": "mixer", "add": "mlp", "silu": "mlp"},
    KIND_MLA: {"rms_norm": "mlp", "matmul": "mixer", "rope": "mixer", "mul": "mixer",
               "attend": "mixer", "add": "mlp", "silu": "mlp"},
    KIND_MAMBA2: {"rms_norm": "mlp", "matmul": "mixer", "conv1d_depthwise": "mixer",
                  "add": "mixer", "softplus": "mixer", "exp": "mixer", "neg": "mixer",
                  "mul": "mixer", "ssm_scan": "mixer", "silu": "mlp"},
}


@pytest.mark.parametrize("layer, kind", [(0, KIND_MHA), (1, KIND_MLA), (2, KIND_MAMBA2)])
def test_an_overflow_at_any_op_of_a_block_is_reported_by_that_op(monkeypatch, layer, kind):
    # the fast pass of a block checks no op; an overflow planted at the first
    # value each kind of op makes in the block raises a flag there, and the
    # replay names the op behind its sublayer, in a recorded forward, a
    # prefill and a single-token step, with no warning
    cfg = toy_cfg(layer_kinds=[KIND_MHA, KIND_MLA, KIND_MAMBA2, KIND_MHA])
    model = build_model(cfg, toy_mcfg(), seed=1, dtype=np.float64)
    model.param_store()
    ids = np.arange(7) % 32
    watch = watch_block(monkeypatch, layer)
    with nk.no_grad():
        _, prefilled = model.forward_cached(ids[:6], model.init_caches())
    assert watch["seen"] == BLOCK_OPS[kind]
    recorded = lambda: model.forward(ids)  # noqa: E731
    prefill = lambda: model.forward_cached(ids, model.init_caches())  # noqa: E731
    step = lambda: model.forward_cached(ids[6:], prefilled)  # noqa: E731
    for op, part in BLOCK_OPS[kind].items():
        watch["plant"] = op
        for call, mode in ((recorded, contextlib.nullcontext), (prefill, nk.no_grad),
                           (step, nk.no_grad)):
            watch["runs"] = 0
            with warnings.catch_warnings(), mode():
                warnings.simplefilter("error")
                with pytest.raises(nk.KernelError, match=rf"^layers\.{layer}\.{part}: "
                                                         rf"{op} produced non-finite values$"):
                    call()
            assert watch["runs"] == layer + 2  # the blocks before it, its fast pass, its replay


def test_a_benign_overflow_keeps_the_fast_pass(monkeypatch):
    # exp(-a) of a very negative a overflows in silu and softplus, and
    # 1 / (1 + inf) = 0 is exact: the block runs once, warns of nothing and
    # gives the bytes of a pass with every op checked
    _, mla, mamba = converted_pair(dtype=np.float32)
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    hybrid.layers[1].mixer.delta_b.data[:] = -1e4  # every step size's softplus
    hybrid.layers[3].mlp_gate.data[:, 0] = -1e4    # the gates of tokens whose sum(z) > 0
    ids = np.random.default_rng(8).integers(0, 32, size=(2, 9))
    silu, gates = nk.silu, []
    monkeypatch.setattr(nk, "silu", lambda a: gates.append(a.data.min()) or silu(a))
    watch = watch_block(monkeypatch, layer=None)

    def both():
        return hybrid.forward(ids).data, hybrid.forward_cached(ids, hybrid.init_caches())[0].data

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = both()
    assert watch["runs"] == 2 * hybrid.cfg.L  # no replay
    assert min(gates) < -np.log(np.finfo(np.float32).max)  # silu's exp did overflow
    with np.errstate(over="ignore"):
        monkeypatch.setattr(nk, "checked_once", lambda run, made: run())
        eager = both()
    assert all(f.tobytes() == e.tobytes() for f, e in zip(fast, eager))


def test_a_replay_after_a_cache_append_keeps_the_cache(monkeypatch):
    # the fast pass of MLA layer 0 appends its row to the cache's buffer in
    # place, then raises a flag; the replay appends to a copy, and every later
    # step still matches the whole-sequence forward
    _, mla, mamba = converted_pair()
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    ids = np.random.default_rng(9).integers(0, 32, size=12)
    full = hybrid.forward(ids).data
    silu, armed = nk.silu, [False]

    def flagged(a):
        if armed[0] and "silu" in nk._grad_state.unchecked:
            armed[0] = False
            raise FloatingPointError("overflow encountered")
        return silu(a)

    monkeypatch.setattr(nk, "silu", flagged)
    with nk.no_grad():
        logits, caches = hybrid.forward_cached(ids[:6], hybrid.init_caches())
        for k in range(6, 12):
            armed[0] = k == 7
            buf = caches[0].buf
            step, caches = hybrid.forward_cached(ids[k:k + 1], caches)
            if k > 6:  # step 6 doubles the buffer; step 7's replay copies it
                assert (caches[0].buf is buf) == (k != 7)
            assert np.abs(step.data - full[k]).max() <= 1e-12


def test_moves_share_memory_in_both_grad_modes():
    a = nk.tensor(np.arange(24.0).reshape(2, 3, 4))
    with nk.no_grad():
        assert np.shares_memory(nk.getitem(a, (..., slice(1, 3))).data, a.data)
        assert np.shares_memory(nk.transpose(a, (0, 2, 1)).data, a.data)
    p = nk.tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    for out in (nk.getitem(p, (..., slice(1, 3))), nk.transpose(p, (0, 2, 1))):
        assert np.shares_memory(out.data, p.data) and out._parents == (p,)


# -- cache budget report ----------------------------------------------------------

# published per-model cache footprints: (L, d, n_h, n_kv, d_h, r_q, r_kv,
# d_qk, d_r, retained layer indices, percent of the all-attention baseline)
PUBLISHED_BUDGETS = [
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32,
     [0, 2, 4, 6, 8, 10, 12, 14], 7.81),
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32,
     [0, 2, 5, 8, 11, 14], 5.86),
    (16, 2048, 32, 8, 64, 1344, 128, 32, 32,
     [0, 5, 10, 14], 3.91),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64,
     [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 27], 4.69),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64,
     [0, 4, 8, 12, 16, 20, 24, 27], 2.68),
    (28, 3072, 24, 8, 128, 1536, 128, 64, 64,
     [0, 5, 11, 17, 22, 27], 2.01),
    (32, 4096, 32, 8, 128, 2048, 160, 64, 64,
     [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 31], 5.47),
    (32, 4096, 32, 8, 128, 2048, 160, 64, 64,
     [0, 4, 8, 13, 18, 23, 27, 31], 2.73),
]


@pytest.mark.parametrize("row", PUBLISHED_BUDGETS, ids=lambda r: f"L{r[0]}-N{len(r[9])}")
def test_kv_report_published_percentages(row):
    L, d, n_h, n_kv, d_h, r_q, r_kv, d_qk, d_r, indices, want = row
    cfg = ModelConfig(L=L, d=d, n_h=n_h, n_kv=n_kv, d_h=d_h, vocab=256)
    mcfg = MLAConfig(r_q=r_q, r_kv=r_kv, d_qk=d_qk, d_v=d_h, d_r=d_r)
    report = kv_report(cfg, HybridLayout(mla_indices=indices), mcfg, t=2048)
    assert abs(report["percent_of_baseline"] - want) <= 0.01


def test_kv_report_percent_invariant_to_t_and_width():
    cfg = toy_cfg()
    mcfg = toy_mcfg()
    layout = HybridLayout(mla_indices=[0, 3])
    base = kv_report(cfg, layout, mcfg, t=128)["percent_of_baseline"]
    assert kv_report(cfg, layout, mcfg, t=4096)["percent_of_baseline"] == base
    assert kv_report(cfg, layout, mcfg, t=128, elem_bytes=8)["percent_of_baseline"] == base


def test_kv_report_bytes_and_kinds():
    cfg = toy_cfg()
    mcfg = toy_mcfg()
    report = kv_report(cfg, HybridLayout(mla_indices=[1]), mcfg, t=10, elem_bytes=4)
    assert report["layer_kinds"] == [KIND_MAMBA2, KIND_MLA, KIND_MAMBA2, KIND_MAMBA2]
    assert report["per_layer_bytes"] == [0, (6 + 2) * 10 * 4, 0, 0]
    assert report["total_kv_bytes"] == 320
    assert report["baseline_kv_bytes"] == 4 * 2 * 2 * 4 * 10 * 4
    with pytest.raises(ValueError):
        kv_report(cfg, HybridLayout(mla_indices=[1]), mcfg, t=0)


def test_kv_report_pure_ssm_is_zero_percent():
    report = kv_report(toy_cfg(), HybridLayout(mla_indices=[]), toy_mcfg(), t=64)
    assert report["total_kv_bytes"] == 0
    assert report["percent_of_baseline"] == 0.0
    assert report["ssm_state_bytes"] > 0


def test_kv_report_ssm_state_matches_live_states():
    _, mla, mamba = converted_pair(dtype=np.float32)
    hybrid = assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))
    report = kv_report(hybrid.cfg, HybridLayout(mla_indices=[0, 2]), hybrid.mcfg, t=5)
    per_state = SsmState.empty(hybrid.cfg).byte_size()
    assert report["ssm_state_bytes"] == 2 * per_state


def test_kv_report_matches_live_cache_growth():
    # an MLA donor's hybrid, and MHA donors' (one built with an MLAConfig), whose
    # hybrids keep no mcfg, so their reports take mcfg=None
    teacher, mla, mamba = converted_pair(dtype=np.float32)
    mha_with_mcfg = build_model(toy_cfg(), toy_mcfg(), seed=4)
    layout, t = HybridLayout(mla_indices=[0, 2]), 9
    for donor in (mla, teacher, mha_with_mcfg):
        hybrid = assemble(donor, mamba, layout)
        caches = hybrid.init_caches(np.float32)
        with nk.no_grad():
            _, caches = hybrid.forward_cached(np.arange(t) % 32, caches)
        kv, ssm = hybrid.cache_bytes(caches)
        report = kv_report(hybrid.cfg, layout, hybrid.mcfg, t=t)
        assert report["layer_kinds"] == hybrid.cfg.layer_kinds
        assert kv == report["total_kv_bytes"]
        assert ssm == report["ssm_state_bytes"]
    assert hybrid.mcfg is None
    assert report["percent_of_baseline"] == 100 * layout.N / hybrid.cfg.L


# -- checkpoints --------------------------------------------------------------------


def hybrid_model():
    _, mla, mamba = converted_pair(dtype=np.float32)
    return assemble(mla, mamba, HybridLayout(mla_indices=[0, 2]))


def read_raw(path):
    """A checkpoint's JSON header and payload; the 16-byte preamble is the
    magic, the u32 format version and the u64 header length."""
    blob = open(path, "rb").read()
    hlen = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    return json.loads(blob[16 : 16 + hlen]), blob[16 + hlen :]


def write_raw(path, header, payload=b""):
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(b"HFRG")
        f.write(np.array([FORMAT_VERSION], dtype="<u4").tobytes())
        f.write(np.array([len(blob)], dtype="<u8").tobytes())
        f.write(blob)
        f.write(payload)


def test_checkpoint_round_trip_every_tensor(tmp_path):
    teacher, _, mamba = converted_pair(dtype=np.float32)
    for model in (hybrid_model(), assemble(teacher, mamba, HybridLayout(mla_indices=[0, 3]))):
        path = str(tmp_path / "model.hfrg")
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        assert again.cfg == model.cfg
        assert again.mcfg == model.mcfg
        for (name, a), (_, b) in zip(model.named_tensors(), again.named_tensors()):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a.data, b.data), name
        ids = np.arange(6) % 32
        assert np.array_equal(model.forward(ids).data, again.forward(ids).data)


def test_checkpoint_bytes_stable_across_cycles(tmp_path):
    model = build_model(toy_cfg(), seed=4)  # attention kind included
    p1, p2, p3 = (str(tmp_path / f"m{i}.hfrg") for i in range(3))
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    save_checkpoint(load_checkpoint(p2), p3)
    b1, b2, b3 = (open(p, "rb").read() for p in (p1, p2, p3))
    assert b1 == b2 == b3


def test_checkpoint_header_only_read(tmp_path):
    model = hybrid_model()
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(model, path)
    header, _ = read_raw(path)
    assert ModelConfig(**header["cfg"]) == model.cfg
    assert MLAConfig(**header["mcfg"]) == model.mcfg
    names = [e["name"] for e in header["tensors"]]
    assert names == [n for n, _ in model.named_tensors()]
    for entry in header["tensors"]:
        assert entry["offset"] % 64 == 0


def test_checkpoint_detects_payload_corruption(tmp_path):
    model = hybrid_model()
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(model, path)
    header, payload = read_raw(path)
    payload = bytearray(payload)
    payload[header["tensors"][3]["offset"]] ^= 0xFF
    write_raw(path, header, bytes(payload))
    with pytest.raises(CheckpointError, match=f"^{header['tensors'][3]['name']}: checksum"):
        load_checkpoint(path)


def test_checkpoint_refuses_non_finite_tensors(tmp_path):
    # an optimizer step writes weights in place, unchecked: save refuses what it
    # left, writing nothing, and load names a non-finite tensor a file carries
    path = tmp_path / "model.hfrg"
    model = hybrid_model()
    model.layers[1].mixer.W_in.data[0, 0] = np.inf
    with pytest.raises(CheckpointError, match=r"^layers\.1\.mixer\.W_in: non-finite values$"):
        save_checkpoint(model, str(path))
    assert not list(tmp_path.iterdir())
    save_checkpoint(hybrid_model(), str(path))
    header, payload = read_raw(path)
    entry = header["tensors"][3]
    lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
    payload = bytearray(payload)
    payload[lo : lo + 4] = np.array([np.nan], dtype="<f4").tobytes()
    entry["crc32"] = zlib.crc32(payload[lo:hi])
    write_raw(path, header, bytes(payload))
    with pytest.raises(CheckpointError, match=f"^{entry['name']}: non-finite values$"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(hybrid_model(), path)
    blob = bytearray(open(path, "rb").read())
    blob[0] = ord(b"X")
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    # 1 is the format before the fused SSM in-projection, 2 the one whose
    # header still carried conv_k
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(hybrid_model(), path)
    for version in (99, 1, 2):
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = np.array([version], dtype="<u4").tobytes()
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match=f"format version {version} unsupported"):
            load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(hybrid_model(), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:40])  # cut inside the header
    with pytest.raises(CheckpointError, match="file truncated inside header"):
        load_checkpoint(path)


def test_directory_validation(tmp_path):
    # load validates the whole directory before it reads any tensor
    path = str(tmp_path / "fake.hfrg")
    write_raw(path, {"tensors": [{"name": "a", "dtype": "int8", "shape": [2],
                                  "offset": 0, "nbytes": 2, "crc32": 0}]})
    with pytest.raises(CheckpointError, match="unknown dtype int8"):
        load_checkpoint(path)
    write_raw(path, {"tensors": [{"name": "a", "dtype": "float32", "shape": [2],
                                  "offset": 0, "nbytes": 4, "crc32": 0}]})
    with pytest.raises(CheckpointError, match="a: shape/nbytes mismatch"):
        load_checkpoint(path)
    write_raw(path, {"tensors": [
        {"name": "a", "dtype": "float32", "shape": [4], "offset": 0, "nbytes": 16, "crc32": 0},
        {"name": "b", "dtype": "float32", "shape": [4], "offset": 8, "nbytes": 16, "crc32": 0},
    ]})
    with pytest.raises(CheckpointError, match="overlapping tensors a and b"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor(tmp_path):
    model = hybrid_model()
    path = str(tmp_path / "model.hfrg")
    save_checkpoint(model, path)
    header, payload = read_raw(path)
    header["tensors"] = [e for e in header["tensors"] if e["name"] != "embed"]
    write_raw(path, header, payload)
    with pytest.raises(CheckpointError, match="missing tensor 'embed'"):
        load_checkpoint(path)


def test_checkpoint_rejects_mis_shaped_tensors(tmp_path):
    # save writes whatever the model holds; load checks every shape against the header
    path = str(tmp_path / "model.hfrg")
    model = build_model(toy_cfg(), seed=0)
    model.layers[0].mlp_up = nk.Tensor(np.zeros((16, 7), dtype=np.float32))
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=r"^layers\.0\.mlp_up shape \(16, 7\) != expected"):
        load_checkpoint(path)
    model = hybrid_model()
    model.layers[1].mixer.W_in = nk.Tensor(model.layers[1].mixer.W_in.data[:, :-1])
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match=r"^layers\.1\.mixer\.W_in shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_conv_width_below_one(tmp_path):
    # the width is ssm.CONV_K; load refuses any other, 3 included, by the tensor's path
    path = str(tmp_path / "model.hfrg")
    model = hybrid_model()
    conv = model.layers[1].mixer.conv.data
    for width in (0, 3):
        model.layers[1].mixer.conv = nk.Tensor(conv[:, :width])
        save_checkpoint(model, path)
        xbc = conv.shape[0]
        want = rf"^layers\.1\.mixer\.conv shape \({xbc}, {width}\) != expected \({xbc}, 4\)"
        with pytest.raises(CheckpointError, match=want):
            load_checkpoint(path)
