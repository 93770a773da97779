"""CLI tests: exit codes, schema validation, artifacts, manifest replay."""

import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hybridforge.attention import MLAConfig, ModelConfig
from hybridforge.cli import load_manifest, main, run_manifest
from hybridforge.distill import TrainConfig
from hybridforge.harness import SynthSpec

ROOT = Path(__file__).resolve().parent.parent

# sixteen per-layer scores with the familiar published shape: strong early
# layers, mid-stack bumps, and a tail rise
SCORES_16 = [
    120.1, 31.2, 42.7, 38.9, 27.4, 61.3, 33.8, 29.5,
    55.6, 30.1, 73.2, 28.7, 26.9, 32.4, 88.8, 25.3,
]


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


def pipeline_workspace(tmp_path, steps=4, layout_n=1):
    """Configs + manifest for a tiny but complete pipeline run."""
    cfg_dir = tmp_path / "configs"
    model = {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32}
    mla = {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2}
    train = {"steps": steps, "learning_rate": 1e-3, "log_every": 0}
    write_json(cfg_dir / "data.json", {
        "count": 50, "batch_size": 4,
        "spec": {"vocab": 32, "seq_len": 17, "copy_span": 6, "copy_every": 4,
                 "buckets": 32, "seed": 7},
    })
    write_json(cfg_dir / "teacher.json",
               {"model": model, "train": train, "data": "../out"})
    write_json(cfg_dir / "upcycle_mla.json",
               {"teacher": "../out/teacher.hfrg", "mla": mla})
    write_json(cfg_dir / "upcycle_mamba2.json", {"teacher": "../out/teacher.hfrg"})
    for kind in ("mla", "mamba2"):
        write_json(cfg_dir / f"ild_{kind}.json", {
            "teacher": "../out/teacher.hfrg",
            "student": f"../out/student_{kind}.hfrg",
            "data": "../out", "train": train,
        })
    write_json(cfg_dir / "sensitivity.json", {
        "teacher": "../out/teacher.hfrg",
        "full_mla": "../out/student_mla_ild.hfrg",
        "full_mamba": "../out/student_mamba2_ild.hfrg",
        "data": "../out", "samples": 4,
    })
    write_json(cfg_dir / "compose.json", {
        "mla": "../out/student_mla_ild.hfrg",
        "mamba": "../out/student_mamba2_ild.hfrg",
        "layout": "../out/layout.json",
    })
    write_json(cfg_dir / "distill.json", {
        "teacher": "../out/teacher.hfrg", "student": "../out/hybrid.hfrg",
        "data": "../out", "train": train,
    })
    write_json(cfg_dir / "eval.json", {
        "model": "../out/hybrid_kd.hfrg", "teacher": "../out/teacher.hfrg",
        "data": "../out",
    })
    stages = [
        {"stage": "gen-data", "config": "configs/data.json", "out": "out",
         "outputs": ["out/ild.npy", "out/kd.npy", "out/eval.npy", "out/meta.json"]},
        {"stage": "train-teacher", "config": "configs/teacher.json", "out": "out",
         "outputs": ["out/teacher.hfrg"]},
        {"stage": "upcycle", "config": "configs/upcycle_mla.json", "kind": "mla",
         "out": "out", "outputs": ["out/student_mla.hfrg"]},
        {"stage": "upcycle", "config": "configs/upcycle_mamba2.json", "kind": "mamba2",
         "out": "out", "outputs": ["out/student_mamba2.hfrg"]},
        {"stage": "ild", "config": "configs/ild_mla.json", "out": "out",
         "outputs": ["out/student_mla_ild.hfrg"]},
        {"stage": "ild", "config": "configs/ild_mamba2.json", "out": "out",
         "outputs": ["out/student_mamba2_ild.hfrg"]},
        {"stage": "sensitivity", "config": "configs/sensitivity.json", "jobs": 2,
         "out": "out", "outputs": ["out/sensitivity.json"]},
        {"stage": "smart-select", "scores": "out/sensitivity.json", "n": layout_n,
         "out": "out", "outputs": ["out/layout.json"]},
        {"stage": "compose", "config": "configs/compose.json", "out": "out",
         "outputs": ["out/hybrid.hfrg"]},
        {"stage": "distill", "config": "configs/distill.json", "out": "out",
         "outputs": ["out/hybrid_kd.hfrg"]},
        {"stage": "eval", "config": "configs/eval.json", "out": "out",
         "outputs": ["out/eval.json"]},
    ]
    manifest = write_json(tmp_path / "manifest.json", {"stages": stages})
    return manifest, tmp_path / "out"


def out_bytes(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


# -- exit codes and usage ------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert main(["quantize"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_bad_seed_is_usage_error(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"count": 10})
    assert main(["gen-data", "--config", cfg, "--seed", "-4"]) == 1
    assert main(["gen-data", "--config", cfg, "--seed", str(2 ** 64)]) == 1


def test_missing_config_flag_is_usage_error(capsys):
    assert main(["gen-data"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_missing_out_flag_is_usage_error(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"count": 10})
    assert main(["gen-data", "--config", cfg]) == 1
    assert "requires --out" in capsys.readouterr().err


def test_upcycle_kind_is_mandatory_and_checked(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"teacher": "t.hfrg"})
    assert main(["upcycle", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert main(["upcycle", "--kind", "gru", "--config", cfg,
                 "--out", str(tmp_path)]) == 1


# -- config schema validation --------------------------------------------------


def test_config_file_missing_exits_2(capsys, tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_config_bad_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def refused_with_error(capsys, rc):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_out_path_that_is_a_file_exits_2(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"count": 10})
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    err = refused_with_error(capsys, main(["gen-data", "--config", cfg, "--out", str(taken)]))
    assert str(taken) in err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [
    ["gen-data", "--config", "{dir}", "--out", "{dir}/o"],
    ["smart-select", "--n", "2", "--scores", "{dir}"],
])
def test_json_input_that_is_a_directory_exits_2(capsys, tmp_path, argv):
    err = refused_with_error(capsys, main([a.format(dir=tmp_path) for a in argv]))
    assert f"({tmp_path}): " in err


def test_manifest_that_is_a_directory_exits_2(capsys, tmp_path):
    err = refused_with_error(capsys, run_manifest(str(tmp_path)))
    assert f"manifest cannot be read ({tmp_path})" in err


def test_checkpoint_path_that_is_a_directory_exits_2(capsys, tmp_path):
    (tmp_path / "teacher.hfrg").mkdir()
    cfg = write_json(tmp_path / "c.json", {"teacher": "teacher.hfrg"})
    rc = main(["upcycle", "--kind", "mamba2", "--config", cfg, "--out", str(tmp_path / "o")])
    assert str(tmp_path / "teacher.hfrg") in refused_with_error(capsys, rc)


KV_MODEL = {"model": {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32},
            "mla": {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2}}


@pytest.mark.parametrize("argv,cfg_obj", [
    (["gen-data"], {"count": 20, "typo_field": 1}),
    (["compose"], {"mla": "a.hfrg", "mamba": "b.hfrg", "layout": "l.json",
                   "divergence_tol": 1e-6}),
    # batches are packed by the data directory's batch_size, so train has none
    (["train-teacher"], {"model": {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4,
                                   "vocab": 32},
                         "data": "data", "train": {"steps": 1, "batch_size": 4}}),
    # the artifact is always <student stem>_ild.hfrg
    (["ild"], {"teacher": "t.hfrg", "student": "s.hfrg", "data": "d", "save_as": "x.hfrg"}),
    # the SSM conv width is the constant ssm.CONV_K
    (["upcycle", "--kind", "mamba2"], {"teacher": "t.hfrg", "conv_k": 4}),
    (["kv-report", "--layout", "l.json", "--tokens", "8"], {**KV_MODEL, "conv_k": 4}),
    # the stream is always the order-2 process
    (["gen-data"], {"count": 20, "spec": {"order": 2}}),
    # a teacher always trains in float32; steps alone caps a training loop
    (["ild"], {"teacher": "t.hfrg", "student": "s.hfrg", "data": "d",
               "train": {"steps": 1, "precision": "float64"}}),
    (["distill"], {"teacher": "t.hfrg", "student": "s.hfrg", "data": "d",
                   "train": {"steps": 1, "token_budget": 40}}),
    # the warmup share, the uniform-noise share, the element width, the bench
    # repeat count and the bench seed (set by --seed) are constants
    (["ild"], {"teacher": "t.hfrg", "student": "s.hfrg", "data": "d",
               "train": {"steps": 1, "warmup_fraction": 0.1}}),
    (["gen-data"], {"count": 20, "spec": {"mix_uniform": 0.1}}),
    (["kv-report", "--layout", "l.json", "--tokens", "8"], {**KV_MODEL, "elem_bytes": 2}),
    (["bench"], {"model": "m.hfrg", "prompt_len": 4, "gen_lens": [2], "reps": 5}),
    (["bench"], {"model": "m.hfrg", "prompt_len": 4, "gen_lens": [2], "seed": 3}),
], ids=["gen-data", "compose", "train-batch_size", "ild-save_as", "upcycle-conv_k",
        "kv-report-conv_k", "gen-data-spec_order", "ild-precision", "distill-token_budget",
        "ild-warmup_fraction", "gen-data-spec_mix_uniform", "kv-report-elem_bytes",
        "bench-reps", "bench-seed"])
def test_config_unknown_field_exits_2(capsys, tmp_path, argv, cfg_obj):
    cfg = write_json(tmp_path / "c.json", cfg_obj)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_learning_rate_must_be_finite_and_positive(capsys, tmp_path, lr):
    # json.load reads the NaN and Infinity literals that json.dumps writes
    cfg = write_json(tmp_path / "c.json", {"teacher": "t.hfrg", "student": "s.hfrg", "data": "d",
                                           "train": {"steps": 1, "learning_rate": lr}})
    assert main(["ild", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert re.search(r"^error: ild config: train: learning_rate must be",
                     capsys.readouterr().err, re.M)


def test_learning_rate_too_large_for_a_float_exits_2(capsys, tmp_path):
    # a JSON integer past float range: float() of it raises OverflowError
    cfg = tmp_path / "c.json"
    cfg.write_text('{"teacher": "t.hfrg", "student": "s.hfrg", "data": "d", '
                   '"train": {"steps": 1, "learning_rate": 1' + "0" * 400 + '}}')
    assert main(["ild", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert re.search(r"^error: ild config: train: learning_rate must be a finite number$",
                     capsys.readouterr().err, re.M)


@pytest.mark.parametrize("key,cls", [("model", ModelConfig), ("mla", MLAConfig),
                                     ("train", TrainConfig), ("spec", SynthSpec)])
def test_readme_config_keys_are_the_dataclass_fields(key, cls):
    # the keys a config section takes: the fields without a default if the
    # class has any, else every field
    fields = dataclasses.fields(cls)
    want = ({f.name for f in fields if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING} or {f.name for f in fields})
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    found = re.findall(rf"`{key}` (?:is )?(?:any of )?`\{{([^}}]*)\}}`", readme)
    assert len(found) == 1, f"README states the {key} keys once"
    assert {k.strip() for k in found[0].split(",")} == want


def test_config_missing_field_exits_2(capsys, tmp_path):
    cfg = write_json(tmp_path / "c.json", {"batch_size": 4})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing field" in capsys.readouterr().err


def test_validation_happens_before_compute(capsys, tmp_path):
    # a bad model section must fail before any artifact is produced
    cfg = write_json(tmp_path / "t.json", {
        "model": {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32,
                  "extra": 9},
        "data": "data",
    })
    out = tmp_path / "o"
    assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "teacher.hfrg").exists()


# -- missing upstream artifacts name the producing stage ----------------------------


@pytest.mark.parametrize(
    "args_cfg,stage_named",
    [
        (("upcycle", "--kind", "mamba2", {"teacher": "missing.hfrg"}), "train-teacher"),
        (("ild", {"teacher": "missing.hfrg", "student": "s.hfrg", "data": "d",
                  }), "train-teacher"),
        # a donor is the ILD'd all-MLA student or the teacher: run 'ild' or 'train-teacher'
        pytest.param(("compose", {"mla": "a.hfrg", "mamba": "b.hfrg", "layout": "l.json"}),
                     "ild' or 'train-teacher", id="compose-donor"),
        (("distill", {"teacher": "missing.hfrg", "student": "s.hfrg", "data": "d"}),
         "train-teacher"),
        pytest.param(("sensitivity", {"teacher": "teacher.hfrg", "full_mla": "a.hfrg",
                                      "full_mamba": "b.hfrg", "data": "d"}),
                     "ild' or 'train-teacher", id="sensitivity-donor"),
    ],
)
def test_missing_upstream_names_stage(capsys, tmp_path, args_cfg, stage_named):
    from hybridforge import compose
    from hybridforge.attention import ModelConfig

    *argv_head, cfg_obj = args_cfg
    cfg = write_json(tmp_path / "c.json", cfg_obj)
    # sensitivity loads its teacher first; with one present, the donor is what is missing
    teacher = compose.build_model(ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32))
    compose.save_checkpoint(teacher, str(tmp_path / "teacher.hfrg"))
    rc = main([*argv_head, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"run '{stage_named}' first" in capsys.readouterr().err


def test_mis_shaped_checkpoint_exits_2_naming_its_path(capsys, tmp_path):
    from hybridforge import compose
    from hybridforge.attention import ModelConfig
    from hybridforge.numkernel import Tensor

    teacher = compose.build_model(ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32))
    teacher.layers[0].mlp_up = Tensor(np.zeros((16, 7), dtype=np.float32))
    compose.save_checkpoint(teacher, str(tmp_path / "teacher.hfrg"))
    cfg = write_json(tmp_path / "c.json", {"teacher": "teacher.hfrg"})
    out = tmp_path / "o"
    assert main(["upcycle", "--kind", "mamba2", "--config", cfg, "--out", str(out)]) == 2
    assert "error: layers.0.mlp_up shape (16, 7) != expected (16, 32)" in capsys.readouterr().err
    assert not (out / "student_mamba2.hfrg").exists()


def rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by ``edit(header)``; the payload stays."""
    blob = path.read_bytes()
    hlen = int(np.frombuffer(blob[8:16], dtype="<u8")[0])
    header = edit(json.loads(blob[16 : 16 + hlen]))
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + np.array([len(new)], dtype="<u8").tobytes() + new
                     + blob[16 + hlen :])


def refused_by_upcycle(capsys, tmp_path, message):
    """The upcycle stage on ``teacher.hfrg`` exits 2 with ``message``."""
    cfg = write_json(tmp_path / "c.json", {"teacher": "teacher.hfrg"})
    assert main(["upcycle", "--kind", "mamba2", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
    assert re.search(f"^error: {message}$", capsys.readouterr().err, re.M)
    assert not (tmp_path / "o" / "student_mamba2.hfrg").exists()


def saved_teacher(tmp_path):
    from hybridforge import compose
    from hybridforge.attention import ModelConfig

    path = tmp_path / "teacher.hfrg"
    compose.save_checkpoint(
        compose.build_model(ModelConfig(L=2, d=16, n_h=4, n_kv=2, d_h=4, vocab=32)), str(path))
    return path


@pytest.mark.parametrize("edit,message", [
    (lambda h: h["cfg"].update(extra=1), r"header cfg: .*unexpected keyword argument 'extra'"),
    (lambda h: h["cfg"].pop("vocab"), r"header cfg: .*missing .*argument: 'vocab'"),
    (lambda h: h.update(mcfg=[1]), r"header mcfg: expected an object"),
    (lambda h: h["cfg"].update(n_h=4.0, n_kv=2.0), r"header cfg\.n_h: expected a positive int"),
    (lambda h: h["cfg"].update(d_h=3),
     r"header cfg: d_h must be even for the rotary pairs of an MHA layer, got 3"),
], ids=["unknown", "missing", "not-an-object", "float-dims", "odd-d_h"])
def test_bad_header_config_exits_2_naming_its_field(capsys, tmp_path, edit, message):
    from hybridforge import compose

    path = saved_teacher(tmp_path)
    rewrite_header(path, lambda h: (edit(h), h)[1])
    with pytest.raises(compose.CheckpointError, match=f"^{message}$"):
        compose.load_checkpoint(str(path))
    refused_by_upcycle(capsys, tmp_path, message)


def test_a_format_3_checkpoint_exits_2(capsys, tmp_path):
    # a version-3 header carried cfg.rope_base; the base is now nk.ROPE_BASE
    from hybridforge import compose

    path = saved_teacher(tmp_path)
    rewrite_header(path, lambda h: (h["cfg"].update(rope_base=10000.0), h)[1])
    blob = bytearray(path.read_bytes())
    blob[4:8] = np.array([3], dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(compose.CheckpointError, match="^format version 3 unsupported$"):
        compose.load_checkpoint(str(path))
    refused_by_upcycle(capsys, tmp_path, "format version 3 unsupported")


def test_an_odd_head_dim_exits_2_before_compute(capsys, tmp_path):
    cfg = write_json(tmp_path / "t.json", {
        "model": {"L": 1, "d": 6, "n_h": 2, "n_kv": 1, "d_h": 3, "vocab": 8}, "data": "data"})
    out = tmp_path / "o"
    assert main(["train-teacher", "--config", cfg, "--out", str(out)]) == 2
    assert re.search(r"^error: train-teacher config: model: d_h must be even",
                     capsys.readouterr().err, re.M)
    assert not (out / "teacher.hfrg").exists()


def _edit_entry(key, value):
    def edit(h):
        if value is None:
            del h["tensors"][0][key]
        else:
            h["tensors"][0][key] = value
        return h
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda h: [], r"header: expected an object"),
    (lambda h: {"cfg": {}}, r"header tensors: expected a list"),
    (lambda h: {**h, "tensors": {}}, r"header tensors: expected a list"),
    (lambda h: {**h, "tensors": [7]}, r"header tensors\[0\]: expected an object"),
    (_edit_entry("crc32", None), r"header tensors\[0\]: missing crc32"),
    (_edit_entry("name", None), r"header tensors\[0\]: missing name"),
    (_edit_entry("offset", "0"), r"header tensors\[0\]\.offset: expected a non-negative int"),
    (_edit_entry("nbytes", -4), r"header tensors\[0\]\.nbytes: expected a non-negative int"),
    (_edit_entry("shape", 16), r"header tensors\[0\]\.shape: expected list"),
    (_edit_entry("shape", [16, "32"]),
     r"header tensors\[0\]\.shape: expected non-negative ints"),
    (_edit_entry("dtype", 4), r"header tensors\[0\]\.dtype: expected str"),
], ids=["list", "no-tensors", "tensors-object", "entry-not-object", "no-crc32", "no-name",
        "offset-str", "nbytes-negative", "shape-int", "shape-str-dim", "dtype-int"])
def test_malformed_header_directory_exits_2_naming_its_field(capsys, tmp_path, edit, message):
    from hybridforge import compose

    path = saved_teacher(tmp_path)
    rewrite_header(path, edit)
    with pytest.raises(compose.CheckpointError, match=f"^{message}$"):
        compose.load_checkpoint(str(path))
    refused_by_upcycle(capsys, tmp_path, message)


def test_missing_scores_names_sensitivity(capsys, tmp_path):
    rc = main(["smart-select", "--scores", str(tmp_path / "none.json"), "--n", "2"])
    assert rc == 2
    assert "run 'sensitivity' first" in capsys.readouterr().err


# -- gen-data ----------------------------------------------------------------------


def test_gen_data_writes_deterministic_splits(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json", {
        "count": 50, "batch_size": 4,
        "spec": {"vocab": 32, "seq_len": 17, "copy_span": 6, "copy_every": 4,
                 "buckets": 32, "seed": 7},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_bytes(out_a) == out_bytes(out_b)
    ild = np.load(out_a / "ild.npy")
    kd = np.load(out_a / "kd.npy")
    assert ild.shape == (10, 17)  # leading fifth of the stream
    assert kd.shape == (40, 17)
    meta = json.loads((out_a / "meta.json").read_text())
    assert meta["spec"]["vocab"] == 32


def test_gen_data_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     {"count": 20, "spec": {"vocab": 32, "seq_len": 17,
                                            "copy_span": 6, "seed": 7}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["gen-data", "--config", cfg, "--seed", "8", "--out", str(out_b)]) == 0
    assert not np.array_equal(np.load(out_a / "kd.npy"), np.load(out_b / "kd.npy"))


# -- smart-select and kv-report goldens ------------------------------------------------


def test_smart_select_published_single_attention_placements(tmp_path, capsys):
    scores = write_json(tmp_path / "scores.json", SCORES_16)
    out = tmp_path / "o"
    assert main(["smart-select", "--scores", scores, "--n", "4",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 5, 10, 14]
    layout = json.loads((out / "layout.json").read_text())
    assert layout == {"mla_indices": [0, 5, 10, 14]}


def test_smart_select_accepts_profile_object(tmp_path, capsys):
    scores = write_json(tmp_path / "p.json",
                        {"scores": SCORES_16, "provenance": {"note": "test"}})
    assert main(["smart-select", "--scores", scores, "--n", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 2, 5, 8, 11, 14]


def test_smart_select_requires_flags(capsys, tmp_path):
    scores = write_json(tmp_path / "s.json", SCORES_16)
    assert main(["smart-select", "--n", "4"]) == 1
    assert main(["smart-select", "--scores", scores]) == 1


def test_smart_select_rejects_non_finite_scores(tmp_path, capsys):
    # Python's json reads NaN, so a raw list can carry one into the CLI
    scores = write_json(tmp_path / "s.json", [1.0, float("nan"), *SCORES_16[2:]])
    assert main(["smart-select", "--scores", scores, "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("doc", [{"provenance": {}}, 5])
def test_smart_select_rejects_malformed_profile(tmp_path, capsys, doc):
    scores = write_json(tmp_path / "s.json", doc)
    assert main(["smart-select", "--scores", scores, "--n", "2"]) == 2
    assert "'scores' list" in capsys.readouterr().err


def test_kv_report_prints_published_percentage(tmp_path, capsys):
    cfg = write_json(tmp_path / "kv.json", {
        "model": {"L": 16, "d": 2048, "n_h": 32, "n_kv": 8, "d_h": 64,
                  "vocab": 32000},
        "mla": {"r_q": 1344, "r_kv": 128, "d_qk": 32, "d_v": 64, "d_r": 32},
    })
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"mla_indices": [0, 5, 10, 14]}))
    out = tmp_path / "o"
    assert main(["kv-report", "--config", cfg, "--layout", str(layout),
                 "--tokens", "2048", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "3.91%"
    report = json.loads((out / "kv_report.json").read_text())
    assert report["percent_of_baseline"] == 3.91


@pytest.mark.parametrize("doc,message", [
    ([0, 1], "a layout is a JSON object"),
    ({"indices": [0]}, "layout mla_indices: expected a list"),
    ({"mla_indices": 5}, "layout mla_indices: expected a list"),
    ({"mla_indices": [0.5]}, "layout mla_indices: expected integers"),
    ({"mla_indices": [True]}, "layout mla_indices: expected integers"),
], ids=["list", "missing", "not-a-list", "float", "bool"])
def test_kv_report_refuses_malformed_layout(capsys, tmp_path, doc, message):
    cfg = write_json(tmp_path / "kv.json", {
        "model": {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32},
        "mla": {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2},
    })
    layout = write_json(tmp_path / "l.json", doc)
    out = tmp_path / "o"
    assert main(["kv-report", "--config", cfg, "--layout", layout, "--tokens", "8",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "kv_report.json").exists()


def test_malformed_layout_file_is_named_by_its_path(capsys, tmp_path):
    # kv-report and compose read the layout file the same way as every other JSON input
    layout = tmp_path / "l.json"
    layout.write_text("{not json")
    kv = write_json(tmp_path / "kv.json", KV_MODEL)
    compose_cfg = write_json(tmp_path / "c.json",
                             {"mla": "a.hfrg", "mamba": "b.hfrg", "layout": "l.json"})
    for path in ("a.hfrg", "b.hfrg"):
        saved_teacher(tmp_path).rename(tmp_path / path)
    for cmd in (["kv-report", "--config", kv, "--layout", str(layout), "--tokens", "8"],
                ["compose", "--config", compose_cfg, "--out", str(tmp_path / "o")]):
        assert main(cmd) == 2
        assert f"error: layout file is not valid JSON ({layout}): " in capsys.readouterr().err


def test_kv_report_requires_layout_and_tokens(capsys, tmp_path):
    cfg = write_json(tmp_path / "kv.json", {
        "model": {"L": 2, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32},
        "mla": {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2},
    })
    assert main(["kv-report", "--config", cfg, "--tokens", "8"]) == 1
    layout = tmp_path / "l.json"
    layout.write_text(json.dumps({"mla_indices": [0]}))
    assert main(["kv-report", "--config", cfg, "--layout", str(layout)]) == 1


# kv-report of KV_MODEL with layout [1] at 8 tokens, as the stage wrote it
# when 'mla' was a required key
KV_REPORT_MLA = """{
  "baseline_kv_bytes": 1024,
  "elem_bytes": 4,
  "layer_kinds": [
    "mamba2",
    "mla"
  ],
  "per_layer_bytes": [
    0,
    256
  ],
  "percent_of_baseline": 25.0,
  "ssm_state_bytes": 640,
  "t": 8,
  "total_kv_bytes": 256
}
"""


def test_kv_report_mla_is_optional(tmp_path, capsys):
    # without 'mla' the placed layers are MHA, so the report reads N/L
    layout = write_json(tmp_path / "l.json", {"mla_indices": [1]})
    for name, cfg_obj, percent in (("mla", KV_MODEL, "25.00%"),
                                   ("mha", {"model": KV_MODEL["model"]}, "50.00%")):
        cfg = write_json(tmp_path / f"{name}.json", cfg_obj)
        out = tmp_path / name
        assert main(["kv-report", "--config", cfg, "--layout", layout, "--tokens", "8",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == percent
    assert (tmp_path / "mla" / "kv_report.json").read_text() == KV_REPORT_MLA
    report = json.loads((tmp_path / "mha" / "kv_report.json").read_text())
    assert report["layer_kinds"] == ["mamba2", "mha"]
    assert report["per_layer_bytes"] == [0, report["baseline_kv_bytes"] // 2]
    assert report["ssm_state_bytes"] == 640


def test_compose_places_the_donors_kind(tmp_path, capsys):
    # "mla" names the donor: the teacher places its own MHA; an all-SSM model is refused
    from hybridforge import compose

    teacher_path = saved_teacher(tmp_path)
    ssm = compose.convert_model(compose.load_checkpoint(str(teacher_path)), "mamba2")
    compose.save_checkpoint(ssm, str(tmp_path / "ssm.hfrg"))
    write_json(tmp_path / "layout.json", {"mla_indices": [0]})
    out = tmp_path / "o"
    for donor, rc in (("ssm.hfrg", 2), ("teacher.hfrg", 0)):
        cfg = write_json(tmp_path / "c.json",
                         {"mla": donor, "mamba": "ssm.hfrg", "layout": "layout.json"})
        assert main(["compose", "--config", cfg, "--out", str(out)]) == rc
        assert (out / "hybrid.hfrg").exists() == (rc == 0)
    assert "donor must be all-MHA or all-MLA" in capsys.readouterr().err
    hybrid = compose.load_checkpoint(str(out / "hybrid.hfrg"))
    assert hybrid.cfg.layer_kinds == ["mha", "mamba2"]


# -- full pipeline ---------------------------------------------------------------------


def test_full_pipeline_replay_is_byte_identical(tmp_path, capsys):
    manifest, out_dir = pipeline_workspace(tmp_path)
    assert run_manifest(manifest) == 0
    first = out_bytes(out_dir)
    assert len(first) == 14
    assert run_manifest(manifest) == 0
    assert out_bytes(out_dir) == first
    report = json.loads((out_dir / "eval.json").read_text())
    assert report["perplexity"] > 0
    assert report["mean_kl_to_teacher"] >= 0
    status = load_manifest(manifest).status()
    assert all(done for _, done in status)


def test_pipeline_seed_changes_artifacts(tmp_path, capsys):
    manifest, out_dir = pipeline_workspace(tmp_path)
    assert run_manifest(manifest) == 0
    teacher_a = (out_dir / "teacher.hfrg").read_bytes()
    raw = json.loads((tmp_path / "manifest.json").read_text())
    raw["stages"][1]["seed"] = 99  # reseed only the teacher stage
    (tmp_path / "manifest.json").write_text(json.dumps(raw))
    assert run_manifest(manifest) == 0
    assert (out_dir / "teacher.hfrg").read_bytes() != teacher_a


# -- sensitivity jobs ----------------------------------------------------------------


def test_sensitivity_jobs_write_identical_profiles(tmp_path, capsys):
    manifest, _ = pipeline_workspace(tmp_path)
    for cmd in load_manifest(manifest).commands()[:6]:  # through both ild stages
        assert main(cmd) == 0
    cfg = str(tmp_path / "configs" / "sensitivity.json")
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["sensitivity", "--config", cfg, "--jobs", "1", "--out", str(out_a)]) == 0
    assert main(["sensitivity", "--config", cfg, "--jobs", "8", "--out", str(out_b)]) == 0
    assert (out_a / "sensitivity.json").read_bytes() == \
        (out_b / "sensitivity.json").read_bytes()


# -- eval and bench outputs ---------------------------------------------------------


def test_eval_without_teacher_reports_null_kl(tmp_path, capsys):
    manifest, out_dir = pipeline_workspace(tmp_path)
    assert run_manifest(manifest) == 0
    cfg = write_json(tmp_path / "configs" / "eval2.json",
                     {"model": "../out/hybrid_kd.hfrg", "data": "../out"})
    capsys.readouterr()  # drop pipeline stdout before capturing the report
    assert main(["eval", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_kl_to_teacher"] is None
    assert report["perplexity"] > 0


def test_bench_csv_stdout_and_file(tmp_path, capsys):
    manifest, out_dir = pipeline_workspace(tmp_path)
    m = load_manifest(manifest)
    for cmd in m.commands()[:4]:  # data, teacher, both upcycles
        assert main(cmd) == 0
    cfg = write_json(tmp_path / "configs" / "bench.json", {
        "model": "../out/student_mamba2.hfrg",
        "prompt_len": 6, "gen_lens": [2, 4],
    })
    assert main(["bench", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "gen_len,tokens_per_s,peak_cache_bytes"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "4"]
    assert [ln.split(",")[2] for ln in lines[1:]] == ["0", "0"]  # pure-SSM stack
    out = tmp_path / "bo"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "bench.csv").read_text().splitlines()[0] == lines[0]


def test_bench_rejects_bad_gen_lens(tmp_path, capsys):
    cfg = write_json(tmp_path / "c.json",
                     {"model": "m.hfrg", "prompt_len": 4, "gen_lens": []})
    assert main(["bench", "--config", cfg]) == 2


# -- manifest validation ---------------------------------------------------------------


def test_manifest_rejects_unknown_stage(tmp_path):
    manifest = write_json(tmp_path / "m.json",
                          {"stages": [{"stage": "quantize"}]})
    assert run_manifest(manifest) == 2


def test_manifest_rejects_out_of_order_stages(tmp_path, capsys):
    manifest = write_json(tmp_path / "m.json", {"stages": [
        {"stage": "eval", "config": "e.json"},
        {"stage": "train-teacher", "config": "t.json"},
    ]})
    assert run_manifest(manifest) == 2
    assert "out of pipeline order" in capsys.readouterr().err


def test_manifest_done_flag_requires_outputs(tmp_path, capsys):
    manifest = write_json(tmp_path / "m.json", {"stages": [
        {"stage": "gen-data", "config": "d.json", "done": True},
    ]})
    assert run_manifest(manifest) == 2
    manifest = write_json(tmp_path / "m2.json", {"stages": [
        {"stage": "gen-data", "config": "d.json", "done": True,
         "outputs": ["out/missing.npy"]},
    ]})
    assert run_manifest(manifest) == 2


@pytest.mark.parametrize("field, value, message", [
    ("outputs", 5, "outputs must be a list of strings"),
    ("outputs", [3], "outputs must be a list of strings"),
    ("outputs", "out/a.npy", "outputs must be a list of strings"),
    ("done", "yes", "done must be true or false"),
    ("done", 1, "done must be true or false"),
])
def test_manifest_rejects_mistyped_outputs_and_done(tmp_path, capsys, field, value, message):
    manifest = write_json(tmp_path / "m.json", {"stages": [
        {"stage": "gen-data", "config": "d.json", field: value},
    ]})
    assert run_manifest(manifest) == 2
    assert f"manifest stage 0: {message}" in capsys.readouterr().err


def test_manifest_refuses_another_stages_flag_before_running(tmp_path, capsys):
    # --jobs belongs to sensitivity: the compose entry is refused at load, so
    # the smart-select entry before it never runs
    scores = write_json(tmp_path / "scores.json", SCORES_16)
    manifest = write_json(tmp_path / "m.json", {"stages": [
        {"stage": "smart-select", "scores": scores, "n": 4, "out": "out"},
        {"stage": "compose", "config": "c.json", "jobs": 2, "out": "out"},
    ]})
    assert run_manifest(manifest) == 2
    assert "manifest stage 1 (compose): unknown field(s): jobs" in capsys.readouterr().err
    assert not (tmp_path / "out" / "layout.json").exists()


def test_train_teacher_refuses_ids_outside_its_vocab(tmp_path, capsys):
    # data drawn at vocab 256 fed to a vocab-64 teacher: exit 2, no checkpoint
    data = write_json(tmp_path / "data.json", {
        "count": 12, "batch_size": 4,
        "spec": {"vocab": 256, "seq_len": 9, "copy_span": 6, "copy_every": 4, "seed": 3},
    })
    out = tmp_path / "out"
    assert main(["gen-data", "--config", data, "--out", str(out)]) == 0
    teacher = write_json(tmp_path / "teacher.json", {
        "model": {"L": 1, "d": 8, "n_h": 2, "n_kv": 1, "d_h": 4, "vocab": 64},
        "train": {"steps": 2, "log_every": 0}, "data": "out",
    })
    assert main(["train-teacher", "--config", teacher, "--out", str(out)]) == 2
    assert "ids must lie in [0, 64)" in capsys.readouterr().err
    assert not (out / "teacher.hfrg").exists()


def test_manifest_status_reflects_existing_outputs(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a.npy").write_bytes(b"x")
    manifest = write_json(tmp_path / "m.json", {"stages": [
        {"stage": "gen-data", "config": "d.json", "outputs": ["out/a.npy"]},
        {"stage": "eval", "config": "e.json", "outputs": ["out/missing.json"]},
    ]})
    status = load_manifest(str(manifest)).status()
    assert status == [("gen-data", True), ("eval", False)]


def test_upcycle_random_arm_differs_from_structured(tmp_path, capsys):
    manifest, out_dir = pipeline_workspace(tmp_path)
    m = load_manifest(manifest)
    for cmd in m.commands()[:2]:
        assert main(cmd) == 0
    cfg = write_json(tmp_path / "configs" / "up_rand.json", {
        "teacher": "../out/teacher.hfrg",
        "mla": {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2},
        "random_seed": 5,
    })
    out_r = tmp_path / "rand"
    assert main(["upcycle", "--kind", "mla", "--config", cfg,
                 "--out", str(out_r)]) == 0
    structured_cfg = str(tmp_path / "configs" / "upcycle_mla.json")
    out_s = tmp_path / "structured"
    assert main(["upcycle", "--kind", "mla", "--config", structured_cfg,
                 "--out", str(out_s)]) == 0
    assert (out_r / "student_mla.hfrg").read_bytes() != \
        (out_s / "student_mla.hfrg").read_bytes()


def test_upcycle_ignores_seed_flag(tmp_path, capsys):
    # --seed does not become the random-init seed: the structured arm stays structured
    manifest, out_dir = pipeline_workspace(tmp_path)
    for cmd in load_manifest(manifest).commands()[:2]:
        assert main(cmd) == 0
    cfg = str(tmp_path / "configs" / "upcycle_mla.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["upcycle", "--kind", "mla", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["upcycle", "--kind", "mla", "--config", cfg, "--seed", "7",
                 "--out", str(out_b)]) == 0
    assert out_bytes(out_a) == out_bytes(out_b)


class _TornFile:
    """A real file whose first write stops halfway with a disk error."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_interrupted_writes_keep_earlier_artifacts(tmp_path, monkeypatch):
    # a write that fails midway leaves the earlier target intact and no temp file
    from hybridforge import cli, compose
    from hybridforge.attention import ModelConfig

    model = compose.build_model(ModelConfig(L=1, d=8, n_h=2, n_kv=1, d_h=4, vocab=16))
    out = str(tmp_path)
    writers = {
        "meta.json": lambda text: cli._write_text(os.path.join(out, "meta.json"), text),
        "kd.npy": lambda text: cli._save_split(out, "kd", np.full(4, len(text))),
        "model.hfrg": lambda text: compose.save_checkpoint(
            model if text == "old" else model.astype(np.float64),
            os.path.join(out, "model.hfrg")),
    }
    for write in writers.values():
        write("old")
    before = {name: open(os.path.join(out, name), "rb").read() for name in writers}

    monkeypatch.setattr(compose, "open", lambda *a, **kw: _TornFile(open(*a, **kw)),
                        raising=False)
    for name, write in writers.items():
        with pytest.raises(OSError, match="disk full"):
            write("newer")
    assert sorted(os.listdir(out)) == sorted(writers)
    for name in writers:
        assert open(os.path.join(out, name), "rb").read() == before[name], name
