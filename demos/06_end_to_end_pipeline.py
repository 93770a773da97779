"""
One manifest, the whole pipeline
================================

Every stage of the toolkit is a CLI subcommand, and a manifest chains them:
generate data, train a small teacher, factorize it into all-attention and
all-SSM students, align both to the teacher, score per-layer sensitivity,
pick a layout, compose the hybrid, distill it, and evaluate.  This demo
writes the configs and manifest into a temporary directory, runs the
manifest through the normal CLI dispatch, reads back the results, and
removes the directory.  Training steps are kept tiny; the point is the
plumbing, not the loss curve.
"""

import json
import pathlib
import tempfile

from hybridforge.cli import load_manifest, run_manifest

# removed by cleanup() at the end, or at interpreter exit if a stage raises
workspace = tempfile.TemporaryDirectory(prefix="hybridforge_demo_")
scratch = pathlib.Path(workspace.name)
cfg_dir = scratch / "configs"
cfg_dir.mkdir()


def write(name, obj):
    (cfg_dir / name).write_text(json.dumps(obj, indent=2) + "\n")


# Stage configs reference artifacts relative to the config file's own
# directory, so the whole workspace is relocatable.
model = {"L": 4, "d": 16, "n_h": 4, "n_kv": 2, "d_h": 4, "vocab": 32}
mla = {"r_q": 8, "r_kv": 6, "d_qk": 2, "d_v": 4, "d_r": 2}
train = {"steps": 6, "learning_rate": 1e-3, "log_every": 0}
write("data.json", {"count": 50, "batch_size": 4,
                    "spec": {"vocab": 32, "seq_len": 17, "copy_span": 6,
                             "copy_every": 4, "buckets": 32, "seed": 7}})
write("teacher.json", {"model": model, "train": train, "data": "../out"})
write("upcycle_mla.json", {"teacher": "../out/teacher.hfrg", "mla": mla})
write("upcycle_mamba2.json", {"teacher": "../out/teacher.hfrg"})
for kind in ("mla", "mamba2"):
    write(f"ild_{kind}.json", {"teacher": "../out/teacher.hfrg",
                               "student": f"../out/student_{kind}.hfrg",
                               "data": "../out", "train": train})
write("sensitivity.json", {"teacher": "../out/teacher.hfrg",
                           "full_mla": "../out/student_mla_ild.hfrg",
                           "full_mamba": "../out/student_mamba2_ild.hfrg",
                           "data": "../out", "samples": 4})
write("compose.json", {"mla": "../out/student_mla_ild.hfrg",
                       "mamba": "../out/student_mamba2_ild.hfrg",
                       "layout": "../out/layout.json"})
write("distill.json", {"teacher": "../out/teacher.hfrg",
                       "student": "../out/hybrid.hfrg",
                       "data": "../out", "train": train})
write("eval.json", {"model": "../out/hybrid_kd.hfrg",
                    "teacher": "../out/teacher.hfrg", "data": "../out"})

stages = [
    {"stage": "gen-data", "config": "configs/data.json", "out": "out",
     "outputs": ["out/ild.npy", "out/kd.npy", "out/eval.npy", "out/meta.json"]},
    {"stage": "train-teacher", "config": "configs/teacher.json", "out": "out",
     "outputs": ["out/teacher.hfrg"]},
    {"stage": "upcycle", "config": "configs/upcycle_mla.json", "kind": "mla",
     "out": "out", "outputs": ["out/student_mla.hfrg"]},
    {"stage": "upcycle", "config": "configs/upcycle_mamba2.json",
     "kind": "mamba2", "out": "out", "outputs": ["out/student_mamba2.hfrg"]},
    {"stage": "ild", "config": "configs/ild_mla.json", "out": "out",
     "outputs": ["out/student_mla_ild.hfrg"]},
    {"stage": "ild", "config": "configs/ild_mamba2.json", "out": "out",
     "outputs": ["out/student_mamba2_ild.hfrg"]},
    {"stage": "sensitivity", "config": "configs/sensitivity.json", "jobs": 2,
     "out": "out", "outputs": ["out/sensitivity.json"]},
    {"stage": "smart-select", "scores": "out/sensitivity.json", "n": 2,
     "out": "out", "outputs": ["out/layout.json"]},
    {"stage": "compose", "config": "configs/compose.json", "out": "out",
     "outputs": ["out/hybrid.hfrg"]},
    {"stage": "distill", "config": "configs/distill.json", "out": "out",
     "outputs": ["out/hybrid_kd.hfrg"]},
    {"stage": "eval", "config": "configs/eval.json", "out": "out",
     "outputs": ["out/eval.json"]},
]
manifest = scratch / "manifest.json"
manifest.write_text(json.dumps({"stages": stages}, indent=2) + "\n")

# run_manifest dispatches each stage through the same entry point the shell
# would use; stage logs go to stderr, results to files under out/ (the layout
# picker also echoes its choice to stdout, which is the line printed below).
rc = run_manifest(str(manifest))
print(f"\npipeline exit code: {rc}")
if rc != 0:
    raise SystemExit(rc)

# The manifest knows which declared outputs now exist.
for stage, done in load_manifest(str(manifest)).status():
    print(f"  {stage:13s} {'done' if done else 'missing output'}")

out = scratch / "out"
scores = json.loads((out / "sensitivity.json").read_text())["scores"]
layout = json.loads((out / "layout.json").read_text())["mla_indices"]
report = json.loads((out / "eval.json").read_text())
print(f"\nsensitivity scores: {[round(s, 4) for s in scores]}")
print(f"chosen attention layers: {layout}")
print(f"hybrid vs teacher after distillation: "
      f"perplexity {report['perplexity']:.2f}, "
      f"mean KL {report['mean_kl_to_teacher']:.4f}")
print(f"\n{len(list(out.iterdir()))} artifacts written; removing the workspace")
workspace.cleanup()
