"""Subcommand front-end wiring the pipeline stages with JSON config files.

Conventions:
  - logs go to stderr; machine-readable results go to stdout or --out files
  - exit 0 success, 1 usage error, 2 runtime or validation error
  - paths inside a config or manifest resolve relative to that file's directory
  - every stage validates its config fully before touching compute
  - HF_FORGE_THREADS caps worker counts requested via --jobs
"""

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkernel as nk
from .attention import KIND_MAMBA2, KIND_MLA, MLAConfig, ModelConfig
from .compose import (
    CheckpointError,
    assemble,
    atomic_open,
    convert_model,
    kv_report,
    load_checkpoint,
    save_checkpoint,
)
from .distill import DivergenceError, TrainConfig, run_ild, run_kd
from .harness import (
    SynthSpec,
    bench_csv,
    bench_rows,
    eval_model,
    pack_batches,
    sequences,
    stream_splits,
    train_teacher,
    unigram_perplexity,
)
from .smart import (
    HybridLayout,
    LayoutError,
    SensitivityProfile,
    score_sensitivity,
    smart_select,
)


class UsageError(Exception):
    """Bad command line; exits 1 with usage text."""


class StageError(Exception):
    """Bad config or missing/invalid artifact; exits 2."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def thread_cap() -> Optional[int]:
    raw = os.environ.get("HF_FORGE_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise StageError(f"HF_FORGE_THREADS must be an integer, got {raw!r}")
    if cap < 1:
        raise StageError("HF_FORGE_THREADS must be >= 1")
    return cap


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise StageError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise StageError(f"{what} is not valid JSON ({path}): {exc}")


def _resolve(base_file: str, p: str) -> str:
    if os.path.isabs(p):
        return p
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(base_file)), p))


def _check_keys(obj, required, optional, where: str) -> None:
    if not isinstance(obj, dict):
        raise StageError(f"{where}: expected a JSON object")
    missing = sorted(set(required) - set(obj))
    unknown = sorted(set(obj) - set(required) - set(optional))
    if missing:
        raise StageError(f"{where}: missing field(s): {', '.join(missing)}")
    if unknown:
        raise StageError(f"{where}: unknown field(s): {', '.join(unknown)}")


def _int(obj: dict, name: str, where: str, lo=None) -> int:
    v = obj[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise StageError(f"{where}: {name} must be an integer")
    if lo is not None and v < lo:
        raise StageError(f"{where}: {name} must be >= {lo}")
    return v


def _num(obj: dict, name: str, where: str) -> float:
    v = obj[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise StageError(f"{where}: {name} must be a number")
    return float(v)


def _str(obj: dict, name: str, where: str) -> str:
    v = obj[name]
    if not isinstance(v, str):
        raise StageError(f"{where}: {name} must be a string")
    return v


MODEL_KEYS = ("L", "d", "n_h", "n_kv", "d_h", "vocab")
MLA_KEYS = ("r_q", "r_kv", "d_qk", "d_v", "d_r")
TRAIN_KEYS = ("steps", "batch_size", "learning_rate", "warmup_fraction",
              "seed", "precision", "token_budget", "log_every")
SPEC_KEYS = ("vocab", "seq_len", "order", "copy_span", "copy_every",
             "mix_uniform", "buckets", "seed")


def _model_config(obj, where: str) -> ModelConfig:
    _check_keys(obj, MODEL_KEYS, (), where)
    return ModelConfig(**{k: _int(obj, k, where, lo=1) for k in MODEL_KEYS})


def _mla_config(obj, where: str) -> MLAConfig:
    _check_keys(obj, MLA_KEYS, (), where)
    return MLAConfig(**{k: _int(obj, k, where, lo=1) for k in MLA_KEYS})


def _train_config(obj, where: str, seed_override: Optional[int]) -> TrainConfig:
    _check_keys(obj, (), TRAIN_KEYS, where)
    kw = {}
    for k in TRAIN_KEYS:
        if k not in obj:
            continue
        if k == "precision":
            kw[k] = _str(obj, k, where)
        elif k in ("learning_rate", "warmup_fraction"):
            kw[k] = _num(obj, k, where)
        else:
            kw[k] = _int(obj, k, where, lo=0)
    if seed_override is not None:
        kw["seed"] = seed_override
    try:
        return TrainConfig(**kw)
    except ValueError as exc:
        raise StageError(f"{where}: {exc}")


def _synth_spec(obj, where: str, seed_override: Optional[int]) -> SynthSpec:
    _check_keys(obj, (), SPEC_KEYS, where)
    kw = {}
    for k in SPEC_KEYS:
        if k not in obj:
            continue
        kw[k] = _num(obj, k, where) if k == "mix_uniform" else _int(obj, k, where, lo=0)
    if seed_override is not None:
        kw["seed"] = seed_override
    try:
        return SynthSpec(**kw)
    except ValueError as exc:
        raise StageError(f"{where}: {exc}")


def _need(path: str, producer: str, what: str) -> str:
    if not os.path.exists(path):
        raise StageError(f"missing {what}: {path} (run '{producer}' first)")
    return path


def _out_dir(args, stage: str) -> str:
    if not args.out:
        raise UsageError(f"{stage} requires --out <dir>")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_text(path: str, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    log(f"wrote {path}")


# ---------------------------------------------------------------------------
# data artifacts


def _save_split(out: str, name: str, arr: np.ndarray) -> str:
    path = os.path.join(out, f"{name}.npy")
    with atomic_open(path) as fh:
        np.save(fh, arr)
    log(f"wrote {path} shape {arr.shape}")
    return path


def _load_data(data_dir: str, producer: str = "gen-data"):
    meta_path = os.path.join(data_dir, "meta.json")
    _need(meta_path, producer, "data directory")
    meta = _load_json(meta_path, "data meta")
    _check_keys(meta, ("batch_size", "count", "spec"), (), "data meta")
    bs = _int(meta, "batch_size", "data meta", lo=1)
    splits = {}
    for name in ("ild", "kd", "eval"):
        path = _need(os.path.join(data_dir, f"{name}.npy"), "gen-data", f"{name} split")
        splits[name] = pack_batches(np.load(path), bs)
    return meta, splits


def _cycle(batches_list, steps: int):
    return itertools.islice(itertools.cycle(batches_list), steps)


# ---------------------------------------------------------------------------
# stage handlers


def cmd_gen_data(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("count",), ("batch_size", "spec"), "gen-data config")
    count = _int(cfg, "count", "gen-data config", lo=5)
    bs = _int(cfg, "batch_size", "gen-data config", lo=1) if "batch_size" in cfg else 8
    spec = _synth_spec(cfg.get("spec", {}), "gen-data config: spec", args.seed)
    out = _out_dir(args, "gen-data")

    for name, (start, n) in stream_splits(count).items():
        _save_split(out, name, sequences(spec, start, n))
    meta = {"batch_size": bs, "count": count,
            "spec": {k: getattr(spec, k) for k in SPEC_KEYS}}
    _write_text(os.path.join(out, "meta.json"),
                json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("model", "data"), ("train",), "train-teacher config")
    mc = _model_config(cfg["model"], "train-teacher config: model")
    tc = _train_config(cfg.get("train", {}), "train-teacher config: train", args.seed)
    data_dir = _resolve(args.config, _str(cfg, "data", "train-teacher config"))
    out = _out_dir(args, "train-teacher")

    _, splits = _load_data(data_dir)
    teacher = train_teacher(mc, _cycle(splits["kd"], tc.steps), tc, log=sys.stderr)
    report = eval_model(teacher, splits["eval"])
    log(f"teacher held-out perplexity {report.perplexity:.4f} "
        f"(unigram baseline {unigram_perplexity(splits['kd']):.4f}, vocab {mc.vocab})")
    save_checkpoint(teacher, os.path.join(out, "teacher.hfrg"))
    log(f"wrote {os.path.join(out, 'teacher.hfrg')}")
    return 0


KIND_BY_NAME = {"mla": KIND_MLA, "mamba2": KIND_MAMBA2}


def cmd_upcycle(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("teacher",), ("mla", "conv_k", "random_seed"), "upcycle config")
    if args.kind == "mla" and "mla" not in cfg:
        raise StageError("upcycle config: --kind mla needs an 'mla' rank section")
    mcfg = _mla_config(cfg["mla"], "upcycle config: mla") if "mla" in cfg else None
    conv_k = _int(cfg, "conv_k", "upcycle config", lo=1) if "conv_k" in cfg else 4
    rand = _int(cfg, "random_seed", "upcycle config", lo=0) if "random_seed" in cfg else None
    teacher_path = _resolve(args.config, _str(cfg, "teacher", "upcycle config"))
    out = _out_dir(args, "upcycle")

    teacher = load_checkpoint(_need(teacher_path, "train-teacher", "teacher checkpoint"))
    student = convert_model(teacher, KIND_BY_NAME[args.kind], mcfg,
                            conv_k=conv_k, random_seed=rand)
    path = os.path.join(out, f"student_{args.kind}.hfrg")
    save_checkpoint(student, path)
    log(f"wrote {path}")
    return 0


def _distill_stage(args, stage: str, split_name: str, runner, student_producer: str,
                   default_suffix: str) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("teacher", "student", "data"), ("train", "save_as"), f"{stage} config")
    tc = _train_config(cfg.get("train", {}), f"{stage} config: train", args.seed)
    teacher_path = _resolve(args.config, _str(cfg, "teacher", f"{stage} config"))
    student_path = _resolve(args.config, _str(cfg, "student", f"{stage} config"))
    data_dir = _resolve(args.config, _str(cfg, "data", f"{stage} config"))
    save_as = _str(cfg, "save_as", f"{stage} config") if "save_as" in cfg else None
    out = _out_dir(args, stage)

    teacher = load_checkpoint(_need(teacher_path, "train-teacher", "teacher checkpoint"))
    student = load_checkpoint(_need(student_path, student_producer, "student checkpoint"))
    _, splits = _load_data(data_dir)
    trained = runner(teacher, student, _cycle(splits[split_name], tc.steps), tc,
                     log=sys.stderr)
    if save_as is None:
        stem = os.path.splitext(os.path.basename(student_path))[0]
        save_as = f"{stem}{default_suffix}.hfrg"
    path = os.path.join(out, save_as)
    save_checkpoint(trained, path)
    log(f"wrote {path}")
    return 0


def cmd_ild(args) -> int:
    return _distill_stage(args, "ild", "ild", run_ild, "upcycle", "_ild")


def cmd_distill(args) -> int:
    return _distill_stage(args, "distill", "kd", run_kd, "compose", "_kd")


def cmd_sensitivity(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("teacher", "full_mla", "full_mamba", "data"), ("samples",),
                "sensitivity config")
    samples = _int(cfg, "samples", "sensitivity config", lo=1) if "samples" in cfg else None
    paths = {k: _resolve(args.config, _str(cfg, k, "sensitivity config"))
             for k in ("teacher", "full_mla", "full_mamba", "data")}
    out = _out_dir(args, "sensitivity")

    teacher = load_checkpoint(_need(paths["teacher"], "train-teacher", "teacher checkpoint"))
    full_mla = load_checkpoint(_need(paths["full_mla"], "ild", "full-MLA checkpoint"))
    full_mamba = load_checkpoint(_need(paths["full_mamba"], "ild", "full-Mamba checkpoint"))
    meta, splits = _load_data(paths["data"])
    data = splits["eval"]
    if samples is not None:
        arr = np.concatenate([b.x for b in data])[:samples]
        if arr.shape[0] < samples:
            raise StageError(f"sensitivity config: samples={samples} exceeds the "
                             f"eval split ({arr.shape[0]} sequences)")
        data = pack_batches(arr, meta["batch_size"])

    jobs = args.jobs
    cap = thread_cap()
    if cap is not None:
        jobs = min(jobs, cap)
    profile = score_sensitivity(teacher, full_mamba, full_mla, data, jobs=jobs,
                                provenance={"data": os.path.basename(paths["data"])})
    _write_text(os.path.join(out, "sensitivity.json"), profile.to_json())
    return 0


def cmd_smart_select(args) -> int:
    if args.scores is None:
        raise UsageError("smart-select requires --scores <file>")
    if args.n is None:
        raise UsageError("smart-select requires --n <N>")
    raw = _load_json(_need(args.scores, "sensitivity", "scores file"), "scores file")
    if isinstance(raw, list):
        profile = SensitivityProfile(scores=raw)
    else:
        profile = SensitivityProfile.from_json(json.dumps(raw))
    layout = smart_select(profile, args.n)
    print(json.dumps(layout.mla_indices))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "layout.json"), layout.to_json())
    return 0


def cmd_compose(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("mla", "mamba", "layout"), (), "compose config")
    paths = {k: _resolve(args.config, _str(cfg, k, "compose config"))
             for k in ("mla", "mamba", "layout")}
    out = _out_dir(args, "compose")

    mla_model = load_checkpoint(_need(paths["mla"], "ild", "full-MLA checkpoint"))
    mamba_model = load_checkpoint(_need(paths["mamba"], "ild", "full-Mamba checkpoint"))
    layout_text = open(_need(paths["layout"], "smart-select", "layout file"),
                       encoding="utf-8").read()
    layout = HybridLayout.from_json(layout_text)
    hybrid = assemble(mla_model, mamba_model, layout)
    path = os.path.join(out, "hybrid.hfrg")
    save_checkpoint(hybrid, path)
    log(f"wrote {path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("model", "data"), ("teacher",), "eval config")
    model_path = _resolve(args.config, _str(cfg, "model", "eval config"))
    data_dir = _resolve(args.config, _str(cfg, "data", "eval config"))
    teacher_path = (_resolve(args.config, _str(cfg, "teacher", "eval config"))
                    if "teacher" in cfg else None)

    model = load_checkpoint(_need(model_path, "distill", "model checkpoint"))
    teacher = None
    if teacher_path is not None:
        teacher = load_checkpoint(_need(teacher_path, "train-teacher", "teacher checkpoint"))
    _, splits = _load_data(data_dir)
    report = eval_model(model, splits["eval"], teacher=teacher)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "eval.json"), report.to_json())
    else:
        print(report.to_json(), end="")
    return 0


def cmd_kv_report(args) -> int:
    if args.layout is None:
        raise UsageError("kv-report requires --layout <file>")
    if args.tokens is None:
        raise UsageError("kv-report requires --tokens <t>")
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("model", "mla"), ("elem_bytes", "conv_k"), "kv-report config")
    mc = _model_config(cfg["model"], "kv-report config: model")
    mcfg = _mla_config(cfg["mla"], "kv-report config: mla")
    elem = _int(cfg, "elem_bytes", "kv-report config", lo=1) if "elem_bytes" in cfg else 4
    conv_k = _int(cfg, "conv_k", "kv-report config", lo=1) if "conv_k" in cfg else 4

    layout_text = open(_need(args.layout, "smart-select", "layout file"),
                       encoding="utf-8").read()
    layout = HybridLayout.from_json(layout_text)
    report = kv_report(mc, layout, mcfg, t=args.tokens, elem_bytes=elem, conv_k=conv_k)
    print(f"{report['percent_of_baseline']:.2f}%")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "kv_report.json"),
                    json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_bench(args) -> int:
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, ("model", "prompt_len", "gen_lens"), ("reps", "seed"), "bench config")
    model_path = _resolve(args.config, _str(cfg, "model", "bench config"))
    prompt_len = _int(cfg, "prompt_len", "bench config", lo=1)
    gen_lens = cfg["gen_lens"]
    if (not isinstance(gen_lens, list) or not gen_lens
            or any(isinstance(g, bool) or not isinstance(g, int) or g < 1 for g in gen_lens)):
        raise StageError("bench config: gen_lens must be a non-empty list of positive ints")
    reps = _int(cfg, "reps", "bench config", lo=3) if "reps" in cfg else 3
    seed = args.seed if args.seed is not None else (
        _int(cfg, "seed", "bench config", lo=0) if "seed" in cfg else 0)

    model = load_checkpoint(_need(model_path, "compose", "model checkpoint"))
    rows = bench_rows(model, prompt_len, gen_lens, reps=reps, seed=seed)
    text = bench_csv(rows)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "bench.csv"), text)
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# pipeline manifest


STAGE_ORDER = {
    "gen-data": 0, "train-teacher": 1, "upcycle": 2, "ild": 3, "sensitivity": 4,
    "smart-select": 5, "compose": 6, "distill": 7, "eval": 8,
    "kv-report": 9, "bench": 10,
}

_MANIFEST_ENTRY_KEYS = ("config", "out", "seed", "kind", "n", "scores", "layout",
                        "tokens", "jobs", "outputs", "done")
# every entry key but outputs and done is a --flag of the stage's command
_MANIFEST_ARGV_KEYS = tuple(k for k in _MANIFEST_ENTRY_KEYS if k not in ("outputs", "done"))
_PATH_FLAGS = ("config", "scores", "layout")


@dataclass(frozen=True)
class StageEntry:
    stage: str
    argv: tuple
    outputs: tuple
    done: bool

    def command(self) -> list:
        return [self.stage, *self.argv]


@dataclass(frozen=True)
class PipelineManifest:
    path: str
    stages: tuple

    def commands(self) -> list:
        return [e.command() for e in self.stages]

    def status(self) -> list:
        return [(e.stage, bool(e.outputs) and all(os.path.exists(p) for p in e.outputs))
                for e in self.stages]


def load_manifest(path: str) -> PipelineManifest:
    raw = _load_json(path, "manifest")
    _check_keys(raw, ("stages",), (), "manifest")
    if not isinstance(raw["stages"], list) or not raw["stages"]:
        raise StageError("manifest: stages must be a non-empty list")
    entries = []
    last_rank = -1
    for i, entry in enumerate(raw["stages"]):
        where = f"manifest stage {i}"
        _check_keys(entry, ("stage",), _MANIFEST_ENTRY_KEYS, where)
        stage = _str(entry, "stage", where)
        if stage not in STAGE_ORDER:
            raise StageError(f"{where}: unknown stage {stage!r}")
        rank = STAGE_ORDER[stage]
        if rank < last_rank:
            raise StageError(f"{where}: {stage!r} is out of pipeline order")
        last_rank = rank
        argv = []
        for key in _MANIFEST_ARGV_KEYS:
            if key not in entry:
                continue
            val = entry[key]
            if key in _PATH_FLAGS or key == "out":
                val = _resolve(path, _str(entry, key, where))
            argv += [f"--{key}", str(val)]
        outputs = tuple(_resolve(path, p) for p in entry.get("outputs", []))
        done = bool(entry.get("done", False))
        if done:
            for p in outputs:
                if not os.path.exists(p):
                    raise StageError(f"{where}: marked done but output missing: {p}")
            if not outputs:
                raise StageError(f"{where}: marked done but lists no outputs")
        entries.append(StageEntry(stage, tuple(argv), outputs, done))
    return PipelineManifest(path=os.path.abspath(path), stages=tuple(entries))


def run_manifest(path: str) -> int:
    """Dispatch every manifest stage in order through the normal CLI path."""
    try:
        manifest = load_manifest(path)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for cmd in manifest.commands():
        log(f"pipeline: {' '.join(cmd)}")
        rc = main(cmd)
        if rc != 0:
            return rc
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _u64(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return v


def build_parser() -> _Parser:
    parser = _Parser(prog="hybridforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="<command>")
    sub.required = True

    handlers = {
        "gen-data": (cmd_gen_data, "generate deterministic synthetic token splits"),
        "train-teacher": (cmd_train_teacher, "train the attention-only teacher"),
        "upcycle": (cmd_upcycle, "convert the teacher into a single-kind student"),
        "ild": (cmd_ild, "align student mixer outputs to the teacher layerwise"),
        "sensitivity": (cmd_sensitivity, "score per-layer KL reduction of swaps"),
        "smart-select": (cmd_smart_select, "pick attention layer placement"),
        "compose": (cmd_compose, "assemble a hybrid from two students and a layout"),
        "distill": (cmd_distill, "end-to-end KL distillation of a student"),
        "eval": (cmd_eval, "perplexity and KL-to-teacher on held-out data"),
        "kv-report": (cmd_kv_report, "per-layer cache budget vs full-attention"),
        "bench": (cmd_bench, "decode throughput and peak cache measurement"),
    }
    for name, (fn, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.error = parser.error
        p.add_argument("--config", help="JSON config file for this stage")
        p.add_argument("--seed", type=_u64, default=None,
                       help="override the config seed (u64)")
        p.add_argument("--out", default=None, help="directory for result artifacts")
        if name == "upcycle":
            p.add_argument("--kind", choices=("mla", "mamba2"), required=True)
        if name == "smart-select":
            p.add_argument("--scores", default=None, help="sensitivity profile JSON")
            p.add_argument("--n", type=int, default=None,
                           help="number of attention layers to place")
        if name == "kv-report":
            p.add_argument("--layout", default=None, help="layout JSON file")
            p.add_argument("--tokens", type=int, default=None,
                           help="sequence length for the byte accounting")
        if name == "sensitivity":
            p.add_argument("--jobs", type=int, default=1,
                           help="eval batches scored in parallel")
        p.set_defaults(func=fn)
    return parser


_CONFIG_REQUIRED = {"gen-data", "train-teacher", "upcycle", "ild", "sensitivity",
                    "compose", "distill", "eval", "kv-report", "bench"}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in _CONFIG_REQUIRED and not args.config:
            raise UsageError(f"{args.command} requires --config <file>")
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be >= 1")
        if getattr(args, "tokens", 1) is not None and getattr(args, "tokens", 1) < 1:
            raise UsageError("--tokens must be >= 1")
        if getattr(args, "n", 0) is not None and getattr(args, "n", 0) < 0:
            raise UsageError("--n must be >= 0")
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LayoutError, CheckpointError, DivergenceError,
            nk.KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
