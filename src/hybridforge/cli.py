"""Subcommand front-end wiring the pipeline stages with JSON config files.

Conventions:
  - logs go to stderr; machine-readable results go to stdout or --out files
  - exit 0 success, 1 usage error, 2 runtime or validation error
  - paths inside a config or manifest resolve relative to that file's directory
  - every stage validates its config fully before touching compute
"""

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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


# ---------------------------------------------------------------------------
# config plumbing


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, or not readable
        raise StageError(f"{what} cannot be read ({path}): {exc.strerror}")
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
    # json.load accepts the NaN and Infinity literals, and integers too large for a float
    try:
        ok = not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
    except OverflowError:
        ok = False
    if not ok:
        raise StageError(f"{where}: {name} must be a finite number")
    return float(v)


def _str(obj: dict, name: str, where: str) -> str:
    v = obj[name]
    if not isinstance(v, str):
        raise StageError(f"{where}: {name} must be a string")
    return v


# readers of an optional config field, by the type of the field's default
_READ_BY_DEFAULT = {int: lambda obj, k, where: _int(obj, k, where, lo=0), float: _num, str: _str}


def _read_config(cls, obj, where: str, seed: Optional[int] = None):
    """Build a config dataclass from a JSON object; the class's fields are the schema.

    A class with fields without a default (``ModelConfig``, ``MLAConfig``) takes
    exactly those, as positive ints; otherwise every field is optional and read
    by the type of its default. A given ``seed`` overrides the object's.
    """
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    _check_keys(obj, required, () if required else [f.name for f in fields], where)
    if required:
        kw = {k: _int(obj, k, where, lo=1) for k in required}
    else:
        kw = {f.name: _READ_BY_DEFAULT[type(f.default)](obj, f.name, where)
              for f in fields if f.name in obj}
    if seed is not None:
        kw["seed"] = seed
    try:
        return cls(**kw)
    except ValueError as exc:
        raise StageError(f"{where}: {exc}")


def _stage_config(args, required, optional=()) -> dict:
    """The stage's --config object, checked against the stage's keys."""
    if not args.config:
        raise UsageError(f"{args.command} requires --config <file>")
    cfg = _load_json(args.config, "config")
    _check_keys(cfg, required, optional, f"{args.command} config")
    return cfg


def _config_path(args, cfg: dict, key: str) -> str:
    return _resolve(args.config, _str(cfg, key, f"{args.command} config"))


def _need(path: str, producer: str, what: str) -> str:
    """``path``, if it exists; ``producer`` names the stage, or stages joined
    by " or ", that write it."""
    if not os.path.exists(path):
        run = " or ".join(f"'{p}'" for p in producer.split(" or "))
        raise StageError(f"missing {what}: {path} (run {run} first)")
    return path


def _load_model(path: str, producer: str, what: str):
    return load_checkpoint(_need(path, producer, what))


def _save_model(model, out: str, name: str) -> None:
    path = os.path.join(out, name)
    save_checkpoint(model, path)
    log(f"wrote {path}")


def _out_dir(args) -> str:
    if not args.out:
        raise UsageError(f"{args.command} requires --out <dir>")
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_text(path: str, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    log(f"wrote {path}")


def _write_result(args, name: str, text: str) -> bool:
    """Write text to --out/name; False, writing nothing, when --out is not given."""
    if not args.out:
        return False
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, name), text)
    return True


# ---------------------------------------------------------------------------
# data artifacts


def _save_split(out: str, name: str, arr: np.ndarray) -> None:
    path = os.path.join(out, f"{name}.npy")
    with atomic_open(path) as fh:
        np.save(fh, arr)
    log(f"wrote {path} shape {arr.shape}")


def _load_data(data_dir: str):
    meta_path = os.path.join(data_dir, "meta.json")
    _need(meta_path, "gen-data", "data directory")
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
    cfg = _stage_config(args, ("count",), ("batch_size", "spec"))
    count = _int(cfg, "count", "gen-data config", lo=5)
    bs = _int(cfg, "batch_size", "gen-data config", lo=1) if "batch_size" in cfg else 8
    spec = _read_config(SynthSpec, cfg.get("spec", {}), "gen-data config: spec", args.seed)
    out = _out_dir(args)

    for name, (start, n) in stream_splits(count).items():
        _save_split(out, name, sequences(spec, start, n))
    meta = {"batch_size": bs, "count": count, "spec": dataclasses.asdict(spec)}
    _write_text(os.path.join(out, "meta.json"),
                json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_train_teacher(args) -> int:
    cfg = _stage_config(args, ("model", "data"), ("train",))
    mc = _read_config(ModelConfig, cfg["model"], "train-teacher config: model")
    tc = _read_config(TrainConfig, cfg.get("train", {}), "train-teacher config: train",
                      args.seed)
    data_dir = _config_path(args, cfg, "data")
    out = _out_dir(args)

    _, splits = _load_data(data_dir)
    teacher = train_teacher(mc, _cycle(splits["kd"], tc.steps), tc, log=sys.stderr)
    report = eval_model(teacher, splits["eval"])
    log(f"teacher held-out perplexity {report.perplexity:.4f} "
        f"(unigram baseline {unigram_perplexity(splits['kd']):.4f}, vocab {mc.vocab})")
    _save_model(teacher, out, "teacher.hfrg")
    return 0


def cmd_upcycle(args) -> int:
    cfg = _stage_config(args, ("teacher",), ("mla", "random_seed"))
    if args.kind == KIND_MLA and "mla" not in cfg:
        raise StageError("upcycle config: --kind mla needs an 'mla' rank section")
    mcfg = _read_config(MLAConfig, cfg["mla"], "upcycle config: mla") if "mla" in cfg else None
    rand = _int(cfg, "random_seed", "upcycle config", lo=0) if "random_seed" in cfg else None
    teacher_path = _config_path(args, cfg, "teacher")
    out = _out_dir(args)

    teacher = _load_model(teacher_path, "train-teacher", "teacher checkpoint")
    student = convert_model(teacher, args.kind, mcfg, random_seed=rand)
    _save_model(student, out, f"student_{args.kind}.hfrg")
    return 0


def _distill_stage(args, split_name: str, runner, student_producer: str, suffix: str) -> int:
    cfg = _stage_config(args, ("teacher", "student", "data"), ("train",))
    tc = _read_config(TrainConfig, cfg.get("train", {}), f"{args.command} config: train",
                      args.seed)
    teacher_path = _config_path(args, cfg, "teacher")
    student_path = _config_path(args, cfg, "student")
    data_dir = _config_path(args, cfg, "data")
    out = _out_dir(args)

    teacher = _load_model(teacher_path, "train-teacher", "teacher checkpoint")
    student = _load_model(student_path, student_producer, "student checkpoint")
    _, splits = _load_data(data_dir)
    trained = runner(teacher, student, _cycle(splits[split_name], tc.steps), tc,
                     log=sys.stderr)
    stem = os.path.splitext(os.path.basename(student_path))[0]
    _save_model(trained, out, f"{stem}{suffix}.hfrg")
    return 0


def cmd_ild(args) -> int:
    return _distill_stage(args, "ild", run_ild, "upcycle", "_ild")


def cmd_distill(args) -> int:
    return _distill_stage(args, "kd", run_kd, "compose", "_kd")


def cmd_sensitivity(args) -> int:
    cfg = _stage_config(args, ("teacher", "full_mla", "full_mamba", "data"), ("samples",))
    samples = _int(cfg, "samples", "sensitivity config", lo=1) if "samples" in cfg else None
    paths = {k: _config_path(args, cfg, k) for k in ("teacher", "full_mla", "full_mamba", "data")}
    out = _out_dir(args)

    teacher = _load_model(paths["teacher"], "train-teacher", "teacher checkpoint")
    donor = _load_model(paths["full_mla"], "ild or train-teacher", "donor checkpoint")
    full_mamba = _load_model(paths["full_mamba"], "ild", "full-Mamba checkpoint")
    meta, splits = _load_data(paths["data"])
    data = splits["eval"]
    if samples is not None:
        arr = np.concatenate([b.x for b in data])[:samples]
        if arr.shape[0] < samples:
            raise StageError(f"sensitivity config: samples={samples} exceeds the "
                             f"eval split ({arr.shape[0]} sequences)")
        data = pack_batches(arr, meta["batch_size"])

    profile = score_sensitivity(teacher, full_mamba, donor, data, jobs=args.jobs,
                                provenance={"data": os.path.basename(paths["data"])})
    _write_text(os.path.join(out, "sensitivity.json"), profile.to_json())
    return 0


def cmd_smart_select(args) -> int:
    if args.scores is None:
        raise UsageError("smart-select requires --scores <file>")
    if args.n is None:
        raise UsageError("smart-select requires --n <N>")
    raw = _load_json(_need(args.scores, "sensitivity", "scores file"), "scores file")
    profile = (SensitivityProfile(scores=raw) if isinstance(raw, list)
               else SensitivityProfile.from_json(json.dumps(raw)))
    layout = smart_select(profile, args.n)
    print(json.dumps(layout.mla_indices))
    _write_result(args, "layout.json", layout.to_json())
    return 0


def _load_layout(path: str) -> HybridLayout:
    with open(_need(path, "smart-select", "layout file"), encoding="utf-8") as fh:
        return HybridLayout.from_json(fh.read())


def cmd_compose(args) -> int:
    cfg = _stage_config(args, ("mla", "mamba", "layout"))
    paths = {k: _config_path(args, cfg, k) for k in ("mla", "mamba", "layout")}
    out = _out_dir(args)

    donor = _load_model(paths["mla"], "ild or train-teacher", "donor checkpoint")
    mamba_model = _load_model(paths["mamba"], "ild", "full-Mamba checkpoint")
    hybrid = assemble(donor, mamba_model, _load_layout(paths["layout"]))
    _save_model(hybrid, out, "hybrid.hfrg")
    return 0


def cmd_eval(args) -> int:
    cfg = _stage_config(args, ("model", "data"), ("teacher",))
    model_path = _config_path(args, cfg, "model")
    data_dir = _config_path(args, cfg, "data")
    teacher_path = _config_path(args, cfg, "teacher") if "teacher" in cfg else None

    model = _load_model(model_path, "distill", "model checkpoint")
    teacher = (_load_model(teacher_path, "train-teacher", "teacher checkpoint")
               if teacher_path is not None else None)
    _, splits = _load_data(data_dir)
    text = eval_model(model, splits["eval"], teacher=teacher).to_json()
    if not _write_result(args, "eval.json", text):
        print(text, end="")
    return 0


def cmd_kv_report(args) -> int:
    if args.layout is None:
        raise UsageError("kv-report requires --layout <file>")
    if args.tokens is None:
        raise UsageError("kv-report requires --tokens <t>")
    cfg = _stage_config(args, ("model", "mla"))
    mc = _read_config(ModelConfig, cfg["model"], "kv-report config: model")
    mcfg = _read_config(MLAConfig, cfg["mla"], "kv-report config: mla")

    layout = _load_layout(args.layout)
    report = kv_report(mc, layout, mcfg, t=args.tokens)
    print(f"{report['percent_of_baseline']:.2f}%")
    _write_result(args, "kv_report.json", json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_bench(args) -> int:
    cfg = _stage_config(args, ("model", "prompt_len", "gen_lens"))
    model_path = _config_path(args, cfg, "model")
    prompt_len = _int(cfg, "prompt_len", "bench config", lo=1)
    gen_lens = cfg["gen_lens"]
    if (not isinstance(gen_lens, list) or not gen_lens
            or any(isinstance(g, bool) or not isinstance(g, int) or g < 1 for g in gen_lens)):
        raise StageError("bench config: gen_lens must be a non-empty list of positive ints")

    model = _load_model(model_path, "compose", "model checkpoint")
    text = bench_csv(bench_rows(model, prompt_len, gen_lens, seed=args.seed or 0))
    if not _write_result(args, "bench.csv", text):
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# the stage table


def _int_arg(lo: int, hi: float = float("inf")):
    """argparse type for an integer in [lo, hi); anything else is a usage error."""
    def parse(text: str) -> int:
        v = int(text)
        if not lo <= v < hi:
            raise argparse.ArgumentTypeError(f"must be >= {lo}" if v < lo else f"must be < {hi}")
        return v
    parse.__name__ = "int"  # argparse's message for a non-integer reads "invalid int value"
    return parse


class Stage(NamedTuple):
    name: str
    run: Callable[[argparse.Namespace], int]
    help: str
    flags: dict = {}  # flag -> add_argument keywords, besides --config, --seed and --out


# Every stage once, in pipeline order. The parser, the manifest's flag keys
# and its order check all read this table.
STAGES = (
    Stage("gen-data", cmd_gen_data, "generate deterministic synthetic token splits"),
    Stage("train-teacher", cmd_train_teacher, "train the attention-only teacher"),
    Stage("upcycle", cmd_upcycle, "convert the teacher into a single-kind student",
          {"kind": dict(choices=(KIND_MLA, KIND_MAMBA2), required=True)}),
    Stage("ild", cmd_ild, "align student mixer outputs to the teacher layerwise"),
    Stage("sensitivity", cmd_sensitivity, "score per-layer KL reduction of swaps",
          {"jobs": dict(type=_int_arg(1), default=1, help="eval batches scored in parallel")}),
    Stage("smart-select", cmd_smart_select, "pick attention layer placement",
          {"scores": dict(default=None, help="sensitivity profile JSON"),
           "n": dict(type=_int_arg(0), default=None,
                     help="number of attention layers to place")}),
    Stage("compose", cmd_compose, "place a donor's mixers in the all-SSM student by a layout"),
    Stage("distill", cmd_distill, "end-to-end KL distillation of a student"),
    Stage("eval", cmd_eval, "perplexity and KL-to-teacher on held-out data"),
    Stage("kv-report", cmd_kv_report, "per-layer cache budget vs full-attention",
          {"layout": dict(default=None, help="layout JSON file"),
           "tokens": dict(type=_int_arg(1), default=None,
                          help="sequence length for the byte accounting")}),
    Stage("bench", cmd_bench, "decode throughput and peak cache measurement"),
)
STAGE_ORDER = {stage.name: rank for rank, stage in enumerate(STAGES)}


# ---------------------------------------------------------------------------
# pipeline manifest


# an entry's argv keys are the --flags of its own stage's command
_COMMON_FLAGS = ("config", "out", "seed")
_PATH_FLAGS = ("config", "out", "scores", "layout")


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
        if not isinstance(entry, dict) or "stage" not in entry:
            raise StageError(f"{where}: expected a JSON object with a stage")
        stage = _str(entry, "stage", where)
        if stage not in STAGE_ORDER:
            raise StageError(f"{where}: unknown stage {stage!r}")
        rank = STAGE_ORDER[stage]
        if rank < last_rank:
            raise StageError(f"{where}: {stage!r} is out of pipeline order")
        last_rank = rank
        argv_keys = (*_COMMON_FLAGS, *STAGES[rank].flags)
        _check_keys(entry, ("stage",), (*argv_keys, "outputs", "done"), f"{where} ({stage})")
        argv = []
        for key in (k for k in argv_keys if k in entry):
            val = _resolve(path, _str(entry, key, where)) if key in _PATH_FLAGS else entry[key]
            argv += [f"--{key}", str(val)]
        outputs, done = entry.get("outputs", []), entry.get("done", False)
        if not isinstance(outputs, list) or not all(isinstance(p, str) for p in outputs):
            raise StageError(f"{where}: outputs must be a list of strings")
        if not isinstance(done, bool):
            raise StageError(f"{where}: done must be true or false")
        outputs = tuple(_resolve(path, p) for p in outputs)
        if done and not outputs:
            raise StageError(f"{where}: marked done but lists no outputs")
        for p in outputs if done else ():
            if not os.path.exists(p):
                raise StageError(f"{where}: marked done but output missing: {p}")
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


def build_parser() -> _Parser:
    parser = _Parser(prog="hybridforge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="<command>")
    sub.required = True
    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        p.error = parser.error
        p.add_argument("--config", help="JSON config file for this stage")
        p.add_argument("--seed", type=_int_arg(0, 2 ** 64), default=None,
                       help="override the config seed (u64)")
        p.add_argument("--out", default=None, help="directory for result artifacts")
        for flag, kwargs in stage.flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(func=stage.run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (StageError, ValueError, LayoutError, CheckpointError, DivergenceError,
            nk.KernelError, OSError) as exc:  # OSError: artifact IO, such as an --out file
        print(f"error: {exc}", file=sys.stderr)
        return 2
