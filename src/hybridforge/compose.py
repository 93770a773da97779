"""Whole-model container, hybrid assembly, cache budgeting, checkpointing.

A model is an embedding, a stack of pre-norm residual blocks (token mixer +
gated MLP), a final normalization, and an untied output head. The mixer in
each block is one of the three kinds; everything else is shared structure,
which is what makes swapping mixers per layer meaningful.

Checkpoints are a single binary file: magic "HFRG", a version word, a JSON
header with a tensor directory (name, dtype, shape, offset, byte length,
CRC32), then a 64-byte-aligned little-endian payload. The header alone is
enough to recover the architecture without touching the payload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numkernel as nk
from . import upcycle as up
from .attention import (
    KIND_MHA,
    KIND_MLA,
    KIND_MAMBA2,
    AttentionWeights,
    MixerWeights,
    MLAConfig,
    MLAWeights,
    ModelConfig,
    RowCache,
    kv_bytes,
    mha_forward,
    mla_forward,
    row_width,
)
from .numkernel import ParamStore, Tensor
from .smart import HybridLayout
from .ssm import Mamba2Weights, SsmState, mamba2_forward_seq

__all__ = [
    "CheckpointError",
    "LayerParams",
    "HybridModel",
    "from_tensors",
    "build_model",
    "convert_model",
    "assemble",
    "kv_report",
    "atomic_open",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"HFRG"
FORMAT_VERSION = 4
_ALIGN = 64

MIXERS = {KIND_MHA: AttentionWeights, KIND_MLA: MLAWeights, KIND_MAMBA2: Mamba2Weights}


class CheckpointError(Exception):
    """Malformed, corrupted, or incompatible checkpoint file."""


@dataclass
class LayerParams:
    """One residual block: pre-norm mixer sublayer + pre-norm gated MLP."""

    norm1: Tensor     # (d,)
    mixer: MixerWeights
    norm2: Tensor     # (d,)
    mlp_gate: Tensor  # (d, d_ff)
    mlp_up: Tensor    # (d, d_ff)
    mlp_down: Tensor  # (d_ff, d)


def mlp_width(d: int) -> int:
    """Fixed expansion factor; the config format does not carry a free d_ff."""
    return 2 * d


@dataclass
class HybridModel:
    """Embedding + mixer/MLP blocks + final norm + untied output head."""

    cfg: ModelConfig
    mcfg: Optional[MLAConfig]
    embed: Tensor           # (vocab, d)
    layers: list[LayerParams]
    final_norm: Tensor      # (d,)
    head: Tensor            # (d, vocab)

    def __post_init__(self):
        """The model contract, checked once, where every model is built: each
        mixer is its layer kind's record and each tensor has the shape the configs
        give its ``named_tensors`` path (``ValueError`` names the first that does
        not). A model with no MLA layer keeps no ``mcfg``, so ``kv_report`` given
        its ``mcfg`` places the kind it holds. The mixer functions trust the rest."""
        cfg = self.cfg
        if len(self.layers) != cfg.L:
            raise ValueError("layer count does not match cfg.L")
        if KIND_MLA not in cfg.layer_kinds:
            self.mcfg = None
        elif self.mcfg is None:
            raise ValueError("model with MLA layers needs an MLAConfig")
        else:
            self.mcfg.validate(cfg)
        d, d_ff = cfg.d, mlp_width(cfg.d)
        want = {"embed": (cfg.vocab, d), "final_norm": (d,), "head": (d, cfg.vocab)}
        for i, (kind, layer) in enumerate(zip(cfg.layer_kinds, self.layers)):
            if not isinstance(layer.mixer, MIXERS[kind]):
                raise ValueError(f"layer {i}: kind {kind} vs mixer {type(layer.mixer).__name__}")
            p = f"layers.{i}."
            want.update({p + "norm1": (d,), p + "norm2": (d,), p + "mlp_gate": (d, d_ff),
                         p + "mlp_up": (d, d_ff), p + "mlp_down": (d_ff, d)})
            shapes = MIXERS[kind].shapes(cfg, self.mcfg)
            want.update({f"{p}mixer.{n}": s for n, s in shapes.items()})
        tensors = dict(self.named_tensors())
        for name, shape in want.items():
            if tensors[name].shape != shape:
                raise ValueError(f"{name} shape {tensors[name].shape} != expected {shape}")

    # -- parameter plumbing --------------------------------------------------

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = [("embed", self.embed)]
        for i, layer in enumerate(self.layers):
            p = f"layers.{i}"
            out.append((f"{p}.norm1", layer.norm1))
            for name, t in layer.mixer.items():
                out.append((f"{p}.mixer.{name}", t))
            out.append((f"{p}.norm2", layer.norm2))
            out.append((f"{p}.mlp_gate", layer.mlp_gate))
            out.append((f"{p}.mlp_up", layer.mlp_up))
            out.append((f"{p}.mlp_down", layer.mlp_down))
        out.append(("final_norm", self.final_norm))
        out.append(("head", self.head))
        return out

    def param_store(self) -> ParamStore:
        store = ParamStore()
        for name, t in self.named_tensors():
            store.add(name, t)
        return store

    def astype(self, dtype) -> "HybridModel":
        return self._map(lambda t: Tensor(t.data.astype(dtype)))

    def clone(self) -> "HybridModel":
        return self._map(lambda t: Tensor(t.data.copy()))

    def _map(self, fn) -> "HybridModel":
        cfg = dataclasses.replace(self.cfg, layer_kinds=list(self.cfg.layer_kinds))
        return from_tensors(cfg, self.mcfg, {p: fn(t) for p, t in self.named_tensors()})

    def with_mixers(self, donor: "HybridModel", indices) -> "HybridModel":
        """This model with layer i's mixer, kind and MLA config taken from ``donor``
        for each i in ``indices``, every tensor shared: the one mixer-swap rule. The
        MLA config is the donor's when it has one; a donor whose config differs
        outside ``layer_kinds`` is refused, naming the field."""
        for f in dataclasses.fields(ModelConfig):
            if f.name != "layer_kinds" and getattr(donor.cfg, f.name) != getattr(self.cfg, f.name):
                raise ValueError(f"donor and all-SSM models disagree on cfg.{f.name}")
        kinds, tensors = list(self.cfg.layer_kinds), dict(self.named_tensors())
        for i in indices:
            kinds[i] = donor.cfg.layer_kinds[i]
            tensors.update({f"layers.{i}.mixer.{n}": t for n, t in donor.layers[i].mixer.items()})
        cfg = dataclasses.replace(self.cfg, layer_kinds=kinds)
        return from_tensors(cfg, donor.mcfg or self.mcfg, tensors)

    # -- forward passes -------------------------------------------------------

    def _mix(self, x: Tensor, i: int, cache):
        kind = self.cfg.layer_kinds[i]
        mixer = self.layers[i].mixer
        if kind == KIND_MHA:
            return mha_forward(x, mixer, self.cfg, cache)
        if kind == KIND_MLA:
            return mla_forward(x, mixer, self.cfg, self.mcfg, cache)
        return mamba2_forward_seq(x, mixer, self.cfg, cache)

    def forward(self, ids: np.ndarray, collect_mixer_outputs: bool = False):
        """Teacher-forced logits for (batch, t) or (t,) token ids.

        Optionally also returns each layer's mixer sublayer output (after the
        mixer's own output projection, before the residual add) for
        layer-alignment losses.
        """
        logits, _, mixer_outs = self._blocks(ids, [None] * len(self.layers),
                                             collect_mixer_outputs)
        if collect_mixer_outputs:
            return logits, mixer_outs
        return logits

    def _blocks(self, ids, caches: list, keep_mixer_outs: bool = False):
        """Logits, new caches and (if kept) mixer outputs; a None cache runs its
        layer stateless. (t,) ids run as a batch of one, whose axis the logits
        and mixer outputs drop. Empty ids, or ids of another rank, raise
        ``ValueError``. The embedding, the blocks and the head are one
        ``nk.checked_once`` (see ``block``)."""
        ids = np.asarray(ids)
        if ids.size == 0:
            raise ValueError(f"empty input: ids of shape {ids.shape} hold no token")
        if ids.ndim not in (1, 2):
            raise ValueError(f"ids must be (t,) or (batch, t), got shape {ids.shape}")

        def run():
            x = nk.embedding(self.embed, ids[None] if ids.ndim == 1 else ids)
            new_caches, outs = [], []
            for i in range(len(self.layers)):
                x, c, mixed = self.block(x, i, caches[i])
                new_caches.append(c)
                outs.append(mixed)
            return [self.logits(x)] + (outs if keep_mixer_outs else []), new_caches

        def made(out):
            outs, new_caches = out
            yield from (o.data for o in outs)
            for old, c in zip(caches, new_caches):
                if isinstance(c, SsmState):
                    yield from (c.h, c.tail)
                elif isinstance(c, RowCache):
                    yield c.rows[:, old.t:]

        outs, new_caches = nk.checked_once(run, made)
        if ids.ndim == 1:
            outs = [nk.reshape(o, o.shape[1:]) for o in outs]
        return outs[0], new_caches, outs[1:]

    def block(self, x: Tensor, i: int, cache=None):
        """Residual block i over the stream x: (new stream, new cache, mixer output).

        A ``KernelError`` is re-raised behind its sublayer's path:
        ``layers.{i}.mixer`` for the mixer, ``layers.{i}.mlp`` for norms and MLP.
        Called on its own, every op checks what it makes. A pass runs its
        blocks in one ``nk.checked_once``: no op checks, overflow and invalid
        flags raise, and the logits, the new cache rows or SSM state and the
        kept mixer outputs are checked once. That is enough, as the stream is
        only ever added to: a NaN made anywhere reaches the logits, and an inf
        the next ``rms_norm``, where inf * 0 raises the invalid flag. On a flag
        or a non-finite value the pass re-runs with every op checking, so the
        op that made the fault reports it; no warning escapes. One gap remains:
        an inf that enters the pass from outside raises no flag where
        exp(-inf) = 0 squashes it. Weights are checked when a model is built or
        loaded and after each Adam step.
        """
        layer, part = self.layers[i], "mlp"
        try:
            z = nk.rms_norm(x, layer.norm1)
            part = "mixer"
            mixed, c = self._mix(z, i, cache)
            part = "mlp"
            x = nk.add(x, mixed)
            z = nk.rms_norm(x, layer.norm2)
            gated = nk.mul(nk.silu(nk.matmul(z, layer.mlp_gate)), nk.matmul(z, layer.mlp_up))
            return nk.add(x, nk.matmul(gated, layer.mlp_down)), c, mixed
        except nk.KernelError as exc:
            raise type(exc)(f"layers.{i}.{part}: {exc}") from exc

    def logits(self, x: Tensor) -> Tensor:
        """Final norm and output head over the stream leaving the last block;
        checked as ``block`` is."""
        return nk.matmul(nk.rms_norm(x, self.final_norm), self.head)

    def init_caches(self, dtype=None) -> list:
        """Empty per-layer decode caches, in the model's dtype unless ``dtype`` is given."""
        dtype = self.embed.dtype if dtype is None else dtype
        return [SsmState.empty(self.cfg, dtype) if kind == KIND_MAMBA2
                else RowCache.empty(row_width(kind, self.cfg, self.mcfg), dtype)
                for kind in self.cfg.layer_kinds]

    def forward_cached(self, ids: np.ndarray, caches: list):
        """Incremental decode over the new (t,) or (b, t) ids of one or b
        equal-length sequences; grows the caches, which take b from their first call."""
        logits, new_caches, _ = self._blocks(ids, caches)
        return logits, new_caches

    def cache_bytes(self, caches: list) -> tuple[int, int]:
        """(attention-style cache bytes, SSM state bytes) for a cache list."""
        kv = sum(c.byte_size() for c in caches if isinstance(c, RowCache))
        ssm = sum(c.byte_size() for c in caches if isinstance(c, SsmState))
        return kv, ssm


# ---------------------------------------------------------------------------
# builders


def from_tensors(
    cfg: ModelConfig, mcfg: Optional[MLAConfig], tensors: dict[str, Tensor]
) -> HybridModel:
    """The model whose parameter at each ``named_tensors`` path is ``tensors[path]``.

    Tensors are taken as they are, not copied; paths the configs do not name
    are ignored. A missing path raises ``KeyError``; ``HybridModel`` checks
    the rest.
    """
    block = ("norm1", "norm2", "mlp_gate", "mlp_up", "mlp_down")
    layers = []
    for i, kind in enumerate(cfg.layer_kinds):
        p, cls = f"layers.{i}.", MIXERS[kind]
        mixer = cls(**{n: tensors[f"{p}mixer.{n}"] for n in cls.NAMES})
        layers.append(LayerParams(mixer=mixer, **{n: tensors[p + n] for n in block}))
    return HybridModel(cfg=cfg, mcfg=mcfg, layers=layers,
                       **{n: tensors[n] for n in ("embed", "final_norm", "head")})


def build_model(
    cfg: ModelConfig,
    mcfg: Optional[MLAConfig] = None,
    seed: int = 0,
    dtype=np.float32,
) -> HybridModel:
    """Random-init model matching cfg.layer_kinds; head zero so logits start flat."""
    rng = np.random.default_rng(seed)
    d_ff = mlp_width(cfg.d)

    def ones():
        return Tensor(np.ones(cfg.d, dtype=dtype))

    tensors = {}
    for i, kind in enumerate(cfg.layer_kinds):
        p = f"layers.{i}."
        mixer = up.init_random(kind, cfg, mcfg, seed=int(rng.integers(2**31)), dtype=dtype)
        tensors.update({f"{p}mixer.{n}": t for n, t in mixer.items()})
        tensors.update({p + "norm1": ones(), p + "norm2": ones(),
                        p + "mlp_gate": up.gauss(rng, dtype, cfg.d, cfg.d, d_ff),
                        p + "mlp_up": up.gauss(rng, dtype, cfg.d, cfg.d, d_ff),
                        p + "mlp_down": up.gauss(rng, dtype, d_ff, d_ff, cfg.d)})
    tensors["embed"] = up.gauss(rng, dtype, 1, cfg.vocab, cfg.d)
    tensors["final_norm"] = ones()
    tensors["head"] = Tensor(np.zeros((cfg.d, cfg.vocab), dtype=dtype))
    return from_tensors(cfg, mcfg, tensors)


def convert_model(
    teacher: HybridModel,
    kind: str,
    mcfg: Optional[MLAConfig] = None,
    random_seed: Optional[int] = None,
) -> HybridModel:
    """Swap every attention mixer for the target kind; share-copy the rest.

    Structured conversion by default; pass random_seed for the random-init
    ablation arm (same architecture, no knowledge carried over).
    """
    if kind not in (KIND_MLA, KIND_MAMBA2):
        raise ValueError("conversion targets are the MLA and Mamba2 kinds")
    if any(k != KIND_MHA for k in teacher.cfg.layer_kinds):
        raise ValueError("conversion expects an all-attention source model")
    if kind == KIND_MLA and mcfg is None:
        raise ValueError("MLA conversion needs an MLAConfig")

    tensors = {p: Tensor(t.data.copy()) for p, t in teacher.named_tensors()
               if ".mixer." not in p}
    for i, layer in enumerate(teacher.layers):
        if random_seed is not None:
            mixer = up.init_random(kind, teacher.cfg, mcfg, seed=random_seed + i,
                                   dtype=teacher.embed.dtype)
        elif kind == KIND_MLA:
            mixer = up.init_mla_from_attention(layer.mixer, teacher.cfg, mcfg)
        else:
            mixer = up.init_mamba2_from_attention(layer.mixer, teacher.cfg)
        tensors.update({f"layers.{i}.mixer.{n}": t for n, t in mixer.items()})
    cfg = dataclasses.replace(teacher.cfg, layer_kinds=[kind] * teacher.cfg.L)
    return from_tensors(cfg, mcfg, tensors)


# ---------------------------------------------------------------------------
# hybrid assembly


def assemble(
    donor: HybridModel,
    mamba_model: HybridModel,
    layout: HybridLayout,
) -> HybridModel:
    """Per-layer mixer pick by layout; every shared path comes from the SSM source.

    The all-SSM student supplies the embedding, each layer's norms and MLP,
    the final norm and the head. The donor, a single-kind attention model
    (the all-MLA student or the all-MHA teacher), supplies only the mixers at
    ``layout.mla_indices``, which keep its kind: the hybrid is
    ``mamba_model.with_mixers(donor, layout.mla_indices)``, the swap by which
    ``smart.score_sensitivity`` scores each layer, so each score describes a
    hybrid this function builds. The hybrid shares no memory with either source.
    """
    if set(donor.cfg.layer_kinds) not in ({KIND_MHA}, {KIND_MLA}):
        raise ValueError("donor must be all-MHA or all-MLA")
    if any(k != KIND_MAMBA2 for k in mamba_model.cfg.layer_kinds):
        raise ValueError("second source must be all-Mamba2")
    layout.validate(donor.cfg.L)
    return mamba_model.with_mixers(donor, layout.mla_indices).clone()


# ---------------------------------------------------------------------------
# cache budget report


def kv_report(
    cfg: ModelConfig,
    layout: HybridLayout,
    mcfg: Optional[MLAConfig],
    t: int,
    elem_bytes: int = 4,
) -> dict:
    """Per-layer cache bytes vs an all-attention baseline of the same shape.

    The placed layers are MLA when ``mcfg`` is given and MHA (an all-MHA
    donor's hybrid) when it is None. The headline percentage counts only
    per-token cache rows; constant-size SSM state is reported separately and
    excluded from the ratio, matching the convention that pure-SSM stacks
    score 0%.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    layout.validate(cfg.L)
    placed = KIND_MHA if mcfg is None else KIND_MLA
    kinds = [placed if i in layout.mla_indices else KIND_MAMBA2 for i in range(cfg.L)]
    per_layer = [kv_bytes(kind, cfg, mcfg, t, elem_bytes) for kind in kinds]
    total = sum(per_layer)
    baseline = cfg.L * kv_bytes(KIND_MHA, cfg, None, t, elem_bytes)
    # exact ratio: N * (r_kv + d_r) / (L * 2 * n_kv * d_h) for MLA, N / L for MHA
    percent = round(100.0 * total / baseline, 2)
    # per SSM layer: the (n_h, d_h, d_h) hidden state and CONV_K-1 raw rows of the xBC channels
    state = SsmState.empty(cfg)
    ssm_elems = state.h.size + state.tail.size
    n_mamba = kinds.count(KIND_MAMBA2)
    return {
        "t": t,
        "elem_bytes": elem_bytes,
        "layer_kinds": kinds,
        "per_layer_bytes": per_layer,
        "total_kv_bytes": total,
        "baseline_kv_bytes": baseline,
        "percent_of_baseline": percent,
        "ssm_state_bytes": n_mamba * ssm_elems * elem_bytes,
    }


# ---------------------------------------------------------------------------
# checkpoint format


_DTYPES = {"float32": np.float32, "float64": np.float64}


def _header_blob(model: HybridModel, directory: list[dict]) -> bytes:
    header = {
        "format_version": FORMAT_VERSION,
        "cfg": dataclasses.asdict(model.cfg),
        "mcfg": dataclasses.asdict(model.mcfg) if model.mcfg else None,
        "tensors": directory,
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


@contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """A temp file beside ``path`` that replaces ``path`` once the block completes.

    If the block raises, the temp file is removed and any earlier ``path`` is
    left as it was, so an interrupted write never leaves a partial artifact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def save_checkpoint(model: HybridModel, path: str) -> None:
    """Write the model to one self-describing binary file."""
    named = model.named_tensors()
    directory = []
    offset = 0
    blobs = []
    for name, t in named:
        if t.dtype.name not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {t.dtype.name} for {name}")
        if not np.isfinite(t.data).all():  # optimizer steps update weights in place, unchecked
            raise CheckpointError(f"{name}: non-finite values")
        raw = np.ascontiguousarray(t.data).astype(t.data.dtype.newbyteorder("<")).tobytes()
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        directory.append({
            "name": name,
            "dtype": t.dtype.name,
            "shape": list(t.shape),
            "offset": offset,
            "nbytes": len(raw),
            "crc32": zlib.crc32(raw),
        })
        blobs.append((offset, raw))
        offset += len(raw)

    header = _header_blob(model, directory)
    payload = bytearray(offset)
    for off, raw in blobs:
        payload[off : off + len(raw)] = raw
    with atomic_open(path) as f:
        f.write(MAGIC)
        f.write(np.array([FORMAT_VERSION], dtype="<u4").tobytes())
        f.write(np.array([len(header)], dtype="<u8").tobytes())
        f.write(header)
        f.write(bytes(payload))


def _read_preamble(f) -> dict:
    magic = f.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    raw = f.read(12)
    if len(raw) != 12:
        raise CheckpointError("file truncated before header")
    version = int(np.frombuffer(raw[:4], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"format version {version} unsupported")
    hlen = int(np.frombuffer(raw[4:], dtype="<u8")[0])
    blob = f.read(hlen)
    if len(blob) != hlen:
        raise CheckpointError("file truncated inside header")
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from None


# The fields of one tensor directory entry and the JSON types they hold.
_ENTRY_FIELDS = {"name": str, "dtype": str, "shape": list, "offset": int, "nbytes": int,
                 "crc32": int}


def _validate_directory(header) -> None:
    """Refuse a header whose directory is malformed, naming the first bad field."""
    if not isinstance(header, dict):
        raise CheckpointError("header: expected an object")
    if not isinstance(header.get("tensors"), list):
        raise CheckpointError("header tensors: expected a list")
    spans = []
    for i, entry in enumerate(header["tensors"]):
        if not isinstance(entry, dict):
            raise CheckpointError(f"header tensors[{i}]: expected an object")
        for key, kind in _ENTRY_FIELDS.items():
            if key not in entry:
                raise CheckpointError(f"header tensors[{i}]: missing {key}")
            val = entry[key]  # JSON types are exact: a bool is not an int here
            if type(val) is not kind or (kind is int and val < 0):
                raise CheckpointError(f"header tensors[{i}].{key}: expected "
                                      f"{'a non-negative int' if kind is int else kind.__name__}")
        if not all(type(n) is int and n >= 0 for n in entry["shape"]):
            raise CheckpointError(f"header tensors[{i}].shape: expected non-negative ints")
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"unknown dtype {entry['dtype']}")
        want = int(np.prod(entry["shape"], dtype=np.int64)) * np.dtype(entry["dtype"]).itemsize
        if want != entry["nbytes"]:
            raise CheckpointError(f"{entry['name']}: shape/nbytes mismatch")
        spans.append((entry["offset"], entry["offset"] + entry["nbytes"], entry["name"]))
    spans.sort()
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise CheckpointError(f"overlapping tensors {n1} and {n2}")


# The JSON value a header config field of each annotated type must hold; JSON
# types are exact, so a bool is not an int and 4.0 is not a dim.
_HEADER_TYPES = {
    "int": ("a positive int", lambda v: type(v) is int and v >= 1),
    "list[str]": ("a list of strings",
                  lambda v: type(v) is list and all(type(k) is str for k in v)),
}


def _header_config(header: dict, key: str, cls):
    """The ``cls`` config in ``header[key]``; a malformed one is refused by field."""
    raw = header.get(key)
    if not isinstance(raw, dict):
        raise CheckpointError(f"header {key}: expected an object")
    for f in dataclasses.fields(cls):
        want, ok = _HEADER_TYPES[f.type]
        if f.name in raw and not ok(raw[f.name]):
            raise CheckpointError(f"header {key}.{f.name}: expected {want}")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:  # an unknown or missing field is named
        raise CheckpointError(f"header {key}: {exc}") from None


def load_checkpoint(path: str) -> HybridModel:
    """Rebuild the model; every tensor is CRC-checked against the directory
    and shape-checked against the header's configs."""
    with open(path, "rb") as f:
        header = _read_preamble(f)
        payload = f.read()
    _validate_directory(header)

    tensors: dict[str, Tensor] = {}
    for entry in header["tensors"]:
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if hi > len(payload):
            raise CheckpointError(f"{entry['name']}: payload truncated")
        raw = payload[lo:hi]
        if zlib.crc32(raw) != entry["crc32"]:
            raise CheckpointError(f"{entry['name']}: checksum mismatch")
        arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]).newbyteorder("<"))
        arr = arr.reshape(entry["shape"]).astype(entry["dtype"], copy=True)
        try:
            tensors[entry["name"]] = Tensor(arr)
        except nk.KernelError:
            raise CheckpointError(f"{entry['name']}: non-finite values") from None

    cfg = _header_config(header, "cfg", ModelConfig)
    mcfg = None if header.get("mcfg") is None else _header_config(header, "mcfg", MLAConfig)
    try:
        return from_tensors(cfg, mcfg, tensors)
    except KeyError as exc:
        raise CheckpointError(f"missing tensor {exc}") from None
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
