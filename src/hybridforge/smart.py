"""Layer sensitivity scoring and spacing-constrained placement.

Which layers should stay attention-like? Each candidate layer gets a score:
how much the KL gap to the teacher shrinks when that single layer of the
all-SSM student is swapped for its latent-attention counterpart. Placement
then keeps one endpoint in the first and one in the last L/N-sized stretch
of the stack, constrains consecutive picks to near-uniform gaps, and takes
the candidate set with the largest cumulative score. Ties break toward the
lexicographically smallest index set so runs are reproducible.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numkernel as nk
from .attention import map_mixer
from .distill import Batch, kd_loss

__all__ = [
    "SensitivityProfile",
    "HybridLayout",
    "LayoutError",
    "gap_bounds",
    "enumerate_valid_configs",
    "smart_select",
    "score_sensitivity",
]

_ENUM_GUARD = 10**6


class LayoutError(ValueError):
    """No placement satisfies the spacing constraints for these inputs."""


@dataclass
class SensitivityProfile:
    """Per-layer score vector plus a record of how it was measured."""

    scores: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1 or self.scores.size == 0:
            raise ValueError("scores must be a non-empty vector")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")

    @property
    def L(self) -> int:
        return int(self.scores.size)

    def to_json(self) -> str:
        doc = {"scores": self.scores.tolist(), "provenance": self.provenance}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SensitivityProfile":
        doc = json.loads(text)
        return cls(scores=np.asarray(doc["scores"]), provenance=doc.get("provenance", {}))


@dataclass
class HybridLayout:
    """Sorted set of layer indices that keep latent attention."""

    mla_indices: list[int]

    def __post_init__(self):
        self.mla_indices = [int(i) for i in self.mla_indices]
        if self.mla_indices != sorted(set(self.mla_indices)):
            raise ValueError("indices must be strictly increasing and unique")
        if self.mla_indices and self.mla_indices[0] < 0:
            raise ValueError("indices must be non-negative")

    @property
    def N(self) -> int:
        return len(self.mla_indices)

    def validate(self, L: int) -> None:
        if self.mla_indices and self.mla_indices[-1] >= L:
            raise ValueError(f"index {self.mla_indices[-1]} out of range for L={L}")
        if self.N >= 3:
            g_min, g_max = gap_bounds(self.mla_indices[0], self.mla_indices[-1], self.N)
            for a, b in zip(self.mla_indices, self.mla_indices[1:]):
                gap = b - a - 1  # layers strictly between consecutive picks
                if not g_min <= gap <= g_max:
                    raise ValueError(f"gap {gap} between {a} and {b} outside [{g_min}, {g_max}]")

    def to_json(self) -> str:
        return json.dumps({"mla_indices": self.mla_indices}, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "HybridLayout":
        return cls(mla_indices=json.loads(text)["mla_indices"])


def gap_bounds(L1: int, LN: int, N: int) -> tuple[int, int]:
    """Allowed between-count per consecutive pair, spreading T = LN-L1-(N-1) evenly."""
    if N < 2:
        raise ValueError("gap bounds need at least two picks")
    T = LN - L1 - (N - 1)
    if T < 0:
        raise LayoutError(f"endpoints {L1}..{LN} cannot hold {N} picks")
    return T // (N - 1), -(-T // (N - 1))


def enumerate_valid_configs(L1: int, LN: int, N: int) -> list[tuple[int, ...]]:
    """All (N-2)-tuples of intermediate indices with every gap in bounds.

    Gaps count the layers strictly between consecutive picks, including the
    runs to both endpoints. Results come out lexicographically sorted. An
    infeasible instance yields an empty list; the caller decides what that
    means.
    """
    if L1 >= LN:
        raise ValueError("L1 must be below LN")
    if N < 2:
        raise ValueError("N must be >= 2")
    try:
        g_min, g_max = gap_bounds(L1, LN, N)
    except LayoutError:
        return []
    if N == 2:
        return [()] if g_min <= LN - L1 - 1 <= g_max else []

    out: list[tuple[int, ...]] = []
    picks = N - 2

    def extend(prev: int, chosen: tuple[int, ...]) -> None:
        if len(out) > _ENUM_GUARD:
            raise LayoutError("candidate enumeration exceeded the guard")
        if len(chosen) == picks:
            if g_min <= LN - prev - 1 <= g_max:
                out.append(chosen)
            return
        for nxt in range(prev + g_min + 1, min(prev + g_max + 1, LN - 1) + 1):
            extend(nxt, chosen + (nxt,))

    extend(L1, ())
    return out


def smart_select(profile, N: int) -> HybridLayout:
    """Pick N layer indices: endpoint argmaxes, even gaps, best score sum.

    The core algorithm covers 2 <= N <= L. Extensions: N=0 returns the empty
    layout (all-SSM), N=1 the single global argmax. Raises LayoutError when
    the chosen endpoints cannot fit N picks with any gap assignment.
    """
    scores = profile.scores if isinstance(profile, SensitivityProfile) else np.asarray(profile, dtype=np.float64)
    L = int(scores.size)
    if not 0 <= N <= L:
        raise ValueError(f"N={N} out of range for L={L}")
    if N == 0:
        return HybridLayout(mla_indices=[])
    if N == 1:
        return HybridLayout(mla_indices=[int(np.argmax(scores))])

    p = L // N  # terminal partition width
    L1 = int(np.argmax(scores[:p]))
    LN = L - p + int(np.argmax(scores[L - p :]))
    if LN - L1 < N - 1:
        raise LayoutError(f"endpoints {L1}..{LN} cannot hold {N} picks")
    if N == 2:
        return HybridLayout(mla_indices=[L1, LN])

    candidates = enumerate_valid_configs(L1, LN, N)
    if not candidates:
        raise LayoutError(f"no gap assignment fits {N} picks in {L1}..{LN}")
    best = None
    best_sum = -np.inf
    for cand in candidates:  # lexicographic order; strict > keeps the smallest tie
        s = float(scores[list(cand)].sum())
        if s > best_sum:
            best, best_sum = cand, s
    layout = HybridLayout(mla_indices=[L1, *best, LN])
    layout.validate(L)
    return layout


# ---------------------------------------------------------------------------
# sensitivity measurement


def _swap_layer(base, donor, i: int):
    """Clone of base with layer i's mixer (and kind) taken from donor."""
    variant = base.clone()
    variant.layers[i].mixer = map_mixer(donor.layers[i].mixer, lambda t: nk.Tensor(t.data.copy()))
    variant.cfg.layer_kinds[i] = donor.cfg.layer_kinds[i]
    if variant.mcfg is None:
        variant.mcfg = donor.mcfg
    return variant


def _mean_kl(teacher, model, data: Sequence[Batch]) -> float:
    """Average over batches of the position-summed KL to the teacher."""
    total = 0.0
    with nk.no_grad():
        for batch in data:
            t_logits = teacher.forward(batch.inputs)
            s_logits = model.forward(batch.inputs)
            total += kd_loss(t_logits, s_logits).item()
    return total / len(data)


def score_sensitivity(
    teacher,
    full_mamba,
    full_mla,
    data: Sequence[Batch],
    jobs: int = 1,
    provenance: Optional[dict] = None,
) -> SensitivityProfile:
    """Per-layer KL reduction from swapping in the attention-like layer.

    s_i = KL(teacher || all-SSM student) - KL(teacher || student with layer i
    swapped), both teacher-forced over the same batches. Larger means the
    swap at i recovers more of the teacher. The L variant evaluations are
    independent and fan out across threads when jobs > 1.
    """
    for f in ("L", "d", "vocab"):
        if not (getattr(teacher.cfg, f) == getattr(full_mamba.cfg, f) == getattr(full_mla.cfg, f)):
            raise ValueError(f"models disagree on cfg.{f}")
    data = list(data)
    if not data:
        raise ValueError("need at least one evaluation batch")
    L = teacher.cfg.L
    base = _mean_kl(teacher, full_mamba, data)

    def one(i: int) -> float:
        return base - _mean_kl(teacher, _swap_layer(full_mamba, full_mla, i), data)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            scores = list(pool.map(one, range(L)))
    else:
        scores = [one(i) for i in range(L)]
    prov = {"sample_count": len(data), "decode_steps": int(data[0].inputs.shape[1])}
    if provenance:
        prov.update(provenance)
    return SensitivityProfile(scores=np.asarray(scores), provenance=prov)
