"""Layer sensitivity scoring and spacing-constrained placement.

Which layers should stay attention-like? Each candidate layer gets a score:
how much the KL gap to the teacher shrinks when that single layer of the
all-SSM student is swapped for the donor's attention mixer: the all-MLA
student's, or the teacher's own. The swap is ``HybridModel.with_mixers``, the
method ``compose.assemble`` builds hybrids by. One no-grad pass per evaluation
batch scores the all-SSM student and all L swaps at once: the variants ride on
the batch axis and share the SSM layers below their swap, and the teacher runs
once. Batches fan out over threads. Placement then keeps one endpoint in the first
and one in the last L/N-sized stretch of the stack, constrains consecutive
picks to near-uniform gaps, and solves for the interior picks with the
largest cumulative score by a dynamic program over the bounded gaps, in
O(L*N). Ties break toward the lexicographically smallest index set so runs
are reproducible.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import numkernel as nk
from .distill import Batch, _check_family, kd_loss

__all__ = [
    "SensitivityProfile",
    "HybridLayout",
    "LayoutError",
    "gap_bounds",
    "smart_select",
    "score_sensitivity",
]

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
        if not isinstance(doc, dict) or "scores" not in doc:
            raise ValueError("a sensitivity profile is a JSON object with a 'scores' list")
        return cls(scores=np.asarray(doc["scores"]), provenance=doc.get("provenance", {}))


@dataclass
class HybridLayout:
    """Sorted set of layer indices that keep the donor's attention kind (MLA or MHA)."""

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
        """Parse a layout file; a malformed one raises ``ValueError`` naming the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a layout is a JSON object with an 'mla_indices' list")
        indices = doc.get("mla_indices")
        if not isinstance(indices, list):
            raise ValueError("layout mla_indices: expected a list")
        if any(type(i) is not int for i in indices):  # JSON types are exact: no bools
            raise ValueError("layout mla_indices: expected integers")
        return cls(mla_indices=indices)


def gap_bounds(L1: int, LN: int, N: int) -> tuple[int, int]:
    """Allowed between-count per consecutive pair, spreading T = LN-L1-(N-1) evenly."""
    if N < 2:
        raise ValueError("gap bounds need at least two picks")
    T = LN - L1 - (N - 1)
    if T < 0:
        raise LayoutError(f"endpoints {L1}..{LN} cannot hold {N} picks")
    return T // (N - 1), -(-T // (N - 1))


def _interior_picks(s: list[float], L1: int, LN: int, N: int) -> list[int]:
    """The N-2 picks strictly between L1 and LN: gaps in bounds, largest sum.

    A backward table gives best[k][i], the largest score sum of interior
    picks k+1..N-2 given pick k at layer i (-inf when no in-bounds run from i
    reaches LN). The forward pass from L1 then takes, at each pick, the
    smallest index that attains the maximum, so among equal sums the
    lexicographically smallest index set wins.
    """
    g_min, g_max = gap_bounds(L1, LN, N)

    def after(i: int) -> range:  # where the pick following one at layer i may sit
        return range(i + g_min + 1, min(i + g_max + 2, LN))

    best = [[0.0 if g_min <= LN - i - 1 <= g_max else -np.inf for i in range(LN)]]
    for _ in range(N - 2):
        nxt = best[0]
        best.insert(0, [max((s[j] + nxt[j] for j in after(i)), default=-np.inf) for i in range(LN)])
    picks, i = [], L1
    for nxt in best[1:]:  # max keeps the first, so the smallest, of equal sums
        i = max(after(i), key=lambda j: s[j] + nxt[j])
        picks.append(i)
    return picks


def smart_select(profile, N: int) -> HybridLayout:
    """Pick N layer indices: endpoint argmaxes, even gaps, best score sum.

    profile is a SensitivityProfile or anything SensitivityProfile accepts as
    scores; non-finite, empty or non-vector scores raise ValueError. The core
    algorithm covers 2 <= N <= L. Extensions: N=0 returns the empty layout
    (all-SSM), N=1 the single global argmax. Among the interior layouts with
    the largest score sum the lexicographically smallest wins. A layout
    always exists: with p = L//N, L1 < p and LN >= L-p give LN-L1 >= N-1,
    and gaps of floor and ceiling of the even share always fill that span.
    """
    scores = SensitivityProfile(scores=getattr(profile, "scores", profile)).scores
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
    layout = HybridLayout(mla_indices=[L1, *_interior_picks(scores.tolist(), L1, LN, N), LN])
    layout.validate(L)
    return layout


# ---------------------------------------------------------------------------
# sensitivity measurement


def _batch_kls(teacher, base, variants, inputs: np.ndarray) -> list[float]:
    """KL to the teacher of the all-SSM base and of each single-layer swap.

    One stacked pass over the batch: the streams ride on the batch axis as
    [base, swap 0, swap 1, ...]. At layer j every stream so far runs base
    block j, and the base rows alone run block j of ``variants[j]``, the base
    with layer j's mixer swapped, to become swap j's stream. Layers below i
    are the same in the base and in swap i, so they run once. Returns L+1
    values, the base first.
    """
    with nk.no_grad():  # grad mode is per thread; a pool worker sets its own
        t_logits = teacher.forward(inputs)
        x = nk.embedding(base.embed, inputs)
        b = x.shape[0]
        for j, variant in enumerate(variants):
            swapped, _, _ = variant.block(nk.getitem(x, slice(0, b)), j)
            x, _, _ = base.block(x, j)
            x = nk.concat([x, swapped], axis=0)
        logits = base.logits(x)
        return [kd_loss(t_logits, nk.getitem(logits, slice(k * b, (k + 1) * b))).item()
                for k in range(base.cfg.L + 1)]


def score_sensitivity(
    teacher,
    full_mamba,
    donor,
    data: Sequence[Batch],
    jobs: int = 1,
    provenance: Optional[dict] = None,
) -> SensitivityProfile:
    """Per-layer KL reduction from swapping in the donor's attention mixer.

    s_i = KL(teacher || all-SSM student) - KL(teacher || student with layer i
    swapped), both teacher-forced over the same batches. Larger means the
    swap at i recovers more of the teacher. The student with layer i swapped
    is ``full_mamba.with_mixers(donor, [i])``: only layer i's mixer (and kind)
    comes from the donor, the all-MLA student or the all-MHA teacher; norms,
    MLPs, embedding and head stay full_mamba's. ``compose.assemble`` builds
    its hybrid by the same method, so s_i scores the hybrid it builds for the
    layout [i]. Each batch is one stacked pass that yields all L+1 KLs; with
    jobs > 1 the batches fan out across threads, and the KLs are summed in
    batch order, so the scores do not depend on jobs.
    """
    _check_family(teacher, full_mamba)
    L = teacher.cfg.L
    variants = [full_mamba.with_mixers(donor, [i]) for i in range(L)]
    data = list(data)
    if not data:
        raise ValueError("need at least one evaluation batch")

    def one(batch: Batch) -> list[float]:
        return _batch_kls(teacher, full_mamba, variants, batch.inputs)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_batch = list(pool.map(one, data))
    else:
        per_batch = [one(batch) for batch in data]
    totals = [0.0] * (L + 1)
    for kls in per_batch:  # batch order, so the sums do not depend on jobs
        totals = [t + kl for t, kl in zip(totals, kls)]
    base, *swaps = (t / len(data) for t in totals)
    scores = [base - kl for kl in swaps]
    prov = {"sample_count": len(data), "decode_steps": int(data[0].inputs.shape[1])}
    if provenance:
        prov.update(provenance)
    return SensitivityProfile(scores=np.asarray(scores), provenance=prov)
