"""
Choosing where the attention layers go
======================================

Given per-layer sensitivity scores and a budget of N attention layers in an
L-layer stack, the placement search anchors one pick in each end of the
stack, bounds the gaps between consecutive picks so coverage stays even,
and solves for the interior picks with the highest total score by a small
dynamic program over those bounded gaps.  Its cost grows as L*N, so the
paper-scale budgets return at once.  This demo walks that procedure on a
16-layer profile, then runs one 128-layer selection.
"""

import time

import numpy as np

from hybridforge.smart import SensitivityProfile, gap_bounds, smart_select

# A 16-layer sensitivity profile: the first layer dominates, with secondary
# peaks mid-stack and near the end.
SCORES_16 = [
    1185.06, 382.73, 480.68, 350.95, 196.03, 367.82, 250.45, 114.44,
    238.10, 120.56, 323.23, 228.90, 168.69, 233.87, 624.03, 361.47,
]
profile = SensitivityProfile(scores=np.asarray(SCORES_16))
L = profile.L
N = 4

# Step 1: split off a terminal window of width L//N at each end and anchor
# the first and last picks at the window argmaxes.  Here the first window is
# layers 0-3 (argmax 0) and the last is layers 12-15, where layer 14 beats
# the final layer.
p = L // N
first = int(np.argmax(SCORES_16[:p]))
last = L - p + int(np.argmax(SCORES_16[L - p:]))
print(f"terminal windows of width {p}: anchor picks at {first} and {last}")

# Step 2: the N-2 interior picks must keep near-uniform spacing.  The gap
# bounds say how many layers may sit strictly between consecutive picks, so
# each interior pick k can only land in a narrow window: k steps of lo+1..hi+1
# layers from the first anchor, and N-1-k such steps short of the last.
lo, hi = gap_bounds(first, last, N)
print(f"allowed gap between consecutive picks: [{lo}, {hi}]")
for k in range(1, N - 1):
    start = max(first + k * (lo + 1), last - (N - 1 - k) * (hi + 1))
    stop = min(first + k * (hi + 1), last - (N - 1 - k) * (lo + 1))
    window = ", ".join(f"{i} ({SCORES_16[i]:.2f})" for i in range(start, stop + 1))
    print(f"  interior pick {k} may sit at layers {window}")

# Step 3: the selector keeps the in-bounds interior picks with the largest
# score sum (the smallest index set among equal sums) and returns the full
# layout.
layout = smart_select(profile, N)
print(f"\nN={N}: place attention at {layout.mla_indices}")

# The same machinery handles other budgets; denser budgets shrink the gaps.
for n in (6, 8):
    print(f"N={n}: place attention at {smart_select(profile, n).mla_indices}")

# Degenerate budgets still behave: N=0 keeps no attention layer at all and
# N=1 keeps only the single best layer.
print(f"N=0 -> {smart_select(profile, 0).mla_indices}")
print(f"N=1 -> {smart_select(profile, 1).mla_indices}")

# A paper-scale stack: 32 attention layers among 128.
scores_128 = np.random.default_rng(0).normal(size=128)
t0 = time.perf_counter()
big = smart_select(scores_128, 32)
elapsed = time.perf_counter() - t0
big.validate(128)
print(f"\nL=128, N=32 ({elapsed * 1e3:.1f} ms): place attention at {big.mla_indices}")
