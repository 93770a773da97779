"""
Benchmarking decode throughput and cache ceilings
=================================================

The bench harness times greedy generation at several horizons and reports
median decode throughput plus the peak cache footprint.  This
demo races an all-latent-attention stack against an all-state-space stack of
the same width: the attention stack pays a growing cache, the SSM stack
holds throughput flat with zero per-token cache.
"""

import numpy as np

from hybridforge.attention import KIND_MAMBA2, KIND_MLA, MLAConfig, ModelConfig
from hybridforge.compose import build_model, convert_model
from hybridforge.harness import bench_csv, bench_rows

base = ModelConfig(L=4, d=32, n_h=4, n_kv=2, d_h=8, vocab=64)
mcfg = MLAConfig(r_q=24, r_kv=8, d_qk=6, d_v=8, d_r=2)

# Both contenders come from the same trained-shape teacher, so the
# comparison isolates the mixer kind.
teacher = build_model(base, seed=11, dtype=np.float32)
stacks = {
    "latent-attention": convert_model(teacher, KIND_MLA, mcfg),
    "state-space": convert_model(teacher, KIND_MAMBA2),
}

# Each row is one (prompt, horizon) measurement; medians over repeats absorb
# scheduler noise.  The CSV is what the command-line bench writes.
for name, model in stacks.items():
    rows = bench_rows(model, prompt_len=16, gen_lens=(16, 64, 128), seed=0)
    print(f"{name} stack:")
    print(bench_csv(rows))

# The cache column is the story: the attention stack's peak grows linearly
# with the horizon while the state-space stack stays at zero, which is what
# lets hybrids with few attention layers serve long sequences cheaply.
mla_rows = bench_rows(stacks["latent-attention"], 16, (16, 64, 128))
per_token = (mcfg.r_kv + mcfg.d_r) * base.L * 4
for row in mla_rows:
    t = 16 + row["gen_len"]
    assert row["peak_cache_bytes"] == per_token * t
print(f"attention cache grows at {per_token} bytes/token as expected")
