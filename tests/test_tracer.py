"""Smoke test of perfbench's tracer against this checkout's package.

The tracer patches ``numkernel`` ops, model methods and stage functions from
outside, by name, and reads what they return (an op's ``.data``). This test
catches a change under ``src/`` that makes a traced run crash, or that leaves
the package patched or its outputs changed. It checks no counter's meaning:
a counter that silently stops counting what its name says passes here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import hybridforge.numkernel as nk
from hybridforge import compose, distill
from hybridforge.attention import KIND_MHA, KIND_MLA, KIND_MAMBA2, MLAConfig, ModelConfig

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_hybrid():
    cfg = ModelConfig(L=3, d=16, n_h=4, n_kv=2, d_h=4, vocab=32,
                      layer_kinds=[KIND_MHA, KIND_MLA, KIND_MAMBA2])
    model = compose.build_model(cfg, MLAConfig(r_q=8, r_kv=6, d_qk=2, d_v=4, d_r=2), seed=2)
    model.head.data[...] = np.random.default_rng(3).normal(size=model.head.shape) * 0.3
    return model


def run(model):
    """A recorded forward and backward, then a cached prefill and one step."""
    ids = np.arange(9) % 32
    logits = model.forward(ids[None])
    nk.backward(nk.tsum(nk.mul(logits, logits)), model.param_store())
    with nk.no_grad():
        prefill, caches = model.forward_cached(ids[:8], model.init_caches())
        step, _ = model.forward_cached(ids[8:], caches)
    return [logits.data.tobytes(), prefill.data.tobytes(), step.data.tobytes()]


def test_a_traced_run_keeps_its_bytes_and_uninstalls_cleanly():
    tracer_mod = load_tracer()
    owners = list(tracer_mod._PACKAGE_MODULES) + [compose.HybridModel, distill.AdamState,
                                                  nk.Tensor]
    before = [dict(vars(owner)) for owner in owners]
    untraced = run(toy_hybrid())
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert nk.rope_rotate is not before[owners.index(nk)]["rope_rotate"]
        traced = run(toy_hybrid())
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.stats["numkernel.rope_rotate"][0] > 0
    assert tracer.stats["compose.forward_cached"][0] == 2
    for owner, names in zip(owners, before):
        now = vars(owner)
        patched = [name for name, value in names.items() if now.get(name) is not value]
        assert patched == [], f"{owner.__name__} still patched: {patched}"
