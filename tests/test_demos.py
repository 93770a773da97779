"""Demo smoke tests: the placement, cache, pipeline and bench demos run to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridforge

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "02_cached_decode_equivalence.py",
    "03_constant_state_streaming.py",
    "04_placement_walkthrough.py",
    "05_cache_budget_reports.py",
    "06_end_to_end_pipeline.py",
    "07_throughput_bench.py",
])
def test_demo_runs(demo, tmp_path):
    # the child imports the package this session imported, from any cwd
    pkg_root = str(Path(hybridforge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp_path / "tmp")  # a demo's temporary files land here
    (tmp_path / "tmp").mkdir()
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list((tmp_path / "tmp").iterdir()), "demo left temporary files behind"
