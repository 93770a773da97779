"""Demo smoke tests: every demo runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridforge

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [p.name for p in sorted(ROOT.glob("demos/*.py"))])
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
