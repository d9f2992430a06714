"""The benchmark's traced mode still runs the CLI: bench/tracer.py patches fuhp by name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [["theta", "--q", "5", "--r-s", "2", "--t", "0.1"],
                                  ["verify", "--q", "3"]])
def test_tracer_runs_a_cli_call(tmp_path, args):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--", *args],
                          env=env, cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["names"] and len(doc["nodes"]) > 1
    assert "cli.main" in doc["names"]
