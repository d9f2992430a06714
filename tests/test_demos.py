"""Every narrative script in demos/, and README's library example, runs against the sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuhp

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_and_the_readme_entry_points_run():
    namespace = {}
    exec("from fuhp import *", namespace)  # AttributeError for a name of __all__ that fuhp does not bind
    assert set(fuhp.__all__) <= namespace.keys()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library entry points", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
