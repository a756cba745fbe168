"""The experiment drivers in scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, summary", [
    ("steering_experiment.py", ["--epochs", "1", "--hidden-dim", "16",
                                "--per-category", "20"], "    none: oracle accuracy "),
    ("mtl_comparison.py", ["--epochs", "1", "--seeds", "0", "--hidden-dim", "16"],
     "generation-only: median nll "),
    ("kl_ablation.py", ["--epochs", "1", "--seeds", "0", "--hidden-dim", "16"],
     "KL term degraded generation loss in "),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert summary in done.stdout
