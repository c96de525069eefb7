"""Smoke runs of the study scripts under scripts/ on tiny problems."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,header", [
    ("toy_experiment.py", ["--seeds", "1", "--n", "40", "--max-iters", "200"],
     "seed   corrlog      ilrs  imp(corr)  imp(ilrs)   alpha12"),
    ("label_graph_sparsity.py",
     ["--labels", "4", "--features", "3", "--n", "60", "--max-iters", "200"],
     " epsilon  nnz(alpha)  objective path"),
])
def test_script_runs_and_prints_its_table(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert header in result.stdout.splitlines()
