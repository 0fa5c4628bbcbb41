"""The benchmark's traced ablation run end to end, so a rename or signature
change that breaks it fails here and not only when the benchmark runs."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_ablate_parallel_run_is_correct_and_counts_jobs(tmp_path):
    # a copy of the harness and the package, so its record lands in tmp_path
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ablate-parallel", "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["metrics"]["evaluation.jobs"]["value"] > 0
