"""The benchmark's traced ablate-parallel and data-eval runs end to end, so a
rename, a signature change or a data-layer change that breaks them fails here
and not only when the benchmark runs."""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced_run(tmp_path, workload: str) -> dict:
    """The JSON result of a traced one-operation run of the workload."""
    # a copy of the harness and the package, so its record lands in tmp_path
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0
    return result


def test_traced_ablate_parallel_run_is_correct_and_counts_jobs(tmp_path):
    result = _traced_run(tmp_path, "ablate-parallel")
    assert result["metrics"]["evaluation.jobs"]["value"] > 0


def test_traced_data_eval_run_reads_back_what_it_wrote(tmp_path):
    # correct covers the read-back count and the eval/probe digests
    result = _traced_run(tmp_path, "data-eval")
    assert result["metrics"]["cli.nonzero_exits"]["value"] == 0
