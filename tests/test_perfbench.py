"""The benchmark's traced replay, and its gated untraced runs, still run
and check out on this tree.

The traced replay of ``perfbench/run.py`` rebuilds each workload from the
library's public names (``CipherContext`` attributes, toy instances, the
oracle class); a rename there fails here rather than in a benchmark run.
Traced runs write ``.perfbench-spans/`` next to ``BENCHMARK.json``, so
every run here uses a copy of the tree.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-spans"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def run_workload(tree, workload: str, trace: int) -> None:
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=tree,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    report, verdict = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert verdict["correct"] is True, report["report"]["problems"]
    assert verdict["failed"] == 0


@pytest.mark.parametrize("workload", ["bulk_encrypt", "bulk_decrypt", "noisy_channel",
                                      "toy_recover", "toy_refute"])
def test_traced_replay_is_correct(tree, workload):
    run_workload(tree, workload, trace=1)


@pytest.mark.parametrize("workload", ["small_sessions", "noisy_channel"])
def test_untraced_run_is_correct(tree, workload):
    # the gated runs of the workloads whose session set-up is on the clock
    run_workload(tree, workload, trace=0)
