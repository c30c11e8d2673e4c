"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` as a subprocess with
``--seconds 0`` (the warm-up plus the minimum batch count).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("e1_cosim", "e1_pure_rtl", "shard_rtl_chain", "sweep_behav")
#: how far the layers' self times plus unattributed_s may sum from wall_s
SUM_TOLERANCE_S = 1e-6

sys.path.insert(0, str(ROOT / "perfbench"))
from run import HELD_OUT_SEED, PER_LAYER  # noqa: E402


def _run(*args, cwd=ROOT, script=RUN):
    done = subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)
    return done


def _result(*args):
    done = _run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_account_for_wall_time(workload):
    result = _result("--workload", workload, "--seed", "0",
                     "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in PER_LAYER}
    self_times = [value for name, value in metrics.items()
                  if name.endswith("_s")
                  and name not in ("wall_s", "unattributed_s")]
    assert all(value >= 0 for value in self_times)
    assert metrics["unattributed_s"] >= 0
    assert abs(sum(self_times) + metrics["unattributed_s"]
               - metrics["wall_s"]) <= SUM_TOLERANCE_S
    # the traced run's overhead against the untraced run is reported
    assert metrics["trace.overhead"] > -1.0
    assert metrics["compiled.fallbacks"] == 0


def test_layers_that_must_stay_idle():
    pure = _result("--workload", "e1_pure_rtl", "--seconds", "0",
                   "--trace", "1")["metrics"]
    assert pure["netsim.self_s"]["value"] == 0
    assert pure["sync.self_s"]["value"] == 0
    assert pure["hdl.self_s"]["value"] > 0
    sweep = _result("--workload", "sweep_behav", "--seconds", "0",
                    "--trace", "1")["metrics"]
    assert sweep["hdl.self_s"]["value"] == 0
    assert sweep["sync.self_s"]["value"] == 0
    assert sweep["behav.cells"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_correct(workload):
    result = _result("--workload", workload, "--seed", str(HELD_OUT_SEED),
                     "--seconds", "0", "--trace", "0")
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 4
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_injected_corruption_raises_error_rate():
    result = _result("--workload", "e1_pure_rtl", "--seconds", "0",
                     "--corrupt")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "e1_cosim", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
