"""Tests of the benchmark itself.

Named so the repository's own test run does not collect them (each
launches real workloads); run them explicitly from the repo root::

    python3 -m pytest perfbench/checks.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.prepare()

import compare  # noqa: E402
import workloads  # noqa: E402

SMOKE_SECONDS = 1.0
#: Traced self times must add up to the traced wall time within this
#: share.  The residue is loop and wrapper overhead between top-level
#: spans; for the pool it includes ``ServePool.infer_many``'s own loops.
SELF_SUM_TOLERANCE = 0.05
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def results():
    cache: dict = {}

    def get(name: str, trace: bool) -> dict:
        if (name, trace) not in cache:
            cache[name, trace] = run.measure(name, 7, SMOKE_SECONDS, trace)
        return cache[name, trace]

    return get


def test_benchmark_json_follows_its_schema():
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_and_outputs_match(
        results, name, trace):
    result = results(name, trace)
    assert set(result["metrics"]) == set(run.declared_units(trace))
    assert all(math.isfinite(v) for v in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]
    if not trace:  # end-to-end metrics are never 0
        assert all(v > 0 for v in result["metrics"].values())
        assert result["metrics"]["ok_rate"] == 1.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_sum_to_traced_wall(results, name):
    notes = results(name, True)["notes"]
    wall = notes["traced_wall_s"]
    assert abs(notes["traced_self_s"] - wall) <= SELF_SUM_TOLERANCE * wall


def test_rollout_profiles_split_between_fft_and_cgemm(results):
    exact = results("rollout_exact_r2c_2d", True)["metrics"]
    fast = results("rollout_fast_r2c_2d", True)["metrics"]
    assert exact["kernel.panel_contract.share"] < 0.15
    shares = {k: v for k, v in fast.items()
              if k.endswith(".share") and not k.startswith("breakdown.")}
    assert max(shares, key=shares.get) == "kernel.panel_contract.share"


def test_infer_python_side_is_visible(results):
    result = results("infer_c2c_1d", True)
    m = result["metrics"]
    executor_share = m["executor.call.self_s"] / result["notes"][
        "traced_wall_s"]
    assert m["session.share"] + executor_share > 0.1
    assert sum(m[f"breakdown.{s}.share"] for s in
               ("fft", "truncate", "cgemm", "pad", "ifft")) == pytest.approx(1)


def test_inputs_follow_the_seed():
    def inputs(seed):
        return [x for burst in workloads.InferC2C1D(seed).bursts
                for _, x in burst]

    assert all(np.array_equal(a, b) for a, b in zip(inputs(3), inputs(3)))
    assert not np.array_equal(inputs(3)[0], inputs(4)[0])


def test_compare_refuses_different_fingerprints(tmp_path):
    record = {"workload": "infer_c2c_1d", "trace": 0,
              "fingerprint": {"cpu": "a"},
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record) + "\n")
    record["fingerprint"] = {"cpu": "b"}
    new.write_text(json.dumps(record) + "\n")
    assert compare.main([str(base), str(new)]) == 2


def test_last_line_carries_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "records.jsonl"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_c2c_1d",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == (
        run.declared_units(False))
    record = json.loads(out.read_text())
    assert set(record["fingerprint"]) == {"cpu", "nproc", "kernels",
                                          "numpy", "python"}


def test_pool_run_leaves_no_process_behind():
    """The pool starts worker processes and, through its shared-memory
    rings, the resource tracker; after ``stop_children`` none is left,
    not even unreaped."""
    code = (
        "import os, run\n"
        "try:\n"
        "    run.main(['--workload', 'pool_c2c_1d', '--seed', '1',\n"
        "              '--seconds', '1', '--trace', '0'])\n"
        "finally:\n"
        "    run.stop_children()\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no children')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=run.ROOT / "perfbench",
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "no children"


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_c2c_1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
