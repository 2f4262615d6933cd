"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _check_output(proc, declared):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        assert any(line.startswith("%s = " % m["name"]) and
                   line.split()[3] == m["unit"] for line in lines[:-1]), m["name"]


def test_tiny_run_prints_every_end_to_end_metric():
    proc = _run("--workload", "kinetic_cli", "--seed", "3", "--seconds", "1",
                "--trace", "0")
    _check_output(proc, SPEC["end_to_end"])
    assert any(line.startswith("fail_ratio = 0 ") for line in proc.stdout.splitlines())
    assert "blas_threads=" in proc.stdout and "nproc=" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "kinetic_cli", "--seed", "3", "--seconds", "2",
                "--trace", "1")
    _check_output(proc, SPEC["per_layer"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs(workload):
    def first(seed):
        return list(itertools.islice(workloads.job_stream(workload, seed), 30))

    assert first(5) == first(5)
    assert first(5) != first(6)
    assert workloads.warmup_jobs(workload, 5) == workloads.warmup_jobs(workload, 5)


def test_generator_specs_repeat_only_in_evolve_dense():
    def share(workload):
        return workloads.repeat_share(
            list(itertools.islice(workloads.job_stream(workload, 1), 60)))

    assert share("evolve_dense") > 0.5
    assert share("collision_steady") == 0.0
    assert share("kinetic_cli") == 0.0


class LeakyLiouvillian:
    """A broken generator: it adds a multiple of the identity, leaking trace."""

    def __init__(self, inner):
        self.cfg = inner.cfg
        self._inner = inner

    def apply(self, rho):
        return self._inner.apply(rho) + 1e-3 * np.eye(rho.shape[0])

    __call__ = apply


def test_broken_generator_is_counted_as_failed(tmp_path):
    jobs = list(itertools.islice(workloads.job_stream("evolve_dense", 2), 3))
    healthy = workloads.Api()
    leaky = workloads.Api(build_liouvillian=lambda cfg, spec: LeakyLiouvillian(
        healthy.build_liouvillian(cfg, spec)))

    good = workloads.closed_loop(healthy, iter(jobs), 1e9, str(tmp_path))
    bad = workloads.closed_loop(leaky, iter(jobs), 1e9, str(tmp_path))
    assert len(good.latencies) == len(bad.latencies) == 3
    assert good.failures == []
    assert len(bad.failures) == 3
    assert all(any("trace drift" in p for p in problems)
               for _, _, problems in bad.failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "kinetic_cli", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
