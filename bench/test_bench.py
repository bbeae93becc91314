"""Tests of the benchmark, mostly in smoke mode (tiny horizon, fewest operations).

Run from the repository root with `python3 -m pytest bench -q`.
"""
import configparser
import functools
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import surgeseek  # noqa: E402
import surgeseek.cli  # noqa: E402,F401
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)


def bench(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def smoke_result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_match_the_benchmark():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_emits_every_declared_metric_with_its_unit(workload, trace):
    result = smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat_between_runs(workload):
    first = smoke_result(workload, 1)["metrics"]
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for key in run.EXACT_COUNTS:
        assert again[key]["value"] == first[key]["value"], key
    assert first["integrator.steps"]["value"] > 0


def test_speed_probe_samples_through_the_block_and_restores_the_handler():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    # one sample before, one after and one per interval in between
    assert len(probe.samples) >= 2 + int(0.3 / speed.INTERVAL_S) // 2
    assert 0.0 < probe.probe_s < probe.wall_s
    assert probe.own_s == pytest.approx(probe.wall_s - probe.probe_s)
    assert probe.scaled_s == pytest.approx(probe.own_s * probe.speed)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_default_seed_reproduces_the_reference_scenario(tmp_path):
    path = tmp_path / "scenario.ini"
    workloads.write_scenario(ROOT, str(path))
    with open(os.path.join(ROOT, workloads.REFERENCE_SCENARIO), "rb") as f:
        assert path.read_bytes() == f.read()


def test_seed_moves_only_the_rest_start(tmp_path):
    def scenario(seed):
        work = tmp_path / str(seed)
        work.mkdir(exist_ok=True)
        workloads.Compare(surgeseek, ROOT, str(work), seed, smoke=False)
        cp = configparser.ConfigParser()
        cp.read(work / "scenario.ini")
        return {s: dict(cp[s]) for s in cp.sections()}

    ref, a, b = scenario(0), scenario(7), scenario(7)
    assert a == b and a != ref
    assert {s: v for s, v in a.items() if s != "initial"} == \
        {s: v for s, v in ref.items() if s != "initial"}
    assert all(float(a["initial"][k]) == 0.0 for k in ("vx", "vy", "omega"))


@pytest.mark.parametrize("shift", [0.0, 2.0])
def test_default_seed_is_checked_against_the_reference_values(tmp_path, shift):
    compare = workloads.Compare(surgeseek, ROOT, str(tmp_path), workloads.DEFAULT_SEED,
                                smoke=False)
    reference = compare.reference
    out = tmp_path / "op"
    out.mkdir()
    # shift=2 moves every metric by twice the tolerance
    metrics = {key: value * (1.0 + shift * reference["rel_tol"])
               for key, value in reference["metrics"].items()}
    (out / "compare_meta.json").write_text(json.dumps({"metrics": metrics}))
    for name in ("full.csv", "averaged.csv"):
        (out / name).write_text("t\n")
    errors, _ = compare.check(str(out), (0, ""))
    if shift:
        assert len(errors) == len(metrics)
        assert all("reference" in error for error in errors)
    else:
        assert errors == []


def test_fails_without_a_program_to_measure(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("compare", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
