"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced and untraced outputs agree, that each gate counts a corrupted
output as a failure, and that the benchmark refuses to run without the
program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*extra, cwd=ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--seed", "3", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, key):
    proc = run_bench("--workload", name, "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    got = {k: m["unit"] for k, m in last["metrics"].items()}
    assert got == want
    if key == "end_to_end":
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def covtest(tmp_path_factory):
    wl = workloads.make("covtest-cli", tiny=True)
    wl.setup(5, tmp_path_factory.mktemp("covtest"))
    out = wl.load(wl.op(0, "a"))
    return wl, out


def test_covtest_gate_accepts_real_output(covtest):
    wl, out = covtest
    assert wl.gate(out) is None
    assert wl.matches_library(out)


def _doctor_chi(out, chi):
    side = json.loads(out["json"])
    side["threshold"] = chi
    return {**out, "json": json.dumps(side).encode()}


@pytest.mark.parametrize("corrupt", [
    lambda o: _doctor_chi(o, 10.0),
    lambda o: _doctor_chi(o, 1.5),
    lambda o: {**o, "csv": b"\n".join(o["csv"].split(b"\n")[:-4]) + b"\n"},
    lambda o: {**o, "csv": o["csv"].replace(b",0\n", b",1\n", 1)},
    lambda o: {**o, "rc": 2},
])
def test_covtest_gate_counts_corrupted_output(covtest, corrupt):
    wl, out = covtest
    assert wl.gate(corrupt(out)) is not None


def test_cli_library_check_sees_a_changed_estimate(covtest):
    wl, out = covtest
    lines = out["csv"].decode().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[1] = ",".join(cells)
    assert not wl.matches_library({**out, "csv": "\n".join(lines).encode()})


def test_ga_gate_counts_doctored_statistics(tmp_path):
    wl = workloads.make("ga-linear", tiny=True)
    wl.setup(5, tmp_path)
    results = [wl.load(wl.op(i, "a")) for i in range(5)]
    assert all(wl.gate(r) is None for r in results)
    assert wl.gate_run(results) is None
    res = results[0]
    assert wl.gate(dataclasses.replace(res, sample_stats=res.sample_stats[:-1])) is not None
    nan = res.sample_stats.copy()
    nan[0] = float("nan")
    assert wl.gate(dataclasses.replace(res, sample_stats=nan)) is not None
    scaled = [dataclasses.replace(r, sample_stats=2.0 * r.sample_stats) for r in results]
    assert wl.gate_run(scaled) is not None


def test_coverage_gate_counts_a_doctored_coverage():
    wl = workloads.make("coverage-tar")
    row = {"R": wl.R, "coverage": 0.884, "median_halfwidth": 0.1}
    assert wl.gate([row]) is None
    assert wl.gate([{**row, "coverage": 0.5}]) is not None
    assert wl.gate([{**row, "coverage": 1.0}]) is not None
    assert wl.gate([{**row, "median_halfwidth": float("nan")}]) is not None
    assert wl.gate_run([[row]] * 10) is None
    assert wl.gate_run([[{**row, "coverage": 0.97}]] * 10) is not None


def test_rep_clock_gives_one_sample_per_block(tmp_path):
    wl = workloads.make("ga-linear", tiny=True)
    wl.setup(5, tmp_path)
    times = []
    with workloads.rep_clock(times):
        timed = wl.op(0, "a")
    assert len(times) == wl.R // workloads.REP_BLOCK and all(t > 0 for t in times)
    from hdts import util
    assert workloads.experiments.run_indexed is util.run_indexed   # restored
    assert wl.same(timed, wl.op(0, "a"))                           # outputs unchanged
