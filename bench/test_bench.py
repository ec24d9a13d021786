"""Tests of the benchmark itself: checker, tracer, seeds and the output of run.py."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import checks
import run
import workloads
import worker
from tracer import TARGETS, TIMED, Tracer, metric_units

import runcube
import runcube.cli

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks_and_reports_every_layer_metric(workload):
    result = _bench(workload, trace=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workloads.jobs(workload, "tiny"))
    want = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_untraced_run_reports_every_end_to_end_metric():
    result = _bench("census", trace=0)
    assert result["correct"] and result["attempted"] == 3
    want = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    """Every attribute of every runcube module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "runcube" or name.startswith("runcube."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("runcube"):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    original_build = runcube.graph.build
    missing = ("graph", "no_such_function", TIMED, None)
    tracer = Tracer(targets=TARGETS + [missing]).install()
    try:
        assert runcube.graph.build is not original_build
        assert runcube.build is runcube.graph.build
        with redirect_stdout(io.StringIO()):
            runcube.cli.main(["graph", "--n", "6"])
    finally:
        tracer.uninstall()
    assert tracer.absent == ["graph.no_such_function"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    values = tracer.metrics()
    assert values["graph.build.calls"] == 1 and values["cli.main.calls"] == 1
    assert values["graph.build.vertices"] == checks.vertex_count(6)
    assert 0 < values["graph.self_s"] and 0 < values["cli.self_s"]


def test_corrupted_result_raises_error_rate(monkeypatch):
    plan = {"jobs": workloads.plan("census", "tiny", random.Random(0)), "trace": False}
    expected = checks.load_expected()
    clean = worker.run_pass(plan, expected)
    assert run.summarize([clean]) == (3, 0, 0.0)

    to_json = runcube.graph.DegreeCensus.to_json_dict

    def off_by_one(census):
        payload = to_json(census)
        payload["counts"][0][2] += 1
        return payload

    monkeypatch.setattr(runcube.graph.DegreeCensus, "to_json_dict", off_by_one)
    corrupted = worker.run_pass(plan, expected)
    assert run.summarize([clean, corrupted]) == (6, 1, 1 / 6)


def test_checker_reads_content_not_bytes():
    job = workloads.jobs("verify", "tiny")[0]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = runcube.cli.main(job["argv"])
    payload = json.loads(buf.getvalue())
    for report in payload["reports"]:
        report["elapsed_s"] = 0.25
    reformatted = json.dumps(payload, indent=2)
    assert checks.check(job, rc, reformatted, checks.load_expected()) is None
    payload["reports"][0]["ok"] = not payload["reports"][0]["ok"]
    assert checks.check(job, rc, json.dumps(payload), checks.load_expected()) is not None


def test_seed_changes_order_and_sources_but_never_sizes():
    a = workloads.plan("search", "full", random.Random(1))
    b = workloads.plan("search", "full", random.Random(2))
    assert a == workloads.plan("search", "full", random.Random(1))
    assert sorted(job["id"] for job in a) == sorted(job["id"] for job in b)
    ecc_a, ecc_b = ([job for job in p if job["check"] == "ecc"][0] for p in (a, b))
    assert len(ecc_a["sources"]) == len(ecc_b["sources"]) == 48
    assert ecc_a["sources"] != ecc_b["sources"]
