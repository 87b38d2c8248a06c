"""Smoke tests of the benchmark itself: ``pytest bench/``.

Both runs use ``--smoke`` (short lengths and counts), so they check the
plumbing — every metric emitted, traces consistent, comparisons working —
and say nothing about performance.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import compare
from common import BENCH, ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_bench(out, *extra) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    line = run_bench(out)
    return line, json.loads((out / "results.json").read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    line = run_bench(out, "--trace", "1")
    return line, out


def test_every_end_to_end_metric_is_emitted(untraced):
    line, results = untraced
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload in WORKLOADS:
        report = results["workloads"][workload]
        assert report["correct"], report["errors"]
        for entry in SPEC["end_to_end"]:
            name = entry["name"]
            assert report["metrics"][name]["unit"] == entry["unit"]
            assert report["metrics"][name]["median"] > 0
            assert line["metrics"][f"{workload}.{name}"]["unit"] == entry["unit"]


def test_every_per_layer_metric_is_emitted(traced):
    line, _out = traced
    assert line["correct"]
    names = {entry["name"] for entry in SPEC["per_layer"]}
    for workload in WORKLOADS:
        emitted = {
            key.split(".", 1)[1] for key in line["metrics"]
            if key.startswith(workload + ".")
        }
        assert emitted == names


def test_self_times_fit_inside_their_roots(traced):
    _line, out = traced
    for workload in WORKLOADS:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        roots: dict[str, float] = {}
        for _name, start, end, parent, run, own in trace["spans"]:
            assert own >= -1e-9
            if parent is None:
                roots[run] = roots.get(run, 0.0) + (end - start)
        own_by_run: dict[str, float] = {}
        for run, _name, _count, _total, own in trace["groups"]:
            assert own >= -1e-9
            own_by_run[run] = own_by_run.get(run, 0.0) + own
        assert own_by_run, workload
        for run, own in own_by_run.items():
            assert own <= roots[run] + 1e-6, (workload, run)


def test_compare_flags_a_throughput_drop_beyond_its_bound(
        untraced, tmp_path, capsys):
    _line, results = untraced
    bound = next(entry["bound"] for entry in SPEC["end_to_end"]
                 if entry["name"] == "instr_per_s")
    baseline = copy.deepcopy(results)
    for report in baseline["workloads"].values():
        for metric in report["metrics"].values():
            metric["q1"] = metric["q3"] = metric["median"]
            metric["iqr"] = 0.0
    a = tmp_path / "a.json"
    a.write_text(json.dumps(baseline))

    def compare_drop(share: float) -> tuple[int, str]:
        dropped = copy.deepcopy(baseline)
        metric = dropped["workloads"]["full_detail"]["metrics"]["instr_per_s"]
        metric["median"] *= 1.0 - share
        metric["q1"] = metric["q3"] = metric["median"]
        b = tmp_path / "b.json"
        b.write_text(json.dumps(dropped))
        capsys.readouterr()
        status = compare.main([str(a), str(b)])
        return status, capsys.readouterr().out

    assert compare.main([str(a), str(a)]) == 0
    status, report = compare_drop(bound / 2)
    assert status == 0 and "worse" not in report
    status, report = compare_drop(bound + 0.05)
    assert status == 1
    row = next(r for r in report.splitlines() if r.startswith("full_detail:"))
    assert "instr_per_s worse" in row
    assert "worse" not in report.replace(row, "")
