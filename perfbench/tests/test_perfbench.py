"""Tests of the benchmark's own code (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.run import clear_repro_env  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder  # noqa: E402
from perfbench.workloads import FiguresOpenLoop, NodeSaturated, NumaMesh  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    rec = SpanRecorder()
    a = rec.add("a", 0, 100)
    b = rec.add("b", 10, 40, parent=a)
    rec.add("c", 15, 25, parent=b)
    rec.add("b", 50, 70, parent=a)
    rec.add("a", 200, 205)
    s = rec.summary()
    assert s["a"]["calls"] == 2
    assert s["a"]["total_s"] == pytest.approx(105e-9)
    # a: 105 minus its two direct b children (30 + 20); c is b's child.
    assert s["a"]["self_s"] == pytest.approx(55e-9)
    assert s["b"]["self_s"] == pytest.approx(40e-9)
    assert s["c"]["self_s"] == pytest.approx(10e-9)


def test_wrapped_calls_nest_and_drain_generators():
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))

    def items(n):
        yield from range(n)

    inner = rec.wrap("inner", items, tally=len)

    def outer_fn():
        return sum(inner(3)) + sum(inner(4))

    outer = rec.wrap("outer", outer_fn)
    assert outer() == 3 + 6
    s = rec.summary()
    assert s["inner"]["calls"] == 2 and s["inner"]["items"] == 7
    assert list(rec.parent) == [-1, 0, 0]
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"]
    )


def test_absent_targets_are_reported_not_raised():
    from repro.core.mac import MAC

    original = MAC.submit
    patcher = Patcher(SpanRecorder())
    absent = patcher.install([
        ("gone", "repro.core.mac:MAC.no_such_method", None),
        ("gone_module", "repro.no_such_module:fn", None),
        ("gone_function", "repro.core.mac:no_such_function", None),
        ("here", "repro.core.mac:MAC.submit", None),
    ])
    assert absent == [
        "repro.core.mac:MAC.no_such_method",
        "repro.no_such_module:fn",
        "repro.core.mac:no_such_function",
    ]
    assert MAC.submit is not original
    patcher.uninstall()
    assert MAC.submit is original


def test_function_wrapper_rebinds_every_alias():
    from repro.core import mac
    from repro.eval import runner

    original = mac.coalesce_trace_fast
    patcher = Patcher(SpanRecorder())
    assert patcher.install(
        [("core.window", "repro.core.mac:coalesce_trace_fast", None)]) == []
    assert runner.coalesce_trace_fast is mac.coalesce_trace_fast is not original
    patcher.uninstall()
    assert runner.coalesce_trace_fast is original


def small(cls, **attrs):
    def make(seed):
        workload = cls(seed)
        vars(workload).update(attrs)
        return workload
    return make


@pytest.mark.parametrize("make", [
    small(FiguresOpenLoop, ops=20, names=["IS", "SG"]),
    small(NodeSaturated, ops=40),
    small(NumaMesh, ops=20, meshes=2),
])
def test_fingerprint_repeats_in_process(make):
    workload = make(5)
    _, inputs = harness.timed_setup(workload)
    first = harness.run_round(workload, inputs)
    second = harness.run_round(workload, workload.prepare())
    assert first.failed == second.failed == 0
    assert first.attempted == len(first.cells) > 0
    assert first.fingerprint == second.fingerprint
    other = make(6)
    _, inputs = harness.timed_setup(other)
    assert harness.run_round(other, inputs).fingerprint != first.fingerprint


def test_broken_identity_counts_as_failed_cell():
    workload = small(NodeSaturated, ops=40)(5)
    _, inputs = harness.timed_setup(workload)

    def broken():
        cell = next(iter(workload.cells(inputs)))[1]()
        cell.violations.append("planted")
        return cell

    def raises():
        raise RuntimeError("planted")

    workload.cells = lambda _inputs: [("broken", broken), ("raises", raises)]
    rnd = harness.run_round(workload, inputs)
    assert (rnd.attempted, rnd.failed) == (2, 2)


def test_clear_repro_env():
    env = {"REPRO_SIM_ENGINE": "skip", "REPRO_SIM_VECTOR": "0",
           "REPRO_SIM_CHECK": "1", "REPRO_SIM_SHARDS": "2",
           "REPRO_PDES_CHAOS": "0:1", "PATH": "/bin", "XREPRO_KEEP": "1"}
    removed = clear_repro_env(env)
    assert removed == [
        "REPRO_PDES_CHAOS", "REPRO_SIM_CHECK", "REPRO_SIM_ENGINE",
        "REPRO_SIM_SHARDS", "REPRO_SIM_VECTOR",
    ]
    assert env == {"PATH": "/bin", "XREPRO_KEEP": "1"}


def test_run_ignores_repro_knobs_in_environment():
    env = dict(os.environ, REPRO_SIM_ENGINE="skip", REPRO_SIM_SHARDS="2")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "node_saturated",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert info["engine"] == "lockstep"
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "node_latency",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    for m in SPEC["per_layer"]:
        assert m["unit"] == harness.unit_of(m["name"])
