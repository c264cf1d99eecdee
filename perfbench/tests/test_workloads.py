"""Tiny-size smoke runs of every workload kind, the output checks, and the spec file."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import LAYER_METRICS
from perfbench.run import END_TO_END, measure
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, SimWorkload, SolveWorkload, host_distance_oracle

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "solve-regular": SolveWorkload(
        "tiny-regular", "", min_reps=3, n=32, r=8, steps=40,
        m=8, construction="regular", operation="swap",
    ),
    "solve-large": SolveWorkload(
        "tiny-random", "", min_reps=3, n=64, r=10, steps=40, seed_pool=(5, 6, 7),
    ),
    "sim-alltoall": SimWorkload(
        "tiny-ft", "", min_reps=3, benchmark="ft", ranks=16, n=32, r=8, solve_steps=40,
    ),
    "sim-halo": SimWorkload(
        "tiny-cg", "", min_reps=3, benchmark="cg", ranks=16, n=32, r=8, solve_steps=40,
    ),
}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workload_untraced_reports_every_end_to_end_metric(kind):
    result = measure(TINY[kind], seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    for name, unit, _ in END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("kind", sorted(TINY))
def test_tiny_workload_traced_reports_every_layer_metric(kind):
    tracer = Tracer()
    result = measure(TINY[kind], seed=3, seconds=0, trace=True, tracer=tracer)
    assert result["correct"] and result["attempted"] == 6
    assert list(result["metrics"]) == [name for name, _, _ in LAYER_METRICS]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert len(tracer.runs) == 3
    assert values["trace.spans"] > 0
    assert 0 <= values["trace.unattributed_ratio"] < 0.5
    if kind == "solve-regular":
        assert values["construct.regular_s"] > 0
        assert values["construct.random_s"] == 0
        assert values["hostswitch.connected_calls"] == 0
        assert values["incremental.propose_calls"] > 0
    elif kind == "solve-large":
        assert values["construct.random_s"] > 0
        assert values["kernels.bfs_rows"] > 0
    else:
        assert values["fluid.arrival_calls"] == values["network.route_calls"] > 0
        assert values["fluid.timer_calls"] > 0
        assert values["fluid.active_flows_mean"] >= 1
        assert values["engine.events_fired"] > 0
        assert values["incremental.propose_calls"] == 0


def test_same_seed_gives_same_inputs():
    workload = TINY["sim-alltoall"]
    a, b = workload.setup(11), workload.setup(11)
    assert a["graph"] == b["graph"] and a["mapping"] == b["mapping"]
    assert TINY["solve-large"].setup(4) == {"seed": 6}


def test_oracle_matches_a_hand_count():
    from repro.core.hostswitch import HostSwitchGraph

    g = HostSwitchGraph(num_switches=2, radix=4)
    g.add_switch_edge(0, 1)
    g.attach_host(0)
    g.attach_host(0)
    g.attach_host(1)
    # Pairs: the two hosts on switch 0 at 2 hops, two cross pairs at 3 hops.
    assert host_distance_oracle(g) == pytest.approx((8 / 3, 3.0))


def test_solve_check_flags_a_wrong_h_aspl():
    workload = TINY["solve-large"]
    inputs = workload.setup(0)
    solution = workload.run(inputs)
    assert workload.check(inputs, solution).problems == []
    solution.h_aspl += 1e-6
    problems = workload.check(inputs, solution).problems
    assert any("recomputed" in p for p in problems)


def test_solve_check_flags_a_start_graph_without_a_hostless_switch():
    # At n=128, r=10 the start graph of solver seed 3 strands a switch and
    # that of seed 0 does not.
    workload = SolveWorkload("tiny-hostless", "", min_reps=1, n=128, r=10, steps=5,
                             seed_pool=(3, 0), hostless_start=True)
    stranded, full = workload.setup(0), workload.setup(1)
    assert workload.check(stranded, workload.run(stranded)).problems == []
    problems = workload.check(full, workload.run(full)).problems
    assert any("no hostless switch" in p for p in problems)


def test_sim_check_flags_a_message_count_mismatch():
    workload = TINY["sim-halo"]
    inputs = workload.setup(0)
    result = workload.run(inputs)
    assert workload.check(inputs, result).problems == []
    bad_stats = dataclasses.replace(result.stats, messages=result.stats.messages + 1)
    bad = dataclasses.replace(result, stats=bad_stats)
    assert workload.check(inputs, bad).problems


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-regular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
