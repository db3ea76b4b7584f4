"""Tests of the benchmark itself: seeding, exact counts, tracing arithmetic.

Run with ``python -m pytest benchmarks``; the repository's own suite does not
collect them, and the lt case alone takes about a minute.
"""

import gc
import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import perf
import tracing
import workloads

SEED = 7


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_and_answers_check(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(SEED)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tally, _ = workloads.timed_pass(workload, inputs, tracer)
        assert tally.wrong == 0 and tally.raised == 0, tally.errors
        metrics = tracer.metrics()
        counts.append({key: metrics[key] for key in perf.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["core.runs"] > 0 and counts[0]["core.cell_steps"] > 0
    if name == "lt":
        # the only failures are loaded-table budget timeouts
        assert tally.missing == tally.failed > 0
        assert counts[0]["localtests.table_rules"] > 0
    else:
        assert tally.failed == 0


def test_declared_metrics_are_reported_with_their_units():
    declared = json.loads((perf.ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert perf.unit_of(metric["name"]) == metric["unit"], metric
    layer_metrics = tracing.Tracer().metrics()
    for metric in declared["per_layer"]:
        assert metric["name"] in layer_metrics or metric["name"] == "trace.overhead_s"


def test_setup_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = workload.sizes(workload.setup(SEED))
        assert workload.sizes(workload.setup(SEED)) == first
    sweep = workloads.WORKLOADS["sweep"]
    assert sweep.setup(SEED).samples == sweep.setup(SEED).samples
    assert sweep.setup(SEED).samples != sweep.setup(SEED + 1).samples


def test_linear_bin_reference_agrees_with_the_zoo_oracle():
    import acaw.zoo

    words = workloads.all_words("01#", 8) + [acaw.zoo.generate_bin(k) for k in range(1, 7)]
    assert [workloads.is_counter_word(w) for w in words] == [
        acaw.zoo.ORACLES["bin"](w) for w in words
    ]


def test_self_time_excludes_children_and_spans_share_an_operation():
    tracer = tracing.Tracer()
    inner = tracer.call("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.call("outer", outer_body)
    outer()
    outer()
    self_ns, calls = tracer.self_times()
    assert calls == {"outer": 2, "inner": 4}
    total = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.name))
                if tracer.parent[i] < 0)
    assert self_ns["outer"] + self_ns["inner"] == total
    assert self_ns["inner"] >= 4 * 0.02e9 and self_ns["outer"] < self_ns["inner"]
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    assert list(tracer.op) == [0, 0, 0, 3, 3, 3]


@pytest.mark.parametrize("env", ["plain", "traced"])
def test_pass_environments_restore_the_package(env):
    import acaw.bench
    import acaw.localtests

    before = (acaw.bench.run_decider, acaw.localtests.global_step)
    env = tracing.Plain(hostspeed.SpeedProbe()) if env == "plain" else tracing.Tracer()
    with env.patched():
        assert acaw.bench.run_decider is not before[0]
    assert (acaw.bench.run_decider, acaw.localtests.global_step) == before


@pytest.mark.parametrize("kind", ["step", "scan"])
def test_probe_slices_stay_off_the_work_clock_and_the_collector(kind):
    probe = hostspeed.SpeedProbe(kind, every_s=0.0)
    t0, w0 = time.perf_counter(), probe.clock()
    work = probe.ticking(lambda: time.sleep(0.01))
    for _ in range(5):
        work()
    wall, worked = time.perf_counter() - t0, probe.clock() - w0
    assert len(probe.slices) == 5
    assert worked == pytest.approx(wall - sum(probe.slices), abs=1e-4)
    assert worked >= 0.05
    assert probe.scale(0) == hostspeed.REFERENCE_S / sorted(probe.slices)[2]

    gc.collect()
    young = [[] for _ in range(100)]  # a count above 0, so frees show in it
    counts = gc.get_count()
    for _ in range(20):
        probe.slice()
    assert gc.get_count()[0] <= counts[0] + 5 and gc.get_count()[1:] == counts[1:]
    del young


def test_a_short_run_reports_every_declared_metric():
    declared = json.loads((perf.ROOT / "BENCHMARK.json").read_text())
    result = subprocess.run(
        [sys.executable, str(perf.HERE / "perf.py"), "--workload", "curves", "--seed", "1",
         "--seconds", "3", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {m["name"] for m in declared["end_to_end"]} == set(line["metrics"])
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "provenance processes:" in result.stdout


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(perf.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(perf.HERE, tmp_path / perf.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    result = subprocess.run(
        [sys.executable, *command[1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
