"""Tests of the benchmark itself.

    PYTHONPATH=.:src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import re
import signal
import time
from pathlib import Path

import pytest

from perfbench import gate, run, speed, tracer, workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_span_tree():
    # A [0, 100] encloses B [10, 40] (which encloses C [15, 25]) and C [50, 60]
    timer = tracer.SelfTimer(["A", "B", "C"], keep=["C"])
    timer.enter("A", 0)
    timer.enter("B", 10)
    timer.enter("C", 15)
    timer.exit(25)
    timer.exit(40)
    timer.enter("C", 50)
    timer.exit(60)
    timer.exit(100)
    assert timer.self_ns == {"A": 60, "B": 20, "C": 20}
    assert timer.calls == {"A": 1, "B": 1, "C": 2}
    assert timer.durations["C"] == [10, 10]
    assert timer.open_spans == 0
    assert sum(timer.self_ns.values()) == 100  # self times partition the root span


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 50) == 50
    assert tracer.percentile(values, 99) == 99
    assert tracer.percentile([7], 99) == 7


def test_timed_leaves_speed_samples_out_of_wall_time():
    assert speed.kernel() == speed.kernel()  # fixed work

    def busy():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
        return "done"

    value, wall, ref = speed.timed(busy)
    assert value == "done"
    # the call spends 0.35 s, three ticks of which run the kernel
    assert 0.2 < wall < 0.35
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    emitted_e2e = list(run.END_TO_END)
    emitted_layer = run.per_layer_names()
    for name in emitted_e2e + emitted_layer + tracer.metric_names():
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == emitted_e2e
    assert [m["name"] for m in BENCHMARK["per_layer"]] == emitted_layer
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_a_pure_function_of_the_seed(name):
    first = workloads.generate(name, 11)
    workloads.generate(name, 12)
    again = workloads.generate(name, 11)
    assert again == first
    assert workloads.digest(again) == workloads.digest(first)
    digests = {workloads.digest(workloads.generate(name, s)) for s in range(1, 30)}
    assert len(digests) > 1  # the seed reaches the inputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_generated_item_has_recorded_values(name):
    golden = gate.load_golden()
    for seed in range(1, 200):
        for item in workloads.generate(name, seed)["items"]:
            table = golden["runs"] if item["kind"] == "run" else golden["baselines"]
            assert gate.key(item["id"], item["config"]["seed"]) in table


def _fake_run(entry):
    summary = {
        "final": {k: entry[k] for k in gate.FINALS},
        "certifications": [
            {"name": n, "passed": {"PASS": True, "FAIL": False, "SKIP": None}[v]}
            for n, v in entry["verdicts"].items()
        ],
    }
    columns = {"runavg_r": [entry["runavg_r"]], "runavg_tr_q": [entry["runavg_tr_q"]]}
    return summary, columns


def _golden_run(golden, item_id):
    key = next(k for k in sorted(golden["runs"]) if k.startswith(f"{item_id}@"))
    return key.split("@")[0], int(key.split("@")[1]), golden["runs"][key]


def test_gate_accepts_recorded_run_and_last_bit_drift():
    golden = gate.load_golden()
    item_id, seed, entry = _golden_run(golden, "dpp-case1")
    summary, columns = _fake_run(entry)
    assert gate.check_run(item_id, seed, summary, columns, golden) == []
    summary["final"]["z_final"] *= 1 + 4e-16
    assert gate.check_run(item_id, seed, summary, columns, golden) == []


def test_gate_rejects_flipped_verdict():
    golden = gate.load_golden()
    item_id, seed, entry = _golden_run(golden, "dpp-exact")
    summary, columns = _fake_run(entry)
    summary["certifications"][0]["passed"] = False
    assert gate.check_run(item_id, seed, summary, columns, golden)
    # a continuous run whose skipped queue bound becomes a PASS also differs
    item_id, seed, entry = _golden_run(golden, "continuous-dpp")
    assert entry["verdicts"]["queue-bound"] == "SKIP"
    summary, columns = _fake_run(entry)
    next(c for c in summary["certifications"] if c["name"] == "queue-bound")["passed"] = True
    assert gate.check_run(item_id, seed, summary, columns, golden)


def test_gate_rejects_csv_that_disagrees_with_summary():
    golden = gate.load_golden()
    item_id, seed, entry = _golden_run(golden, "ogd-exact")
    summary, columns = _fake_run(entry)
    columns["runavg_r"][-1] += 1e-12
    assert gate.check_run(item_id, seed, summary, columns, golden)


def test_gate_rejects_perturbed_r_opt_and_non_convergence():
    golden = gate.load_golden()
    key = next(k for k in sorted(golden["baselines"]) if k.startswith("no-csit-continuous@"))
    item_id, seed = key.split("@")[0], int(key.split("@")[1])
    policy = {"kind": "no-csit", "converged": True, "r_opt": golden["baselines"][key]["r_opt"]}
    assert gate.check_baseline(item_id, seed, policy, golden) == []
    perturbed = dict(policy, r_opt=policy["r_opt"] * (1 + 1e-4))
    assert gate.check_baseline(item_id, seed, perturbed, golden)
    stalled = dict(policy, converged=False)
    assert gate.check_baseline(item_id, seed, stalled, golden)


def test_tracer_is_faithful_and_restores_originals(tmp_path):
    import dyncov

    cfg = copy.deepcopy(workloads.generate("paper-2x2", 1)["items"][2]["config"])
    cfg["reference"] = {"r_opt": 3.0}
    cfg["horizon"] = 200

    def csv_of(tag):
        cfg["outputs"] = {"csv": str(tmp_path / f"{tag}.csv")}
        dyncov.emit_outputs(dyncov.run_experiment(dyncov.load_config(cfg)))
        return (tmp_path / f"{tag}.csv").read_bytes()

    before = tracer.bindings()
    plain = csv_of("plain")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.bindings() != before
        traced = csv_of("traced")
    finally:
        tr.uninstall()
    assert tracer.bindings() == before
    assert traced == plain
    assert tr.timer.calls["controllers.dpp_step"] == 200
    assert tr.timer.calls["harness.run_experiment"] == 1
    assert tr.timer.open_spans == 0
