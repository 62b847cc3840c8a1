"""Tests of the benchmark itself: tiny runs, checks that bite, seeded inputs.

Run from the root of a checkout with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import inputs
import run
import tracing

TINY = {"scale": 0.02, "setup_repeats": 1}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_result(capsys, workload: str, trace: int, seed: int = 1) -> tuple[dict, str]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, **TINY) == 0
    text = capsys.readouterr().out
    return json.loads(text.splitlines()[-1]), text


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_unit_and_no_failures(capsys, workload, trace):
    result, text = tiny_result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        assert f"{name} " in text and f" {metric['unit']}\n" in text


def test_trace_call_counts_repeat_exactly(capsys):
    first, _ = tiny_result(capsys, "point", 1, seed=5)
    second, _ = tiny_result(capsys, "point", 1, seed=5)
    calls = [n for n in first["metrics"] if n.endswith(".calls") or n.endswith("_per_point")]
    assert calls
    for name in calls:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead"]["value"] > 0


def test_removed_function_is_reported_absent_not_failed(monkeypatch):
    monkeypatch.setitem(tracing.FUNCTIONS, "protocol",
                        tracing.FUNCTIONS["protocol"] + ("no_longer_here",))
    tm = run.load_package()
    runner = run.Runner(tm, inputs.materialize(tm, inputs.plan("point", 3, 0.02)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["protocol.no_longer_here"]
    assert runner.failed == 0
    assert tracer.stats["protocol.analytic_report"].calls > 0
    classify = tracer.stats["channel.classify"]
    assert classify.calls_by_kind["pair"] > 0 and classify.calls_by_kind["classify"] > 0
    assert sum(classify.calls_by_kind.values()) == classify.calls
    assert tm.analytic_report is tm.protocol.analytic_report
    assert not hasattr(tm.analytic_report, "__wrapped__")


@pytest.mark.parametrize("workload", inputs.STREAMS)
def test_inputs_are_a_function_of_the_seed(workload):
    same = {inputs.digest(inputs.plan(workload, 11)) for _ in range(2)}
    assert len(same) == 1
    assert inputs.digest(inputs.plan(workload, 12)) not in same


def first_op(stream: str, kind: str, seed: int = 2):
    tm = run.load_package()
    built = inputs.materialize(tm, inputs.plan("point", seed, 0.05))[stream]
    return tm, next((op, args) for op, args in built if op["kind"] == kind)


def perturb_total(rep):
    return dataclasses.replace(rep, total=rep.total + 1e-9)


def perturb_fidelity(rep):
    o = rep.outcomes[2]
    bad = dataclasses.replace(o, fidelity=o.fidelity - 1e-9)
    return dataclasses.replace(rep, outcomes=rep.outcomes[:2] + (bad,) + rep.outcomes[3:])


@pytest.mark.parametrize("perturb", [perturb_total, perturb_fidelity])
def test_perturbed_report_counts_as_failed(monkeypatch, perturb):
    tm, (op, args) = first_op("point", "pair")
    ana, sim = tm.analytic_report(*args), tm.simulate_report(*args)
    assert checks.check_pair(op, ana, sim) == []
    assert checks.check_pair(op, ana, perturb(sim))

    real = tm.simulate_report
    monkeypatch.setattr(tm, "simulate_report", lambda *a: perturb(real(*a)))
    runner = run.Runner(tm, inputs.materialize(tm, inputs.plan("point", 2, 0.05)))
    runner.run_pass()
    pairs = sum(op["kind"] == "pair" for op, _ in runner.prepared["point"])
    assert runner.failed == pairs > 0


def test_accepted_must_refuse_request_counts_as_failed(monkeypatch):
    tm, _ = first_op("point", "refuse")
    monkeypatch.setattr(tm, "analytic_report", lambda *a: None)
    runner = run.Runner(tm, inputs.materialize(tm, inputs.plan("point", 2, 0.05)))
    runner.run_pass()
    assert runner.failed >= sum(op["kind"] == "refuse" for op, _ in runner.prepared["point"]) > 0


def test_perturbed_cli_output_and_sampler_counts_fail():
    tm = run.load_package()
    runner = run.Runner(tm, inputs.materialize(tm, inputs.plan("sweep", 4, 0.05)))
    ops = [op for op, _ in runner.prepared["sweep"]]
    sweep_op = next(op for op in ops if op["kind"] == "sweep")
    fig1_op = next(op for op in ops if op["kind"] == "fig1")
    code, out = runner._call_cli(sweep_op)
    assert checks.check_sweep(sweep_op, code, out)[1] == []
    lines = out.splitlines()
    value, ana, sim = lines[1].split(",")
    bad = "\n".join([lines[0], f"{value},{ana},{float(sim) + 1e-9!r}"] + lines[2:]) + "\n"
    assert checks.check_sweep(sweep_op, code, bad)[1]
    assert checks.check_sweep(sweep_op, 2, out)[1]

    code, out = runner._call_cli(fig1_op)
    assert checks.check_fig1(fig1_op, code, out) == []
    assert checks.check_fig1(fig1_op, code, out.replace("\n", "\n0.1,0.1,0.1,0.1\n", 1))

    op, args = runner.prepared["montecarlo"][0]
    rep = tm.monte_carlo(*args, op["trials"], op["seed"])
    assert checks.check_montecarlo(op, rep, checks.mc_signature(rep)) == []
    shifted = dataclasses.replace(rep, p_hat=min(1.0, rep.p_hat + 0.5))
    assert checks.check_montecarlo(op, shifted, None)
    assert checks.check_montecarlo(op, rep, ((0, 0, 0, 0), (0, 0, 0, 0), 0.0))


def test_closed_forms_match_the_papers_goldens():
    assert checks.expected_total(0.8, 0.6, None, 1.0) == pytest.approx(0.4608, abs=1e-15)
    assert checks.expected_total(0.8, 0.6, None, "per-outcome") == pytest.approx(0.72, abs=1e-15)
    h = 1 / math.sqrt(2)
    assert checks.expected_total(0.8, 0.6, [h, h], "per-outcome") == pytest.approx(0.72, abs=1e-15)
    assert checks.expected_total(h, h, None, "max") == pytest.approx(1.0, abs=1e-15)


def test_fails_without_the_package_sources():
    bare = run.OUT / "bare-checkout"  # only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "point", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
