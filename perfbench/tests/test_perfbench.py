"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, metrics, run, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=None, tag="", phase="loop"):
    return Span(name, start, end, parent, 0, tag, phase)


def test_benchmark_json_names_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [(n, u) for n, u, _ in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [(n, u) for n, u, _ in metrics.PER_LAYER]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    from perfbench import workloads

    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(1, 3), (2, 5), (7, 8), (4, 4)]) == 5.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_direct_children_once():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: covered once
        span("leaf", 2.5, 4.0, parent=2),  # grandchild: only b loses it
        span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans) == [10.0 - 4.0 - 1.0, 2.0, 3.0 - 1.5, 1.5, 3.0]
    s = tracing.summary(spans)
    assert s["parent"] == {"count": 1, "total_s": 10.0, "self_s": 5.0, "errors": 0}


def test_tracer_records_parent_tag_and_error():
    tr = tracing.Tracer()
    tr.pass_id, tr.tag = 7, "in"
    with tr.span("outer"):
        with pytest.raises(ZeroDivisionError):
            with tr.span("inner", tag="other"):
                1 / 0
    outer, inner = tr.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (inner.pass_id, inner.tag, inner.error, outer.error) == (7, "other", "ZeroDivisionError", None)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tr.durations("inner", tag="in") == []
    assert math.isnan(tr.median("missing"))


def test_derived_arithmetic():
    assert metrics.parallel_efficiency(8.8, 4.6) == 8.8 / 9.2
    assert metrics.parallel_efficiency(4.0, 2.0) == 1.0
    assert metrics.latency_p50([1.0, 2.0, 3.0], [True, True, True]) == 2.0
    assert metrics.latency_p50([1.0, 2.0, 3.0, 0.1], [True, True, True, False]) == 2.5  # failed = inf
    assert metrics.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert metrics.overhead_ratio(10.0, 1000, 1e-3) == 10.0 / 9.0  # the spans cost 1 s of 10
    assert metrics.overhead_ratio(2.0, 0, 5e-6) == 1.0


def test_span_cost_is_small_and_positive():
    assert 0.0 <= tracing.span_cost(2000) < 1e-3


def test_probe_metrics_derive_from_spans_on_the_same_input():
    from perfbench.probes import Probes

    tr = tracing.Tracer()
    tr.spans = [
        span("cli.run.solve", 0, 3, tag="A"),
        span("cli.run.solve", 0, 5, tag="A"),
        span("closedform.solve_equilibrium", 0, 1, tag="A", phase="probe"),
        span("cli.run.solve", 0, 10, tag="B", phase="probe"),
        span("closedform.solve_equilibrium", 0, 2, tag="B", phase="probe"),
        span("closedform.solve_equilibrium", 0, 99, tag="K2", phase="probe"),
        span("cli.run.deviate", 0, 4, tag="threads1", phase="probe"),
        span("cli.run.deviate", 0, 2, tag="threads2", phase="probe"),
    ]
    pr = Probes(SimpleNamespace(sizes=inputs.TINY), SimpleNamespace(steps=8), tr)
    pr.own_tags = ["A", "B"]
    assert pr.derived("cli.run.solve", "closedform.solve_equilibrium") == ((4 - 1) + (10 - 2)) / 2
    assert pr.own("closedform.solve_equilibrium") == 1.5  # K2 is not an own input
    assert pr.pick("cli.run.solve") == (4.0, 2)  # the loop's spans win
    assert pr.pick("cli.run.deviate") == (4.0, 1)  # one thread only


def test_inputs_are_byte_identical_per_seed(tmp_path):
    def digests(seed):
        return [inputs.write_config(tmp_path / f"{seed}-{i}.json", c)
                for i, c in enumerate(inputs.desk_pool(seed, 16, 4))]

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)
    a = inputs.reference_config(5, 256, n_samples=10)
    assert (a["n_steps"], a["mc"]["seed"], a["mc"]["n_samples"]) == (256, 5, 10)
    assert inputs.REFERENCE["mc"]["seed"] == 20240501  # not mutated


def test_extreme_family_is_valid_and_raises_the_typed_error(tmp_path):
    from mfgconsume import cli, solve_equilibrium
    from mfgconsume.errors import ExponentRangeError

    f = tmp_path / "extreme.json"
    inputs.write_config(f, inputs.desk_scenario(1, inputs.EXTREME_INDEX, 64, 8, extreme=True))
    pop = cli.load_config(f).population  # passes every standing assumption
    with pytest.raises(ExponentRangeError):
        solve_equilibrium(pop)


def test_correctness_gate_catches_a_corrupted_artifact(tmp_path):
    from perfbench import workloads

    ctx = workloads.Context(tmp_path, 2, inputs.TINY)
    desk = workloads.Desk(ctx)
    desk.setup()
    rec = desk.unit(0, tracing.NULL)
    assert desk.check(desk.unit(1, tracing.NULL)) and not ctx.tally.defects
    csv = rec["solve"].out / "equilibrium.csv"
    lines = csv.read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-15) + 1e-300)
    csv.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    desk.check(rec)
    assert any("equilibrium.csv differs" in d for d in ctx.tally.defects)


def test_known_defect_counts_in_fail_ratio_not_in_failed(tmp_path):
    from perfbench import workloads

    ctx = workloads.Context(tmp_path, 2, inputs.TINY)
    desk = workloads.Desk(ctx)
    desk.setup()
    assert not desk.check(desk.unit(inputs.EXTREME_INDEX, tracing.NULL))
    t = ctx.tally
    assert "cli.run.solve:ExponentRangeError" in t.exceptions and t.fail_ratio_count >= 1
    assert t.failed == 0 and t.attempted >= t.commands


def test_monte_carlo_runs_check_one_solve_against_the_closed_form(tmp_path):
    from perfbench import workloads

    ctx = workloads.Context(tmp_path, 2, inputs.TINY)
    dev = workloads.Deviate(ctx)
    dev.setup()
    dev.check_solve_once(tracing.NULL)
    assert ctx.tally.commands == 2 and not ctx.tally.defects  # cli.load_config and cli.run solve
    assert (tmp_path / "solve-once" / "equilibrium.csv").is_file()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in want]
    for m in want:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-deviate", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
