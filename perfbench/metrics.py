"""Metric names and units, which end-to-end metric each layer metric should
move, and the arithmetic of derived metrics. Bounds live in BENCHMARK.json.
Standard library only: the parent process imports this without numpy or
the package."""

from __future__ import annotations

import math
import statistics

# (name, unit, meaning). A "scenario" is one closed-loop unit of work: a
# desk scenario (load, solve, verify, two sweeps, scalar queries), one
# `deviate` run, or one `simulate` run.
END_TO_END = [
    ("setup_s", "s", "a fresh process's first line to its first solve: imports, input generation, "
                     "cli.load_config and solve_equilibrium; median over set-ups"),
    ("scenarios_per_s", "1/s", "scenarios completed without an exception per second of timed wall "
                               "time; failed scenarios count in the time"),
    ("scenario_s_p50", "s", "median scenario latency; a failed scenario counts as infinitely slow"),
    ("peak_rss_mb", "MB", "peak resident set of the workload's own process (10^6 bytes)"),
]

DESK, DEV, CONS = "desk-closedform", "mc-deviate", "mc-consistency"
_DESK_RATE = f"scenarios_per_s on {DESK}"
_DESK_P50 = f"scenario_s_p50 on {DESK}"
_DEV_RATE = f"paired_samples_per_s (scenarios_per_s) on {DEV}"
_CONS_RATE = f"agent_steps_per_s (scenarios_per_s) on {CONS}"

# (name, unit, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("cli.load_config.s", "s", f"setup_s on all; {_DESK_RATE}"),
    ("cli.run.solve.s", "s", _DESK_RATE),
    ("cli.run.verify.s", "s", _DESK_RATE),
    ("cli.run.sweep.s", "s", _DESK_RATE),
    ("cli.run.deviate.s", "s", _DEV_RATE),
    ("cli.run.simulate.s", "s", _CONS_RATE),
    ("cli.artifact_rows", "count", f"{_DESK_RATE}; no move on mc-*"),
    ("cli.artifact_bytes", "B", f"{_DESK_RATE}; no move on mc-*"),
    ("cli.artifact_s", "s", f"derived: cli.run.solve - solve_equilibrium; {_DESK_RATE}; no move on mc-*"),
    ("population.Population.s", "s", f"setup_s; {_DESK_RATE}"),
    ("population.validate.s", "s", f"setup_s; {_DESK_RATE}"),
    ("closedform.solve_equilibrium.s", "s", f"{_DESK_P50}; setup_s on mc-*"),
    ("closedform.solve_equilibrium.K2.s", "s", _DESK_P50),
    ("closedform.solve_equilibrium.K8.s", "s", _DESK_P50),
    ("closedform.solve_equilibrium.K32.s", "s", _DESK_P50),
    ("closedform.population_aggregates.s", "s", _DESK_P50),
    ("closedform.tagged_policy_at0.s", "s", _DESK_P50),
    ("closedform.scalar.s", "s", f"{_DESK_P50} (K=32 carries the scalar API)"),
    ("closedform.scalar.calls", "count", f"{_DESK_P50}; calls behind closedform.scalar.s"),
    ("closedform.solve_riccati_numeric.s", "s", _DESK_RATE),
    ("odequad.rk4_s", "s", f"derived: solve_riccati_numeric - population_aggregates; {_DESK_RATE}"),
    ("odequad.rk4_rhs_evals", "count", f"computed: 4 n per sweep; {_DESK_RATE}"),
    ("verify.drift_check.s", "s", _DESK_RATE),
    ("verify.drift_draws_per_s", "1/s", _DESK_RATE),
    ("verify.bsde_residual.s", "s", _DESK_RATE),
    ("verify.relation_check.s", "s", _DESK_RATE),
    ("verify.value_function.s", "s", _DESK_RATE),
    ("montecarlo.philox_normals_per_s", "1/s", f"{_CONS_RATE}; less of {_DEV_RATE}"),
    ("montecarlo.draw_bytes", "B", f"computed bytes of one chunk draw; {_CONS_RATE}"),
    ("montecarlo.mu_batch_s_per_chunk", "s", f"{_DEV_RATE}; no move on {CONS}"),
    ("montecarlo.estimate_utility_s_per_chunk", "s", f"{_DEV_RATE}; no move on {CONS}"),
    ("montecarlo.payoff_s_per_chunk", "s", f"derived: utility - 2 draws - mu_batch; {_DEV_RATE}; no move on {CONS}"),
    ("montecarlo.deviation_test.s", "s", f"{_DEV_RATE}; setup_s"),
    ("montecarlo.consistency_test.s", "s", f"{_CONS_RATE}; setup_s"),
    ("montecarlo.FlowModel.s", "s", f"{_DEV_RATE}, {_CONS_RATE}; setup_s"),
    ("montecarlo.parallel_efficiency.deviate", "ratio", f"t1/(2 t2); {_CONS_RATE}; no move on {DEV} (1 thread)"),
    ("montecarlo.parallel_efficiency.consistency", "ratio", f"t1/(2 t2); {_CONS_RATE}; no move on {DEV}"),
    ("trace.overhead_ratio", "ratio", "none: traced / untraced loop wall time, derived: spans x span cost"),
]

# Rows of the ROADMAP.md baseline table that a traced run re-measures:
# (key, row, baseline seconds).
ROADMAP_BASELINE = [
    ("solve_K3_s", "solve_equilibrium, n=2000, K=3", 0.5e-3),
    ("solve_K100_s", "solve_equilibrium, n=2000, K=100", 17e-3),
    ("rk4_K3_s", "RK4 Riccati sweep, K=3", 42e-3),
    ("chunk_draws_s", "MC chunk 4096 x 256: two Philox draws", 57e-3),
    ("chunk_payoff_s", "MC chunk 4096 x 256: one payoff", 56e-3),
    ("deviate_threads1_s", "deviation test, 40k samples, 1 thread", 8.8),
    ("deviate_threads2_s", "deviation test, 40k samples, 2 threads", 4.6),
]


def parallel_efficiency(t1: float, t2: float, threads: int = 2) -> float:
    """Speed-up per thread on the same input: t1 / (threads * t_threads)."""
    return t1 / (threads * t2)


def overhead_ratio(traced_s: float, n_spans: int, span_cost_s: float) -> float:
    """Traced over untraced wall time, the untraced time being the traced
    time less what the spans themselves cost."""
    return traced_s / (traced_s - n_spans * span_cost_s)


def latency_p50(durations: list[float], ok: list[bool]) -> float:
    """Median latency, a failed unit counting as infinitely slow."""
    return statistics.median(d if good else math.inf for d, good in zip(durations, ok))


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
