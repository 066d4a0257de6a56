"""Per-layer probes of the traced run.

After its closed loop, the traced run calls each module's public functions
directly on the workload's own inputs, one span per call, and repeats the
cheap calls ``probe_repeats`` times. The Monte-Carlo workloads' traced runs
also run and check one pool of desk scenarios. Where the loop makes a call, the
layer's time is the mean of the loop's spans (mean x count is the layer's
share of the loop); otherwise it is the mean over the workload's own inputs
of the median over repeats. A *derived* time is the difference of two
public calls on the same input; a *computed* count follows from the input
sizes alone.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from pathlib import Path

import numpy as np

from mfgconsume import cli, closedform, montecarlo, population, verify

from . import inputs
from .metrics import parallel_efficiency
from .workloads import SCALAR_CALLS, Context, Desk, account, check_scalars, run_cli, scalar_batch

DRIFT_DRAWS = 10_000
_PROBE_STREAM = 0x50524F4245  # Philox stream id of the probe draws


@contextlib.contextmanager
def threads(n: int):
    old = os.environ.get("MFG_CONSUME_THREADS")
    os.environ["MFG_CONSUME_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["MFG_CONSUME_THREADS"]
        else:
            os.environ["MFG_CONSUME_THREADS"] = old


class Probes:
    def __init__(self, ctx: Context, wl, tr):
        self.ctx, self.wl, self.tr = ctx, wl, tr
        self.reps = ctx.sizes.probe_repeats
        self.own_tags: list[str] = []
        self.steps: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.roadmap: dict[str, float] = {}

    def config(self, name: str, cfg: dict) -> Path:
        path = self.ctx.work / f"{name}.json"
        self.ctx.hashes[path.name] = inputs.write_config(path, cfg)
        return path

    def repeat(self, name: str, tag: str, fn, *args):
        for _ in range(self.reps):
            with self.tr.span(name, tag=tag):
                value = fn(*args)
        return value

    def load(self, path: Path, tag: str):
        cfg = self.repeat("cli.load_config", tag, cli.load_config, path)
        self.steps[tag] = cfg.n_steps
        return cfg, cfg.population

    # -- closed form and verification on the workload's own inputs --

    def own_input(self, tag: str, path: Path) -> None:
        self.own_tags.append(tag)
        self.tr.tag = tag
        cfg, pop = self.load(path, tag)
        self.repeat("population.Population", tag, population.Population, pop.types, pop.gamma_lb, pop.sigma_lb)
        self.repeat("population.validate", tag, population.validate, pop)
        agg = self.repeat("closedform.population_aggregates", tag, closedform.population_aggregates, pop)
        sol = self.repeat("closedform.solve_equilibrium", tag, closedform.solve_equilibrium, pop)
        self.repeat("closedform.tagged_policy_at0", tag, closedform.tagged_policy_at0, agg, pop.types[0])
        self.repeat("closedform.solve_riccati_numeric", tag, closedform.solve_riccati_numeric, pop)
        for _ in range(self.reps):
            scalars = scalar_batch(self.tr, pop)
            for o, _, _ in scalars:
                account(self.ctx, o)
        check_scalars(self.ctx.tally, tag, pop, sol, scalars)
        self.repeat("verify.bsde_residual", tag, verify.bsde_residual, pop, sol)
        self.repeat("verify.relation_check", tag, verify.relation_check, pop, sol, None, cfg.mc.seed)
        self.repeat("verify.value_function", tag,
                    lambda: [verify.value_function(pop, k, sol) for k in range(pop.n_types)])

    # -- the desk path --

    def desk_pool(self) -> Desk:
        """Outside the desk workload: one pool of desk scenarios, run and
        checked as the desk loop runs and checks them, so every traced run
        times and checks ``cli`` solve, verify and both sweeps, the scalar
        API at K = 32, and the extreme scenario's ExponentRangeError."""
        if isinstance(self.wl, Desk):
            return self.wl  # its loop ran the pool
        desk = Desk(self.ctx)
        desk.setup()
        for i in range(desk.cycle):
            self.tr.pass_id, self.tr.tag = i, desk.tag(i)
            self.steps[self.tr.tag] = desk.steps
            desk.check(desk.unit(i, self.tr))
        self.tr.pass_id = -1
        return desk

    def k_classes(self, desk: Desk) -> None:
        """``solve_equilibrium`` on the first desk scenario of each K class."""
        for k, path in zip(inputs.K_CYCLE, desk.paths):
            _, pop = self.load(path, f"K{k}")
            self.repeat("closedform.solve_equilibrium", f"K{k}", closedform.solve_equilibrium, pop)

    # -- Monte Carlo --

    def chunk(self, path: Path) -> None:
        """One chunk of the utility estimator, taken apart: draws, flow, payoff."""
        tag = "chunk"
        cfg, pop = self.load(path, tag)
        sol = closedform.solve_equilibrium(pop)
        b, m, n = cfg.bounds, montecarlo.CHUNK, pop.grid.n_steps
        flow = self.repeat("montecarlo.FlowModel", tag, montecarlo.FlowModel, pop, sol)
        sd = np.sqrt(pop.grid.dt)

        def draw():
            return montecarlo.philox_stream(self.ctx.seed, _PROBE_STREAM).normal(0.0, sd, (m, n))

        dw0 = self.repeat("montecarlo.philox_draw", tag, draw)
        self.repeat("montecarlo.mu_batch", tag, flow.mu_batch, dw0)
        eq = montecarlo.equilibrium_strategy(sol, 0, b.pi_cap, b.c_min, b.c_max)
        self.repeat("montecarlo.estimate_utility", tag, montecarlo.estimate_utility,
                    pop.types[0], eq, flow, m, self.ctx.seed)
        draw = self.tr.median("montecarlo.philox_draw")
        util = self.tr.median("montecarlo.estimate_utility")
        mu = self.tr.median("montecarlo.mu_batch")
        self.values["montecarlo.philox_normals_per_s"] = m * n / draw
        self.values["montecarlo.draw_bytes"] = m * n * 8
        self.values["montecarlo.payoff_s_per_chunk"] = util - 2.0 * draw - mu
        if n == 256:  # the baseline table's chunk is 4096 x 256
            self.roadmap["chunk_draws_s"] = 2.0 * draw
            self.roadmap["chunk_payoff_s"] = util - 2.0 * draw - mu

    def mc_tests(self, dev: Path, sim: Path) -> None:
        seed, m = self.ctx.seed, montecarlo.CHUNK
        cfg = cli.load_config(dev)
        sol = closedform.solve_equilibrium(cfg.population)
        b = cfg.bounds
        perts = montecarlo.default_perturbations(sol, 0, b.pi_cap, b.c_min, b.c_max)
        with self.tr.span("montecarlo.deviation_test", tag="probe-deviate"):
            montecarlo.deviation_test(cfg.population, 0, sol, perts, m, seed, b.pi_cap, b.c_min, b.c_max)
        pop = cli.load_config(sim).population
        sol = closedform.solve_equilibrium(pop)
        with self.tr.span("montecarlo.consistency_test", tag="probe-simulate"):
            montecarlo.consistency_test(pop, sol, m, 1, seed)

    def parallel(self, command: str, path: Path, artifact: str) -> float:
        """The command at 1 and 2 threads on one input: t1 / (2 t2); the
        artifact must be bit-identical (the determinism contract)."""
        cfg = cli.load_config(path)
        data = {}
        for n in (1, 2):
            self.tr.tag = f"threads{n}"
            out = self.ctx.work / f"parallel-{command}-{n}"
            with threads(n):
                account(self.ctx, run_cli(self.ctx, self.tr, command, cfg, out))
            data[n] = (out / artifact).read_bytes()
        self.ctx.tally.expect(data[1] == data[2], f"{artifact} differs between 1 and 2 threads")
        return parallel_efficiency(self.tr.median(f"cli.run.{command}", tag="threads1"),
                                   self.tr.median(f"cli.run.{command}", tag="threads2"))

    # -- rows of the ROADMAP baseline table --

    def roadmap_closed_form(self) -> None:
        for k in (3, 100):
            tag = f"roadmap-K{k}"
            _, pop = self.load(self.config(tag, inputs.desk_scenario(self.ctx.seed, 1000 + k, 2000, k)), tag)
            self.repeat("closedform.solve_equilibrium", tag, closedform.solve_equilibrium, pop)
            self.roadmap[f"solve_K{k}_s"] = self.tr.median("closedform.solve_equilibrium", tag=tag)
            if k == 3:
                self.repeat("closedform.population_aggregates", tag, closedform.population_aggregates, pop)
                self.repeat("closedform.solve_riccati_numeric", tag, closedform.solve_riccati_numeric, pop)
                self.roadmap["rk4_K3_s"] = (self.tr.median("closedform.solve_riccati_numeric", tag=tag)
                                            - self.tr.median("closedform.population_aggregates", tag=tag))

    def roadmap_threads(self) -> None:
        n = self.ctx.sizes.roadmap_samples
        cfg = cli.load_config(self.config("roadmap-deviate", inputs.reference_config(self.ctx.seed, 256)))
        sol = closedform.solve_equilibrium(cfg.population)
        b = cfg.bounds
        perts = montecarlo.default_perturbations(sol, 0, b.pi_cap, b.c_min, b.c_max)
        for t in (1, 2):
            tag = f"roadmap-threads{t}"
            with threads(t), self.tr.span("montecarlo.deviation_test", tag=tag):
                montecarlo.deviation_test(cfg.population, 0, sol, perts, n, self.ctx.seed, b.pi_cap, b.c_min, b.c_max)
            self.roadmap[f"deviate_threads{t}_s"] = self.tr.median("montecarlo.deviation_test", tag=tag)
        self.roadmap["deviate_samples"] = n

    def run(self) -> None:
        s, seed = self.ctx.sizes, self.ctx.seed
        self.tr.phase = "probe"
        with threads(1):
            for tag, path in self.wl.probe_inputs():
                self.own_input(tag, path)
            self.k_classes(self.desk_pool())
            self.repeat("verify.drift_check", "drift", verify.drift_check, seed, DRIFT_DRAWS, "positive")
            dev = self.config("probe-deviate", inputs.reference_config(seed, s.deviate_steps,
                                                                       n_samples=s.parallel_samples))
            sim = self.config("probe-simulate", inputs.reference_config(seed, s.simulate_steps,
                                                                        n_agents=s.parallel_agents, n_w0_paths=1))
            self.chunk(sim if self.wl.chunk_on == "simulate" else dev)
            self.mc_tests(dev, sim)
            if "closedform" in self.wl.roadmap_rows:
                self.roadmap_closed_form()
        self.values["montecarlo.parallel_efficiency.deviate"] = self.parallel("deviate", dev, "deviations.csv")
        self.values["montecarlo.parallel_efficiency.consistency"] = self.parallel("simulate", sim, "consistency.csv")
        if "threads" in self.wl.roadmap_rows:
            self.roadmap_threads()

    # -- per-layer metrics --

    def pick(self, name: str) -> tuple[float, int]:
        """Mean and count of the loop's spans of ``name`` (the loop runs each
        K class equally often), else of the probe's spans at one thread
        outside the baseline-table rows."""
        d = self.tr.durations(name, phase="loop") or [
            s.duration for s in self.tr.spans
            if s.name == name and s.phase == "probe" and not s.tag.startswith(("roadmap", "threads2"))]
        return (statistics.fmean(d) if d else float("nan")), len(d)

    def own(self, name: str) -> float:
        """Mean over the workload's own inputs of the median over repeats."""
        return statistics.fmean(self.tr.median(name, tag=t, phase="probe") for t in self.own_tags)

    def derived(self, name: str, minus: str) -> float:
        """Mean over own inputs of median(name) - median(minus) on that input."""
        return statistics.fmean(
            self.tr.median(name, tag=t) - self.tr.median(minus, tag=t, phase="probe") for t in self.own_tags)

    def rhs_evals(self) -> int:
        """RK4 evaluates the rhs 4 times per step; one sweep per Riccati solve
        and per successful ``verify`` command."""
        return sum(4 * self.steps.get(s.tag, self.wl.steps) for s in self.tr.spans
                   if s.name in ("closedform.solve_riccati_numeric", "cli.run.verify") and s.error is None)

    def layer_metrics(self, artifacts: list[tuple[int, int]], overhead_ratio: float) -> dict[str, float]:
        v = {f"cli.{n}.s": self.pick(f"cli.{n}")[0] for n in
             ("load_config", "run.solve", "run.verify", "run.sweep", "run.deviate", "run.simulate")}
        v["cli.artifact_rows"] = statistics.fmean(r for r, _ in artifacts)
        v["cli.artifact_bytes"] = statistics.fmean(b for _, b in artifacts)
        # derived on the desk scenarios: the K-class solves ran on the pool's first three
        v["cli.artifact_s"] = statistics.fmean(
            self.tr.median("cli.run.solve", tag=f"desk-{i:02d}")
            - self.tr.median("closedform.solve_equilibrium", tag=f"K{k}") for i, k in enumerate(inputs.K_CYCLE))
        for name in ("population.Population", "population.validate", "closedform.solve_equilibrium",
                     "closedform.population_aggregates", "closedform.tagged_policy_at0",
                     "closedform.solve_riccati_numeric", "verify.bsde_residual", "verify.relation_check",
                     "verify.value_function"):
            v[f"{name}.s"] = self.own(name)
        for k in inputs.K_CYCLE:
            v[f"closedform.solve_equilibrium.K{k}.s"] = self.tr.median("closedform.solve_equilibrium", tag=f"K{k}")
        scalar, batches = self.pick("closedform.scalar")
        v["closedform.scalar.s"] = scalar
        v["closedform.scalar.calls"] = SCALAR_CALLS * batches
        v["odequad.rk4_s"] = self.derived("closedform.solve_riccati_numeric", "closedform.population_aggregates")
        v["odequad.rk4_rhs_evals"] = self.rhs_evals()
        drift = self.tr.median("verify.drift_check")
        v["verify.drift_check.s"] = drift
        v["verify.drift_draws_per_s"] = DRIFT_DRAWS / drift
        v["montecarlo.mu_batch_s_per_chunk"] = self.tr.median("montecarlo.mu_batch")
        v["montecarlo.estimate_utility_s_per_chunk"] = self.tr.median("montecarlo.estimate_utility")
        v["montecarlo.FlowModel.s"] = self.tr.median("montecarlo.FlowModel")
        v["montecarlo.deviation_test.s"] = self.tr.median("montecarlo.deviation_test", tag="probe-deviate")
        v["montecarlo.consistency_test.s"] = self.tr.median("montecarlo.consistency_test")
        v.update(self.values)
        v["trace.overhead_ratio"] = overhead_ratio
        return v
