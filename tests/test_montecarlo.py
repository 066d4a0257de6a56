import dataclasses
import json
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import make_random_population, sample_agents

from mfgconsume import (
    FlowModel,
    Perturbation,
    Population,
    Strategy,
    TimeGrid,
    consistency_test,
    constant_type,
    default_perturbations,
    deviation_test,
    equilibrium_strategy,
    estimate_utility,
    exact_utility,
    keyed_stream,
    relation_check,
    simulate_wealth,
    solve_equilibrium,
    value_function,
)
from mfgconsume import montecarlo
from mfgconsume.cli import load_config
from mfgconsume.montecarlo import consistency_w0
from mfgconsume.odequad import cumtrapz_left

REFERENCE = Path(__file__).resolve().parents[1] / "demos" / "configs" / "reference.json"
# the steep scenario of tools/diff_artifacts.sh: at type 0 (gamma -30) many
# sample rows pass the payoff's step bound `_MAX_SHIFT`
STEEP = {
    "horizon": 4.0, "n_steps": 64, "mc": {"n_samples": 4096, "seed": 3},
    "population": [
        {"weight": 0.5, "gamma": -30.0, "theta": 0.5, "h": 0.1, "sigma": 0.5, "sigma0": 0.3},
        {"weight": 0.5, "gamma": 0.4, "theta": 0.3, "h": 0.05, "sigma": 0.2, "sigma0": 0.1},
    ],
}


def single(grid, **kw):
    base = dict(gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.1)
    base.update(kw)
    return Population((constant_type(grid, **base),))


@pytest.fixture
def grid():
    return TimeGrid(1.0, 128)


class TestStrategy:
    def test_bounds_enforced(self, grid):
        n = grid.n_steps + 1
        with pytest.raises(ValueError):
            Strategy(grid, np.full(n, 11.0), np.full(n, 0.5))
        with pytest.raises(ValueError):
            Strategy(grid, np.full(n, 1.0), np.full(n, 0.0))
        with pytest.raises(ValueError):
            Strategy(grid, np.full(n, 1.0), np.full(n, 20.0))
        for pi, c in ((np.nan, 0.5), (1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                Strategy(grid, np.full(n, pi), np.full(n, c))
        Strategy(grid, np.full(n, 1.0), np.full(n, 0.5))

    @pytest.mark.parametrize("bound", ["pi_cap", "c_min", "c_max"])
    def test_nan_bound_rejected(self, grid, bound):
        n = grid.n_steps + 1
        with pytest.raises(ValueError):
            Strategy(grid, np.full(n, 1.0), np.full(n, 0.5), **{bound: math.nan})

    def test_wrong_length(self, grid):
        with pytest.raises(ValueError):
            Strategy(grid, np.zeros(5), np.full(5, 0.5))


class TestSimulateWealth:
    def test_deterministic_drift(self, grid):
        # pi = 0, c = 0.3: log-wealth decays linearly, no noise enters
        pop = single(grid)
        n = grid.n_steps + 1
        strat = Strategy(grid, np.zeros(n), np.full(n, 0.3))
        dw = keyed_stream(5, 0).normal(0.0, np.sqrt(grid.dt), (3, grid.n_steps))
        path = simulate_wealth(pop.types[0], strat, dw, dw[:1])
        want = np.log(1.0) - 0.3 * grid.times
        assert path.shape == (3, n)
        assert np.abs(path - want).max() <= 1e-12

    def test_rejects_another_grid_and_malformed_increments(self, grid):
        agent = single(grid).types[0]
        n = grid.n_steps
        strat = Strategy(grid, np.ones(n + 1), np.full(n + 1, 0.3))
        other = TimeGrid(2.0, n)
        with pytest.raises(ValueError, match="time grid"):
            simulate_wealth(agent, Strategy(other, strat.pi, strat.c), np.zeros((2, n)), np.zeros(n))
        for dw, dw0 in [
            (np.zeros(n), np.zeros(n)),              # dw not (m, n_steps)
            (np.zeros((2, n + 1)), np.zeros(n + 1)),
            (np.zeros((2, n, 1)), np.zeros(n)),
            (np.zeros((2, n)), np.zeros(n - 1)),     # dw0 does not broadcast to dw
            (np.zeros((2, n)), np.zeros((3, n))),
            (np.zeros((2, n)), np.zeros((2, 1, n))),
        ]:
            with pytest.raises(ValueError, match="broadcasts"):
                simulate_wealth(agent, strat, dw, dw0)

    def test_row_of_a_batch_equals_its_one_row_call(self, grid):
        # path i reads row i of the increments alone, whatever the batch size
        pop = make_random_population(6, grid, n_types=1)
        sol = solve_equilibrium(pop)
        agent, strat = pop.types[0], equilibrium_strategy(sol, 0)
        sd = np.sqrt(grid.dt)
        dw = keyed_stream(3, 1).normal(0.0, sd, (9, grid.n_steps))
        dw0 = keyed_stream(3, 2).normal(0.0, sd, (9, grid.n_steps))
        paths = simulate_wealth(agent, strat, dw, dw0)
        for i in range(9):
            assert np.array_equal(paths[i], simulate_wealth(agent, strat, dw[i : i + 1], dw0[i : i + 1])[0])

    def test_shared_common_noise_row_equals_its_repeats(self, grid):
        agent = single(grid).types[0]
        n = grid.n_steps + 1
        strat = Strategy(grid, np.linspace(0.5, 1.5, n), np.full(n, 0.3))
        sd = np.sqrt(grid.dt)
        dw = keyed_stream(4, 1).normal(0.0, sd, (5, grid.n_steps))
        dw0 = keyed_stream(4, 2).normal(0.0, sd, (1, grid.n_steps))
        shared = simulate_wealth(agent, strat, dw, dw0)
        assert np.array_equal(shared, simulate_wealth(agent, strat, dw, np.repeat(dw0, 5, axis=0)))

    def test_gaussian_moment_oracle(self):
        # pi = 1, c = c_min, constant h = 0.1, sigma = 0.2, no common noise:
        # X_1 ~ N(log x0 + h - sigma^2/2 - c_min, sigma^2); the left-endpoint
        # scheme is exact in distribution for constant coefficients
        grid = TimeGrid(1.0, 64)
        c_min = 1e-3
        pop = single(grid, sigma0=0.0)
        tp = pop.types[0]
        n = 100_000
        sd = np.sqrt(grid.dt)
        dw = keyed_stream(17, 0).normal(0.0, sd, (n, grid.n_steps))
        strat = Strategy(grid, np.ones(grid.n_steps + 1), np.full(grid.n_steps + 1, c_min))
        x = simulate_wealth(tp, strat, dw, np.zeros((1, grid.n_steps)))
        xT = x[:, -1]
        mean_oracle = 0.1 - 0.5 * 0.04 - c_min
        se = xT.std(ddof=1) / math.sqrt(n)
        assert abs(xT.mean() - mean_oracle) <= 3 * se
        assert abs(xT.var(ddof=1) - 0.04) <= 0.05 * 0.04

    def test_euler_weak_error_step_halving(self):
        # constant coefficients: E[exp(gamma X_T)] has the lognormal value
        # exp(gamma m + gamma^2 v / 2); the discretisation is exact in
        # distribution so the error is pure Monte-Carlo noise at any step count
        g, c0 = 0.5, 0.2
        for n_steps in (32, 64):
            grid = TimeGrid(1.0, n_steps)
            pop = single(grid, sigma0=0.0)
            tp = pop.types[0]
            n = 50_000
            dw = keyed_stream(23, n_steps).normal(0.0, np.sqrt(grid.dt), (n, grid.n_steps))
            strat = Strategy(grid, np.ones(grid.n_steps + 1), np.full(grid.n_steps + 1, c0))
            x = simulate_wealth(tp, strat, dw, np.zeros((1, grid.n_steps)))
            payoff = np.exp(g * x[:, -1])
            m = 0.1 - 0.5 * 0.04 - c0
            oracle = math.exp(g * m + g * g * 0.04 / 2)
            se = payoff.std(ddof=1) / math.sqrt(n)
            assert abs(payoff.mean() - oracle) <= 3.5 * se


def _in_place_build(out, log_x0, drift, vol_w, vol_w0, dw, dw0):
    """The former ``_build_paths``: every pass writes through ``out[..., 1:]``."""
    inc = out[..., 1:]
    np.multiply(vol_w, dw, out=inc)
    if np.any(drift):
        inc += drift
    inc += np.multiply(vol_w0, dw0)
    np.cumsum(inc, axis=-1, out=inc)
    out[..., 0] = log_x0
    if np.any(log_x0):
        out[..., 1:] += out[..., :1]
    return out


class TestBuildPaths:
    @pytest.mark.parametrize("lead", [(37,), (3, 4)])
    @pytest.mark.parametrize("drift", ["zero", "rows"])
    @pytest.mark.parametrize("start", ["zero", "scalar", "per-row"])
    def test_work_arrays_give_the_in_place_build_bit_for_bit(self, lead, drift, start):
        # (rows,) as a payoff block, (paths, K) as the consistency test, with
        # one common-noise row per path; at a zero start the in-place build
        # added nothing, and the build adds 0.0
        n = 65
        rng = keyed_stream(11, len(lead))
        rows = rng.standard_normal((3, *lead[1:], n)) * np.array([0.01, 0.3, 0.2]).reshape(-1, *(1,) * len(lead))
        rows[0] *= drift == "rows"
        log_x0 = {"zero": 0.0, "scalar": 0.7, "per-row": rng.standard_normal(lead[-1:])}[start]
        dw = rng.standard_normal((*lead, n))
        dw0 = rng.standard_normal((lead[0], *(1,) * (len(lead) - 1), n))
        want = _in_place_build(np.empty((*lead, n + 1)), log_x0, *rows, dw, dw0)
        assert np.array_equal(montecarlo._build_paths(np.empty((*lead, n + 1)), log_x0, *rows, dw, dw0), want)

    def test_the_noise_sum_starts_at_exactly_zero(self):
        # _payoffs skips the division by E[:, lo] at lo = 0: the unit-pi noise
        # sum's knot 0 is 0.0, so exp(size N[:, 0]) is 1.0 for every size,
        # on rows past the step bound too
        grid = TimeGrid(1.0, 64)
        agent = single(grid, gamma=-30.0, sigma=0.5, sigma0=0.3).types[0]
        ones = np.ones(grid.n_steps + 1)
        unit = [agent.gamma * u for u in montecarlo._euler_rows(
            agent.h.values, agent.sigma.values, agent.sigma0.values, ones, 0.0, grid.dt)[1:]]
        m = 300
        dw, dw0 = np.empty((2, m, grid.n_steps))
        montecarlo._utility_draws(grid, 3, 0)(dw, dw0)
        noise = montecarlo._build_paths(np.empty((m, grid.n_steps + 1)), 0.0, 0.0, *unit, dw, dw0)
        span = np.abs(noise).max(axis=1)
        assert np.all(noise[:, 0] == 0.0)
        sizes = (1e-3, 0.1, 1.0, 10.0, 1e300)
        assert np.any(sizes[-1] * span >= montecarlo._MAX_SHIFT)
        assert all(np.all(np.exp(size * noise[:, 0]) == 1.0) for size in sizes)


class TestFlow:
    def test_initial_value(self, grid):
        pop = single(grid, x0=1.7)
        sol = solve_equilibrium(pop)
        w0 = keyed_stream(1, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
        assert FlowModel(pop, sol).mu_values(w0)[0] == math.log(1.7)

    def test_deterministic_without_common_noise(self, grid):
        pop = single(grid, sigma0=0.0)
        sol = solve_equilibrium(pop)
        w0 = keyed_stream(1, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
        flow = FlowModel(pop, sol)
        mu = flow.mu_values(w0)
        assert np.array_equal(mu, flow.mu_values(np.zeros(grid.n_steps)))
        # and equals the deterministic quadrature directly
        sig2 = pop.sigma_mat**2 + pop.sigma0_mat**2
        gbar = pop.mean(sol.pi_star * pop.h_mat - sol.c_star - 0.5 * sol.pi_star**2 * sig2)
        want = math.log(1.0) + cumtrapz_left(gbar, grid.dt)
        assert np.abs(mu - want).max() <= 1e-15

    def test_nu_is_logc_plus_mu(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        w0 = keyed_stream(4, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
        flow = FlowModel(pop, sol)
        mu = flow.mu_values(w0)
        want = pop.mean(np.log(sol.c_star)) + mu
        assert np.abs(flow.e_logc + mu - want).max() <= 1e-15

    @pytest.mark.parametrize("drift_rule", ["trapezoid", "left-endpoint"])
    def test_flow_is_population_mean_of_euler_paths(self, monkeypatch, drift_rule):
        # the flow is built from the one Euler step, so a change of its
        # drift rule moves the flow and the per-type paths alike
        if drift_rule == "left-endpoint":
            def left_rows(h, sigma, sigma0, pi, c, dt):
                g = pi * h - c - 0.5 * pi**2 * (sigma**2 + sigma0**2)
                return g[..., :-1] * dt, (pi * sigma)[..., :-1], (pi * sigma0)[..., :-1]
            monkeypatch.setattr(montecarlo, "_euler_rows", left_rows)
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(5, grid, n_types=3)  # time-varying curves
        sol = solve_equilibrium(pop)
        w0 = keyed_stream(6, 1).normal(0, np.sqrt(grid.dt), grid.n_steps)
        rows = montecarlo._euler_rows(pop.h_mat, pop.sigma_mat, pop.sigma0_mat, sol.pi_star, sol.c_star, grid.dt)
        paths = montecarlo._build_paths(np.empty((3, grid.n_steps + 1)), np.log(pop.x0s), *rows, 0.0, w0)
        assert np.abs(FlowModel(pop, sol).mu_values(w0) - pop.mean(paths)).max() <= 1e-12

    @pytest.mark.parametrize("caller", ["mu_values", "mu_batch-one-path", "mu_batch-one-step"])
    def test_wrong_increment_count(self, grid, caller):
        # mu_batch takes (m, n_steps): a bare path would give n_steps copies
        # of it, and an (m, 1) column would broadcast one increment over the steps
        pop = single(grid)
        sol = solve_equilibrium(pop)
        with pytest.raises(ValueError, match="increments"):
            if caller == "mu_values":
                FlowModel(pop, sol).mu_values(np.zeros(5))
            elif caller == "mu_batch-one-path":
                FlowModel(pop, sol).mu_batch(np.zeros(grid.n_steps))
            else:
                FlowModel(pop, sol).mu_batch(np.zeros((3, 1)))

    @pytest.mark.parametrize("caller", ["FlowModel", "consistency_test", "relation_check"])
    def test_rejects_an_equilibrium_on_another_grid(self, grid, caller):
        # same knot count, another horizon: the rows would broadcast and the
        # agents and the flow would share the mixed rows
        pop = single(grid)
        other_sol = solve_equilibrium(single(TimeGrid(5.0, grid.n_steps)))
        with pytest.raises(ValueError, match="time grid"):
            if caller == "FlowModel":
                FlowModel(pop, other_sol)
            elif caller == "consistency_test":
                consistency_test(pop, other_sol, 4000, 1, seed=1)
            else:
                relation_check(pop, other_sol)

    def test_rejects_a_solution_of_another_type_count(self, grid):
        # the rows would not broadcast: name both shapes, not numpy's operands
        pop = make_random_population(1, grid, n_types=2)
        other = solve_equilibrium(make_random_population(1, grid, n_types=3))
        with pytest.raises(ValueError, match=r"\(2, 129\).*\(3, 129\)"):
            FlowModel(pop, other)


def exact_deltas(pop, sol, k):
    """J(equilibrium) - J(perturbation), exactly, over type ``k``'s default library."""
    flow = FlowModel(pop, sol)
    j = exact_utility(pop.types[k], equilibrium_strategy(sol, k), flow)
    return [j - exact_utility(pop.types[k], p.strategy, flow) for p in default_perturbations(sol, k)]


class TestEstimateUtility:
    @pytest.mark.parametrize("k", [0, 1])
    def test_within_three_stderr_of_the_exact_discrete_utility(self, k):
        # the antithetic estimator is unbiased for exactly the Euler scheme's
        # expected utility; z = 0.46 for type 0 and -0.15 for type 1
        pop = load_config(REFERENCE, steps=256).population
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, k)
        est = estimate_utility(pop.types[k], eq, flow, 40_000, seed=5)
        assert abs(est.mean - exact_utility(pop.types[k], eq, flow)) <= 3 * est.stderr

    @pytest.mark.parametrize("k", [0, 1])
    def test_z_scores_over_twenty_seeds_follow_their_null_law(self, k):
        # under correct code z = (estimate - exact) / stderr is N(0, 1) up to
        # the error of a t-ratio on 4096 pairs, so over seeds 0-19 the mean
        # of z is N(0, 1/20) and 19 var(z) is chi^2(19). Bounds: |mean| <=
        # 3.29 / sqrt(20) and 19 var(z) in [4.91, 45.97], the 0.05 % and
        # 99.95 % quantiles, each two-sided 1e-3: a false alarm on at most
        # 2e-3 of seed ranges per type. Seeds 0-19 read mean +0.46, sd 0.72
        # (type 0) and mean -0.63, sd 0.78 (type 1: a 2.8-sigma mean); over
        # seeds 0-399 the means were -0.02 and +0.09, the sds 0.98 and 1.05
        pop = load_config(REFERENCE, steps=256).population
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, k)
        exact = exact_utility(pop.types[k], eq, flow)
        z = []
        for seed in range(20):
            est = estimate_utility(pop.types[k], eq, flow, 8192, seed)
            z.append((est.mean - exact) / est.stderr)
        assert abs(np.mean(z)) <= 3.29 / math.sqrt(20)
        assert 4.91 <= 19 * np.var(z, ddof=1) <= 45.97

    @pytest.mark.parametrize("k", [0, 1])
    def test_exact_discrete_utility_tends_to_the_value_function_at_order_two(self, k):
        # constant coefficients: the Euler scheme is exact in distribution and
        # the trapezoid rule sets the error, 1.63e-7 (type 0) and 2.32e-7
        # (type 1) relative at 256 steps; with time-varying coefficients the
        # left-endpoint loading of the noise makes it first order
        errors = []
        for n in (128, 256, 512):
            pop = load_config(REFERENCE, steps=n).population
            sol = solve_equilibrium(pop)
            j = exact_utility(pop.types[k], equilibrium_strategy(sol, k), FlowModel(pop, sol))
            errors.append(j - value_function(pop, k, sol))
        assert all(3.9 <= a / b <= 4.1 for a, b in zip(errors, errors[1:]))

    def test_zero_variance_deterministic_payoff(self, grid):
        # pi = 0 and no common noise: the payoff is the same for every sample
        pop = single(grid, sigma0=0.0)
        sol = solve_equilibrium(pop)
        tp = pop.types[0]
        n_k = grid.n_steps + 1
        strat = Strategy(grid, np.zeros(n_k), np.full(n_k, 0.4))
        flow = FlowModel(pop, sol)
        est = estimate_utility(tp, strat, flow, 5000, seed=11)
        assert est.stderr == 0.0
        # deterministic oracle computed directly from the definitions
        x = np.log(1.0) - 0.4 * grid.times
        mu = flow.mu_values(np.zeros(grid.n_steps))
        nu = flow.e_logc + mu
        g, th, al = 0.5, 0.5, 1.0
        terminal = (1 / g) * math.exp(g * (x[-1] - th * mu[-1]))
        integrand = (al / g) * np.exp(g * (np.log(0.4) + x - th * nu))
        oracle = terminal + np.trapezoid(integrand, dx=grid.dt)
        assert est.mean == pytest.approx(oracle, rel=1e-13)

    def test_matches_value_function_positive_gamma(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        est = estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, 30_000, seed=42)
        v = value_function(pop, 0, sol)
        assert abs(est.mean - v) <= 3 * est.stderr

    def test_matches_value_function_negative_gamma(self, grid):
        pop = single(grid, gamma=-1.0)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        est = estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, 30_000, seed=43)
        v = value_function(pop, 0, sol)
        assert est.mean < 0
        assert abs(est.mean - v) <= 3 * est.stderr

    def test_rejects_empty(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        with pytest.raises(ValueError, match="need n >= 1"):
            estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), FlowModel(pop, sol), 0, 1)
        with pytest.raises(ValueError, match="need n >= 1"):
            deviation_test(pop, 0, sol, [], 0, 1)

    @pytest.mark.parametrize("estimator", ["estimate_utility", "deviation_test"])
    def test_rejects_a_strategy_on_another_grid(self, grid, estimator):
        # same knot count, another horizon: the curves would broadcast
        pop = single(grid)
        sol = solve_equilibrium(pop)
        other_pop = single(TimeGrid(5.0, grid.n_steps))
        other_sol = solve_equilibrium(other_pop)
        other = equilibrium_strategy(other_sol, 0)
        with pytest.raises(ValueError, match="time grid"):
            if estimator == "estimate_utility":
                estimate_utility(pop.types[0], other, FlowModel(pop, sol), 100, 1)
            else:
                deviation_test(pop, 0, sol, [Perturbation("other", other, False)], 100, 1)
        # a flow from another grid: estimate_utility is handed it, and
        # deviation_test builds it from an equilibrium solved there
        with pytest.raises(ValueError, match="time grid"):
            if estimator == "estimate_utility":
                estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), FlowModel(other_pop, other_sol), 100, 1)
            else:
                deviation_test(pop, 0, other_sol, default_perturbations(sol, 0), 100, 1)

    @pytest.mark.parametrize("estimator", ["estimate_utility", "deviation_test", "consistency_test"])
    def test_thread_count_does_not_change_output(self, grid, monkeypatch, estimator):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        n = 2 * (3 * montecarlo.CHUNK + 100)  # four chunks of pairs, the last one short
        run = {
            "estimate_utility": lambda: estimate_utility(pop.types[0], eq, flow, n, seed=7),
            "deviation_test": lambda: deviation_test(pop, 0, sol, default_perturbations(sol, 0), n, seed=7),
            "consistency_test": lambda: consistency_test(pop, sol, n, 2, seed=7),
        }[estimator]
        outs = []
        for threads in ("1", "2", "3", "two"):  # not an integer: one thread
            monkeypatch.setenv("MFG_CONSUME_THREADS", threads)
            outs.append(run())
        assert outs[0] == outs[1] == outs[2] == outs[3]


class TestKeyedStream:
    def test_a_key_gives_the_same_draws(self):
        assert np.array_equal(keyed_stream(3, 7).standard_normal(64), keyed_stream(3, 7).standard_normal(64))
        # each key is taken mod 2^64
        assert np.array_equal(keyed_stream(-1, 5).standard_normal(8), keyed_stream(2**64 - 1, 5).standard_normal(8))

    def test_nearby_keys_give_different_first_draws(self):
        # neighbouring seeds and ids, ids past 2^40, and the ids the estimators
        # key; then two keys that a bare-int entropy would merge into one,
        # [5, 1, 1] as 32-bit words
        big = 1 << 40
        ids = (0, 1, 2, big, big + 1, big << 20, montecarlo._sid(1, 0), montecarlo._sid(1, 1), montecarlo._sid(2, 0))
        keys = [(seed, i) for seed in (0, 1, 2, 1 << 32, (1 << 32) + 1) for i in ids]
        keys += [(5, (1 << 32) + 1), ((1 << 32) + 5, 1)]
        first = {keyed_stream(seed, i).random() for seed, i in keys}
        assert len(first) == len(keys)


class TestThreadPool:
    def test_a_call_runs_its_chunks_on_its_own_workers_and_stops_them(self, monkeypatch):
        monkeypatch.setenv("MFG_CONSUME_THREADS", "2")
        grid = TimeGrid(1.0, 16)
        pop = single(grid)
        sol = solve_equilibrium(pop)
        threads = set()
        real = montecarlo._utility_draws
        monkeypatch.setattr(montecarlo, "_utility_draws", lambda *a: threads.add(threading.get_ident()) or real(*a))
        before = threading.active_count()
        estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), FlowModel(pop, sol), 6 * montecarlo.CHUNK, 2)
        assert threading.active_count() == before
        assert 1 <= len(threads) <= 2 and threading.get_ident() not in threads


class TestPooledMoments:
    @pytest.mark.parametrize("loc, scale", [(1.0, 1.0), (1e8, 1e-3)])
    def test_matches_two_pass_over_the_concatenated_samples(self, loc, scale):
        # ragged groups and one of count 0 (an absent agent type), whose mean
        # would move the result were it weighted; row 1 is constant. At
        # 1e8 + N(0, 1e-3), E[x^2] - E[x]^2 would lose every digit.
        rng = np.random.default_rng(5)
        groups = [loc + rng.normal(0.0, scale, (2, size)) for size in (1, 7, 300)]
        for g in groups:
            g[1] = loc + 0.123
        n = np.array([1, 7, 300, 0])
        xbar = np.stack([g.sum(axis=1) / g.shape[1] for g in groups] + [np.full(2, -loc)])
        d = [g - m[:, None] for g, m in zip(groups, xbar)]
        m2 = np.stack([np.square(e).sum(axis=1) for e in d] + [np.zeros(2)])
        r = np.stack([e.sum(axis=1) for e in d] + [np.zeros(2)])
        x = np.concatenate(groups, axis=1)
        mean, stderr = montecarlo._pooled_moments(n, xbar, m2, r, x.min(axis=1) == x.max(axis=1))
        assert mean == pytest.approx(x.mean(axis=1), rel=1e-12, abs=0.0)
        # each group mean is a float64 within an ulp or two of loc; the
        # residuals r carry that rounding, so it moves M2 at second order only
        rel = {1.0: 1e-12, 1e8: 1e-9}[loc]
        assert stderr[0] == pytest.approx(x[0].std(ddof=1) / np.sqrt(x.shape[1]), rel=rel, abs=0.0)
        assert stderr[1] == 0.0


class TestDeviation:
    def test_self_comparison_is_exactly_zero(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        eq = equilibrium_strategy(sol, 0)
        rep = deviation_test(pop, 0, sol, [Perturbation("self", eq, False)], 3000, seed=1)
        assert rep.rows[0].delta == 0.0
        assert rep.rows[0].stderr == 0.0
        assert not rep.rows[0].flagged

    def test_constant_shift_detected(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        pert = Perturbation("pi+0.5", Strategy(grid, sol.pi_star[0] + 0.5, sol.c_star[0]), True)
        rep = deviation_test(pop, 0, sol, [pert], 20_000, seed=7)
        row = rep.rows[0]
        assert row.delta > 0
        assert row.delta > 2 * row.stderr

    def test_consumption_rescaling_detected(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        pert = Perturbation("c*2", Strategy(grid, sol.pi_star[0], sol.c_star[0] * 2), True)
        rep = deviation_test(pop, 0, sol, [pert], 20_000, seed=8)
        assert rep.rows[0].delta > 2 * rep.rows[0].stderr

    def test_default_library_has_twenty_admissible_entries(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        perts = default_perturbations(sol, 0)
        assert len(perts) == 20
        assert sum(p.large for p in perts) == 12
        assert len({p.name for p in perts}) == 20

    def test_planted_profitable_deviation_is_flagged(self, grid, monkeypatch):
        # the library around a reference shifted off the equilibrium by
        # pi + 1: each move back toward the equilibrium pays
        pop = single(grid)
        sol = solve_equilibrium(pop)
        shifted = dataclasses.replace(sol, pi_star=sol.pi_star + 1.0)
        monkeypatch.setattr(montecarlo, "equilibrium_strategy", lambda *a: equilibrium_strategy(shifted, 0))
        rep = deviation_test(pop, 0, sol, default_perturbations(shifted, 0), 10_000, seed=3)
        back = {r.name: r for r in rep.rows if r.name in ("pi-0.5", "pi-1")}
        assert all(r.flagged and r.delta < -2 * r.stderr for r in back.values())
        assert len(back) == 2 and not rep.passed

    def test_flagged_margin_and_passed_read_two_stderrs(self, grid, monkeypatch):
        # one row at -2.5 stderr, between the 2- and 3-stderr lines, one at -1.5
        pop = single(grid)
        sol = solve_equilibrium(pop)
        pair_moments = montecarlo._pair_moments

        def at_units(*a):
            delta, stderr, used = pair_moments(*a)
            return np.array([-2.5, -1.5]) * stderr, stderr, used

        monkeypatch.setattr(montecarlo, "_pair_moments", at_units)
        rep = deviation_test(pop, 0, sol, default_perturbations(sol, 0)[:2], 2000, seed=5)
        assert all(r.stderr > 0.0 for r in rep.rows)
        assert [r.flagged for r in rep.rows] == [True, False]
        assert rep.margin / rep.rows[0].stderr == pytest.approx(-0.5, rel=1e-12)
        assert not rep.passed

    def test_planted_payoff_bias_is_caught(self, grid, monkeypatch):
        # a bias of three plain-sampling stderrs, at the same path count,
        # planted on the payoff of a step too small to move the utility
        pop = single(grid)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        tiny = Strategy(grid, eq.pi + 1e-3, eq.c)
        n = 4000
        rng = keyed_stream(21, 0)
        dw, dw0 = rng.normal(0.0, np.sqrt(grid.dt), (2, n, grid.n_steps))
        plain = _oracle_payoffs(pop.types[0], [eq, tiny], flow, dw, dw0)
        se_plain = (plain[0] - plain[1]).std(ddof=1) / math.sqrt(n)
        bias = 3.0 * se_plain
        real = montecarlo._payoffs

        def biased(*a):
            out = real(*a)
            out[1] += bias
            return out

        monkeypatch.setattr(montecarlo, "_payoffs", biased)
        row = deviation_test(pop, 0, sol, [Perturbation("tiny", tiny, False)], n, seed=21).rows[0]
        assert row.stderr < se_plain
        assert row.flagged and row.delta < -2 * row.stderr

    @pytest.mark.parametrize("n", [1, 99, 2 * montecarlo.CHUNK + 1])
    def test_odd_sample_count_rounds_up_to_whole_pairs(self, monkeypatch, n):
        grid = TimeGrid(1.0, 16)
        pop = single(grid)
        sol = solve_equilibrium(pop)
        eq = equilibrium_strategy(sol, 0)
        perts = default_perturbations(sol, 0)[:3]
        drawn = []
        real = montecarlo._utility_draws

        def counted(*a):
            fill = real(*a)
            return lambda dw, dw0: drawn.append(len(dw)) or fill(dw, dw0)

        monkeypatch.setattr(montecarlo, "_utility_draws", counted)
        odd = deviation_test(pop, 0, sol, perts, n, seed=4)
        assert odd.n_samples == n + 1 == 2 * sum(drawn)  # pairs of paths, one draw row each
        assert odd == deviation_test(pop, 0, sol, perts, n + 1, seed=4)
        est = estimate_utility(pop.types[0], eq, FlowModel(pop, sol), n, seed=4)
        assert est.n_samples == n + 1
        assert est == estimate_utility(pop.types[0], eq, FlowModel(pop, sol), n + 1, seed=4)

    @pytest.mark.parametrize("k", [0, 1])
    def test_mc_deltas_within_four_stderr_of_the_exact_deltas(self, tmp_path, k):
        # the paired estimator is unbiased for the Euler scheme's exact
        # deltas: the largest |z| of the 20 rows is 0.64 (type 0) and 1.83
        # (type 1); over seeds 0-39 at 16 384 samples a run's largest was at
        # most 3.28 and 3.93. Every exact delta is positive, the smallest at
        # pi+-0.1: 1.60e-4 (type 0) and 1.09e-3 (type 1)
        pop = load_config(REFERENCE, steps=256).population
        sol = solve_equilibrium(pop)
        want = exact_deltas(pop, sol, k)
        rep = deviation_test(pop, k, sol, default_perturbations(sol, k), 40_000, seed=5)
        assert all(abs(r.delta - d) <= 4.0 * r.stderr for r, d in zip(rep.rows, want))
        assert min(want) > 0.0
        # the steep scenario, whose MC deltas sit at about one stderr: its
        # exact deltas are positive too, the smallest 3.0e12 (type 0, c*0.8)
        # and 1.2e-3 (type 1, pi+0.1)
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(STEEP))
        steep = load_config(path).population
        assert min(exact_deltas(steep, solve_equilibrium(steep), k)) > 0.0

    @pytest.mark.parametrize("n_steps", [256, 2000])
    @pytest.mark.parametrize("knot", [
        "middle",
        pytest.param("first", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: the Euler step loads dW_0 with knot 0's exposure alone, so pi[0] = 10 "
            "pays (exact delta -1.80e-3 at 256 steps, -2.30e-4 at 2000)"))),
        pytest.param("last", marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: no increment loads knot n's exposure, so pi[n] - 1 "
            "pays (exact delta -1.074e-4 at 256 steps, -1.373e-5 at 2000)"))),
    ])
    def test_a_one_knot_deviation_does_not_pay(self, knot, n_steps):
        # type 0 keeps its equilibrium but for pi = 10 at one knot, or, at
        # knot n, pi - 1 (pi[n] = +-10 does not pay there: +2.585e-3 and
        # +5.975e-3 at 256 steps); in the middle the exact delta is +2.44e-3
        # at 256 steps, +3.12e-4 at 2000
        pop = load_config(REFERENCE, steps=n_steps).population
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        pi = eq.pi.copy()
        if knot == "last":
            pi[n_steps] -= 1.0
        else:
            pi[{"middle": n_steps // 2, "first": 0}[knot]] = 10.0
        delta = exact_utility(pop.types[0], eq, flow) - exact_utility(pop.types[0], Strategy(pop.grid, pi, eq.c), flow)
        assert delta > 0.0

    def test_verdicts_follow_the_two_margins(self):
        row = montecarlo.DeviationRow
        edge = row("at -2 stderr", -2.0, 1.0, False, False)
        large = row("large loss", 3.0, 1.0, True, False)
        rep = montecarlo.DeviationReport((edge, large), 10)
        assert (rep.margin, rep.passed) == (0.0, True)
        assert (rep.large_margin, rep.large_detected) == (1.0, True)
        undetected = montecarlo.DeviationReport((row("large, small", 1.0, 0.5, True, False),), 10)
        assert (undetected.large_margin, undetected.large_detected) == (0.0, False)
        profitable = montecarlo.DeviationReport((row("gain", -2.5, 1.0, False, True),), 10)
        assert (profitable.margin, profitable.passed) == (-0.5, False)
        assert profitable.large_margin == math.inf and profitable.large_detected


def _oracle_payoffs(agent, strategies, flow, dw, dw0):
    """The payoff from its definition: log-wealth paths and the population
    index built apart, the terminal term on its own and the consumption
    integral by ``np.trapezoid``."""
    g, th, al, dt = agent.gamma, agent.theta, agent.alpha, agent.grid.dt
    mu = flow.mu_batch(dw0)
    out = []
    for s in strategies:
        x = simulate_wealth(agent, s, dw, dw0)
        terminal = np.exp(g * (x[:, -1] - th * mu[:, -1])) / g
        integrand = al / g * np.exp(g * (np.log(s.c) + x - th * (flow.e_logc + mu)))
        out.append(terminal + np.trapezoid(integrand, dx=dt, axis=1))
    return np.array(out)


def _oracle_pairs(agent, strategies, flow, dw, dw0):
    """Antithetic pair means from the definition: the oracle's payoffs on
    (dw, dw0) and on the explicit mirror (-dw, -dw0), averaged."""
    return (_oracle_payoffs(agent, strategies, flow, dw, dw0) + _oracle_payoffs(agent, strategies, flow, -dw, -dw0)) / 2


def _two_knot_rows(h, sigma, sigma0, pi, c, dt):
    """Another Euler rule: each step loads the mean of its two knots'
    exposures on dW and dW0, with the trapezoid drift."""
    g = pi * h - c - 0.5 * pi**2 * (sigma**2 + sigma0**2)
    mean = lambda v: (v[..., :-1] + v[..., 1:]) / 2
    return (g[..., :-1] + g[..., 1:]) * (dt / 2), mean(pi * sigma), mean(pi * sigma0)


def step_window(agent, flow, s, ref):
    """What ``_step_window`` finds for ``s`` against the reference ``ref``
    when ``_payoffs`` prices the two: ``(lo, hi, d)`` or None."""
    seen = []
    real = montecarlo._step_window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_step_window", lambda *a: seen.append(real(*a)) or seen[-1])
        montecarlo._payoffs(agent, [ref, s], flow, 1, lambda dw, dw0: (dw.fill(0.0), dw0.fill(0.0)))
    return seen[1]


class TestPayoffs:
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("shared", [True, False, "two-knot"])
    def test_matches_definition(self, monkeypatch, k, shared):
        if not shared:  # no strategy but the reference reads exp(z_ref)
            monkeypatch.setattr(montecarlo, "_MAX_SHIFT", 0.0)
        if shared == "two-knot":  # sharing on; the flow, the payoff and the oracle all follow the rule
            monkeypatch.setattr(montecarlo, "_euler_rows", _two_knot_rows)
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(3, grid, n_types=2)  # time-varying curves
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, k)
        agent = pop.types[k]
        library = [p.strategy for p in default_perturbations(sol, k)]
        pi_steps = [s for s in library if not np.array_equal(s.pi, eq.pi)]
        assert len(pi_steps) == 12
        # under the two-knot rule the six thirds move half rows at their ends
        steps = [step_window(agent, flow, s, eq) for s in pi_steps]
        assert sum(step is not None for step in steps) == (6 if shared == "two-knot" else 12)
        ramp = eq.pi + np.linspace(0.0, 0.5, grid.n_steps + 1)
        bumps = eq.pi.copy()
        bumps[5:10] += 0.5
        bumps[30:40] += 0.5
        moved = eq.pi.copy()
        moved[10:30] += 0.5
        moved[20] += 1e-9  # one knot off the step by far more than rounding
        both = Strategy(grid, eq.pi * 0.8 + 0.1, eq.c * 1.3)  # changes pi and c
        non_steps = [*(Strategy(grid, pi, eq.c) for pi in (ramp, bumps, moved)), both]
        assert all(step_window(agent, flow, s, eq) is None for s in non_steps)
        strategies = [eq, *library, *non_steps]
        m = 300
        draws = lambda: montecarlo._utility_draws(grid, 9, 0)  # a fresh copy of one chunk's streams
        dw, dw0 = np.empty((2, m, grid.n_steps))
        draws()(dw, dw0)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1 << 30)  # one block
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference and its noise-free path, the unit-pi noise sum, and
        # the four strategies that are not steps of the reference, each a
        # build and a noise-free path; the 20 perturbations take none, or two
        # each and no noise sum is built when no step may read exp(z_ref).
        # Under the two-knot rule a step's boundary increments load half of
        # it, so the six thirds, which do not span the grid, take two each
        assert len(builds) == {True: 3, False: 2 + 2 * len(library), "two-knot": 3 + 2 * 6}[shared] + 2 * len(non_steps)
        want = _oracle_pairs(agent, strategies, flow, dw, dw0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        for j, s in enumerate(strategies):
            alone = montecarlo._payoffs(agent, [s], flow, m, draws())[0]
            assert np.all(np.abs(got[j] - alone) <= 1e-12 * np.abs(alone))

    @pytest.mark.parametrize("config, k", [("reference", 0), ("reference", 1), ("steep", 0)])
    def test_pair_means_are_the_oracle_on_both_signs_of_the_draws(self, tmp_path, monkeypatch, config, k):
        # the reference scenario at 256 steps, and the steep gamma = -30
        # scenario whose type 0 has rows past the step bound, rebuilt with
        # their mirror
        if config == "reference":
            cfg = load_config(REFERENCE, steps=256)
        else:
            path = tmp_path / "steep.json"
            path.write_text(json.dumps(STEEP))
            cfg = load_config(path)
        pop, m = cfg.population, 400
        grid = pop.grid
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        agent = pop.types[k]
        strategies = [equilibrium_strategy(sol, k), *(p.strategy for p in default_perturbations(sol, k))]
        draws = lambda: montecarlo._utility_draws(grid, 8, 0)
        dw, dw0 = np.empty((2, m, grid.n_steps))
        draws()(dw, dw0)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1 << 30)  # one block
        rows = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda out, *a: rows.append(out.shape[:-1]) or build(out, *a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        rebuilt = sum(r[0] for r in rows if r and r[0] < m)  # far rows: not the block, not a 1-D noise-free path
        assert (rebuilt > 0) == (config == "steep")
        want = _oracle_pairs(agent, strategies, flow, dw, dw0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_strategies_off_the_step_rule_take_their_own_build(self, monkeypatch):
        grid = TimeGrid(1.0, 64)
        pop = single(grid, gamma=-5.0)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        agent, m = pop.types[0], 300
        last = eq.pi.copy()
        last[-1] += 0.5  # off the reference at knot n only: an empty step
        assert step_window(agent, flow, Strategy(grid, last, eq.c), eq) == (0, 0, 0.0)
        # |g log r| = 35: the offset part of max|D| alone passes the bound
        assert 5.0 * 7.0 > montecarlo._MAX_SHIFT
        scaled = Strategy(grid, eq.pi, eq.c * math.exp(-7.0), c_min=1e-6)
        ramp = eq.pi + np.linspace(0.0, 0.5, grid.n_steps + 1)
        same_pi = [Strategy(grid, ramp, eq.c * r) for r in (1.0, 1.1)]
        assert step_window(agent, flow, same_pi[0], eq) is None
        strategies = [eq, Strategy(grid, last, eq.c), scaled, *same_pi]
        draws = lambda: montecarlo._utility_draws(grid, 6, 0)
        dw, dw0 = np.empty((2, m, grid.n_steps))
        draws()(dw, dw0)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1 << 30)  # one block
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference, which the empty step reads, and its noise-free path;
        # a build and a noise-free path each for the rescaling and the two
        # strategies with the ramp; no noise sum
        assert len(builds) == 2 + 2 * 3
        want = _oracle_pairs(agent, strategies, flow, dw, dw0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("rule", ["left-endpoint", "two-knot"])
    def test_a_step_reads_the_noise_sum_only_where_the_rule_loads_it(self, monkeypatch, rule):
        # moves at knot n, which only the two-knot rule loads: alone, and by
        # another size than the step on the knots before it
        if rule == "two-knot":
            monkeypatch.setattr(montecarlo, "_euler_rows", _two_knot_rows)
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(3, grid, n_types=2)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        last, mixed = eq.pi.copy(), eq.pi + 0.1
        last[-1] += 0.5
        mixed[-1] += 0.4
        strategies = [eq, *(Strategy(grid, pi, eq.c) for pi in (eq.pi + 0.1, last, mixed))]
        agent, m = pop.types[0], 300
        found = [step_window(agent, flow, s, eq) for s in strategies[2:]]
        if rule == "left-endpoint":
            assert found[0] == (0, 0, 0.0)  # the empty step
            assert found[1][:2] == (0, grid.n_steps)
        else:  # both move the last increment's rows by other than d
            assert found == [None, None]
        draws = lambda: montecarlo._utility_draws(grid, 5, 0)
        dw, dw0 = np.empty((2, m, grid.n_steps))
        draws()(dw, dw0)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 1 << 30)  # one block
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference, its noise-free path and N; under the two-knot rule,
        # a build and a noise-free path each for the two strategies that
        # move at knot n
        assert len(builds) == {"left-endpoint": 3, "two-knot": 3 + 2 * 2}[rule]
        want = _oracle_pairs(agent, strategies, flow, dw, dw0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_rows_past_the_step_bound_take_their_own_build(self, monkeypatch):
        # gamma = -5, sigma = 100: |d| max|N| reaches the bound in some sample
        # rows and not in others at d = 0.05, and passes exp's range in some at
        # d = 1; the steps span a few knots, so their |D| stays under the bound
        grid = TimeGrid(1.0, 1024)
        pop = single(grid, gamma=-5.0, sigma=100.0, sigma0=5.0)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        strategies = [eq]
        agent, m = pop.types[0], 200
        for d, lo, hi in ((0.05, 100, 110), (-0.05, 0, 3), (0.05, 1020, 1024), (1.0, 500, 501), (-1.0, 700, 701)):
            pi = eq.pi.copy()
            pi[lo:hi] += d
            strategies.append(Strategy(grid, pi, eq.c))
            assert step_window(agent, flow, strategies[-1], eq)[:2] == (lo, hi)
        # one call also mixes in an own build and a read of R: a local ramp is
        # not a step, and a change of c alone is the empty step
        ramp = eq.pi.copy()
        ramp[200:210] += np.linspace(0.0, 0.05, 10)
        strategies += [Strategy(grid, ramp, eq.c), Strategy(grid, eq.pi, eq.c * 1.1)]
        assert step_window(agent, flow, strategies[-2], eq) is None
        assert step_window(agent, flow, strategies[-1], eq) == (0, 0, 0.0)
        draws = lambda: montecarlo._utility_draws(grid, 4, 0)
        dw, dw0 = np.empty((2, m, grid.n_steps))
        draws()(dw, dw0)
        noise = np.cumsum(agent.gamma * (agent.sigma.values[:-1] * dw + agent.sigma0.values[:-1] * dw0), axis=1)
        span = np.abs(noise).max(axis=1)
        assert 0 < np.sum(0.05 * span >= montecarlo._MAX_SHIFT) < m
        assert np.any(span > np.log(np.finfo(float).max))
        want = _oracle_pairs(agent, strategies, flow, dw, dw0)
        row_bytes = 8 * (grid.n_steps + 1)
        got = []
        # one row per block, ragged 7-row blocks, one block for all rows
        for block_bytes in (1, 7 * 7 * row_bytes, m * 7 * row_bytes):
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_bytes)
            got.append(montecarlo._payoffs(agent, strategies, flow, m, draws()))
            assert np.all(np.abs(got[-1] - want) <= 1e-12 * np.abs(want))
        assert all(np.array_equal(got[0], other) for other in got[1:])

    @pytest.mark.parametrize("rows", [1, 7, 109])
    @pytest.mark.parametrize("knots", [33, 257, 2001])
    def test_batched_reads_equal_one_row_sum_per_strategy(self, rows, knots):
        # _payoffs sums every strategy that reads R + R' in one einsum per
        # block; outputs stay independent of how many strategies read it only
        # while that einsum sums each row as the one-strategy einsum does;
        # nine strategies read it in the default library
        rng = keyed_stream(rows, knots)
        z = np.exp(rng.standard_normal((rows, knots)))
        weights = rng.standard_normal((9, knots))
        want = np.stack([np.einsum("ij,j->i", z, w) for w in weights])
        assert np.array_equal(np.einsum("ij,kj->ki", z, weights), want)

    def test_euler_rows_run_once_per_strategy_and_once_for_the_unit_rows(self, monkeypatch):
        # the step decisions read the folded rows; they call no scheme of their own
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(3, grid, n_types=2)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        strategies = [equilibrium_strategy(sol, 0), *(p.strategy for p in default_perturbations(sol, 0))]
        calls = []
        rows = montecarlo._euler_rows
        monkeypatch.setattr(montecarlo, "_euler_rows", lambda *a: calls.append(1) or rows(*a))
        montecarlo._payoffs(pop.types[0], strategies, flow, 10, montecarlo._utility_draws(grid, 2, 0))
        assert len(calls) <= len(strategies) + 1

    # 100 pairs in 7-row blocks; two chunks of one block each
    @pytest.mark.parametrize("block_rows, n, blocks, chunks", [
        (7, 200, 15, 1),
        (montecarlo.CHUNK, 2 * montecarlo.CHUNK + 20, 2, 2),
    ])
    def test_one_strategy_takes_one_build_per_block(self, monkeypatch, block_rows, n, blocks, chunks):
        # a single strategy has no step to serve, so no unit-pi noise sum is
        # built; its mirror takes none either, only the noise-free path once
        # per chunk; a block holds R, R' and R + R'
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(3, grid, n_types=2)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_rows * 3 * 8 * (grid.n_steps + 1))
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, n, seed=3)
        assert len(builds) == blocks + chunks


class TestConsistency:
    def test_single_type_within_three_units(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        rep = consistency_test(pop, sol, 20_000, 3, seed=3)
        assert rep.max_deviation_units <= 3.0
        assert len(rep.rows) == 15

    def test_mixed_population(self, grid):
        t1 = constant_type(grid, weight=0.6, gamma=0.5, theta=0.5, h=0.1, sigma=0.2, sigma0=0.1)
        t2 = constant_type(grid, weight=0.4, gamma=-1.0, theta=0.8, x0=2.0, h=0.08, sigma=0.3, sigma0=0.05)
        pop = Population((t1, t2))
        sol = solve_equilibrium(pop)
        rep = consistency_test(pop, sol, 20_000, 2, seed=5)
        assert rep.max_deviation_units <= 3.0

    def test_no_common_noise_path_independence(self, grid, monkeypatch):
        # with sigma0 = 0 the report cannot depend on which common-noise
        # path was drawn
        pop = single(grid, sigma0=0.0)
        sol = solve_equilibrium(pop)
        reports = []
        for w0_seed in (100, 200):
            draw = lambda grid, seed, path, w0_seed=w0_seed: consistency_w0(grid, w0_seed, path)
            monkeypatch.setattr(montecarlo, "consistency_w0", draw)
            reports.append(consistency_test(pop, sol, 5000, 2, seed=9))
        assert reports[0].rows == reports[1].rows

    def test_stderr_scaling(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        a = consistency_test(pop, sol, 10_000, 1, seed=4)
        b = consistency_test(pop, sol, 20_000, 1, seed=4)
        ratios = [ra.stderr / rb.stderr for ra, rb in zip(a.rows, b.rows)]
        for r in ratios:
            assert abs(r - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)

    def test_rejects_bad_counts(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        with pytest.raises(ValueError):
            consistency_test(pop, sol, 0, 1, seed=1)

    def test_no_idiosyncratic_noise_reproduces_flow_exactly(self, grid):
        # sigma = 0 (valid, as sigma + sigma0 >= sigma_lb): every agent's
        # path is the flow's, so the simulated mean meets it up to rounding
        pop = single(grid, sigma=0.0, sigma0=0.2)
        sol = solve_equilibrium(pop)
        rep = consistency_test(pop, sol, 5000, 1, seed=3)
        assert rep.max_deviation_units == 0.0

    def test_small_idiosyncratic_noise_within_three_units(self, grid):
        # a tiny stderr exposes any gap between the simulated drift and the
        # flow's trapezoid integral of it
        pop = single(grid, sigma=1e-3, sigma0=0.2)
        sol = solve_equilibrium(pop)
        rep = consistency_test(pop, sol, 5000, 1, seed=3)
        assert rep.max_deviation_units <= 3.0

    def test_stderr_does_not_cancel_at_large_log_x0(self, grid):
        # log x0 only shifts every path; a spread of ~1e-9 around a mean of
        # log(1e6) cancels in sum-of-squares minus n * mean^2
        reps = []
        for x0 in (1e6, 1.0):
            pop = single(grid, sigma=1e-8, sigma0=0.2, x0=x0)
            reps.append(consistency_test(pop, solve_equilibrium(pop), 5000, 1, seed=3))
        assert reps[0].max_deviation_units <= 3.0
        for big, unit in zip(*(r.rows for r in reps)):
            assert big.stderr > 0.0
            assert big.stderr == pytest.approx(unit.stderr, rel=1e-4)

    def test_segment_draw_matches_euler_paths_in_distribution(self):
        # independent reference: whole Euler paths of the same agent mix,
        # read at the probe knots; time-varying curves, K = 3
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(4, grid, n_types=3)
        sol = solve_equilibrium(pop)
        n, seed = 20_000, 11
        rep = consistency_test(pop, sol, n, 2, seed=seed)
        knots = [round(t / grid.dt) for t in np.linspace(0.2, 1.0, 5)]
        rng = keyed_stream(seed, 99)
        for p in range(2):
            types = sample_agents(pop, n, rng)
            counts = np.bincount(types, minlength=pop.n_types)
            w0 = consistency_w0(grid, seed, p)[None, :]
            paths = np.vstack([
                simulate_wealth(tp, equilibrium_strategy(sol, k),
                                rng.normal(0.0, np.sqrt(grid.dt), (m, grid.n_steps)), w0)
                for k, (tp, m) in enumerate(zip(pop.types, counts))
            ])
            for row, q in zip(rep.rows[p * len(knots):], knots):
                x = paths[:, q]
                se = x.std(ddof=1) / math.sqrt(n)
                assert abs(row.empirical_mean - x.mean()) <= 4.0 * math.hypot(row.stderr, se)
                assert abs(row.stderr / se - 1.0) <= 0.1

    def test_repeated_probe_knots_give_identical_rows(self):
        # at 3 steps the five probes 0.2, 0.4, ..., 1.0 round to the knots
        # 1, 1, 2, 2, 3: a repeat is a segment of length 0
        grid = TimeGrid(1.0, 3)
        pop = make_random_population(2, grid, n_types=2)
        rep = consistency_test(pop, solve_equilibrium(pop), 500, 2, seed=8)
        assert [r.t for r in rep.rows] == 2 * [grid.times[q] for q in (1, 1, 2, 2, 3)]
        for p in range(2):
            rows = rep.rows[5 * p : 5 * p + 5]
            assert rows[0] == rows[1] and rows[2] == rows[3]
            assert rows[1] != rows[2] != rows[4]

    def test_normals_per_path_do_not_grow_with_the_crowd(self, monkeypatch):
        # a per-agent draw would take one normal per agent and probe; the
        # crowd's sufficient statistics take K P (P + 1) a path at any size
        real = montecarlo.keyed_stream
        drawn: dict[int, int] = {}

        class Counted:
            def __init__(self, gen, path):
                self.gen, self.path = gen, path

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.gen, name)(*args, **kwargs)
                    if name == "standard_normal":
                        drawn[self.path] = drawn.get(self.path, 0) + np.size(out)
                    return out
                return draw

        def stream(seed, stream_id):
            gen = real(seed, stream_id)
            if stream_id >> 56 != montecarlo._DOM_CONS_W:
                return gen
            return Counted(gen, (stream_id >> 28) & ((1 << 28) - 1))

        monkeypatch.setattr(montecarlo, "keyed_stream", stream)
        pop = make_random_population(2, TimeGrid(1.0, 64), n_types=3)
        sol = solve_equilibrium(pop)
        counts = []
        for n in (100, 100_000):
            drawn.clear()
            consistency_test(pop, sol, n, 3, seed=2)
            counts.append(dict(drawn))
        assert counts[0] == counts[1] == {p: 3 * 5 * 6 for p in range(3)}

    def test_a_thousand_types_cost_milliseconds(self):
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(5, grid, n_types=1000, time_varying=False)
        sol = solve_equilibrium(pop)
        elapsed = []
        for _ in range(3):
            t0 = time.perf_counter()
            rep = consistency_test(pop, sol, 100_000, 1, seed=4)
            elapsed.append(time.perf_counter() - t0)
        assert len(rep.rows) == 5 and all(r.stderr > 0.0 for r in rep.rows)
        assert min(elapsed) < 0.05

    @pytest.mark.parametrize("n_agents", [2, 40, 2000])
    def test_crowd_statistics_match_a_per_agent_oracle_in_law(self, n_agents):
        # oracle: every agent drawn, its type by `sample_agents` and one
        # normal per probe segment. Type 0 has weight 0.02, so empty and
        # one-agent types, and fewer agents of a type than probes, occur.
        # A two-sample KS test per probe on mean - flow, stderr and units
        # over 1000 paths each, at a family-wise level of about 1e-3.
        grid = TimeGrid(1.0, 64)
        drawn = make_random_population(6, grid, n_types=3).types
        pop = Population(tuple(dataclasses.replace(tp, weight=w) for tp, w in zip(drawn, (0.02, 0.49, 0.49))))
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        paths, probes = 1000, 5
        rep = consistency_test(pop, sol, n_agents, paths, seed=17)
        got = np.array([(r.empirical_mean - r.flow_mu, r.stderr, r.deviation_units) for r in rep.rows])

        knots = np.round(np.linspace(0.2, 1.0, probes) / grid.dt).astype(int)
        strategies = [equilibrium_strategy(sol, k) for k in range(pop.n_types)]
        var = np.cumsum([(s.pi * tp.sigma.values)[:-1] ** 2 * grid.dt for s, tp in zip(strategies, pop.types)], axis=1)
        sd = np.sqrt(np.diff(var[:, knots - 1], axis=1, prepend=0.0)).T  # (probes, K)
        rng = keyed_stream(17, 1 << 40)
        want = np.empty((paths, probes, 3))
        for p in range(paths):
            w0 = rng.normal(0.0, np.sqrt(grid.dt), grid.n_steps)
            base = np.array([simulate_wealth(tp, s, np.zeros((1, grid.n_steps)), w0)[0, knots]
                             for tp, s in zip(pop.types, strategies)]).T
            types = sample_agents(pop, n_agents, rng)
            x = base[:, types] + np.cumsum(rng.standard_normal((probes, n_agents)) * sd[:, types], axis=0)
            gap = x.mean(axis=1) - flow.mu_values(w0)[knots]
            se = x.std(axis=1, ddof=1) / math.sqrt(n_agents)
            want[p] = np.column_stack([gap, se, np.abs(gap) / se])

        def ks(a, b):
            both = np.concatenate([a, b])
            cdf = lambda x: np.searchsorted(np.sort(x), both, "right") / x.size
            return np.abs(cdf(a) - cdf(b)).max()

        bound = 2.4 * math.sqrt(2.0 / paths)  # sqrt(-ln(a / 2) / 2) at a = 2e-5 per test, 45 tests
        for j in range(probes):
            for stat in range(3):
                assert ks(got[j::probes, stat], want[:, j, stat]) < bound


class TestRowBlocks:
    # 1-row blocks, ragged 7-row blocks, one block per chunk, a short last chunk
    @pytest.mark.parametrize("chunk, m, block_rows", [
        (0, montecarlo.CHUNK, 1),
        (1, montecarlo.CHUNK, 7),
        (0, montecarlo.CHUNK, montecarlo.CHUNK),
        (2, 100, 7),
    ])
    def test_block_fills_equal_one_draw_per_stream(self, chunk, m, block_rows):
        grid, seed = TimeGrid(1.0, 64), 13
        fill = montecarlo._utility_draws(grid, seed, chunk)
        dw, dw0 = np.empty((2, m, grid.n_steps))
        for lo in range(0, m, block_rows):
            fill(dw[lo : lo + block_rows], dw0[lo : lo + block_rows])
        for domain, got in ((montecarlo._DOM_UTIL_W, dw), (montecarlo._DOM_UTIL_W0, dw0)):
            stream = keyed_stream(seed, montecarlo._sid(domain, chunk))
            assert np.array_equal(got, stream.normal(0.0, np.sqrt(grid.dt), (m, grid.n_steps)))

    @pytest.mark.parametrize("estimator", ["estimate_utility", "deviation_test", "consistency_test"])
    def test_block_size_does_not_change_output(self, monkeypatch, estimator):
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(1, grid, n_types=2)  # time-varying curves
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        eq = equilibrium_strategy(sol, 0)
        # with pi+-1.0@third1, steps with a prefix and a suffix, of both signs
        library = default_perturbations(sol, 0)
        perts = [*library[::5], library[12], library[13]]
        assert [p.name for p in perts[-2:]] == ["pi+1.0@third1", "pi-1.0@third1"]
        n = 4 * montecarlo.CHUNK + 200  # paths: three chunks of pairs, the last one short
        run = {
            "estimate_utility": lambda: estimate_utility(pop.types[0], eq, flow, n, seed=5),
            "deviation_test": lambda: deviation_test(pop, 0, sol, perts, n, seed=5),
            "consistency_test": lambda: consistency_test(pop, sol, n, 1, seed=5),
        }[estimator]
        want = run()
        # the path buffers a block holds: R, R' and R + R', and with steps
        # also N, E, R E^(+-1) and R' E^(-+1)
        row_bytes = 8 * (grid.n_steps + 1) * (7 if estimator == "deviation_test" else 3)
        seen = []  # (samples, rows of the first block) per chunk; the consistency test takes no blocks
        real = montecarlo._blocks
        monkeypatch.setattr(montecarlo, "_blocks", lambda m, *a: seen.append((m, real(m, *a)[0].stop)) or real(m, *a))
        # one row per block, ragged 7-row blocks, one block per chunk
        for rows in (1, 7, montecarlo.CHUNK):
            seen.clear()
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", rows * row_bytes)
            assert run() == want
            chunks = [] if estimator == "consistency_test" else [100, montecarlo.CHUNK, montecarlo.CHUNK]
            assert sorted(seen) == [(m, min(rows, m)) for m in chunks]


class TestMemory:
    # whole-chunk passes would hold several (CHUNK, n+1) float64 arrays:
    # 64 MB each at 2000 steps, 8 MB each at 256 steps
    # chunk-sized draws would add two (CHUNK, n) arrays: 16 MB at 256 steps,
    # 131 MB at 2000; per-block draws hold a few blocks' worth
    @pytest.mark.parametrize("estimator, n_steps, limit_mb", [
        ("consistency_test", 2000, 16),
        ("deviation_test", 256, 32),
        ("deviation_test", 256, 8),
        ("deviation_test", 2000, 8),
        ("estimate_utility", 256, 8),
        ("estimate_utility", 2000, 8),
    ])
    def test_peak_traced_memory(self, monkeypatch, estimator, n_steps, limit_mb):
        monkeypatch.setenv("MFG_CONSUME_THREADS", "1")
        pop = single(TimeGrid(1.0, n_steps))
        sol = solve_equilibrium(pop)
        perts = default_perturbations(sol, 0)
        flow = FlowModel(pop, sol)
        run = {
            "consistency_test": lambda: consistency_test(pop, sol, 8192, 1, seed=2),
            "deviation_test": lambda: deviation_test(pop, 0, sol, perts, 8192, seed=2),
            "estimate_utility": lambda: estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, 8192, 2),
        }[estimator]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20
