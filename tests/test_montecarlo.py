import math
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import make_random_population

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
    philox_stream,
    relation_check,
    sample_agents,
    simulate_wealth,
    solve_equilibrium,
    value_function,
)
from mfgconsume import montecarlo
from mfgconsume.montecarlo import consistency_w0
from mfgconsume.odequad import cumtrapz_left


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
        dw = philox_stream(5, 0).normal(0.0, np.sqrt(grid.dt), (3, grid.n_steps))
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
        dw = philox_stream(3, 1).normal(0.0, sd, (9, grid.n_steps))
        dw0 = philox_stream(3, 2).normal(0.0, sd, (9, grid.n_steps))
        paths = simulate_wealth(agent, strat, dw, dw0)
        for i in range(9):
            assert np.array_equal(paths[i], simulate_wealth(agent, strat, dw[i : i + 1], dw0[i : i + 1])[0])

    def test_shared_common_noise_row_equals_its_repeats(self, grid):
        agent = single(grid).types[0]
        n = grid.n_steps + 1
        strat = Strategy(grid, np.linspace(0.5, 1.5, n), np.full(n, 0.3))
        sd = np.sqrt(grid.dt)
        dw = philox_stream(4, 1).normal(0.0, sd, (5, grid.n_steps))
        dw0 = philox_stream(4, 2).normal(0.0, sd, (1, grid.n_steps))
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
        dw = philox_stream(17, 0).normal(0.0, sd, (n, grid.n_steps))
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
            dw = philox_stream(23, n_steps).normal(0.0, np.sqrt(grid.dt), (n, grid.n_steps))
            strat = Strategy(grid, np.ones(grid.n_steps + 1), np.full(grid.n_steps + 1, c0))
            x = simulate_wealth(tp, strat, dw, np.zeros((1, grid.n_steps)))
            payoff = np.exp(g * x[:, -1])
            m = 0.1 - 0.5 * 0.04 - c0
            oracle = math.exp(g * m + g * g * 0.04 / 2)
            se = payoff.std(ddof=1) / math.sqrt(n)
            assert abs(payoff.mean() - oracle) <= 3.5 * se


class TestFlow:
    def test_initial_value(self, grid):
        pop = single(grid, x0=1.7)
        sol = solve_equilibrium(pop)
        w0 = philox_stream(1, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
        assert FlowModel(pop, sol).mu_values(w0)[0] == math.log(1.7)

    def test_deterministic_without_common_noise(self, grid):
        pop = single(grid, sigma0=0.0)
        sol = solve_equilibrium(pop)
        w0 = philox_stream(1, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
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
        w0 = philox_stream(4, 2).normal(0, np.sqrt(grid.dt), grid.n_steps)
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
        w0 = philox_stream(6, 1).normal(0, np.sqrt(grid.dt), grid.n_steps)
        rows = montecarlo._euler_rows(pop.h_mat, pop.sigma_mat, pop.sigma0_mat, sol.pi_star, sol.c_star, grid.dt)
        paths = montecarlo._build_paths(np.empty((3, grid.n_steps + 1)), np.log(pop.x0s), *rows, 0.0, w0)
        assert np.abs(FlowModel(pop, sol).mu_values(w0) - pop.mean(paths)).max() <= 1e-12

    @pytest.mark.parametrize("caller", ["mu_values", "relation_check"])
    def test_wrong_increment_count(self, grid, caller):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        with pytest.raises(ValueError, match="increments"):
            if caller == "mu_values":
                FlowModel(pop, sol).mu_values(np.zeros(5))
            else:
                relation_check(pop, sol, np.zeros(5))

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


class TestEstimateUtility:
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
        n = 9000  # spans multiple chunks
        run = {
            "estimate_utility": lambda: estimate_utility(pop.types[0], eq, flow, n, seed=7),
            "deviation_test": lambda: deviation_test(pop, 0, sol, default_perturbations(sol, 0), n, seed=7),
            "consistency_test": lambda: consistency_test(pop, sol, n, 2, seed=7),
        }[estimator]
        monkeypatch.setenv("MFG_CONSUME_THREADS", "1")
        a = run()
        monkeypatch.setenv("MFG_CONSUME_THREADS", "4")
        b = run()
        assert a == b


class TestThreadPool:
    def test_repeated_calls_reuse_one_pool(self, monkeypatch):
        monkeypatch.setenv("MFG_CONSUME_THREADS", "2")
        barrier = threading.Barrier(2, timeout=10)
        montecarlo._map_ordered(lambda i: barrier.wait(), 2)  # both workers started
        names, counts = set(), []
        for _ in range(5):
            got = montecarlo._map_ordered(lambda i: names.add(threading.current_thread().name) or i, 16)
            assert got == list(range(16))
            counts.append(threading.active_count())
        assert len(set(counts)) == 1
        assert len(names) <= 2


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
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference, the unit-pi noise sum and the four strategies that
        # are not steps of the reference; the 20 perturbations take none, or
        # one each and no noise sum is built when no step may read exp(z_ref).
        # Under the two-knot rule a step's boundary increments load half of
        # it, so the six thirds, which do not span the grid, take one each
        assert len(builds) == {True: 2, False: 1 + len(library), "two-knot": 2 + 6}[shared] + len(non_steps)
        want = _oracle_payoffs(agent, strategies, flow, dw, dw0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        for j, s in enumerate(strategies):
            alone = montecarlo._payoffs(agent, [s], flow, m, draws())[0]
            assert np.all(np.abs(got[j] - alone) <= 1e-12 * np.abs(alone))

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
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference, which the empty step reads; one build each for the
        # rescaling and the two strategies with the ramp; no noise sum
        assert len(builds) == 4
        want = _oracle_payoffs(agent, strategies, flow, dw, dw0)
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
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        got = montecarlo._payoffs(agent, strategies, flow, m, draws())
        # the reference and N; under the two-knot rule, one build each for
        # the two strategies that move at knot n
        assert len(builds) == {"left-endpoint": 2, "two-knot": 4}[rule]
        want = _oracle_payoffs(agent, strategies, flow, dw, dw0)
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
        want = _oracle_payoffs(agent, strategies, flow, dw, dw0)
        row_bytes = 8 * (grid.n_steps + 1)
        got = []
        # one row per block, ragged 7-row blocks, one block for all rows
        for block_bytes in (1, 7 * 4 * row_bytes, m * 4 * row_bytes):
            monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_bytes)
            got.append(montecarlo._payoffs(agent, strategies, flow, m, draws()))
            assert np.all(np.abs(got[-1] - want) <= 1e-12 * np.abs(want))
        assert all(np.array_equal(got[0], other) for other in got[1:])

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

    # 100 samples in 7-row blocks; two chunks of one block each
    @pytest.mark.parametrize("block_rows, n, blocks", [(7, 100, 15), (montecarlo.CHUNK, montecarlo.CHUNK + 10, 2)])
    def test_one_strategy_takes_one_build_per_block(self, monkeypatch, block_rows, n, blocks):
        # a single strategy has no step to serve, so no unit-pi noise sum is built
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(3, grid, n_types=2)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block_rows * 8 * (grid.n_steps + 1))
        builds = []
        build = montecarlo._build_paths
        monkeypatch.setattr(montecarlo, "_build_paths", lambda *a: builds.append(1) or build(*a))
        estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, n, seed=3)
        assert len(builds) == blocks


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

    def test_rejects_no_probe_times(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        with pytest.raises(ValueError, match="need at least one probe time"):
            consistency_test(pop, sol, 100, 1, seed=1, probe_times=[])

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
        # read at the probe knots; time-varying curves, K = 3, t = 0 included
        grid = TimeGrid(1.0, 64)
        pop = make_random_population(4, grid, n_types=3)
        sol = solve_equilibrium(pop)
        n, seed = 20_000, 11
        probe_times = [0.75, 0.0, 0.25, 1.0, 0.5]
        rep = consistency_test(pop, sol, n, 2, seed=seed, probe_times=probe_times)
        knots = [round(t / grid.dt) for t in probe_times]
        rng = philox_stream(seed, 99)
        for p in range(2):
            types = sample_agents(pop, n, philox_stream(seed, montecarlo._sid(montecarlo._DOM_CONS_TYPES, p)))
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

    def test_permuted_probe_times_permute_rows(self, grid):
        pop = make_random_population(2, grid, n_types=2)
        sol = solve_equilibrium(pop)
        times = [0.0, 0.25, 0.5, 1.0]
        perm = [3, 0, 2, 1]
        a = consistency_test(pop, sol, 9000, 2, seed=8, probe_times=times)
        b = consistency_test(pop, sol, 9000, 2, seed=8, probe_times=[times[j] for j in perm])
        for p in range(2):
            rows_a = a.rows[4 * p: 4 * p + 4]
            assert b.rows[4 * p: 4 * p + 4] == tuple(rows_a[j] for j in perm)
        assert a.max_deviation_units == b.max_deviation_units

    def test_one_idiosyncratic_normal_per_agent_and_probe(self, grid, monkeypatch):
        # drawing whole Euler paths would take n_steps normals per agent
        real = montecarlo.philox_stream
        drawn: dict[int, int] = {}

        class Counted:
            def __init__(self, gen, path):
                self.gen, self.path = gen, path

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.gen, name)(*args, **kwargs)
                    drawn[self.path] = drawn.get(self.path, 0) + np.size(out)
                    return out
                return draw

        def stream(seed, stream_id):
            gen = real(seed, stream_id)
            if stream_id >> 56 != montecarlo._DOM_CONS_W:
                return gen
            return Counted(gen, (stream_id >> 28) & ((1 << 28) - 1))

        monkeypatch.setattr(montecarlo, "philox_stream", stream)
        monkeypatch.setenv("MFG_CONSUME_THREADS", "1")  # the counter is not locked
        pop = single(grid)
        sol = solve_equilibrium(pop)
        n, probe_times = 9000, [0.0, 0.3, 1.0]
        consistency_test(pop, sol, n, 3, seed=2, probe_times=probe_times)
        assert drawn == {p: len(probe_times) * n for p in range(3)}


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
            stream = philox_stream(seed, montecarlo._sid(domain, chunk))
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
        n = 2 * montecarlo.CHUNK + 100  # three chunks, the last one short
        run = {
            "estimate_utility": lambda: estimate_utility(pop.types[0], eq, flow, n, seed=5),
            "deviation_test": lambda: deviation_test(pop, 0, sol, perts, n, seed=5),
            "consistency_test": lambda: consistency_test(pop, sol, n, 1, seed=5, probe_times=[0.0, 0.5, 1.0]),
        }[estimator]
        want = run()
        # the path buffers a block holds: R alone, or R, N, E and R E^(+-1)
        row_bytes = 8 * (grid.n_steps + 1) * (4 if estimator == "deviation_test" else 1)
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
