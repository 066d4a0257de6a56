import dataclasses
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfgconsume import (
    FlowModel,
    Population,
    TimeGrid,
    coeff_A,
    coeff_B,
    coeff_D,
    common_noise_z0,
    constant_consumption,
    constant_type,
    equilibrium_strategy,
    exact_utility,
    optimal_consumption,
    optimal_investment,
    phi_psi,
    population_aggregates,
    sigma0_thresholds,
    solve_equilibrium,
    solve_riccati_numeric,
    tagged_policy_at0,
    tilde_Y,
)
from mfgconsume.errors import ExponentRangeError, SingularAggregateError
from mfgconsume.verify import bsde_residual, relation_check, value_function

from conftest import make_random_population


def single(grid, **kw):
    base = dict(gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.0)
    base.update(kw)
    return Population((constant_type(grid, **base),))


@pytest.fixture
def grid():
    return TimeGrid(1.0, 400)


# the worked single-type scenario used across several oracles:
# h=0.1, sigma=0, sigma0=0.2, gamma=0.5, theta=1 -> phi = psi = 1
def sigma_zero_pop(grid):
    return single(grid, h=0.1, sigma=0.0, sigma0=0.2, gamma=0.5, theta=1.0, alpha=1.0)


class TestAggregates:
    def test_phi_psi_vanish_without_common_noise(self, grid):
        pop = single(grid, sigma0=0.0)
        assert phi_psi(pop, 0.3) == (0.0, 0.0)

    def test_phi_psi_single_type(self, grid):
        # direct scalar evaluation: 0.02/0.02 for both
        pop = sigma_zero_pop(grid)
        phi, psi = phi_psi(pop, 0.0)
        assert phi == pytest.approx(1.0, abs=1e-15)
        assert psi == pytest.approx(1.0, abs=1e-15)

    def test_phi_psi_two_types(self, grid):
        t1 = constant_type(grid, weight=0.5, gamma=0.5, theta=1.0, h=0.1, sigma=0.0, sigma0=0.2)
        t2 = constant_type(grid, weight=0.5, gamma=0.5, theta=0.5, h=0.2, sigma=0.2, sigma0=0.2)
        pop = Population((t1, t2))
        # scalar oracle: type2 integrands 0.2*0.2/(0.5*0.08) = 1 and 0.04*0.25/0.04 = 0.25
        phi, psi = phi_psi(pop, 0.5)
        assert phi == pytest.approx(1.0, abs=1e-14)
        assert psi == pytest.approx(0.625, abs=1e-14)


class TestCoefficients:
    def test_a_merton_case(self, grid):
        # theta = 0: only the quadratic own term survives, -gamma h^2/(2(1-gamma)sigma^2)
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        oracle = -0.5 * 0.01 / (2 * 0.5 * 0.04)
        assert coeff_A(pop, 0, 0.2) == pytest.approx(oracle, abs=1e-15)
        assert oracle == -0.125

    def test_a_zero_when_h_zero(self, grid):
        pop = single(grid, theta=0.0, h=0.0, sigma=0.2, sigma0=0.1)
        assert coeff_A(pop, 0, 0.5) == 0.0

    def test_a_single_type_full_expression(self, grid):
        # independent scalar script over the four terms with phi = psi = 1
        h, s, s0, g, th = 0.1, 0.0, 0.2, 0.5, 1.0
        st2 = s * s + s0 * s0
        den = (1 - g) * st2
        phi = h * s0 / den
        psi = s0 * s0 * th * g / den
        z0 = -th * g * phi / (1 + psi)
        pi = h / den - th * g * s0 * phi / (den * (1 + psi))
        oracle = (
            -g * (h + s0 * z0) ** 2 / (2 * den)
            - z0**2 / 2
            + th * g * (pi * h)
            - th * g / 2 * (pi**2 * st2)
        )
        pop = sigma_zero_pop(grid)
        assert coeff_A(pop, 0, 0.7) == pytest.approx(oracle, abs=1e-14)

    def test_b_merton_reduction(self, grid):
        # theta = 0 -> B = -A/(1-gamma); with A = -0.125 and gamma = 0.5: B = 0.25
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        assert coeff_B(pop, 0, 0.1) == pytest.approx(0.25, abs=1e-15)

    def test_d_unit_alpha(self, grid):
        pop = single(grid, alpha=1.0)
        assert coeff_D(pop, 0) == 1.0

    def test_d_log_alpha_scaling(self, grid):
        # alpha = e^{1-gamma}, theta = 0 -> D = exp(log(alpha)/(1-gamma)) = e
        pop = single(grid, theta=0.0, gamma=0.5, alpha=math.exp(0.5))
        assert coeff_D(pop, 0) == pytest.approx(math.e, rel=1e-14)


class TestInvestment:
    def test_merton_ratio(self, grid):
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        got = optimal_investment(pop, 0, 0.4)
        # bitwise equal to the Merton formula evaluated in floats; the
        # mathematical value is 5
        assert got == 0.1 / ((1 - 0.5) * (0.2**2 + 0.0**2))
        assert got == pytest.approx(5.0, rel=1e-15)

    def test_competition_discount(self, grid):
        # 5 - (0.5*0.2*1)/(0.5*0.04*2) = 2.5
        pop = sigma_zero_pop(grid)
        assert optimal_investment(pop, 0, 0.0) == pytest.approx(2.5, abs=1e-14)

    def test_no_common_noise_is_merton_for_everyone(self, grid):
        t1 = constant_type(grid, weight=0.3, gamma=0.5, theta=0.9, h=0.1, sigma=0.2, sigma0=0.0)
        t2 = constant_type(grid, weight=0.7, gamma=-1.0, theta=0.4, h=0.05, sigma=0.3, sigma0=0.0)
        pop = Population((t1, t2))
        sol = solve_equilibrium(pop)
        merton = pop.h_mat / ((1 - pop.gammas)[:, None] * (pop.sigma_mat**2 + pop.sigma0_mat**2))
        assert np.array_equal(sol.pi_star, merton)


class TestConsumption:
    def test_terminal_value_is_d_exact(self, grid):
        pop = make_random_population(3, grid)
        sol = solve_equilibrium(pop)
        assert np.array_equal(sol.c_star[:, -1], sol.d_coeff)

    def test_b_zero_scenario(self, grid):
        # sigma = 0 worked scenario has A = B = 0 and D = 1, so c*(0) = 1/(T+1)
        pop = sigma_zero_pop(grid)
        assert coeff_B(pop, 0, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert optimal_consumption(pop, 0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_b_scenario_matches_displayed_formula(self, grid):
        # theta = 0 Merton scenario: constant B = 0.25, D = 1
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        oracle = 1.0 / (-1.0 / 0.25 + (1.0 + 1.0 / 0.25) * math.exp(0.25))
        assert optimal_consumption(pop, 0, 0.0) == pytest.approx(oracle, abs=1e-8)

    def test_strictly_positive(self, grid):
        for seed in range(4):
            sol = solve_equilibrium(make_random_population(seed, grid))
            assert sol.c_star.min() > 0.0


class TestTildeY:
    def test_terminal_zero(self, grid):
        for seed in range(4):
            sol = solve_equilibrium(make_random_population(seed, grid))
            assert np.abs(sol.y_tilde[:, -1]).max() <= 1e-10

    def test_theta_zero_unit_alpha_reduction(self, grid):
        # with theta = 0, alpha = 1 and constant B:
        # Ytilde(t) = (1-gamma) log(e^{B(T-t)} + (e^{B(T-t)} - 1)/B)
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        b = 0.25
        for t in (0.0, 0.4, 0.85):
            tau = 1.0 - t
            oracle = 0.5 * math.log(math.exp(b * tau) + (math.exp(b * tau) - 1.0) / b)
            assert tilde_Y(pop, 0, t) == pytest.approx(oracle, abs=1e-8)

    def test_consumption_consistency_identity(self, grid):
        # c* recovered from Ytilde through the exponential map equals the
        # quadrature form at every knot
        pop = make_random_population(11, grid, n_types=2)
        sol = solve_equilibrium(pop)
        omg = (1 - pop.gammas)[:, None]
        e_theta = float(np.dot(pop.weights, pop.thetas * pop.gammas / (1 - pop.gammas)))
        e_la = float(np.dot(pop.weights, np.log(pop.alphas) / (1 - pop.gammas)))
        e_y = pop.mean(sol.y_tilde / omg)
        c_from_y = np.exp(
            np.log(pop.alphas)[:, None] / omg
            - sol.y_tilde / omg
            + (pop.thetas * pop.gammas)[:, None] * (e_y - e_la) / (omg * (1 + e_theta))
        )
        assert np.abs(c_from_y - sol.c_star).max() <= 1e-10


class TestCommonNoiseExposure:
    def test_zero_without_common_noise(self, grid):
        assert common_noise_z0(single(grid, sigma0=0.0), 0.5) == 0.0

    def test_zero_without_competition(self, grid):
        pop = single(grid, theta=0.0, sigma0=0.2)
        assert common_noise_z0(pop, 0.5) == 0.0

    def test_single_type_value(self, grid):
        # -(0.5 * 1.0) / 2
        pop = sigma_zero_pop(grid)
        assert common_noise_z0(pop, 0.0) == pytest.approx(-0.25, abs=1e-15)

    def test_per_type_variant(self, grid):
        t1 = constant_type(grid, weight=0.5, gamma=0.5, theta=1.0, h=0.1, sigma=0.1, sigma0=0.2)
        t2 = constant_type(grid, weight=0.5, gamma=-0.5, theta=0.2, h=0.1, sigma=0.2, sigma0=0.1)
        pop = Population((t1, t2))
        phi, psi = phi_psi(pop, 0.0)
        for k in range(2):
            tg = pop.thetas[k] * pop.gammas[k]
            assert common_noise_z0(pop, 0.0, k) == pytest.approx(-tg * phi / (1 + psi), rel=1e-14)


class TestConstantConsumption:
    def test_b_zero_branch(self):
        assert constant_consumption(0.0, 1.0, 1.0, 0.0) == 0.5

    def test_terminal_is_d(self):
        for b in (-0.5, 0.0, 0.7):
            assert constant_consumption(b, 1.3, 2.0, 2.0) == pytest.approx(1.3, rel=1e-14)

    def test_branch_continuity(self):
        lo = constant_consumption(1e-9, 1.0, 1.0, 0.0)
        ref = constant_consumption(0.0, 1.0, 1.0, 0.0)
        assert abs(lo - ref) / ref <= 1e-6

    @given(b=st.floats(1e-13, 1e-8), d=st.floats(0.3, 3.0), tau=st.floats(0.1, 2.0))
    def test_branch_continuity_property(self, b, d, tau):
        # crossing the branch switch must never jump by more than the
        # first-order Taylor effect of B
        hi = constant_consumption(b, d, tau, 0.0)
        ref = constant_consumption(0.0, d, tau, 0.0)
        assert abs(hi - ref) / ref <= 1e-6

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            constant_consumption(0.1, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "b, t, error, match",
        [(0.1, 1.5, ValueError, "beyond horizon"), (-701.0, 0.0, ExponentRangeError, "exponent range")],
        ids=["t-past-horizon", "b-tau-past-cap"],
    )
    def test_rejects_time_and_exponent_out_of_range(self, b, t, error, match):
        with pytest.raises(error, match=match):
            constant_consumption(b, 1.0, 1.0, t)


class TestLogUtility:
    """gamma = 0 is the log-utility game of the one kernel: on a 64-step
    grid its closed form holds exactly."""

    def test_investment(self):
        sol = solve_equilibrium(single(TimeGrid(1.0, 64), gamma=0.0, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.0))
        assert np.all(sol.pi_star == 0.1 / (0.2**2 + 0.0**2))
        assert sol.pi_star[0, 0] == pytest.approx(2.5, rel=1e-15)

    def test_consumption(self):
        grid = TimeGrid(1.0, 64)
        sol = solve_equilibrium(single(grid, gamma=0.0, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.0))
        assert sol.c_star[0, 0] == 0.5
        assert np.all(sol.c_star[0] == 1.0 / (1.0 + 1.0 * (1.0 - grid.times)))

    def test_terminal_consumption_is_alpha(self):
        sol = solve_equilibrium(single(TimeGrid(1.0, 64), gamma=0.0, alpha=0.7, h=0.1, sigma=0.2, sigma0=0.1))
        assert sol.c_star[0, -1] == 0.7

    def test_fine_grid_within_rounding(self):
        grid = TimeGrid(1.0, 2000)
        sol = solve_equilibrium(single(grid, gamma=0.0, alpha=0.7, h=0.1, sigma=0.2, sigma0=0.1))
        want = 0.7 / (1.0 + 0.7 * (1.0 - grid.times))
        assert np.all(sol.pi_star == 0.1 / (0.2**2 + 0.1**2))
        assert np.abs(sol.c_star[0] / want - 1.0).max() <= 1e-13

    def test_decouples_from_a_power_utility_type(self):
        # theta*gamma = 0 takes the aggregates out of the log type's pi*, A,
        # B and D, so its rows do not depend on the other type; pytest's
        # filterwarnings turns a RuntimeWarning in any call below into a failure
        grid = TimeGrid(1.0, 64)
        log_type = constant_type(grid, weight=0.4, gamma=0.0, theta=0.7, alpha=1.5, h=0.1, sigma=0.2, sigma0=0.1)
        power = constant_type(grid, weight=0.6, gamma=-2.0, theta=0.5, alpha=0.8, h=0.08, sigma=0.3, sigma0=0.15)
        pop = Population((log_type, power))
        sol = solve_equilibrium(pop)
        alone = solve_equilibrium(Population((log_type,)))
        assert np.array_equal(sol.pi_star[0], alone.pi_star[0])
        assert np.array_equal(sol.c_star[0], alone.c_star[0])
        agg = population_aggregates(pop)
        for k in range(2):
            assert tagged_policy_at0(agg, pop.types[k]) == (sol.pi_star[k, 0], sol.c_star[k, 0])
        assert bsde_residual(pop, sol).sup_norm <= 1e-3  # O(dt^2) differencing at 64 steps
        assert max(astuple(relation_check(pop, sol))) <= 1e-12
        assert np.abs(solve_riccati_numeric(pop) - sol.c_star).max() <= 1e-6

    @pytest.mark.parametrize("gamma, alpha", [(1.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.0, -1.0)])
    def test_tagged_agent_refuses_gamma_from_one_and_nonpositive_alpha(self, grid, gamma, alpha):
        agg = population_aggregates(single(grid))
        with pytest.raises(ValueError):
            tagged_policy_at0(agg, constant_type(grid, gamma=gamma, theta=0.5, alpha=alpha,
                                                 h=0.1, sigma=0.2, sigma0=0.1))


class TestRiccati:
    def test_pure_quadratic(self, grid):
        # sigma = 0 worked scenario: B = 0, D = 1 -> y' = y^2, y(0) = 1/2
        pop = sigma_zero_pop(grid)
        curve = solve_riccati_numeric(pop)[0]
        assert abs(curve[0] - 0.5) < 1e-8

    def test_matches_closed_form(self):
        grid = TimeGrid(1.0, 2000)
        pop = make_random_population(21, grid, n_types=2)
        sol = solve_equilibrium(pop)
        numeric = solve_riccati_numeric(pop)
        rel = np.abs(numeric - sol.c_star) / np.abs(sol.c_star)
        assert rel.max() <= 1e-7

    def test_matches_constant_coefficient_formula(self, grid):
        # theta = 0, constant coefficients: closed form is
        # constant_consumption with B = -A/(1-gamma)
        pop = single(grid, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0, gamma=0.5)
        curve = solve_riccati_numeric(pop)[0]
        want = np.array([constant_consumption(0.25, 1.0, 1.0, t) for t in grid.times])
        assert np.abs(curve - want).max() <= 1e-9


class TestThresholds:
    def test_invalid_without_competition(self, grid):
        thr = sigma0_thresholds(single(grid, theta=0.0, sigma0=0.2), 0, 0.0)
        assert not thr.valid

    def test_sigma_zero_roots(self, grid):
        # phi = psi = 1, a = 0.1 * 2 / 0.5 = 0.4 -> roots {0.8, 0}
        pop = sigma_zero_pop(grid)
        thr = sigma0_thresholds(pop, 0, 0.0)
        assert thr.valid
        assert thr.sigma0_upper == pytest.approx(0.8, abs=1e-14)
        assert thr.sigma0_lower == pytest.approx(0.0, abs=1e-14)

    def test_roots_by_backsubstitution_and_slope_sign(self, grid):
        pop = single(grid, gamma=0.5, theta=1.0, h=0.1, sigma=0.2, sigma0=0.3)
        phi, psi = phi_psi(pop, 0.0)
        thr = sigma0_thresholds(pop, 0, 0.0)
        h, s, g, th = 0.1, 0.2, 0.5, 1.0
        lead = th * g * phi

        def quadratic(x):
            return lead / (1 + psi) * x * x - 2 * h * x - lead * s * s / (1 + psi)

        def pi_of_sigma0(x):
            den = (1 - g) * (s * s + x * x)
            return h / den - th * g * x * phi / (den * (1 + psi))

        for root in (thr.sigma0_upper, thr.sigma0_lower):
            assert abs(quadratic(root)) <= 1e-9
            eps = 1e-3
            slope_lo = (pi_of_sigma0(root) - pi_of_sigma0(root - eps)) / eps
            slope_hi = (pi_of_sigma0(root + eps) - pi_of_sigma0(root)) / eps
            assert slope_lo * slope_hi < 0


class TestTaggedAgent:
    def test_individual_h_slope_is_merton_sensitivity(self, grid):
        # aggregates fixed: pi* is linear in own h with slope 1/((1-g)(s^2+s0^2))
        for seed in range(10):
            pop = make_random_population(seed, grid, n_types=1)
            agg = population_aggregates(pop)
            tp = pop.types[0]
            h0 = float(tp.h(0.0))
            eps = 1e-4
            from dataclasses import replace
            from mfgconsume import GridCurve

            up = replace(tp, h=GridCurve.constant(grid, h0 + eps))
            dn = replace(tp, h=GridCurve.constant(grid, h0 - eps))
            slope = (tagged_policy_at0(agg, up)[0] - tagged_policy_at0(agg, dn)[0]) / (2 * eps)
            want = 1.0 / ((1 - tp.gamma) * (tp.sigma(0.0) ** 2 + tp.sigma0(0.0) ** 2))
            assert slope > 0
            assert abs(slope - want) / want <= 1e-6

    def test_population_h_sign_opposite_gamma(self, grid):
        for gamma, expected_sign in ((0.5, -1.0), (-1.0, 1.0)):
            tp = constant_type(grid, gamma=gamma, theta=0.8, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.15)
            pop = Population((tp,))
            probe = pop.types[0]
            pis = []
            for h in (0.1, 0.12):
                shifted = Population(
                    (constant_type(grid, gamma=gamma, theta=0.8, alpha=1.0, h=h, sigma=0.2, sigma0=0.15),)
                )
                pis.append(tagged_policy_at0(population_aggregates(shifted), probe)[0])
            assert (pis[1] - pis[0]) * expected_sign > 0


class TestGuards:
    def test_singular_aggregate_guard(self):
        # per-type contributions to psi exceed -1 strictly, so no valid
        # population can trip this; the guard still protects direct callers
        from mfgconsume.closedform import _check_one_plus

        with pytest.raises(SingularAggregateError):
            _check_one_plus(np.array([-1.0]), "psi")
        with pytest.raises(SingularAggregateError):
            _check_one_plus(-1.0 + 1e-13, "psi")
        _check_one_plus(np.array([0.1, 0.2]), "psi")

    def test_one_plus_psi_positive_on_random_populations(self, grid):
        for seed in range(8):
            sol = solve_equilibrium(make_random_population(seed, grid))
            assert (1.0 + sol.psi).min() > 0.0


class TestOneKernel:
    """The scalar API, the tagged agent and the solve share one coefficient
    kernel, so they agree wherever they evaluate the same inputs."""

    def test_tagged_agent_reproduces_the_solve_exactly(self, grid):
        for seed in range(10):
            pop = make_random_population(seed, grid, n_types=4)
            sol = solve_equilibrium(pop)
            agg = population_aggregates(pop)
            for k in range(pop.n_types):
                assert tagged_policy_at0(agg, pop.types[k]) == (sol.pi_star[k, 0], sol.c_star[k, 0])

    @pytest.mark.parametrize("n_types", [1, 4, 32])
    def test_scalar_api_matches_solve_at_knots(self, grid, n_types):
        # one type: bit-identical. Several types: BLAS sums the weighted
        # means of one column in another order than those of all knots at
        # once, which moves the aggregates by a few ulps
        def same(got, want):
            if n_types == 1:
                return got == want
            return abs(got - want) <= 1e-13 * abs(want) + 1e-16

        pop = make_random_population(3, grid, n_types=n_types)
        sol = solve_equilibrium(pop)
        n = grid.n_steps
        for i in (0, n // 2, n):
            t = grid.times[i]
            s = sol.phi[i] / (1.0 + sol.psi[i])
            for k in range(n_types):
                tg = pop.thetas[k] * pop.gammas[k]
                assert same(coeff_A(pop, k, t), sol.a_coeff[k, i])
                assert same(coeff_B(pop, k, t), sol.b_coeff[k, i])
                assert same(optimal_investment(pop, k, t), sol.pi_star[k, i])
                assert same(common_noise_z0(pop, t, k), -tg * s)
                assert coeff_D(pop, k) == sol.d_coeff[k]
                assert optimal_consumption(pop, k, t) == sol.c_star[k, i]
                assert tilde_Y(pop, k, t) == sol.y_tilde[k, i]
            assert same(common_noise_z0(pop, t), sol.z0_common[i])

    def test_scalar_coeff_b_is_linear_in_types(self):
        # one kernel call on the interpolated column: O(K), not O(K^2)
        import time

        pop = make_random_population(5, TimeGrid(1.0, 2000), n_types=500)
        start = time.perf_counter()
        coeff_B(pop, 499, 0.3)
        assert time.perf_counter() - start < 1.0


EPS = np.finfo(float).eps


def within_ulps(got, want, ulps):
    """|got - want| at most ``ulps`` machine epsilons times the largest
    |want| of its row."""
    return bool(np.all(np.abs(got - want) <= ulps * EPS * np.abs(want).max(axis=-1, keepdims=True)))


class TestMetamorphic:
    """The equilibrium depends on the population only through its type
    distribution, and no control depends on wealth. Tolerances are in ulps
    of each row's largest magnitude: y_tilde has entries at or near 0, where
    a per-entry relative error says nothing. Beside each, the worst case
    over seeds 0-4999 at 200 steps; per entry, the split's worst is 2.7e-15
    relative."""

    ROWS = ("pi_star", "c_star", "y_tilde")

    @given(seed=st.integers(0, 2**32 - 1))
    def test_splitting_a_type_into_two_half_weight_copies_keeps_every_row(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        j, types = seed % pop.n_types, pop.types
        half = dataclasses.replace(types[j], weight=types[j].weight / 2)
        split = solve_equilibrium(Population((*types[:j], half, half, *types[j + 1 :])))
        sol = solve_equilibrium(pop)
        rows = [*range(j + 1), j, *range(j + 1, pop.n_types)]  # type j's rows twice
        for name in self.ROWS:
            assert within_ulps(getattr(split, name), getattr(sol, name)[rows], 8)  # worst 3.2 ulps

    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_the_types_permutes_their_rows(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        perm = np.random.default_rng(seed).permutation(pop.n_types)
        permuted = solve_equilibrium(Population(tuple(pop.types[i] for i in perm)))
        sol = solve_equilibrium(pop)
        for name in self.ROWS:
            assert within_ulps(getattr(permuted, name), getattr(sol, name)[perm], 8)  # worst 4.3 ulps

    @given(seed=st.integers(0, 2**32 - 1))
    def test_scaling_every_x0_keeps_the_controls_and_scales_the_value(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        scaled = Population(tuple(dataclasses.replace(tp, x0=3.7 * tp.x0) for tp in pop.types))
        sol, sol_scaled = solve_equilibrium(pop), solve_equilibrium(scaled)
        assert np.array_equal(sol_scaled.pi_star, sol.pi_star)
        assert np.array_equal(sol_scaled.c_star, sol.c_star)
        for k, tp in enumerate(pop.types):
            want = value_function(pop, k, sol) * 3.7 ** (tp.gamma * (1.0 - tp.theta))
            assert abs(value_function(scaled, k, sol_scaled) - want) <= 8 * EPS * abs(want)  # worst 3.1 ulps

    # the same three for the Euler scheme's exact expected utility J of every
    # type at its equilibrium controls, to 8 ulps of each J; the worst cases
    # over seeds 0-299 were 1.0 (split), 1.7 (permute) and 2.5 (x0 scale) ulps

    @staticmethod
    def exact_js(pop):
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        return np.array([exact_utility(tp, equilibrium_strategy(sol, k), flow) for k, tp in enumerate(pop.types)])

    @given(seed=st.integers(0, 2**32 - 1))
    def test_splitting_a_type_into_two_half_weight_copies_keeps_every_exact_utility(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        j, types = seed % pop.n_types, pop.types
        half = dataclasses.replace(types[j], weight=types[j].weight / 2)
        split = self.exact_js(Population((*types[:j], half, half, *types[j + 1 :])))
        want = self.exact_js(pop)[[*range(j + 1), j, *range(j + 1, pop.n_types)]]
        assert np.all(np.abs(split - want) <= 8 * EPS * np.abs(want))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_the_types_permutes_their_exact_utilities(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        perm = np.random.default_rng(seed).permutation(pop.n_types)
        permuted = self.exact_js(Population(tuple(pop.types[i] for i in perm)))
        want = self.exact_js(pop)[perm]
        assert np.all(np.abs(permuted - want) <= 8 * EPS * np.abs(want))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_scaling_every_x0_scales_each_exact_utility(self, seed):
        pop = make_random_population(seed, TimeGrid(1.0, 200))
        scaled = self.exact_js(Population(tuple(dataclasses.replace(tp, x0=3.7 * tp.x0) for tp in pop.types)))
        want = self.exact_js(pop) * np.array([3.7 ** (tp.gamma * (1.0 - tp.theta)) for tp in pop.types])
        assert np.all(np.abs(scaled - want) <= 8 * EPS * np.abs(want))
