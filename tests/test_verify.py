import math
from pathlib import Path

import numpy as np
import pytest

from mfgconsume import (
    FlowModel,
    MopState,
    Population,
    TimeGrid,
    bsde_driver,
    bsde_residual,
    coeff_A,
    constant_type,
    drift_check,
    eval_J,
    mop_drift,
    keyed_stream,
    mop_maximizer,
    relation_check,
    solve_equilibrium,
    value_function,
)
from mfgconsume.cli import load_config
from mfgconsume.closedform import EquilibriumSolution
from mfgconsume.errors import ExponentRangeError
from mfgconsume.verify import _exp_terms, _j_at_zero

from conftest import make_random_population

REFERENCE = Path(__file__).resolve().parents[1] / "demos" / "configs" / "reference.json"


def single(grid, **kw):
    base = dict(gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.1)
    base.update(kw)
    return Population((constant_type(grid, **base),))


@pytest.fixture
def grid():
    return TimeGrid(1.0, 400)


class TestEvalJ:
    def test_no_competition_collapse(self, grid):
        # theta = 0 at zero loadings leaves only the own quadratic group:
        # gamma h^2 / (2 (1-gamma) (sigma^2+sigma0^2))
        h, s, s0, g = 0.1, 0.2, 0.1, 0.5
        pop = single(grid, theta=0.0, h=h, sigma=s, sigma0=s0, gamma=g)
        oracle = g * h * h / (2 * (1 - g) * (s * s + s0 * s0))
        assert eval_J(pop, 0, 0.3, 0.0, 0.0) == pytest.approx(oracle, rel=1e-14)

    def test_vanishes_without_return_or_loadings(self, grid):
        pop = single(grid, h=0.0)
        assert eval_J(pop, 0, 0.5, 0.0, 0.0) == 0.0

    def test_negates_drift_coefficient(self, grid):
        # the central identity: J at zero loadings equals -A, every type,
        # every sampled time, for random heterogeneous populations
        for seed in range(6):
            pop = make_random_population(seed, grid)
            for t in (0.0, 0.37, 1.0):
                for k in range(pop.n_types):
                    a = coeff_A(pop, k, t)
                    j = eval_J(pop, k, t, 0.0, 0.0)
                    assert abs(j + a) <= 1e-9 * max(1.0, abs(a))

    def test_vectorised_matches_scalar(self, grid):
        pop = make_random_population(9, grid, n_types=3)
        j0 = _j_at_zero(pop)
        for i in (0, 123, 400):
            t = grid.times[i]
            for k in range(pop.n_types):
                assert j0[k, i] == pytest.approx(eval_J(pop, k, t, 0.0, 0.0), rel=1e-13, abs=1e-15)

    def test_nonzero_loadings_enter_quadratically(self, grid):
        # the loading-dependence of J at theta = 0 reduces to
        # z^2/2 + z0^2/2 + gamma (h + s z + s0 z0)^2 / (2 (1-g) st2)
        h, s, s0, g = 0.1, 0.2, 0.1, 0.5
        pop = single(grid, theta=0.0, h=h, sigma=s, sigma0=s0, gamma=g)
        z, z0 = 0.3, -0.2
        st2 = s * s + s0 * s0
        oracle = z * z / 2 + z0 * z0 / 2 + g * (h + s * z + s0 * z0) ** 2 / (2 * (1 - g) * st2)
        assert eval_J(pop, 0, 0.5, z, z0) == pytest.approx(oracle, rel=1e-14)


class TestDriver:
    def test_exponential_term_is_consumption_at_equilibrium(self, grid):
        pop = make_random_population(4, grid, n_types=2)
        sol = solve_equilibrium(pop)
        terms = _exp_terms(pop, sol.y_tilde)
        assert np.abs(terms - sol.c_star).max() <= 1e-10

    def test_merton_unit_alpha_value(self, grid):
        # theta = 0, alpha = 1, y = 0, zero loadings:
        # driver = gamma h^2/(2(1-gamma) st2) + (1-gamma)
        h, s, s0, g = 0.1, 0.2, 0.1, 0.5
        pop = single(grid, theta=0.0, alpha=1.0, h=h, sigma=s, sigma0=s0, gamma=g)
        oracle = g * h * h / (2 * (1 - g) * (s * s + s0 * s0)) + (1 - g)
        assert bsde_driver(pop, 0, 0.5, np.zeros(1)) == pytest.approx(oracle, rel=1e-14)

    def test_driver_equals_negative_y_slope_at_equilibrium(self, grid):
        pop = make_random_population(2, grid, n_types=2)
        sol = solve_equilibrium(pop)
        i = 200
        t = grid.times[i]
        dt = grid.dt
        for k in range(pop.n_types):
            slope = (sol.y_tilde[k, i + 1] - sol.y_tilde[k, i - 1]) / (2 * dt)
            drv = bsde_driver(pop, k, t, sol.y_tilde[:, i])
            assert abs(slope + drv) <= 1e-5

    def test_explicit_population_consumption_term(self, grid):
        pop = make_random_population(4, grid, n_types=2)
        sol = solve_equilibrium(pop)
        y = sol.y_tilde[:, 100]
        a = bsde_driver(pop, 0, grid.times[100], y)
        b = bsde_driver(pop, 0, grid.times[100], y, c_population=sol.c_star[:, 100])
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_wrong_shape(self, grid):
        pop = make_random_population(4, grid, n_types=2)
        with pytest.raises(ValueError):
            bsde_driver(pop, 0, 0.0, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            bsde_driver(pop, 0, 0.0, np.array([0.0, np.nan]))


class TestResidual:
    def test_reference_scenario_budget(self):
        grid = TimeGrid(1.0, 2000)
        pop = single(grid)
        sol = solve_equilibrium(pop)
        rep = bsde_residual(pop, sol)
        assert rep.sup_norm <= 1e-4

    def test_quadratic_convergence(self):
        sups = []
        for n in (500, 2000):
            grid = TimeGrid(1.0, n)
            pop = make_random_population(13, grid, n_types=2)
            sol = solve_equilibrium(pop)
            sups.append(bsde_residual(pop, sol).sup_norm)
        assert sups[0] / sups[1] >= 3.0

    def test_perturbed_solution_detected(self, grid):
        pop = single(grid)
        sol = solve_equilibrium(pop)
        rep = bsde_residual(pop, sol, y_tilde=sol.y_tilde + 0.1)
        assert rep.sup_norm >= 0.01
        with pytest.raises(ExponentRangeError, match="driver exponent"):
            bsde_residual(pop, sol, y_tilde=sol.y_tilde + 1e6)

    def test_no_competition_constant_coefficients(self):
        grid = TimeGrid(1.0, 1000)
        pop = single(grid, theta=0.0, sigma0=0.0)
        sol = solve_equilibrium(pop)
        assert bsde_residual(pop, sol).sup_norm <= 1e-6


def equilibrium_states(pop, sol, seed=0):
    """States along a sampled common-noise path at a few knots, with the
    matching equilibrium controls."""
    rng = keyed_stream(seed, 99)
    w0 = rng.normal(0.0, np.sqrt(pop.grid.dt), pop.grid.n_steps)
    flow = FlowModel(pop, sol)
    mu_hat = flow.mu_batch(w0[None])[0]
    nu_hat = flow.e_logc + mu_hat
    omg = 1.0 - pop.gammas
    out = []
    for i in (0, pop.grid.n_steps // 2, pop.grid.n_steps - 1):
        t = pop.grid.times[i]
        mu = mu_hat[i]
        nu = nu_hat[i]
        for k, tp in enumerate(pop.types):
            y = sol.y_tilde[k, i] - tp.theta * tp.gamma * mu
            state = MopState(
                Y=y, nu_hat=nu, h=tp.h(t), sigma=tp.sigma(t), sigma0=tp.sigma0(t),
                gamma=tp.gamma, theta=tp.theta, alpha=tp.alpha,
                Z=0.0, Z0=-tp.theta * tp.gamma * sol.phi[i] / (1.0 + sol.psi[i]),
            )
            out.append((state, sol.pi_star[k, i], sol.c_star[k, i]))
    return out


class TestMopDrift:
    def test_zero_at_equilibrium(self, grid):
        for seed in (0, 5):
            pop = make_random_population(seed, grid, n_types=2)
            sol = solve_equilibrium(pop)
            for state, pi, c in equilibrium_states(pop, sol, seed):
                assert abs(mop_drift(state, pi, c)) <= 1e-11

    def test_negative_away_from_equilibrium(self, grid):
        pop = make_random_population(1, grid, n_types=2)
        sol = solve_equilibrium(pop)
        for state, pi, c in equilibrium_states(pop, sol):
            assert mop_drift(state, pi + 0.4, c) < 0
            assert mop_drift(state, pi, c * 1.5) < 0
            assert mop_drift(state, pi - 1.0, c * 0.5) < 0

    @pytest.mark.parametrize("regime", ["positive", "negative"])
    def test_randomised_sign(self, regime):
        worst, worst_opt = drift_check(2024, 2000, regime)
        assert worst <= 1e-12
        assert worst_opt <= 1e-10

    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_drift_check_rejects_counts_below_one(self, n_draws):
        # no draw would pass both bounds vacuously: max -inf, max |.| 0
        with pytest.raises(ValueError, match="need n_draws >= 1"):
            drift_check(2024, n_draws)

    def test_drift_check_rejects_an_unknown_regime(self):
        with pytest.raises(ValueError, match="regime must be"):
            drift_check(2024, 10, "zero")

    @pytest.mark.parametrize("gamma", [0.4, -1.2])
    def test_maximiser_first_order_condition(self, gamma):
        state = MopState(Y=0.3, nu_hat=-0.2, h=0.1, sigma=0.25, sigma0=0.1,
                         gamma=gamma, theta=0.6, alpha=1.1, Z=0.05, Z0=-0.1)
        pi_opt, c_opt = mop_maximizer(state)
        # K^{1/(1-gamma)} zeroes the consumption group in both regimes
        k = state.alpha * math.exp(-state.Y - state.theta * gamma * state.nu_hat)
        assert c_opt == pytest.approx(k ** (1.0 / (1.0 - gamma)), rel=1e-14)
        assert abs(mop_drift(state, pi_opt, c_opt)) <= 1e-13
        eps = 1e-5
        fd = (mop_drift(state, pi_opt, c_opt + eps) - mop_drift(state, pi_opt, c_opt - eps)) / (2 * eps)
        assert abs(fd) <= 1e-6

    def test_rejects_nonpositive_consumption(self):
        state = MopState(Y=0.0, nu_hat=0.0, h=0.1, sigma=0.2, sigma0=0.0,
                         gamma=0.5, theta=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            mop_drift(state, 1.0, 0.0)


class TestMopDriftArrays:
    """On arrays of states the bracket and its maximiser are the scalar ones,
    element by element."""

    @staticmethod
    def random_states(seed, n=500):
        rng = np.random.default_rng(seed)
        gamma = np.where(rng.random(n) < 0.5, rng.uniform(0.1, 0.9, n), rng.uniform(-3.0, -0.1, n))
        fields = dict(
            Y=rng.uniform(-1.0, 1.0, n), nu_hat=rng.uniform(-1.0, 1.0, n), h=rng.uniform(-0.2, 0.5, n),
            sigma=rng.uniform(0.05, 0.6, n), sigma0=rng.uniform(0.0, 0.5, n), gamma=gamma,
            theta=rng.uniform(0.0, 1.0, n), alpha=rng.uniform(0.3, 3.0, n),
            Z=rng.uniform(-1.0, 1.0, n), Z0=rng.uniform(-1.0, 1.0, n),
        )
        return fields, rng.uniform(-10.0, 10.0, n), rng.uniform(1e-3, 10.0, n)

    def test_matches_scalar_calls(self):
        fields, pi, c = self.random_states(11)
        state = MopState(**fields)
        drift = mop_drift(state, pi, c)
        pi_opt, c_opt = mop_maximizer(state)
        at_opt = mop_drift(state, pi_opt, c_opt)
        assert all(isinstance(a, np.ndarray) and a.shape == pi.shape for a in (drift, pi_opt, c_opt, at_opt))
        want = []
        for i in range(pi.size):
            one = MopState(**{k: float(v[i]) for k, v in fields.items()})
            p1, c1 = mop_maximizer(one)
            want.append((mop_drift(one, float(pi[i]), float(c[i])), p1, c1, mop_drift(one, p1, c1)))
        for got, scalar in zip((drift, pi_opt, c_opt, at_opt), zip(*want)):
            assert all(isinstance(x, float) for x in scalar)
            np.testing.assert_allclose(got, scalar, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("regime, gamma_range", [("positive", (0.1, 0.7)), ("negative", (-2.0, -0.1))])
    def test_drift_check_equals_per_draw_loop(self, regime, gamma_range):
        # reference: one scalar state and control per draw, drawn field by field
        rng = np.random.default_rng(7)
        worst, worst_opt = -np.inf, 0.0
        for g in rng.uniform(*gamma_range, 1000):
            state = MopState(
                Y=rng.uniform(-1.0, 1.0), nu_hat=rng.uniform(-1.0, 1.0), h=rng.uniform(0.0, 0.4),
                sigma=rng.uniform(0.1, 0.6), sigma0=rng.uniform(0.0, 0.5), gamma=float(g),
                theta=rng.uniform(0.0, 1.0), alpha=rng.uniform(0.5, 2.0),
                Z=rng.uniform(-1.0, 1.0), Z0=rng.uniform(-1.0, 1.0),
            )
            worst = max(worst, mop_drift(state, rng.uniform(-10, 10), rng.uniform(1e-3, 10)))
            worst_opt = max(worst_opt, abs(mop_drift(state, *mop_maximizer(state))))
        assert drift_check(7, 1000, regime) == (worst, worst_opt)

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_rejects_nonpositive_consumption_inside_array(self, bad):
        fields, pi, c = self.random_states(12, n=50)
        c[17] = bad
        with pytest.raises(ValueError, match="must be positive"):
            mop_drift(MopState(**fields), pi, c)


# frozen from the first build of this suite (grid 400, gamma 0.5, theta 0.5,
# alpha = e^0.3, h = 0.1, sigma = 0.2, sigma0 = 0.1)
REGRESSION_V_ALPHA_SHIFT = 4.192793317325947


class TestValueFunction:
    def test_trivial_value(self, grid):
        # gamma = 0.5, x0 = 1, theta = 0, Ytilde_0 = 0 -> V = 2
        pop = single(grid, theta=0.0)
        sol = solve_equilibrium(pop)
        zero_y = EquilibriumSolution(
            grid=grid, pi_star=sol.pi_star, c_star=sol.c_star,
            y_tilde=np.zeros_like(sol.y_tilde), a_coeff=sol.a_coeff,
            b_coeff=sol.b_coeff, d_coeff=sol.d_coeff, phi=sol.phi, psi=sol.psi,
            z0_common=sol.z0_common,
        )
        assert value_function(pop, 0, zero_y) == 2.0

    def test_wealth_scaling(self, grid):
        # theta = 0: replacing x0 by lam*x0 multiplies V by lam^gamma
        lam = 1.7
        p1 = single(grid, theta=0.0, x0=1.0)
        p2 = single(grid, theta=0.0, x0=lam)
        v1 = value_function(p1, 0, solve_equilibrium(p1))
        v2 = value_function(p2, 0, solve_equilibrium(p2))
        assert v2 / v1 == pytest.approx(lam**0.5, rel=1e-12)

    def test_log_alpha_shift_regression(self, grid):
        # value responds to a uniform log(alpha) shift only through the
        # documented coefficient recomputation; pinned by a frozen run
        pop = single(grid, alpha=math.exp(0.3))
        got = value_function(pop, 0, solve_equilibrium(pop))
        assert got == pytest.approx(REGRESSION_V_ALPHA_SHIFT, rel=1e-12)


class TestRelations:
    def test_identities_tight(self, grid):
        for seed in (3, 8):
            pop = make_random_population(seed, grid)
            sol = solve_equilibrium(pop)
            rep = relation_check(pop, sol)
            assert rep.max_err_investment <= 1e-12
            assert rep.max_err_nu_hat <= 1e-8
            assert rep.max_err_z0 <= 1e-12

    @pytest.mark.parametrize("case", ["reference", 0, 1, 2, 3, 4])
    def test_consumption_relation_is_path_free(self, case):
        # mu_hat enters both sides of relation (ii) alike, so the check
        # compares E[log c*] with the path-free aggregate of the backward
        # components, at rounding level
        if case == "reference":
            pop = load_config(REFERENCE).population
        else:
            pop = make_random_population(case, TimeGrid(1.0, 200), n_types=3)
        sol = solve_equilibrium(pop)
        omg = 1.0 - pop.gammas
        rhs = pop.mean((np.log(pop.alphas)[:, None] - sol.y_tilde) / omg[:, None])
        rhs /= 1.0 + pop.mean(pop.thetas * pop.gammas / omg)
        free = np.abs(rhs - pop.mean(np.log(sol.c_star))).max()
        err = relation_check(pop, sol).max_err_nu_hat
        assert err <= 1e-15 and abs(err - free) <= 1e-15
