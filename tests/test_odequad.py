import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfgconsume import (
    AgentType,
    GridCurve,
    IntegrationBlowUpError,
    Population,
    TimeGrid,
    coeff_B,
    coeff_D,
    constant_consumption,
    solve_riccati_numeric,
)
from mfgconsume.closedform import _integral_to_end as cumtrapz_right
from mfgconsume.closedform import _riccati_sweep as riccati_sweep
from mfgconsume.grid import running_sum, step_means


def cumtrapz_left(values, dt):
    # the running integral from 0, as _integral_to_end takes it
    return running_sum(0.0, step_means(values) * dt)


def one_type(grid, gamma=0.5, theta=0.5, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.1):
    c = lambda v: GridCurve.constant(grid, v)
    return Population((AgentType(1.0, 1.0, gamma, theta, alpha, c(h), c(sigma), c(sigma0)),))


class TestRk4:
    def test_zero_dynamics_constant(self):
        # y = 0 is a fixed point of y' = B y + y^2 whatever B is
        b = np.random.default_rng(3).normal(0, 2, (1, 51))
        out = riccati_sweep(b, np.array([0.0]), 1.0 / 50)
        assert np.all(out == 0.0)

    def test_quadratic_growth(self):
        # B = 0: y' = y^2 from y(0.5) = 2 is 1/(1-t); value 1 at t = 0
        out = riccati_sweep(np.zeros((1, 501)), np.array([2.0]), 0.5 / 500)
        assert abs(out[0, 0] - 1.0) < 1e-8

    def test_backward_exponential(self):
        # constant B: the sweep meets the e^{B (T-t)} closed form at every knot
        grid = TimeGrid(1.0, 1000)
        out = riccati_sweep(np.ones((1, 1001)), np.array([math.e]), grid.dt)
        want = [constant_consumption(1.0, math.e, 1.0, t) for t in grid.times]
        assert np.max(np.abs(out[0] - want)) < 1e-10

    def test_convergence_order(self):
        # theta = 0 with constant curves: B and D are constants of the type
        pop = one_type(TimeGrid(1.0, 10), theta=0.0, alpha=2.0)
        b, d = coeff_B(pop, 0, 0.0), coeff_D(pop, 0)
        want = constant_consumption(b, d, 1.0, 0.0)
        errs = []
        for n in (40, 80, 160):
            out = riccati_sweep(np.full((1, n + 1), b), np.array([d]), 1.0 / n)
            errs.append(abs(out[0, 0] - want))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

    def test_long_horizon_stays_finite(self):
        # a long horizon that the quadrature form of c* handles: at dt = 31.25
        # an RK4 step on y overflows, one on u = log y stays in range
        out = solve_riccati_numeric(one_type(TimeGrid(2000.0, 64)))
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)

    def test_nan_state_reported(self):
        # a NaN in B at knot 30 spoils the steps that read it, the first being 31 -> 30
        b = np.ones((2, 51))
        b[1, 30] = math.nan
        with pytest.raises(IntegrationBlowUpError) as exc:
            riccati_sweep(b, np.array([1.0, 1.0]), 1.0 / 50)
        assert (exc.value.knot_index, exc.value.t) == (30, 30 / 50)

    def test_vector_state(self):
        rng = np.random.default_rng(11)
        b = rng.normal(0, 1, (2, 401))
        d = np.array([0.5, 2.0])
        out = riccati_sweep(b, d, 1.0 / 400)
        assert out.shape == (2, 401)
        for k in range(2):
            assert np.array_equal(out[k], riccati_sweep(b[k:k + 1], d[k:k + 1], 1.0 / 400)[0])


class TestTrapezoid:
    def test_zero_curve(self):
        assert np.all(cumtrapz_right(np.zeros(21), 1.0 / 20) == 0.0)

    def test_constant_right_anchor(self):
        grid = TimeGrid(2.0, 100)
        got = cumtrapz_right(np.full(101, 3.0), grid.dt)
        want = 3.0 * (grid.T - grid.times)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_linear_integrand(self):
        grid = TimeGrid(1.0, 1000)
        got = cumtrapz_right(grid.times, grid.dt)[0]
        assert abs(got - 0.5) < 1e-9

    def test_left_anchor(self):
        grid = TimeGrid(1.0, 1000)
        got = cumtrapz_left(grid.times, grid.dt)[-1]
        assert abs(got - 0.5) < 1e-9

    def test_convergence_order(self):
        errs = []
        for n in (50, 100, 200):
            grid = TimeGrid(1.0, n)
            got = cumtrapz_left(np.sin(grid.times), grid.dt)[-1]
            errs.append(abs(got - (1.0 - math.cos(1.0))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_anchor_flip_identity(self):
        f = np.random.default_rng(5).normal(0, 2, 334)
        left = cumtrapz_left(f, 1.0 / 333)
        right = cumtrapz_right(f, 1.0 / 333)
        total = left[-1]
        assert np.max(np.abs(left + right - total)) <= 1e-12

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=40))
    def test_anchor_flip_identity_property(self, vals):
        f = np.array(vals)
        left = cumtrapz_left(f, 1.0 / (len(vals) - 1))
        right = cumtrapz_right(f, 1.0 / (len(vals) - 1))
        assert np.max(np.abs(left + right - left[-1])) <= 1e-12
