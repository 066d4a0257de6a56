import dataclasses

import numpy as np
import pytest
from conftest import sample_agents

from mfgconsume import (
    GridCurve,
    Population,
    StructuralError,
    TimeGrid,
    coeff_B,
    constant_type,
    keyed_stream,
    optimal_consumption,
    validate,
)


def single(grid, **kw):
    base = dict(gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.0)
    base.update(kw)
    return Population((constant_type(grid, **base),))


class TestCurves:
    def test_knot_reproduction_exact(self):
        grid = TimeGrid(2.0, 37)
        vals = np.sin(np.arange(38) * 0.7) + 2.0
        c = GridCurve(grid, vals)
        for i in (0, 5, 17, 37):
            assert c(grid.times[i]) == vals[i]

    def test_linear_interpolation(self):
        grid = TimeGrid(1.0, 4)
        c = GridCurve(grid, [0.0, 1.0, 0.0, 1.0, 0.0])
        assert c(0.125) == pytest.approx(0.5, abs=1e-15)

    def test_domain_error(self):
        c = GridCurve.constant(TimeGrid(1.0, 10), 1.0)
        with pytest.raises(ValueError):
            c(-0.01)
        with pytest.raises(ValueError):
            c(1.01)

    def test_interp_rows_is_the_per_row_curve_bit_for_bit(self):
        grid = TimeGrid(2.5, 37)
        rows = np.random.default_rng(4).normal(size=(6, 38))
        slack = 1e-13
        ts = [*grid.times, -slack, grid.T + slack, *np.random.default_rng(5).uniform(0.0, grid.T, 200)]
        for t in ts:
            want = [GridCurve(grid, r)(t) for r in rows]
            assert np.array_equal(grid.interp_rows(rows, t), want)
        with pytest.raises(ValueError):
            grid.interp_rows(rows, grid.T + 0.01)

    def test_nan_rejected(self):
        grid = TimeGrid(1.0, 3)
        with pytest.raises(StructuralError):
            GridCurve(grid, [0.0, np.nan, 0.0, 0.0])

    def test_ragged_rejected(self):
        grid = TimeGrid(1.0, 3)
        with pytest.raises(StructuralError):
            GridCurve(grid, [0.0, 1.0])
        with pytest.raises(StructuralError, match="1-D"):
            GridCurve(grid, np.zeros((2, 4)))

    @pytest.mark.parametrize("n_steps", [2.5, True, "4", np.int64(4)], ids=["float", "bool", "str", "int64"])
    def test_step_count_must_be_an_integer(self, n_steps):
        if isinstance(n_steps, np.integer):
            grid = TimeGrid(1.0, n_steps)
            assert grid.n_steps == 4 and type(grid.n_steps) is int
            assert grid == TimeGrid(1.0, 4)
        else:
            with pytest.raises(StructuralError, match="integer"):
                TimeGrid(1.0, n_steps)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", ["curve", "coeff_B", "optimal_consumption"])
    def test_non_finite_time_is_a_domain_error(self, t, call):
        grid = TimeGrid(1.0, 16)
        pop = single(grid)
        calls = {
            "curve": lambda: GridCurve.constant(grid, 1.0)(t),
            "coeff_B": lambda: coeff_B(pop, 0, t),
            "optimal_consumption": lambda: optimal_consumption(pop, 0, t),
        }
        with pytest.raises(ValueError, match="outside"):
            calls[call]()

    def test_values_read_only(self):
        c = GridCurve.constant(TimeGrid(1.0, 5), 2.0)
        with pytest.raises(ValueError):
            c.values[0] = 3.0


class TestAgentType:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["weight", "x0", "gamma", "theta", "alpha"])
    def test_non_finite_scalar_is_structural(self, grid200, field, value):
        base = dict(gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.0)
        with pytest.raises(StructuralError, match=f"agent field {field} is not finite"):
            constant_type(grid200, **{**base, field: value})


class TestValidate:
    def test_ok(self, grid200):
        pop = single(grid200, gamma=0.5, theta=0.5, alpha=1.0, x0=1.0, h=0.1, sigma=0.2, sigma0=0.0)
        assert validate(pop).ok
        assert pop.T == grid200.T == 1.0

    def test_gamma_zero_excluded(self, grid200):
        pop = single(grid200, gamma=0.0)
        rep = validate(pop)
        assert not rep.ok
        assert any(v.rule == "gamma_nonzero" and v.type_index == 0 for v in rep.violations)

    def test_vanishing_volatility(self, grid200):
        pop = single(grid200, sigma=0.0, sigma0=0.0)
        rep = validate(pop)
        assert not rep.ok
        assert any(v.rule == "volatility_lower_bound" for v in rep.violations)

    def test_weights_must_sum_to_one(self, grid200):
        t1 = constant_type(grid200, weight=0.5, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        t2 = constant_type(grid200, weight=0.4, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        rep = validate(Population((t1, t2)))
        assert any(v.rule == "weights_sum_to_one" for v in rep.violations)

    def test_gamma_above_one(self, grid200):
        rep = validate(single(grid200, gamma=1.5))
        assert any(v.rule == "gamma_below_one" for v in rep.violations)

    def test_mismatched_grids_structural(self, grid200):
        other = TimeGrid(1.0, 100)
        t1 = constant_type(grid200, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        t2 = constant_type(other, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        with pytest.raises(StructuralError):
            Population((t1, t2))
        with pytest.raises(StructuralError, match="share one time grid"):
            dataclasses.replace(t1, sigma0=t2.sigma0)

    def test_empty_population_structural(self):
        with pytest.raises(StructuralError, match="at least one type"):
            Population(())

    def test_report_describe(self, grid200):
        assert validate(single(grid200)).describe() == "ok"
        assert "gamma_nonzero" in validate(single(grid200, gamma=0.0)).describe()


class TestSampleAgents:
    def test_single_type(self, grid200):
        pop = single(grid200)
        idx = sample_agents(pop, 5, np.random.default_rng(0))
        assert list(idx) == [0, 0, 0, 0, 0]

    def test_zero_mass_type_never_drawn(self, grid200):
        t1 = constant_type(grid200, weight=1.0, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        t2 = constant_type(grid200, weight=0.0, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        pop = Population((t1, t2))
        idx = sample_agents(pop, 3, np.random.default_rng(0))
        assert list(idx) == [0, 0, 0]

    def test_empirical_frequency(self, grid200):
        t1 = constant_type(grid200, weight=0.5, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        t2 = constant_type(grid200, weight=0.5, gamma=-1.0, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0)
        pop = Population((t1, t2))
        n = 100_000
        idx = sample_agents(pop, n, keyed_stream(123, 0))
        freq = np.mean(idx == 0)
        # binomial standard error of the frequency estimate
        assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / n)

    def test_zero_samples_rejected(self, grid200):
        with pytest.raises(ValueError):
            sample_agents(single(grid200), 0, np.random.default_rng(0))

    def test_deterministic_given_seed(self, grid200):
        pop = single(grid200)
        a = sample_agents(pop, 100, keyed_stream(7, 1))
        b = sample_agents(pop, 100, keyed_stream(7, 1))
        assert np.array_equal(a, b)
