"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured runtime (run with ``pytest tests/test_acceptance.py -s``).

Every tolerance is pinned here, not configured elsewhere.
"""

import math
import time

import numpy as np

from mfgconsume import (
    FlowModel,
    Population,
    TimeGrid,
    bsde_residual,
    consistency_test,
    constant_consumption,
    constant_type,
    default_perturbations,
    deviation_test,
    drift_check,
    equilibrium_strategy,
    estimate_utility,
    population_aggregates,
    sigma0_thresholds,
    solve_equilibrium,
    solve_riccati_numeric,
    tagged_policy_at0,
    value_function,
)
from mfgconsume.grid import GridCurve
from mfgconsume.verify import _j_at_zero

from conftest import make_random_population


def report(num, title, budget, t0, ok, detail=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {title}: {detail} ({elapsed:.2f}s / budget {budget:g}s)")
    assert ok, f"criterion {num} ({title}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def reference_population(grid, gamma=0.5):
    tp = constant_type(grid, gamma=gamma, theta=0.5, alpha=1.0, x0=1.0,
                       h=0.1, sigma=0.2, sigma0=0.1)
    return Population((tp,))


def test_01_merton_reduction():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 2000)
    pops = [
        Population((constant_type(grid, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0),)),
        make_random_population(101, grid, n_types=3, theta_zero=True),
    ]
    ok = True
    worst = 0.0
    for pop in pops:
        sol = solve_equilibrium(pop)
        merton = pop.h_mat / ((1 - pop.gammas)[:, None] * (pop.sigma_mat**2 + pop.sigma0_mat**2))
        ok = ok and np.array_equal(sol.pi_star, merton)
        worst = max(worst, float(np.abs(sol.pi_star - merton).max()))
    report(1, "Merton reduction exact for theta == 0", 1.0, t0, ok, f"max abs diff {worst:g}")


def test_02_riccati_agreement():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 2000)
    worst = 0.0
    for seed in range(50):
        pop = make_random_population(1000 + seed, grid)
        sol = solve_equilibrium(pop)
        numeric = solve_riccati_numeric(pop)
        rel = np.abs(numeric - sol.c_star) / np.abs(sol.c_star)
        worst = max(worst, float(rel.max()))
    report(2, "Riccati sweep vs closed-form consumption", 10.0, t0, worst <= 1e-6,
           f"sup relative error {worst:.3e} <= 1e-6 over 50 populations")


def test_03_constant_coefficient_equivalence():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 2000)
    # branch with B != 0: no-competition constant scenario has B = 0.25, D = 1
    pop_b = Population((constant_type(grid, gamma=0.5, theta=0.0, h=0.1, sigma=0.2, sigma0=0.0),))
    sol_b = solve_equilibrium(pop_b)
    want_b = np.array([constant_consumption(0.25, 1.0, 1.0, t) for t in grid.times])
    err_b = float(np.abs(sol_b.c_star[0] - want_b).max())
    # branch with B = 0: the sigma = 0 worked scenario has A = B = 0, D = 1
    pop_0 = Population((constant_type(grid, gamma=0.5, theta=1.0, h=0.1, sigma=0.0, sigma0=0.2),))
    sol_0 = solve_equilibrium(pop_0)
    want_0 = np.array([constant_consumption(0.0, 1.0, 1.0, t) for t in grid.times])
    err_0 = float(np.abs(sol_0.c_star[0] - want_0).max())
    # continuity across the branch switch
    cont = abs(constant_consumption(1e-9, 1.0, 1.0, 0.0) - constant_consumption(0.0, 1.0, 1.0, 0.0))
    cont_rel = cont / constant_consumption(0.0, 1.0, 1.0, 0.0)
    ok = err_b <= 1e-8 and err_0 <= 1e-8 and cont_rel <= 1e-6
    report(3, "constant-coefficient equivalence", 1.0, t0, ok,
           f"B!=0 err {err_b:.2e}, B=0 err {err_0:.2e}, continuity {cont_rel:.2e}")


def test_04_bsde_residual_and_identity():
    t0 = time.perf_counter()
    sups = {}
    for n in (500, 2000):
        grid = TimeGrid(1.0, n)
        pop = make_random_population(42, grid, n_types=3)
        sol = solve_equilibrium(pop)
        sups[n] = bsde_residual(pop, sol).sup_norm
    grid = TimeGrid(1.0, 2000)
    ref = reference_population(grid)
    sup_ref = bsde_residual(ref, solve_equilibrium(ref)).sup_norm
    reduction = sups[500] / sups[2000]

    worst_id = 0.0
    for seed in range(10):
        pop = make_random_population(4000 + seed, TimeGrid(1.0, 400))
        sol = solve_equilibrium(pop)
        j0 = _j_at_zero(pop)
        rel = np.abs(j0 + sol.a_coeff) / np.maximum(1.0, np.abs(sol.a_coeff))
        worst_id = max(worst_id, float(rel.max()))

    ok = sups[2000] <= 1e-4 and sup_ref <= 1e-4 and reduction >= 3.0 and worst_id <= 1e-9
    report(4, "backward-equation residual and J = -A identity", 10.0, t0, ok,
           f"sup {sups[2000]:.2e} <= 1e-4, quadrupling reduction {reduction:.1f}x >= 3, "
           f"identity rel {worst_id:.2e} <= 1e-9")


def test_05_mop_drift():
    t0 = time.perf_counter()
    w_pos, o_pos = drift_check(20_240, 10_000, "positive")
    w_neg, o_neg = drift_check(20_241, 10_000, "negative")
    worst, worst_opt = max(w_pos, w_neg), max(o_pos, o_neg)
    ok = worst <= 1e-12 and worst_opt <= 1e-10
    report(5, "drift bracket sign and maximiser", 5.0, t0, ok,
           f"max drift {worst:.2e} <= 1e-12, at optimum {worst_opt:.2e} <= 1e-10")


def test_06_value_function_match():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 256)
    detail = []
    ok = True
    for gamma, seed in ((0.5, 61), (-1.0, 62)):
        pop = reference_population(grid, gamma)
        sol = solve_equilibrium(pop)
        flow = FlowModel(pop, sol)
        est = estimate_utility(pop.types[0], equilibrium_strategy(sol, 0), flow, 100_000, seed=seed)
        v = value_function(pop, 0, sol)
        z = abs(est.mean - v) / est.stderr
        ok = ok and z <= 3.0
        detail.append(f"gamma={gamma:g}: z={z:.2f}")
    report(6, "Monte-Carlo utility matches analytic value", 60.0, t0, ok, ", ".join(detail))


def test_07_no_profitable_deviation():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 256)
    pop = reference_population(grid)
    sol = solve_equilibrium(pop)
    perts = default_perturbations(sol, 0)
    assert len(perts) == 20
    rep = deviation_test(pop, 0, sol, perts, 100_000, seed=71)
    margin = min(r.delta + 2.0 * r.stderr for r in rep.rows)
    large_margin = min(r.delta - 2.0 * r.stderr for r in rep.rows if r.large)
    ok = margin >= 0.0 and large_margin > 0.0
    report(7, "no profitable deviation over 20 perturbations", 120.0, t0, ok,
           f"min(delta + 2se) {margin:.2e} >= 0, min large (delta - 2se) {large_margin:.2e} > 0")


def test_08_fixed_point_consistency():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 256)
    t1 = constant_type(grid, weight=0.6, gamma=0.5, theta=0.5, h=0.1, sigma=0.2, sigma0=0.1)
    t2 = constant_type(grid, weight=0.4, gamma=-1.0, theta=0.8, x0=2.0, h=0.08, sigma=0.3, sigma0=0.05)
    worst = 0.0
    for pop in (reference_population(grid), Population((t1, t2))):
        sol = solve_equilibrium(pop)
        rep = consistency_test(pop, sol, 100_000, 3, seed=81)
        worst = max(worst, rep.max_deviation_units)
    report(8, "fixed-point consistency of the mean-field flow", 120.0, t0, worst <= 3.0,
           f"max deviation {worst:.2f} <= 3 stderr units (5 probes x 3 paths)")


def test_09_monotonicity_and_thresholds():
    t0 = time.perf_counter()
    from dataclasses import replace

    grid = TimeGrid(1.0, 200)
    # individual return-rate sensitivity on 100 random scenarios
    ok_h = True
    worst_rel = 0.0
    for seed in range(100):
        pop = make_random_population(9000 + seed, grid, n_types=1)
        agg = population_aggregates(pop)
        tp = pop.types[0]
        h0 = float(tp.h(0.0))
        eps = 1e-4
        up = replace(tp, h=GridCurve.constant(grid, h0 + eps))
        dn = replace(tp, h=GridCurve.constant(grid, h0 - eps))
        slope = (tagged_policy_at0(agg, up)[0] - tagged_policy_at0(agg, dn)[0]) / (2 * eps)
        want = 1.0 / ((1 - tp.gamma) * (tp.sigma(0.0) ** 2 + tp.sigma0(0.0) ** 2))
        ok_h = ok_h and slope > 0
        worst_rel = max(worst_rel, abs(slope - want) / want)
    ok_h = ok_h and worst_rel <= 1e-6

    # population average return rate: sign flips with the sign of gamma
    ok_pop = True
    for gamma, sign in ((0.5, -1.0), (-1.0, 1.0)):
        mk = lambda h: Population(
            (constant_type(grid, gamma=gamma, theta=0.8, h=h, sigma=0.2, sigma0=0.15),)
        )
        probe = mk(0.1).types[0]
        lo = tagged_policy_at0(population_aggregates(mk(0.1)), probe)[0]
        hi = tagged_policy_at0(population_aggregates(mk(0.12)), probe)[0]
        ok_pop = ok_pop and (hi - lo) * sign > 0

    # common-noise volatility: slope sign change within one sweep cell of
    # the larger threshold root
    pop = Population((constant_type(grid, gamma=0.5, theta=1.0, h=0.1, sigma=0.2, sigma0=0.3),))
    agg = population_aggregates(pop)
    thr = sigma0_thresholds(pop, 0, 0.0)
    marker = max(thr.sigma0_upper, thr.sigma0_lower)
    values = np.linspace(0.01, 2.0, 160)
    probe = pop.types[0]
    pis = np.array([
        tagged_policy_at0(agg, replace(probe, sigma0=GridCurve.constant(grid, v)))[0]
        for v in values
    ])
    slopes = np.diff(pis)
    below = slopes[values[:-1] + np.diff(values) / 2 < marker - (values[1] - values[0])]
    above = slopes[values[:-1] + np.diff(values) / 2 > marker + (values[1] - values[0])]
    flips = np.flatnonzero(np.sign(slopes[:-1]) != np.sign(slopes[1:]))
    cell = values[1] - values[0]
    crossing = values[flips[0] + 1] if flips.size else math.nan
    ok_thr = (
        thr.valid
        and np.all(below < 0)
        and np.all(above > 0)
        and abs(crossing - marker) <= cell
    )

    ok = ok_h and ok_pop and ok_thr
    report(9, "monotonicity and volatility thresholds", 10.0, t0, ok,
           f"dpi/dh rel err {worst_rel:.2e} <= 1e-6 (100 scenarios), population sign flip ok={ok_pop}, "
           f"threshold crossing {crossing:.4f} within {cell:.4f} of {marker:.4f}")


def test_10_log_utility_equilibrium():
    # gamma = 0 through the one closed-form kernel
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 64)

    def log_type(alpha, sigma0):
        return Population((constant_type(grid, gamma=0.0, theta=0.5, alpha=alpha, h=0.1, sigma=0.2,
                                         sigma0=sigma0),))

    sol = solve_equilibrium(log_type(1.0, 0.0))
    pi, c = sol.pi_star[0, 0], sol.c_star[0, 0]
    ok = pi == 0.1 / (0.2**2 + 0.0**2) and c == 1.0 / (1.0 + 1.0 * 1.0)
    # terminal consumption equals the weight parameter, mirroring the
    # power-utility terminal value D
    for alpha in (0.3, 1.0, 2.5):
        cT = solve_equilibrium(log_type(alpha, 0.1)).c_star[0, -1]
        ok = ok and cT == alpha
    report(10, "logarithmic-utility equilibrium", 1.0, t0, ok,
           f"pi = {pi:g}, c(0) = {c:g}, c(T) = alpha exact")
