"""Every deterministic consistency check of the solved equilibrium.

Run:  python demos/02_verification_identities.py
"""

import numpy as np

from mfgconsume import (
    FlowModel,
    MopState,
    Population,
    TimeGrid,
    bsde_residual,
    constant_type,
    drift_check,
    keyed_stream,
    mop_drift,
    relation_check,
    solve_equilibrium,
    solve_riccati_numeric,
)
from mfgconsume.verify import _j_at_zero

grid = TimeGrid(1.0, 2000)
t1 = constant_type(grid, weight=0.6, gamma=0.5, theta=0.5, h=0.1, sigma=0.2, sigma0=0.1)
t2 = constant_type(grid, weight=0.4, gamma=-1.0, theta=0.8, x0=2.0, h=0.08, sigma=0.3, sigma0=0.05)
pop = Population((t1, t2))
sol = solve_equilibrium(pop)

# 1. The closed-form consumption solves the backward equation: residual of
#    finite-difference slope + driver.
rep = bsde_residual(pop, sol)
print(f"backward-equation residual sup norm: {rep.sup_norm:.3e}  (grid {grid.n_steps} steps)")

# 2. The quadratic driver part at zero loadings is exactly -A.
j0 = _j_at_zero(pop)
rel = np.abs(j0 + sol.a_coeff) / np.maximum(1.0, np.abs(sol.a_coeff))
print(f"driver/coefficient identity J(.,0,0) = -A: max rel err {rel.max():.3e}")

# 3. Independent RK4 sweep of the consumption Riccati equation.
numeric = solve_riccati_numeric(pop)
ric = np.abs(numeric - sol.c_star) / np.abs(sol.c_star)
print(f"Riccati sweep vs quadrature closed form: sup rel err {ric.max():.3e}")

# 4. Drift bracket: zero at the solved controls, negative elsewhere.
w0 = keyed_stream(0, 1).normal(0, np.sqrt(grid.dt), grid.n_steps)
flow = FlowModel(pop, sol)
mu_hat = flow.mu_batch(w0[None])[0]
i = grid.n_steps // 2
k = 0
tp = pop.types[k]
state = MopState(
    Y=sol.y_tilde[k, i] - tp.theta * tp.gamma * mu_hat[i],
    nu_hat=flow.e_logc[i] + mu_hat[i],
    h=tp.h(grid.times[i]), sigma=tp.sigma(grid.times[i]), sigma0=tp.sigma0(grid.times[i]),
    gamma=tp.gamma, theta=tp.theta, alpha=tp.alpha,
    Z=0.0, Z0=-tp.theta * tp.gamma * sol.phi[i] / (1 + sol.psi[i]),
)
print(f"drift bracket at the equilibrium controls: {mop_drift(state, sol.pi_star[k, i], sol.c_star[k, i]):+.2e}")
print(f"drift bracket at a perturbed control:      {mop_drift(state, sol.pi_star[k, i] + 0.5, sol.c_star[k, i] * 1.3):+.2e}")

worst, worst_opt = drift_check(seed=7, n_draws=5000, regime="positive")
print(f"randomised drift check (5000 draws): max {worst:+.2e}, |at optimum| {worst_opt:.2e}")

# 5. Cross-formulation relations; the consumption-index one is path-free.
rel_rep = relation_check(pop, sol)
print("relation identities:", rel_rep)
