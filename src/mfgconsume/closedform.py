"""Closed-form equilibrium of the mean-field investment-consumption game.

Under deterministic market parameters the equilibrium of the game is known
in closed form. With the shorthand ``den = (1 - gamma) * (sigma^2 + sigma0^2)``
(per type) the building blocks are two population aggregates

    phi(t) = E[ h * sigma0 / den ]
    psi(t) = E[ theta * gamma * sigma0^2 / den ]

and, per type, the drift coefficient

    A(t) = -gamma * (h + sigma0 * z0)^2 / (2 * den)  -  z0^2 / 2
           + theta*gamma * E[pi* h]  -  theta*gamma / 2 * E[pi*^2 (sigma^2+sigma0^2)]

where ``z0 = -theta*gamma * phi / (1 + psi)`` is the type's common-noise
exposure and the equilibrium investment rate is

    pi*(t) = h / den - theta*gamma * sigma0 * phi / (den * (1 + psi)).

The equilibrium consumption rate solves the scalar Riccati equation
``y' = B(t) y + y^2`` backward from ``y(T) = D``, with

    B(t) = theta*gamma/(1-gamma) * E[A/(1-gamma)] / (1 + E[theta*gamma/(1-gamma)])
           - A(t)/(1-gamma)
    D    = exp( log(alpha)/(1-gamma)
                - theta*gamma * E[log(alpha)/(1-gamma)]
                  / ((1-gamma) * (1 + E[theta*gamma/(1-gamma)])) )

whose solution has the explicit quadrature form

    c*(t) = D * exp(-I(t)) / (1 + D * G(t)),
    I(t)  = integral_t^T B,     G(t) = integral_t^T exp(-I(s)) ds.

The log-certainty-equivalent curve of the equilibrium is

    Ytilde(t) = -theta*gamma*E[log D] - (1-gamma)*log D
                + theta*gamma*E[log Q](t) + (1-gamma)*log Q(t) + log(alpha),
    Q(t)      = exp(I(t)) * (1 + D * G(t)),

with Ytilde(T) = 0. All population expectations are exact finite sums; the
only numerical error sources are the trapezoid quadrature for I and G and
the RK4 cross-check of the Riccati equation.

gamma = 0 is the decoupled log-utility game: theta*gamma, z0, A and B vanish
and D = alpha, so ``pi* = h/(sigma^2+sigma0^2)`` and ``c* = alpha/(1+alpha(T-t))``.
:func:`solve_equilibrium` runs it without a validated population.

Each of phi, psi, pi*, z0, A, B and D is written once, in the kernel
:func:`_coefficients`. The solve evaluates it on every knot, the tagged
agent with the aggregates held fixed, and the scalar API on the (K, 1)
column of parameters interpolated at t, so scalar calls agree with the
solve at the knots and cost O(K). ``optimal_consumption`` and ``tilde_Y``
interpolate the solved curves, as c* and Ytilde integrate over [t, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import ExponentRangeError, SingularAggregateError
from .grid import GridCurve, TimeGrid
from .odequad import cumtrapz_right, riccati_sweep
from .population import AgentType, Population

# treat 1 + psi (and 1 + E[theta*gamma/(1-gamma)]) as singular below this
_SINGULAR_TOL = 1e-12
# |B| = 0 branch switch of the constant-coefficient consumption formula
_B_ZERO_TOL = 1e-12
# hard cap on exponents before exp() would lose meaning
_EXP_CAP = 700.0


# ---------------------------------------------------------------------------
# population aggregates and the coefficient kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Aggregates:
    """Population-level curves and scalars every formula depends on.

    Holding these fixed while varying one tagged agent's parameters is what
    the sensitivity sweeps mean by an "individual" perturbation: a
    measure-zero agent cannot move the aggregates.
    """

    grid: TimeGrid
    phi: NDArray          # (n+1,)
    psi: NDArray          # (n+1,)
    e_pi_h: NDArray       # (n+1,)  E[pi* h]
    e_pi2_sig: NDArray    # (n+1,)  E[pi*^2 (sigma^2 + sigma0^2)]
    e_a_scaled: NDArray   # (n+1,)  E[A / (1 - gamma)]
    e_theta: float        # E[theta gamma / (1 - gamma)]
    e_logalpha: float     # E[log alpha / (1 - gamma)]


def _check_one_plus(x: NDArray | float, what: str) -> None:
    if np.min(1.0 + np.asarray(x)) <= _SINGULAR_TOL:
        raise SingularAggregateError(f"1 + {what} vanishes; closed form undefined")


def _check_finite(what: str, *values: NDArray) -> None:
    """Raise ``ExponentRangeError`` when an entry of ``values`` overflowed to
    inf or NaN, so that a non-finite value never reaches an output."""
    if not all(np.isfinite(v).all() for v in values):
        raise ExponentRangeError(f"{what} left the floating-point range")


class _Coefficients(NamedTuple):
    pi: NDArray                # (K, m) investment rate pi*
    z0: NDArray                # (K, m) own common-noise exposure
    a: NDArray                 # (K, m)
    b: NDArray                 # (K, m)
    d: NDArray                 # (K,)
    agg: Aggregates
    z0_common: NDArray | None  # (m,) aggregate exposure; None for held aggregates


@np.errstate(over="ignore", invalid="ignore")  # _check_finite turns inf and NaN into exit 3
def _coefficients(
    pop: Population, h: NDArray, sig: NDArray, sig0: NDArray, agg: Aggregates | None = None
) -> _Coefficients:
    """The one closed-form kernel: pi*, z0, A, B and D of the types of
    ``pop`` from their parameter rows ``h``, ``sig``, ``sig0`` of shape
    (K, m), plus the aggregates.

    Without ``agg`` the aggregates are the weighted means over these same
    rows. A measure-zero tagged agent passes the population's ``agg``
    instead; they are then held fixed and ``z0_common`` is None.
    """
    own = agg is None
    den = (1.0 - pop.gammas)[:, None] * (sig**2 + sig0**2)
    tg = (pop.thetas * pop.gammas)[:, None]
    phi = pop.mean(h * sig0 / den) if own else agg.phi
    psi = pop.mean(tg * sig0**2 / den) if own else agg.psi
    _check_one_plus(psi, "psi")
    s = phi / (1.0 + psi)

    pi = h / den - tg * sig0 * s / den
    z0 = -tg * np.broadcast_to(s, den.shape)

    sig_tot2 = sig**2 + sig0**2
    e_pi_h = pop.mean(pi * h) if own else agg.e_pi_h
    e_pi2_sig = pop.mean(pi**2 * sig_tot2) if own else agg.e_pi2_sig
    a = (
        -pop.gammas[:, None] * (h + sig0 * z0) ** 2 / (2.0 * den)
        - z0**2 / 2.0
        + tg * e_pi_h
        - tg / 2.0 * e_pi2_sig
    )

    omg = 1.0 - pop.gammas
    e_theta = float(np.dot(pop.weights, pop.thetas * pop.gammas / omg)) if own else agg.e_theta
    _check_one_plus(e_theta, "E[theta*gamma/(1-gamma)]")
    e_a = pop.mean(a / omg[:, None]) if own else agg.e_a_scaled
    b = (pop.thetas * pop.gammas / omg)[:, None] * e_a / (1.0 + e_theta) - a / omg[:, None]

    e_logalpha = float(np.dot(pop.weights, np.log(pop.alphas) / omg)) if own else agg.e_logalpha
    log_d = np.log(pop.alphas) / omg - pop.thetas * pop.gammas * e_logalpha / (omg * (1.0 + e_theta))
    if np.max(np.abs(log_d)) > _EXP_CAP:
        raise ExponentRangeError("log D exceeds exponent range")
    d = np.exp(log_d)
    _check_finite("closed-form coefficients", pi, z0, a, b, d)

    if not own:
        return _Coefficients(pi, z0, a, b, d, agg, None)
    agg = Aggregates(pop.grid, phi, psi, e_pi_h, e_pi2_sig, e_a, e_theta, e_logalpha)
    z0_common = -pop.mean(tg * h * sig0 / den) / (1.0 + psi)
    return _Coefficients(pi, z0, a, b, d, agg, z0_common)


def _at_knots(pop: Population, agg: Aggregates | None = None) -> _Coefficients:
    return _coefficients(pop, pop.h_mat, pop.sigma_mat, pop.sigma0_mat, agg)


def population_aggregates(pop: Population) -> Aggregates:
    """Aggregate curves/scalars of the population, for tagged-agent analyses."""
    return _at_knots(pop).agg


def _consumption_from_b(b: NDArray, d: NDArray, dt: float):
    """c*, I = int_t^T B and G = int_t^T exp(-I) from per-type B curves."""
    ib = cumtrapz_right(b, dt)
    if np.max(np.abs(ib)) > _EXP_CAP:
        raise ExponentRangeError("integral of B exceeds exponent range")
    decay = np.exp(-ib)
    g = cumtrapz_right(decay, dt)
    d_col = np.asarray(d)[..., None]
    c = d_col * decay / (1.0 + d_col * g)
    return c, ib, g


# ---------------------------------------------------------------------------
# equilibrium solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumSolution:
    """The unique equilibrium on the shared grid.

    Per-type rows (K, n+1): investment rate ``pi_star``, consumption rate
    ``c_star``, log-certainty-equivalent ``y_tilde``, coefficient curves
    ``a_coeff`` and ``b_coeff``; per-type scalars ``d_coeff``. Shared knots
    (n+1,): ``phi``, ``psi`` and the common-noise exposure aggregate
    ``z0_common``. The martingale components vanish identically under
    deterministic market parameters.
    """

    grid: TimeGrid
    pi_star: NDArray
    c_star: NDArray
    y_tilde: NDArray
    a_coeff: NDArray
    b_coeff: NDArray
    d_coeff: NDArray
    phi: NDArray
    psi: NDArray
    z0_common: NDArray


def solve_equilibrium(pop: Population) -> EquilibriumSolution:
    """Compute the full closed-form equilibrium; a gamma = 0 type is log utility."""
    co = _at_knots(pop)
    c, ib, g = _consumption_from_b(co.b, co.d, pop.grid.dt)

    omg = 1.0 - pop.gammas
    tg = pop.thetas * pop.gammas
    log_d = np.log(co.d)
    e_logd = float(np.dot(pop.weights, log_d))
    log_q = ib + np.log1p(co.d[:, None] * g)
    e_logq = pop.mean(log_q)
    y_tilde = (
        -tg[:, None] * e_logd
        + tg[:, None] * e_logq
        - (omg * log_d)[:, None]
        + omg[:, None] * log_q
        + np.log(pop.alphas)[:, None]
    )

    return EquilibriumSolution(
        grid=pop.grid,
        pi_star=co.pi,
        c_star=c,
        y_tilde=y_tilde,
        a_coeff=co.a,
        b_coeff=co.b,
        d_coeff=co.d,
        phi=co.agg.phi,
        psi=co.agg.psi,
        z0_common=co.z0_common,
    )


# ---------------------------------------------------------------------------
# scalar operations (single time, single type)
# ---------------------------------------------------------------------------


def _params_at(pop: Population, t: float):
    """Interpolated per-type parameter values (K,) at one time."""
    return tuple(pop.grid.interp_rows(m, t) for m in (pop.h_mat, pop.sigma_mat, pop.sigma0_mat))


def _at(pop: Population, t: float) -> _Coefficients:
    """The kernel on the (K, 1) column of parameters at time ``t``."""
    return _coefficients(pop, *(v[:, None] for v in _params_at(pop, t)))


def phi_psi(pop: Population, t: float) -> tuple[float, float]:
    """The aggregates phi(t) and psi(t) as exact finite-mixture expectations."""
    agg = _at(pop, t).agg
    return float(agg.phi[0]), float(agg.psi[0])


def optimal_investment(pop: Population, k: int, t: float) -> float:
    """Equilibrium investment rate of type ``k`` at time ``t``:
    ``h/den - theta*gamma*sigma0*phi / (den*(1+psi))``."""
    return float(_at(pop, t).pi[k, 0])


def coeff_A(pop: Population, k: int, t: float) -> float:
    """Drift coefficient A of type ``k`` at time ``t`` (four-term expression)."""
    return float(_at(pop, t).a[k, 0])


def coeff_B(pop: Population, k: int, t: float) -> float:
    """Riccati linear coefficient B of type ``k`` at time ``t``."""
    return float(_at(pop, t).b[k, 0])


def coeff_D(pop: Population, k: int) -> float:
    """Terminal consumption level D of type ``k`` (time independent)."""
    return float(_at(pop, 0.0).d[k])


def optimal_consumption(pop: Population, k: int, t: float) -> float:
    """Equilibrium consumption rate of type ``k`` at time ``t`` via the
    quadrature form ``D e^{-I(t)} / (1 + D G(t))``; strictly positive, and
    exactly D at t = T."""
    return float(GridCurve(pop.grid, solve_equilibrium(pop).c_star[k])(t))


def tilde_Y(pop: Population, k: int, t: float) -> float:
    """Log-certainty-equivalent curve of type ``k`` at time ``t``;
    terminal value 0."""
    return float(GridCurve(pop.grid, solve_equilibrium(pop).y_tilde[k])(t))


def common_noise_z0(pop: Population, t: float, k: int | None = None) -> float:
    """Common-noise exposure of the equilibrium at time ``t``.

    With ``k`` given, the type's own exposure ``-theta_k*gamma_k*phi/(1+psi)``.
    Without ``k``, the population aggregate with the ``theta*gamma`` factor
    taken inside the expectation,
    ``-E[theta*gamma*h*sigma0/den] / (1+psi)``; the two coincide whenever
    ``theta*gamma`` is constant across types.
    """
    co = _at(pop, t)
    return float(co.z0_common[0] if k is None else co.z0[k, 0])


def constant_consumption(b: float, d: float, horizon: float, t: float) -> float:
    """Consumption rate when all market parameters are time independent.

    ``{-1/B + (1/D + 1/B) e^{B (T-t)}}^{-1}`` for B away from zero, with the
    continuous limit ``1 / (T - t + 1/D)`` on the |B| < 1e-12 branch.
    """
    if d <= 0.0:
        raise ValueError(f"need D > 0, got {d}")
    tau = horizon - t
    if tau < 0:
        raise ValueError(f"time {t} beyond horizon {horizon}")
    if abs(b) < _B_ZERO_TOL:
        return 1.0 / (tau + 1.0 / d)
    if abs(b * tau) > _EXP_CAP:
        raise ExponentRangeError("B * (T - t) exceeds exponent range")
    # rearranged form of {-1/B + (1/D + 1/B) e^{B tau}}^{-1}; expm1 avoids
    # the 1/B cancellation as B -> 0
    return 1.0 / (math.exp(b * tau) / d + math.expm1(b * tau) / b)


# ---------------------------------------------------------------------------
# Riccati cross-check
# ---------------------------------------------------------------------------


def solve_riccati_numeric(pop: Population) -> NDArray:
    """Backward RK4 sweep of the consumption Riccati equation
    ``y' = B(t) y + y^2`` from ``y(T) = D``, all types jointly: the (K, n+1)
    matrix of consumption rates.

    Independent of the quadrature form of ``c*``; agreement between the two
    is the primary internal consistency check.
    """
    co = _at_knots(pop)
    return riccati_sweep(co.b, co.d, pop.grid.dt)


# ---------------------------------------------------------------------------
# volatility thresholds of the investment rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Roots of the stationarity condition d(pi*)/d(sigma0) = 0 in sigma0,
    holding phi, psi and the other own parameters fixed.

    ``valid`` is False when theta*gamma*phi = 0, in which case the slope
    never changes sign (it is strictly negative for h > 0) and no finite
    threshold exists.
    """

    sigma0_upper: float
    sigma0_lower: float
    valid: bool


def sigma0_thresholds(pop: Population, k: int, t: float) -> Thresholds:
    """Both roots of the sigma0-stationarity quadratic for type ``k`` at ``t``.

    The slope of pi* in the agent's own sigma0 is proportional to
    ``theta*gamma*phi/(1+psi) * s^2 - 2 h s - theta*gamma*phi*sigma^2/(1+psi)``
    evaluated at s = sigma0; the roots are
    ``a +/- sqrt(a^2 + sigma^2)`` with ``a = h (1+psi) / (theta*gamma*phi)``.
    """
    phi, psi = phi_psi(pop, t)
    h, sig, _ = _params_at(pop, t)
    lead = float(pop.thetas[k] * pop.gammas[k] * phi)
    if lead == 0.0:
        return Thresholds(math.nan, math.nan, False)
    a = float(h[k]) * (1.0 + psi) / lead
    root = math.sqrt(a * a + float(sig[k]) ** 2)
    return Thresholds(a + root, a - root, True)


# ---------------------------------------------------------------------------
# tagged-agent evaluation (sensitivity sweeps)
# ---------------------------------------------------------------------------


def tagged_policy_at0(agg: Aggregates, agent: AgentType) -> tuple[float, float]:
    """Equilibrium response (pi*, c*) at t = 0 of a measure-zero agent with
    the given parameters, facing fixed population aggregates.

    This is the object the monotonicity statements talk about: an individual
    perturbation changes the agent's own parameters while the aggregates
    stay put; a population perturbation changes the aggregates while the
    tagged agent keeps its parameters.
    """
    if agent.gamma >= 1.0:
        raise ValueError(f"gamma must lie below 1, got {agent.gamma}")
    if agent.alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {agent.alpha}")
    co = _at_knots(Population((agent,)), agg)
    c, _, _ = _consumption_from_b(co.b, co.d, agg.grid.dt)
    return float(co.pi[0, 0]), float(c[0, 0])
