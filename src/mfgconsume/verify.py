"""Checkable identities behind the closed-form equilibrium.

Four independent lines of defence, none of which reuses the code path it
checks:

* the backward-equation residual: finite-difference d(Ytilde)/dt plus the
  full driver (quadratic noise-response terms plus the two exponential
  consumption terms) must vanish on the solved equilibrium;
* the drift bracket of the candidate reward process: non-positive for every
  admissible control pair, zero exactly at the optimiser; it is evaluated
  on arrays of states, one formula for the optimiser and the bracket;
* the analytic value ``V = (1/gamma) exp(gamma*log(x0) + Y_0)``, which the
  Monte-Carlo module re-estimates from scratch;
* the algebraic relations tying the investment rate, consumption index and
  common-noise exposure together across the two equivalent formulations.

The driver is written once: ``_kernel`` gives every type's quadratic part J
and induced investment rate P on (K, m) parameter rows, ``_driver`` adds the
consumption terms. It calls nothing from ``closedform._coefficients``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .closedform import _EXP_CAP, EquilibriumSolution, _check_finite, _check_one_plus, _params_at
from .errors import ExponentRangeError
from .population import Population


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class _Kernel(NamedTuple):
    j: NDArray      # (K, m) quadratic part of the driver
    p: NDArray      # (K, m) induced investment rate
    den: NDArray    # (K, m) (1-gamma)(sigma^2+sigma0^2)
    psi: NDArray    # (m,) E[theta*gamma*sigma0^2/den]


@np.errstate(over="ignore", invalid="ignore")  # _check_finite turns inf and NaN into exit 3
def _kernel(pop: Population, h: NDArray, sig: NDArray, sig0: NDArray,
            z: float = 0.0, z0: float = 0.0) -> _Kernel:
    """The quadratic driver part J (see :func:`eval_J`) and the induced
    investment rate P of every type on (K, m) parameter rows, at martingale
    loadings ``(z, z0)`` shared by all types."""
    g = pop.gammas[:, None]
    tg = (pop.thetas * pop.gammas)[:, None]
    sig_tot2 = sig**2 + sig0**2
    den = (1.0 - g) * sig_tot2
    psi = pop.mean(tg * sig0**2 / den)
    _check_one_plus(psi, "psi")
    s = pop.mean((sig0 * h + sig0 * sig * z + sig0**2 * z0) / den) / (1.0 + psi)
    p = (h + sig * z + sig0 * z0 - tg * sig0 * s) / den

    g1 = -tg * pop.mean((h**2 + sig * h * z + sig0 * h * z0) / den)
    g2 = tg * pop.mean(tg * sig0 * h / den) * s
    g3 = tg * pop.mean(sig_tot2 / 2.0 * p**2)
    g4 = z**2 / 2.0 + (z0 - tg * s) ** 2 / 2.0
    g5 = g * (1.0 - g) * sig_tot2 / 2.0 * p**2
    j = g1 + g2 + g3 + g4 + g5
    _check_finite("driver kernel", j, p)
    return _Kernel(j, p, den, psi)


def _kernel_at(pop: Population, t: float, z: float = 0.0, z0: float = 0.0) -> _Kernel:
    """The kernel on the (K, 1) column of parameters at time ``t``."""
    return _kernel(pop, *(v[:, None] for v in _params_at(pop, t)), z, z0)


def eval_J(pop: Population, k: int, t: float, z_tilde: float, z0_tilde: float) -> float:
    """Quadratic noise-response part of the backward-equation driver for
    type ``k`` at time ``t``, evaluated at martingale loadings
    ``(z_tilde, z0_tilde)`` (shared by all types inside the expectations).

    With ``f(a) = a / den`` and the effective loading
    ``S = E[f(sigma0*h) + f(sigma0*sigma) z + f(sigma0^2) z0] / (1 + psi)``,
    the five groups are

        -theta*gamma * E[f(h^2) + f(sigma*h) z + f(sigma0*h) z0]
        +theta*gamma * E[theta*gamma*f(sigma0*h)] * S
        +theta*gamma * E[(sigma^2+sigma0^2)/2 * P^2]
        + z^2/2 + (z0 - theta*gamma*S)^2 / 2
        + gamma*(1-gamma)*(sigma^2+sigma0^2)/2 * P_own^2

    where ``P = f(h) + f(sigma) z + f(sigma0) z0 - theta*gamma*f(sigma0)*S``
    is the induced investment rate. At z = z0 = 0 this reduces to ``-A``.
    """
    return float(_kernel_at(pop, t, z_tilde, z0_tilde).j[k, 0])


def _j_at_zero(pop: Population) -> NDArray:
    """eval_J(., 0, 0) over all types and knots, shape (K, n+1)."""
    return _kernel(pop, pop.h_mat, pop.sigma_mat, pop.sigma0_mat).j


def _consumption_means(pop: Population) -> tuple[float, float]:
    """The aggregates E[theta*gamma/(1-gamma)] and E[log(alpha)/(1-gamma)]."""
    omg = 1.0 - pop.gammas
    e_theta = float(np.dot(pop.weights, pop.thetas * pop.gammas / omg))
    _check_one_plus(e_theta, "E[theta*gamma/(1-gamma)]")
    return e_theta, float(np.dot(pop.weights, np.log(pop.alphas) / omg))


def _exp_terms(pop: Population, y_tilde: NDArray) -> NDArray:
    """Per-type consumption rate induced by candidate (K, m) ``y_tilde`` values:
    exp( log(alpha)/(1-gamma) - y/(1-gamma)
         + theta*gamma*(E[y/(1-gamma)] - E[log(alpha)/(1-gamma)])
           / ((1-gamma)*(1 + E[theta*gamma/(1-gamma)])) ).
    """
    y = np.asarray(y_tilde, dtype=float)
    omg = (1.0 - pop.gammas)[:, None]
    tg = (pop.thetas * pop.gammas)[:, None]
    e_theta, e_logalpha = _consumption_means(pop)
    e_y = pop.mean(y / omg)
    expo = np.log(pop.alphas)[:, None] / omg - y / omg + tg * (e_y - e_logalpha) / (omg * (1.0 + e_theta))
    if np.max(np.abs(expo)) > _EXP_CAP:
        raise ExponentRangeError("driver exponent exceeds range")
    return np.exp(expo)


def _driver(pop: Population, j: NDArray, y: NDArray, c_population: NDArray | None = None) -> NDArray:
    """:func:`bsde_driver` on (K, m) with quadratic part ``j``; ``c_population``,
    when given, replaces the exponential terms inside the population mean."""
    terms = _exp_terms(pop, y)
    pop_term = pop.mean(terms if c_population is None else c_population)
    return j + (1.0 - pop.gammas)[:, None] * terms + (pop.thetas * pop.gammas)[:, None] * pop_term


def bsde_driver(pop: Population, k: int, t: float, y_tilde: ArrayLike, z_tilde: float = 0.0,
                z0_tilde: float = 0.0, c_population: ArrayLike | None = None) -> float:
    """Full driver value of type ``k`` at time ``t``: quadratic part plus
    ``(1-gamma) * exp_term_own + theta*gamma * E[exp_term]``.

    ``y_tilde`` carries the candidate values of *all* types at ``t`` (the
    driver couples them through a population expectation). When
    ``c_population`` is given it replaces the exponential terms inside that
    expectation; otherwise both are computed from ``y_tilde``.
    """
    y = np.asarray(y_tilde, dtype=float)
    if y.shape != (pop.n_types,):
        raise ValueError(f"y_tilde must have one entry per type, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y_tilde must be finite")
    c = None if c_population is None else np.asarray(c_population, dtype=float)[:, None]
    j = _kernel_at(pop, t, z_tilde, z0_tilde).j
    return float(_driver(pop, j, y[:, None], c)[k, 0])


# ---------------------------------------------------------------------------
# backward-equation residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Residual curve per type and its interior sup norm.

    The residual at a knot is (finite-difference dY/dt) + driver; central
    differences on interior knots, one-sided at the two endpoints. The
    endpoints are first-order and excluded from the reported sup norm.
    """

    residuals: NDArray     # (K, n+1)
    sup_norm: float
    n_steps: int


def bsde_residual(
    pop: Population, sol: EquilibriumSolution, y_tilde: NDArray | None = None
) -> ResidualReport:
    """Residual of the backward equation on the grid for candidate
    ``y_tilde`` curves (defaults to the solved equilibrium's)."""
    y = sol.y_tilde if y_tilde is None else np.asarray(y_tilde, dtype=float)
    dt = pop.grid.dt
    n = pop.grid.n_steps

    driver = _driver(pop, _j_at_zero(pop), y)

    # central differences inside, one-sided at the two ends
    res = np.gradient(y, dt, axis=1) + driver
    sup = float(np.abs(res[:, 1:-1]).max()) if n >= 2 else float(np.abs(res).max())
    return ResidualReport(residuals=res, sup_norm=sup, n_steps=n)


# ---------------------------------------------------------------------------
# drift bracket of the candidate reward process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MopState:
    """State at which the drift bracket is evaluated: backward component Y,
    log consumption index nu_hat, market and preference parameters, and the
    martingale loadings (Z, Z0). Fields are floats or arrays of one shape."""

    Y: ArrayLike
    nu_hat: ArrayLike
    h: ArrayLike
    sigma: ArrayLike
    sigma0: ArrayLike
    gamma: ArrayLike
    theta: ArrayLike
    alpha: ArrayLike
    Z: ArrayLike = 0.0
    Z0: ArrayLike = 0.0


def _pow(base: ArrayLike, exponent: ArrayLike) -> ArrayLike:
    """Elementwise libm ``pow``: numpy's SIMD array pow (SVML on AVX-512) can
    differ in the last bit, and the bracket cancels terms of order one. On
    arrays an overflow raises OverflowError where a scalar gives inf."""
    if np.ndim(base) == 0 and np.ndim(exponent) == 0:
        return base ** exponent
    return np.power(np.asarray(base, dtype=object), exponent).astype(float)


def _bracket(state: MopState) -> tuple[ArrayLike, ...]:
    """The maximiser (pi, c), then K, 1 - gamma and sigma^2 + sigma0^2."""
    sig_tot2 = state.sigma**2 + state.sigma0**2
    omg = 1.0 - state.gamma
    pi_opt = (state.h + state.sigma * state.Z + state.sigma0 * state.Z0) / (omg * sig_tot2)
    k = state.alpha * np.exp(-state.Y - state.theta * state.gamma * state.nu_hat)
    return pi_opt, _pow(k, 1.0 / omg), k, omg, sig_tot2


def _float_if_scalar(x: ArrayLike) -> ArrayLike:
    return float(x) if np.ndim(x) == 0 else x


def mop_maximizer(state: MopState) -> tuple[ArrayLike, ArrayLike]:
    """The unique maximiser of the drift bracket:
    ``pi = (h + sigma Z + sigma0 Z0) / ((1-gamma)(sigma^2+sigma0^2))`` and
    ``c = K^{1/(1-gamma)}`` with ``K = alpha exp(-Y - theta*gamma*nu_hat)``."""
    return tuple(map(_float_if_scalar, _bracket(state)[:2]))


def mop_drift(state: MopState, pi: ArrayLike, c: ArrayLike) -> ArrayLike:
    """Drift bracket of the candidate reward process at control ``(pi, c)``.

    The everywhere-positive prefactor ``X^gamma e^Y`` is omitted, so the sign
    of the bracket is the sign of the drift: non-positive for every control,
    zero at the maximiser. Requires ``c > 0``.
    """
    if np.any(np.asarray(c) <= 0.0):
        raise ValueError(f"consumption rate must be positive, got {np.min(c)}")
    pi_opt, c_opt, k, omg, sig_tot2 = _bracket(state)
    g = state.gamma
    quad = -0.5 * omg * sig_tot2 * (pi - pi_opt) ** 2
    cons = -c + (k / g) * _pow(c, g) - (omg / g) * c_opt
    return _float_if_scalar(quad + cons)


def drift_check(seed: int, n_draws: int = 10_000, regime: str = "positive") -> tuple[float, float]:
    """Randomised sign check of the drift bracket at desk scale.

    Draws states with gamma in (0.1, 0.7) (``regime='positive'``) or in
    (-2, -0.1) (``regime='negative'``) and admissible random controls
    pi in [-10, 10], c in [1e-3, 10]. Returns (max bracket over random
    controls, max |bracket| at the analytic maximiser); non-positivity
    holds up to rounding, so the first stays below ~1e-12 and the second
    below ~1e-10.
    """
    gamma_range = {"positive": (0.1, 0.7), "negative": (-2.0, -0.1)}.get(regime)
    if gamma_range is None:
        raise ValueError(f"regime must be 'positive' or 'negative', got {regime!r}")
    if n_draws < 1:
        raise ValueError(f"need n_draws >= 1, got {n_draws}")
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(*gamma_range, n_draws)
    # then per draw one uniform(lo, hi) = lo + (hi - lo) * random() per MopState field but gamma, then pi, c
    lo, hi = np.array([[-1.0, -1.0, 0.0, 0.1, 0.0, 0.0, 0.5, -1.0, -1.0, -10.0, 1e-3],
                       [1.0, 1.0, 0.4, 0.6, 0.5, 1.0, 2.0, 1.0, 1.0, 10.0, 10.0]])
    u = lo[:, None] + (hi - lo)[:, None] * rng.random((n_draws, lo.size)).T
    state = MopState(*u[:5], gammas, *u[5:9])
    worst = mop_drift(state, u[9], u[10]).max()
    worst_opt = np.abs(mop_drift(state, *mop_maximizer(state))).max()
    return float(worst), float(worst_opt)


# ---------------------------------------------------------------------------
# value function and cross-formulation relations
# ---------------------------------------------------------------------------


def value_function(pop: Population, k: int, sol: EquilibriumSolution) -> float:
    """Equilibrium value of type ``k``:
    ``(1/gamma) exp(gamma*log(x0) + Y_0)`` with
    ``Y_0 = Ytilde_0 - theta*gamma*E[log x0]``."""
    g = pop.gammas[k]
    e_logx = float(np.dot(pop.weights, np.log(pop.x0s)))
    y0 = sol.y_tilde[k, 0] - pop.thetas[k] * g * e_logx
    return float(1.0 / g * np.exp(g * np.log(pop.x0s[k]) + y0))


@dataclass(frozen=True)
class RelationReport:
    """Maximum absolute errors of the three cross-formulation identities:
    investment rate, consumption index, common-noise exposure."""

    max_err_investment: float
    max_err_nu_hat: float
    max_err_z0: float


def relation_check(pop: Population, sol: EquilibriumSolution, *_unused: object) -> RelationReport:
    """Verify, at every knot, that the equilibrium solves both equivalent
    formulations: (i) the investment rate rebuilt from the vanishing
    martingale loadings matches ``pi_star``; (ii) the consumption index
    rebuilt from the backward components matches ``E[log c*] + mu_hat``;
    (iii) the common-noise exposure rebuilt from the loading relation
    matches ``z0_common``. In (ii) ``mu_hat`` enters both sides alike, so
    no common-noise path is drawn: it compares E[log c*] with
    (E[log alpha/(1-gamma)] - E[Ytilde/(1-gamma)]) / (1 + E[theta gamma/(1-gamma)]).
    Further positional arguments, the path and seed that (ii) once read,
    are ignored.
    """
    if sol.grid != pop.grid:
        raise ValueError("the equilibrium must be solved on the population's time grid")
    ker = _kernel(pop, pop.h_mat, pop.sigma_mat, pop.sigma0_mat)
    # (i): with vanishing loadings the investment rate is the kernel's P
    err_pi = float(np.abs(ker.p - sol.pi_star).max())

    # (iii): exposure aggregate from the loading relation
    tg = (pop.thetas * pop.gammas)[:, None]
    z0_alt = -pop.mean(tg * pop.h_mat * pop.sigma0_mat / ker.den) / (1.0 + ker.psi)
    err_z0 = float(np.abs(z0_alt - sol.z0_common).max())

    # (ii): the consumption index less mu_hat, from the backward components
    e_theta, e_logalpha = _consumption_means(pop)
    e_logc = (e_logalpha - pop.mean(sol.y_tilde / (1.0 - pop.gammas)[:, None])) / (1.0 + e_theta)
    err_nu = float(np.abs(e_logc - pop.mean(np.log(sol.c_star))).max())

    return RelationReport(err_pi, err_nu, err_z0)
