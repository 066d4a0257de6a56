"""Heterogeneous agent populations.

A population is a finite weighted mixture of agent types. Each type bundles
preference parameters (risk aversion ``gamma``, competition weight ``theta``,
consumption weight ``alpha``), an initial wealth, and three deterministic
market-parameter curves: return rate ``h``, idiosyncratic volatility
``sigma`` and common-noise volatility ``sigma0``. Population-level
expectations (:meth:`Population.mean`) are exact finite sums, which keeps
every downstream formula free of sampling error.

Standing requirements on a usable population (checked by :func:`validate`):

* weights sum to one and are positive;
* ``x0 > 0``, ``alpha > 0``, ``theta`` in [0, 1];
* ``gamma < 1`` and ``|gamma|`` bounded below by ``gamma_lb > 0``;
* ``sigma(t) + sigma0(t)`` bounded below by ``sigma_lb > 0`` at every knot,
  with both volatilities nonnegative.

``gamma < 1`` and the volatility bound keep ``(1 - gamma) * (sigma^2 + sigma0^2)``
away from zero. The closed form takes gamma = 0 (log utility); ``gamma_lb`` is
there because the power-utility value function and Monte-Carlo payoffs divide by gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import StructuralError
from .grid import GridCurve, TimeGrid

DEFAULT_GAMMA_LB = 1e-3
DEFAULT_SIGMA_LB = 1e-3


@dataclass(frozen=True)
class AgentType:
    """One heterogeneity class: preferences, initial wealth, market curves.

    Construction only enforces structure (curves on a shared grid, finite
    values); the model assumptions are checked by :func:`validate` so that
    invalid candidates can still be inspected and reported.
    """

    weight: float
    x0: float
    gamma: float
    theta: float
    alpha: float
    h: GridCurve
    sigma: GridCurve
    sigma0: GridCurve

    def __post_init__(self):
        for name in ("weight", "x0", "gamma", "theta", "alpha"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise StructuralError(f"agent field {name} is not finite: {v!r}")
        g = self.h.grid
        if self.sigma.grid != g or self.sigma0.grid != g:
            raise StructuralError("agent curves must share one time grid")

    @property
    def grid(self) -> TimeGrid:
        return self.h.grid


@dataclass(frozen=True)
class Violation:
    """One violated rule: which type (None for population-level rules),
    which rule, and the offending value."""

    type_index: int | None
    rule: str
    value: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0

    def describe(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for v in self.violations:
            where = "population" if v.type_index is None else f"type {v.type_index}"
            lines.append(f"{where}: {v.rule} (value {v.value:g})")
        return "; ".join(lines)


@dataclass(frozen=True)
class Population:
    """Finite weighted mixture of agent types on one shared grid.

    Immutable after construction; per-type parameters are cached as read-only
    arrays (``weights``, ``gammas``, ... and the (K, n+1) curve matrices
    ``h_mat``, ``sigma_mat``, ``sigma0_mat``) for vectorised consumers.
    """

    types: tuple[AgentType, ...]
    gamma_lb: float = DEFAULT_GAMMA_LB
    sigma_lb: float = DEFAULT_SIGMA_LB

    weights: NDArray = field(init=False, repr=False, compare=False)
    gammas: NDArray = field(init=False, repr=False, compare=False)
    thetas: NDArray = field(init=False, repr=False, compare=False)
    alphas: NDArray = field(init=False, repr=False, compare=False)
    x0s: NDArray = field(init=False, repr=False, compare=False)
    h_mat: NDArray = field(init=False, repr=False, compare=False)
    sigma_mat: NDArray = field(init=False, repr=False, compare=False)
    sigma0_mat: NDArray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        types = tuple(self.types)
        if not types:
            raise StructuralError("population needs at least one type")
        grid = types[0].grid
        for i, tp in enumerate(types):
            if tp.grid != grid:
                raise StructuralError(f"type {i} lives on a different grid")
        object.__setattr__(self, "types", types)

        def frozen(a):
            a = np.asarray(a, dtype=np.float64)
            a.flags.writeable = False
            return a

        object.__setattr__(self, "weights", frozen([tp.weight for tp in types]))
        object.__setattr__(self, "gammas", frozen([tp.gamma for tp in types]))
        object.__setattr__(self, "thetas", frozen([tp.theta for tp in types]))
        object.__setattr__(self, "alphas", frozen([tp.alpha for tp in types]))
        object.__setattr__(self, "x0s", frozen([tp.x0 for tp in types]))
        object.__setattr__(self, "h_mat", frozen([tp.h.values for tp in types]))
        object.__setattr__(self, "sigma_mat", frozen([tp.sigma.values for tp in types]))
        object.__setattr__(self, "sigma0_mat", frozen([tp.sigma0.values for tp in types]))

    @property
    def grid(self) -> TimeGrid:
        return self.types[0].grid

    @property
    def T(self) -> float:
        return self.grid.T

    @property
    def n_types(self) -> int:
        return len(self.types)

    def mean(self, per_type_values) -> float | NDArray:
        """Weighted population mean of per-type values (leading axis = type)."""
        return np.tensordot(self.weights, np.asarray(per_type_values), axes=(0, 0))


def constant_type(
    grid: TimeGrid,
    *,
    weight: float = 1.0,
    x0: float = 1.0,
    gamma: float,
    theta: float,
    alpha: float = 1.0,
    h: float,
    sigma: float,
    sigma0: float,
) -> AgentType:
    """Convenience builder for a type with constant market parameters."""
    return AgentType(
        weight=weight,
        x0=x0,
        gamma=gamma,
        theta=theta,
        alpha=alpha,
        h=GridCurve.constant(grid, h),
        sigma=GridCurve.constant(grid, sigma),
        sigma0=GridCurve.constant(grid, sigma0),
    )


def type_violations(i: int, tp: AgentType, gamma_lb: float, sigma_lb: float) -> list[Violation]:
    """The standing per-type rules that type ``i`` with parameters ``tp``
    breaks; :func:`validate` applies it to every type of a population."""
    sig, sig0 = tp.sigma.values, tp.sigma0.values
    vol, sig_min, sig0_min = float((sig + sig0).min()), float(sig.min()), float(sig0.min())
    rules = (
        ("weight_in_unit_interval", not (0.0 < tp.weight <= 1.0), tp.weight),
        ("x0_positive", tp.x0 <= 0.0, tp.x0),
        ("alpha_positive", tp.alpha <= 0.0, tp.alpha),
        ("theta_in_unit_interval", not (0.0 <= tp.theta <= 1.0), tp.theta),
        ("gamma_nonzero", tp.gamma == 0.0, tp.gamma),
        ("gamma_below_one", tp.gamma >= 1.0, tp.gamma),
        ("gamma_lower_bound", abs(tp.gamma) < gamma_lb, tp.gamma),
        ("volatility_lower_bound", vol < sigma_lb, vol),
        ("sigma_nonnegative", sig_min < 0.0, sig_min),
        ("sigma0_nonnegative", sig0_min < 0.0, sig0_min),
    )
    return [Violation(i, rule, value) for rule, broken, value in rules if broken]


def validate(pop: Population) -> ValidationReport:
    """Report every violated standing assumption; structure is checked at construction."""
    out: list[Violation] = []
    wsum = float(pop.weights.sum())
    if abs(wsum - 1.0) > 1e-12:
        out.append(Violation(None, "weights_sum_to_one", wsum))
    for i, tp in enumerate(pop.types):
        out.extend(type_violations(i, tp, pop.gamma_lb, pop.sigma_lb))
    return ValidationReport(tuple(out))


def sample_agents(pop: Population, n: int, rng: np.random.Generator) -> NDArray[np.int64]:
    """Draw ``n`` i.i.d. type indices with probabilities equal to the weights."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # weights sum to 1 within 1e-12 for validated populations; renormalise so
    # the sampler never sees stray rounding
    p = pop.weights / pop.weights.sum()
    return rng.choice(pop.n_types, size=n, p=p)
