import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mfgconsume import AgentType, GridCurve, Population, TimeGrid, constant_type, validate

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=60
)
settings.load_profile("ci")


def make_random_population(
    seed: int,
    grid: TimeGrid | None = None,
    n_types: int | None = None,
    theta_zero: bool = False,
    time_varying: bool = True,
) -> Population:
    """Random validated population at desk scale, mixed gamma signs."""
    rng = np.random.default_rng(seed)
    grid = grid or TimeGrid(1.0, 400)
    k = int(n_types or rng.integers(1, 4))
    t = grid.times
    weights = rng.dirichlet(np.ones(k))
    types = []
    for i in range(k):
        gamma = rng.uniform(0.2, 0.5) if rng.random() < 0.5 else rng.uniform(-1.0, -0.2)
        h0 = rng.uniform(0.02, 0.12)
        sb = rng.uniform(0.2, 0.35)
        zb = rng.uniform(0.0, 0.15)
        if time_varying:
            h = h0 * (1.0 + rng.uniform(0, 0.3) * np.sin(2 * np.pi * t / grid.T))
            sg = sb * (1.0 + rng.uniform(0, 0.2) * np.cos(np.pi * t / grid.T))
            s0 = zb * (1.0 + 0.2 * np.sin(np.pi * t / grid.T))
        else:
            h = np.full_like(t, h0)
            sg = np.full_like(t, sb)
            s0 = np.full_like(t, zb)
        types.append(
            AgentType(
                weight=float(weights[i]),
                x0=rng.uniform(0.5, 2.0),
                gamma=float(gamma),
                theta=0.0 if theta_zero else rng.uniform(0.0, 1.0),
                alpha=rng.uniform(0.7, 1.4),
                h=GridCurve(grid, h),
                sigma=GridCurve(grid, sg),
                sigma0=GridCurve(grid, s0),
            )
        )
    pop = Population(tuple(types))
    assert validate(pop).ok
    return pop


def sample_agents(pop: Population, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. type indices with probabilities equal to the
    weights: the per-agent oracle that the consistency test's sufficient
    statistics are checked against."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # weights sum to 1 within 1e-12 for validated populations; renormalise so
    # the sampler never sees stray rounding
    p = pop.weights / pop.weights.sum()
    return rng.choice(pop.n_types, size=n, p=p)


@pytest.fixture
def grid200() -> TimeGrid:
    return TimeGrid(1.0, 200)


@pytest.fixture
def ref_pop(grid200) -> Population:
    """Reference scenario: one type, gamma = 0.5, constant parameters."""
    tp = constant_type(grid200, gamma=0.5, theta=0.5, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.1)
    return Population((tp,))


@pytest.fixture
def ref_pop_neg(grid200) -> Population:
    """Reference scenario with gamma = -1."""
    tp = constant_type(grid200, gamma=-1.0, theta=0.5, alpha=1.0, h=0.1, sigma=0.2, sigma0=0.1)
    return Population((tp,))


@pytest.fixture
def random_pop_factory():
    return make_random_population
