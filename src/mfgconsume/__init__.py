"""Mean-field investment-consumption games: closed-form equilibria,
verification identities, and Monte-Carlo consistency checks.

The public surface mirrors the pipeline: build a :class:`Population` of
agent types on a shared :class:`TimeGrid`, :func:`validate` it,
:func:`solve_equilibrium`, then probe the solution with the ``verify`` and
``montecarlo`` tools or the ``mfgconsume`` command line.
"""

from .closedform import (
    Aggregates,
    EquilibriumSolution,
    Thresholds,
    coeff_A,
    coeff_B,
    coeff_D,
    common_noise_z0,
    constant_consumption,
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
from .errors import (
    ExponentRangeError,
    IntegrationBlowUpError,
    SingularAggregateError,
    StructuralError,
)
from .grid import GridCurve, TimeGrid
from .montecarlo import (
    ConsistencyReport,
    DeviationReport,
    FlowModel,
    Perturbation,
    Strategy,
    UtilityEstimate,
    consistency_test,
    default_perturbations,
    deviation_test,
    equilibrium_strategy,
    estimate_utility,
    exact_utility,
    keyed_stream,
    simulate_wealth,
)
from .population import (
    AgentType,
    Population,
    ValidationReport,
    constant_type,
    validate,
)
from .verify import (
    MopState,
    RelationReport,
    ResidualReport,
    bsde_driver,
    bsde_residual,
    drift_check,
    eval_J,
    mop_drift,
    mop_maximizer,
    relation_check,
    value_function,
)

__version__ = "0.1.0"
