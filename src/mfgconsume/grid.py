"""Shared uniform time grid and piecewise-linear curves.

Every module in the package (closed-form formulas, quadrature, ODE sweeps,
path simulation) works on one uniform grid over [0, T], so there is no
interpolation error between modules; resolution is a single knob.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import StructuralError

# relative slack for "t inside [0, T]" checks, absorbs float noise from t
# arithmetic without silently extrapolating
_DOMAIN_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with ``n_steps`` intervals, ``n_steps + 1`` knots."""

    T: float
    n_steps: int
    times: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise StructuralError(f"horizon must be positive and finite, got {self.T!r}")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise StructuralError(f"step count must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise StructuralError(f"grid needs at least one step, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        t = np.linspace(0.0, float(self.T), self.n_steps + 1)
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    def check_time(self, t) -> None:
        """Raise ValueError unless every entry of ``t`` lies in [0, T] (NaN does not)."""
        t = np.asarray(t, dtype=float)
        slack = _DOMAIN_RTOL * max(1.0, self.T)
        if not np.all((t >= -slack) & (t <= self.T + slack)):
            raise ValueError(f"time {t!r} outside [0, {self.T}]")

    def clip_time(self, t):
        """``t`` after :meth:`check_time`, clipped onto [0, T]."""
        self.check_time(t)
        return np.clip(np.asarray(t, dtype=float), 0.0, self.T)

    def interp_rows(self, rows: NDArray, t: float) -> NDArray:
        """Rows of knot values (K, n+1) at one time ``t``, bit-identical to
        ``GridCurve(grid, row)(t)`` per row, whose ``np.interp`` formula this repeats."""
        t = float(self.clip_time(t))
        x = self.times
        j = int(np.searchsorted(x, t, side="right")) - 1
        if x[j] == t:
            return rows[:, j].copy()
        slope = (rows[:, j + 1] - rows[:, j]) / (x[j + 1] - x[j])
        return slope * (t - x[j]) + rows[:, j]


@dataclass(frozen=True)
class GridCurve:
    """Real-valued curve sampled at the grid knots, piecewise-linear in between.

    Immutable after construction; evaluation outside [0, T] is an error,
    never an extrapolation.
    """

    grid: TimeGrid
    values: NDArray[np.float64]

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise StructuralError(f"curve values must be 1-D, got shape {v.shape}")
        if v.shape[0] != self.grid.n_steps + 1:
            raise StructuralError(
                f"curve has {v.shape[0]} knots, grid expects {self.grid.n_steps + 1}"
            )
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise StructuralError(f"non-finite curve value at knot {bad}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: TimeGrid, value: float) -> "GridCurve":
        return cls(grid, np.full(grid.n_steps + 1, float(value)))

    def __call__(self, t):
        """Evaluate at time(s) ``t`` by linear interpolation between knots."""
        return np.interp(self.grid.clip_time(t), self.grid.times, self.values)[()]

