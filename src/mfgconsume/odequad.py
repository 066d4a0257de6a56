"""Deterministic numerical kernels on the shared grid.

Two tools only: a classical fourth-order Runge-Kutta sweep (forward or
backward) and composite trapezoid quadrature with cumulative variants.
Trapezoid is deliberate: second order matches the piecewise-linear curve
model exactly, so a higher-order rule would buy nothing.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np
from numpy.typing import NDArray

from .errors import IntegrationBlowUpError
from .grid import GridCurve, TimeGrid

Direction = Literal["forward", "backward"]
Anchor = Literal["left", "right"]


def _rk4_sweep(
    rhs: Callable, y0, grid: TimeGrid, direction: Direction
) -> NDArray[np.float64]:
    """Raw RK4 sweep; returns state per knot, shape (n+1,) or (m, n+1)."""
    t = grid.times
    n = grid.n_steps
    y = np.asarray(y0, dtype=np.float64)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).copy()
    out = np.empty((y.shape[0], n + 1))

    if direction == "forward":
        knots = range(0, n)
        h = grid.dt
        out[:, 0] = y
    elif direction == "backward":
        knots = range(n, 0, -1)
        h = -grid.dt
        out[:, n] = y
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")

    # divergence is detected and reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in knots:
            ti = t[i]
            k1 = rhs(ti, y)
            k2 = rhs(ti + h / 2, y + (h / 2) * k1)
            k3 = rhs(ti + h / 2, y + (h / 2) * k2)
            k4 = rhs(ti + h, y + h * k3)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            j = i + 1 if direction == "forward" else i - 1
            if not np.all(np.isfinite(y)):
                raise IntegrationBlowUpError(j, float(t[j]))
            out[:, j] = y

    return out[0] if scalar else out


def rk4_integrate(
    rhs: Callable,
    boundary_value,
    direction: Direction,
    grid: TimeGrid,
) -> GridCurve | NDArray[np.float64]:
    """Solve y' = rhs(t, y) on the grid with classical RK4.

    ``direction='forward'`` starts from ``boundary_value`` at t = 0;
    ``direction='backward'`` starts from it at t = T and sweeps to 0.
    A scalar boundary value yields a :class:`GridCurve`; an array boundary
    integrates the states jointly and yields the raw (m, n+1) matrix.
    A non-finite state mid-sweep raises :class:`IntegrationBlowUpError`
    carrying the first bad knot.
    """
    values = _rk4_sweep(rhs, boundary_value, grid, direction)
    if values.ndim == 1:
        return GridCurve(grid, values)
    return values


def cumtrapz_left(values: NDArray, dt: float) -> NDArray[np.float64]:
    """Composite-trapezoid running integral from the left edge, along the
    last axis: out[..., i] approximates the integral of f over [t_0, t_i]."""
    v = np.asarray(values, dtype=np.float64)
    steps = (v[..., :-1] + v[..., 1:]) * (dt / 2.0)
    out = np.zeros(v.shape)
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def cumtrapz_right(values: NDArray, dt: float) -> NDArray[np.float64]:
    """Running integral to the right edge: out[..., i] ~ integral over [t_i, T].

    Computed as total minus left cumulative, so the anchor-flip identity
    left + right = total holds exactly at every knot.
    """
    left = cumtrapz_left(values, dt)
    return left[..., -1:] - left


def trapezoid_cumulative(f: GridCurve, anchor: Anchor) -> GridCurve:
    """Cumulative trapezoid integral of a grid curve.

    ``anchor='left'`` returns t -> integral over [0, t];
    ``anchor='right'`` returns t -> integral over [t, T].
    """
    if anchor == "left":
        vals = cumtrapz_left(f.values, f.grid.dt)
    elif anchor == "right":
        vals = cumtrapz_right(f.values, f.grid.dt)
    else:
        raise ValueError(f"anchor must be 'left' or 'right', got {anchor!r}")
    return GridCurve(f.grid, vals)
