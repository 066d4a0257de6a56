"""Deterministic numerical kernels on the shared grid.

Two tools only: the backward classical fourth-order Runge-Kutta sweep of the
consumption Riccati equation, and composite trapezoid running integrals.
Trapezoid is deliberate: second order matches the piecewise-linear curve
model exactly, so a higher-order rule would buy nothing.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import IntegrationBlowUpError


def riccati_sweep(b: NDArray, d: NDArray, dt: float) -> NDArray[np.float64]:
    """Classical RK4 for ``y' = B y + y^2`` backward from ``y(T) = d``.

    ``b`` holds B at the knots of each row, shape (K, n+1), and ``d`` the K
    terminal values; returns y at the knots, shape (K, n+1), the rows swept
    jointly. The step from knot i to i-1 takes B at knot i, at the midpoint
    as the mean of the two knots (exact for piecewise-linear B), and at knot
    i-1. A non-finite state raises :class:`IntegrationBlowUpError` carrying
    the first bad knot.
    """
    n = b.shape[1] - 1
    h = -dt
    b_mid = (b[:, :-1] + b[:, 1:]) / 2.0
    y = np.array(d, dtype=np.float64)
    out = np.empty(b.shape)
    out[:, n] = y

    # divergence is detected and reported, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n, 0, -1):
            k1 = b[:, i] * y + y * y
            y2 = y + (h / 2) * k1
            k2 = b_mid[:, i - 1] * y2 + y2 * y2
            y3 = y + (h / 2) * k2
            k3 = b_mid[:, i - 1] * y3 + y3 * y3
            y4 = y + h * k3
            k4 = b[:, i - 1] * y4 + y4 * y4
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise IntegrationBlowUpError(i - 1, (i - 1) * dt)
            out[:, i - 1] = y

    return out


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
