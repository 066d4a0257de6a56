"""Monte-Carlo engine: wealth simulation, mean-field flow, utility
estimation, no-profitable-deviation and fixed-point consistency tests.

Determinism contract: every stochastic routine takes an integer seed and
derives independent counter-based streams (Philox) from (seed, purpose,
chunk). Samples are processed in fixed-size chunks and reduced in chunk
order, so results are bit-identical for any thread count; the
``MFG_CONSUME_THREADS`` environment variable only sizes the worker pool.
Within a chunk, payoff paths are built and reduced in row blocks sized to
stay in L2 cache. Each block draws its own increments, in row order, from
the chunk's two streams into buffers reused across blocks: a counter-based
stream fills row after row, so these draws equal one chunk-sized draw per
stream bit for bit, and no chunk-sized draw array is held. Every sample
row is computed by the same operations in any block, and reduced by one
``einsum`` pass along the row (no BLAS), so outputs depend on neither the
block size nor the thread count. Payoffs build no population index per
block: the index and the consumption offset are folded into each
strategy's Euler rows. A block takes one path build for the reference
strategy and at most one more, the unit-pi noise sum N, for every strategy
whose ``pi`` is a step of the reference's. Such a step reads the
reference's exponential times exp(|d| N), one exponential per distinct
step size |d|; strategies with the same ``pi`` share one exponential.

Simulation is Euler in log-wealth coordinates: volatilities at the left
endpoint, matching the Ito integral, and the drift by the trapezoid rule;
``FlowModel`` is the population mean of the same step. For constant
coefficients the scheme is exact in distribution.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .closedform import EquilibriumSolution
from .grid import GridCurve, TimeGrid
from .population import AgentType, Population, sample_agents

CHUNK = 4096
# bytes of one row block's (rows, n_steps + 1) float64 path buffers; the block's
# three (rows, n_steps) draw and product buffers come on top of these
_BLOCK_BYTES = 1 << 20

DEFAULT_PI_CAP = 10.0
DEFAULT_C_MIN = 1e-3
DEFAULT_C_MAX = 10.0

_MASK64 = (1 << 64) - 1

# stream-id namespaces; (domain, a, b) -> one 64-bit id
_DOM_UTIL_W0 = 1
_DOM_UTIL_W = 2
_DOM_CONS_W0 = 3
_DOM_CONS_TYPES = 4
_DOM_CONS_W = 5
_DOM_BUNDLE_W0 = 6
_DOM_BUNDLE_W = 7
_DOM_RELATION = 8


def _sid(domain: int, a: int = 0, b: int = 0) -> int:
    return ((domain << 56) | (a << 28) | b) & _MASK64


def philox_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, stream id)."""
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _n_threads() -> int:
    raw = os.environ.get("MFG_CONSUME_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _map_ordered(fn: Callable[[int], object], count: int) -> list:
    """Apply fn to 0..count-1, in order; thread count never changes results.
    Every call shares one worker pool, rebuilt only when the thread count changes."""
    global _pool
    threads = _n_threads()
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            if _pool is not None:
                _pool[1].shutdown()
            _pool = (threads, ThreadPoolExecutor(max_workers=threads))
        pool = _pool[1]
    return list(pool.map(fn, range(count)))


def _chunks(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]


def _blocks(m: int, n_steps: int, buffers: int) -> list[slice]:
    """Row slices of ``m`` samples, each block's ``buffers`` path buffers
    together about ``_BLOCK_BYTES``."""
    size = max(1, _BLOCK_BYTES // (8 * buffers * (n_steps + 1)))
    return [slice(lo, min(lo + size, m)) for lo in range(0, m, size)]


def _chunk_moments(n: int, rows: Callable[[int, tuple[int, int]], NDArray]) -> tuple[NDArray, NDArray]:
    """Sample mean and standard error of each row over ``n`` samples.

    ``rows(i, chunk)`` returns chunk ``i``'s samples, shape (rows, chunk
    size). Each chunk is reduced where it is drawn to its per-row mean and
    sum of squared deviations from that mean (two passes), and the chunks
    are merged in chunk order by Chan et al.'s update. The result does not
    depend on the thread count, and the variance does not cancel when the
    spread is small next to the mean. A row whose min equals its max has a
    stderr of exactly 0.
    """
    ranges = _chunks(n)

    def one(i: int) -> tuple[NDArray, ...]:
        x = rows(i, ranges[i])
        mean = x.sum(axis=1) / x.shape[1]
        d = x - mean[:, None]
        return mean, (d * d).sum(axis=1), x.min(axis=1), x.max(axis=1)

    parts = _map_ordered(one, len(ranges))
    count, mean, m2 = 0, 0.0, 0.0
    for (a, b), (mean_b, m2_b, _, _) in zip(ranges, parts):
        n_b = b - a
        total = count + n_b
        delta = mean_b - mean
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (count * n_b / total)
        count = total
    lo = np.min([p[2] for p in parts], axis=0)
    hi = np.max([p[3] for p in parts], axis=0)
    return mean, np.where(lo == hi, 0.0, np.sqrt(m2 / max(1, n - 1) / n))


# ---------------------------------------------------------------------------
# strategies and noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """Deterministic control pair: per-knot investment rate ``pi`` and
    consumption rate ``c``. Admissibility bounds are enforced at
    construction: ``max|pi| <= pi_cap`` and ``c_min <= c <= c_max``."""

    grid: TimeGrid
    pi: NDArray
    c: NDArray
    pi_cap: float = DEFAULT_PI_CAP
    c_min: float = DEFAULT_C_MIN
    c_max: float = DEFAULT_C_MAX

    def __post_init__(self):
        if not (self.c_min > 0.0 and self.c_max >= self.c_min and self.pi_cap > 0.0):
            raise ValueError("need c_max >= c_min > 0 and pi_cap > 0")
        pi = np.asarray(self.pi, dtype=np.float64).copy()
        c = np.asarray(self.c, dtype=np.float64).copy()
        n_knots = self.grid.n_steps + 1
        if pi.shape != (n_knots,) or c.shape != (n_knots,):
            raise ValueError(f"strategy curves must have {n_knots} knots")
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(c))):
            raise ValueError("strategy curves must be finite")
        if float(np.abs(pi).max()) > self.pi_cap:
            raise ValueError(f"|pi| exceeds cap {self.pi_cap}")
        if float(c.min()) < self.c_min or float(c.max()) > self.c_max:
            raise ValueError(f"c outside [{self.c_min}, {self.c_max}]")
        pi.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "c", c)


def equilibrium_strategy(
    sol: EquilibriumSolution,
    k: int,
    pi_cap: float = DEFAULT_PI_CAP,
    c_min: float = DEFAULT_C_MIN,
    c_max: float = DEFAULT_C_MAX,
) -> Strategy:
    """The solved equilibrium controls of type ``k`` as an admissible strategy."""
    return Strategy(sol.grid, sol.pi_star[k], sol.c_star[k], pi_cap, c_min, c_max)


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments for a batch of samples: one shared common-noise
    path ``w0_increments`` (n_steps,) and per-sample idiosyncratic increments
    ``w_increments`` (n_samples, n_steps), each ~ N(0, dt) under the seeded
    counter-based generator."""

    w0_increments: NDArray
    w_increments: NDArray
    seed: int
    n_samples: int

    @classmethod
    def generate(cls, grid: TimeGrid, n_samples: int, seed: int) -> "NoiseBundle":
        if n_samples < 1:
            raise ValueError(f"need n_samples >= 1, got {n_samples}")
        sd = np.sqrt(grid.dt)
        w0 = philox_stream(seed, _sid(_DOM_BUNDLE_W0)).normal(0.0, sd, grid.n_steps)
        w = philox_stream(seed, _sid(_DOM_BUNDLE_W)).normal(0.0, sd, (n_samples, grid.n_steps))
        return cls(w0, w, seed, n_samples)


# ---------------------------------------------------------------------------
# wealth simulation
# ---------------------------------------------------------------------------


def _euler_rows(h, sigma, sigma0, pi, c, dt: float) -> tuple[NDArray, NDArray, NDArray]:
    """Euler coefficients of the log-wealth step over the last axis, each one
    knot shorter: the log-wealth drift pi h - c - pi^2 (sigma^2 + sigma0^2) / 2
    integrated by the trapezoid rule over the step, and pi * sigma and
    pi * sigma0 at its left endpoint."""
    g = pi * h - c - 0.5 * pi**2 * (sigma**2 + sigma0**2)
    return (g[..., :-1] + g[..., 1:]) * (dt / 2), (pi * sigma)[..., :-1], (pi * sigma0)[..., :-1]


def _build_paths(
    out: NDArray, log_x0, drift: NDArray, vol_w: NDArray, vol_w0: NDArray, dw, dw0, scratch: NDArray | None = None
) -> NDArray:
    """Log-wealth paths from one set of Euler coefficient rows and
    increments, written into ``out`` of shape (m, n+1). ``scratch``, shaped
    like ``out[:, 1:]``, takes the common-noise term; without it that term
    is a new array."""
    inc = out[:, 1:]
    np.multiply(vol_w, dw, out=inc)
    inc += drift
    inc += np.multiply(vol_w0, dw0, out=scratch)
    np.cumsum(inc, axis=1, out=inc)
    out[:, 0] = log_x0
    out[:, 1:] += out[:, :1]
    return out


def _logwealth_paths(
    x0: float,
    h: NDArray,
    sigma: NDArray,
    sigma0: NDArray,
    pi: NDArray,
    c: NDArray,
    dw: NDArray,
    dw0: NDArray,
    dt: float,
) -> NDArray:
    """Euler log-wealth paths, shape (m, n+1); see ``_euler_rows``."""
    m, n = np.broadcast_shapes(np.shape(dw), np.shape(dw0))
    out = np.empty((m, n + 1))
    return _build_paths(out, np.log(x0), *_euler_rows(h, sigma, sigma0, pi, c, dt), dw, dw0)


def simulate_wealth(
    agent: AgentType, strategy: Strategy, noise: NoiseBundle, sample_index: int = 0
) -> GridCurve:
    """Log-wealth path of one sample under the given bounded strategy."""
    grid = agent.grid
    dw = noise.w_increments[sample_index][None, :]
    dw0 = noise.w0_increments[None, :]
    path = _logwealth_paths(
        agent.x0, agent.h.values, agent.sigma.values, agent.sigma0.values,
        strategy.pi, strategy.c, dw, dw0, grid.dt,
    )
    return GridCurve(grid, path[0])


# ---------------------------------------------------------------------------
# mean-field flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanFieldFlow:
    """Log-geometric-mean processes conditional on one common-noise path:
    ``mu_hat(t) = E[log X* | common noise]`` and
    ``nu_hat(t) = E[log c*] + mu_hat(t)``; ``mu_hat(0) = E[log x0]``."""

    mu_hat: GridCurve
    nu_hat: GridCurve
    w0_increments: NDArray


class FlowModel:
    """Mean-field flow of a solved equilibrium: the population mean of the
    Euler log-wealth step. The step is linear in its rows, so along one
    common-noise path the weighted mean of the types' Euler paths, with no
    idiosyncratic noise, is the Euler path built from the mean rows:

        mu_hat(t_q) = E[log x0] + sum_{i<q} (E[drift_i] + E[pi* sigma0](t_i) dW0_i)

    ``rows`` holds the per-type Euler rows (``_euler_rows``) of the
    equilibrium controls, each (K, n); ``mu_det`` is the flow at zero
    common noise.
    """

    def __init__(self, pop: Population, sol: EquilibriumSolution):
        self.grid = pop.grid
        self.rows = _euler_rows(pop.h_mat, pop.sigma_mat, pop.sigma0_mat, sol.pi_star, sol.c_star, self.grid.dt)
        self.mean_drift, self.mean_vol_w0 = pop.mean(self.rows[0]), pop.mean(self.rows[2])
        self.e_logx = float(np.dot(pop.weights, np.log(pop.x0s)))
        self.e_logc = pop.mean(np.log(sol.c_star))
        self.mu_det = self.mu_values(np.zeros(self.grid.n_steps))

    def mu_values(self, w0_increments: NDArray) -> NDArray:
        """mu_hat at every knot for one common-noise path, shape (n+1,)."""
        return self.mu_batch(np.asarray(w0_increments)[None, :])[0]

    def mu_batch(self, dw0: NDArray) -> NDArray:
        """mu_hat curves for a batch of common-noise paths, shape (m, n+1)."""
        out = np.empty((dw0.shape[0], self.grid.n_steps + 1))
        return _build_paths(out, self.e_logx, self.mean_drift, 0.0, self.mean_vol_w0, 0.0, dw0)

    def along(self, w0_increments: NDArray) -> MeanFieldFlow:
        w0 = np.asarray(w0_increments, dtype=float)
        if w0.shape != (self.grid.n_steps,):
            raise ValueError(f"need {self.grid.n_steps} increments, got {w0.shape}")
        mu = self.mu_values(w0)
        return MeanFieldFlow(
            mu_hat=GridCurve(self.grid, mu),
            nu_hat=GridCurve(self.grid, self.e_logc + mu),
            w0_increments=w0,
        )


def mean_field_flow(pop: Population, sol: EquilibriumSolution, w0_increments) -> MeanFieldFlow:
    """Mean-field flow of the equilibrium along one common-noise path."""
    return FlowModel(pop, sol).along(w0_increments)


# ---------------------------------------------------------------------------
# expected utility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte-Carlo mean, standard error and sample count of an expected
    utility; ``stderr`` is exactly zero iff the payoff is degenerate."""

    mean: float
    stderr: float
    n_samples: int


# largest max|z - z_ref| for which a strategy reads a shared exp(z_ref): exp(+-30)
# cannot overflow, and exp(z_ref) underflows only where exp(z) is subnormal itself
_MAX_SHARED_SHIFT = 30.0
# largest |D| and |d| max|N| for which a pi step reads exp(z_ref) exp(|d| N): each
# factor and summed term then lies within exp(+-60) of the exp(z) it stands for,
# so it overflows or underflows only where exp(z) nearly does itself
_MAX_STEP_SHIFT = 30.0


def _step(pi: NDArray, ref: NDArray) -> tuple[int, int, float] | None:
    """``(lo, hi, d)`` when ``pi - ref`` over the left-endpoint knots is ``d``
    on the knots [lo, hi) and 0 elsewhere, up to the rounding of ``pi``
    itself; None for any other difference."""
    diff = pi[:-1] - ref[:-1]
    nz = np.flatnonzero(diff)
    if nz.size == 0:
        return 0, 0, 0.0
    lo, hi = int(nz[0]), int(nz[-1]) + 1
    d = float(diff[lo:hi].mean())
    tol = 4.0 * np.spacing(np.maximum(np.abs(pi[lo:hi]), np.abs(ref[lo:hi])))
    return (lo, hi, d) if np.all(np.abs(diff[lo:hi] - d) <= tol) else None


def _row_sum(z: NDArray, w: NDArray) -> NDArray | float:
    """One ``einsum`` pass of weighted row sums; 0 on an empty knot range."""
    return np.einsum("ij,j->i", z, w) if w.size else 0.0


def _payoffs(
    agent: AgentType,
    strategies: Sequence[Strategy],
    flow: FlowModel,
    m: int,
    draws: Callable[[NDArray, NDArray], None],
) -> NDArray:
    """Per-sample utility of each strategy on the same draws, shape
    (strategies, m): terminal power utility of wealth relative to the
    population index, plus the time integral of the consumption utility
    (trapezoid in time).

    The Euler step is linear in its rows and the index ``mu_hat`` is the
    Euler path of the flow's mean rows, so the consumption exponent
    z = g (log X - th mu_hat) + off, off = g (log c - th E[log c]), is itself
    one Euler path of folded rows; no population index is built. The
    payoff is then one weighted row sum of exp(z): trapezoid weights
    (al/g) dt, plus exp(-off_T)/g on the last knot for the terminal term.

    Only the reference ``strategies[0]`` always takes a path build, and its
    R = exp(z_ref) is kept. A ``pi`` that is a step of the reference's
    (``_step``: d on the left-endpoint knots [lo, hi), 0 elsewhere) changes
    the noise rows only there, by d times the unit-pi rows g sigma and
    g sigma0. With D the deterministic difference of the two strategies'
    rows, N the unit-pi noise sum and E = exp(d N), exp(z) is
    R e^D E[clip(q, lo, hi)] / E[lo]: e^D goes into the weights, and per
    block exp(|d| N) is taken once per distinct |d| and R exp(+-|d| N) once
    per size and sign. A step's payoff is three row sums: R before lo, the
    product on [lo, hi] over E[lo], and R after hi times E[hi] / E[lo].
    A step with max|D|, or a sample row with |d| max|N|, at
    ``_MAX_STEP_SHIFT`` or past it takes its own build instead; the check is
    per row, so outputs do not depend on the block size. Any other ``pi``
    takes its own build too. Strategies with the same ``pi`` differ from
    their group's first member by a deterministic curve; while its max stays
    under ``_MAX_SHARED_SHIFT`` they read the first member's exponential with
    weights scaled by its exp, else they start a group of their own.

    Samples are taken in row blocks, in buffers reused across blocks. Each
    block's increments are drawn by ``draws(dw, dw0)`` (``_utility_draws``)
    into two (rows, n_steps) buffers that this call owns, in row order, so
    no chunk-sized draw array exists; a third buffer of that shape takes
    each build's common-noise term. Each weighted row sum is one ``einsum``
    pass over its row (no BLAS), so results depend on neither the block size
    nor the thread count."""
    g, th = agent.gamma, agent.theta
    dt = agent.grid.dt
    market = (agent.h.values, agent.sigma.values, agent.sigma0.values)
    trapezoid = np.full(agent.grid.n_steps + 1, agent.alpha / g * dt)
    trapezoid[[0, -1]] /= 2
    # step sizes equal up to the rounding of pi share one exp(|d| N)
    tol = 4.0 * np.spacing(max(float(np.abs(s.pi).max()) for s in strategies))
    sizes: list[float] = []

    def shift(rows: tuple, ref: tuple) -> NDArray:
        """z - z_ref for two sets of folded rows, less their noise terms."""
        return rows[0] - ref[0] + np.concatenate(([0.0], np.cumsum(rows[1] - ref[1])))

    def step_of(s: Strategy, rows: tuple) -> tuple[int, int, int, bool] | None:
        """``(lo, hi, index of |d| in sizes, d > 0)`` of a step that reads R;
        index -1 where ``pi`` equals the reference's on the left-endpoint knots."""
        step = _step(s.pi, strategies[0].pi) if groups else None
        if step is None or np.abs(shift(rows, groups[0][0])).max() >= _MAX_STEP_SHIFT:
            return None
        lo, hi, d = step
        if lo == hi:
            return 0, 0, -1, True
        k = next((k for k, size in enumerate(sizes) if abs(abs(d) - size) <= tol), len(sizes))
        if k == len(sizes):
            sizes.append(abs(d))
        return lo, hi, k, d > 0

    # (folded rows, the step off the reference or None, members, weights)
    groups: list[tuple[tuple, tuple | None, list[int], list[NDArray]]] = []
    for j, s in enumerate(strategies):
        drift, vol_w, vol_w0 = _euler_rows(*market, s.pi, s.c, dt)
        off = g * (np.log(s.c) - th * flow.e_logc)
        rows = (
            g * (np.log(agent.x0) - th * flow.e_logx) + off[0],
            g * (drift - th * flow.mean_drift) + np.diff(off),
            g * vol_w,
            g * (vol_w0 - th * flow.mean_vol_w0),
        )
        for head, step, members, weights in groups:
            if np.array_equal(s.pi, strategies[members[0]].pi):
                # same noise rows, so z - z_head is a deterministic curve
                if np.abs(shift(rows, head)).max() < _MAX_SHARED_SHIFT:
                    break
        else:
            head, step, members, weights = rows, step_of(s, rows), [], []
            groups.append((head, step, members, weights))
        dz = shift(rows, head if step is None else groups[0][0])  # a step reads R: e^D goes into its weights
        w = trapezoid * np.exp(dz)
        w[-1] += np.exp(dz[-1] - off[-1]) / g
        members.append(j)
        weights.append(w)

    own = [group for group in groups if group[1] is None]
    steps = sorted((group for group in groups if group[1] is not None), key=lambda group: group[1][2:])
    n_buf = 1 + bool(steps) + 2 * bool(sizes)  # R, an own build's exp(z) or R E^(+-1), N, E
    unit_rows = (0.0, 0.0, g * agent.sigma.values[:-1], g * agent.sigma0.values[:-1])
    n = agent.grid.n_steps
    blocks = _blocks(m, n, n_buf)
    buf = np.empty((n_buf, blocks[0].stop, n + 1))
    drawn = np.empty((3, blocks[0].stop, n))  # dW, dW0 and a build's common-noise term
    out = np.empty((len(strategies), m))
    for b in blocks:
        views = buf[:, : b.stop - b.start]
        r, ez = views[0], views[-1]  # ez is r when no step reads r
        dw, dw0, scratch = drawn[:, : b.stop - b.start]
        draws(dw, dw0)
        for i, (rows, _, members, weights) in enumerate(own):
            z = r if i == 0 else ez
            np.exp(_build_paths(z, *rows, dw, dw0, scratch), out=z)
            for j, w in zip(members, weights):
                out[j, b] = np.einsum("ij,j->i", z, w)
        if sizes:
            noise, e = views[1:3]
            _build_paths(noise, *unit_rows, dw, dw0, scratch)
            span = np.maximum(noise.max(axis=1), -noise.min(axis=1))
            far = [np.flatnonzero(size * span >= _MAX_STEP_SHIFT) for size in sizes]
        held = None  # the (size index, sign) whose R E^(+-1) ez holds
        for _, (lo, hi, k, up), members, weights in steps:
            if k < 0:
                for j, w in zip(members, weights):
                    out[j, b] = np.einsum("ij,j->i", r, w)
                continue
            if held is None or held[0] != k:
                np.multiply(noise, sizes[k], out=e)
                e[far[k]] = 0.0  # rows past the bound take their own build below
                np.exp(e, out=e)
            if held != (k, up):
                (np.multiply if up else np.divide)(r, e, out=ez)
                held = (k, up)
            e_lo, e_hi = e[:, lo], e[:, hi]
            for j, w in zip(members, weights):
                mid = _row_sum(ez[:, lo : hi + 1], w[lo : hi + 1])
                after = _row_sum(r[:, hi + 1 :], w[hi + 1 :])
                mid = (mid + after * e_hi) / e_lo if up else (mid + after / e_hi) * e_lo
                out[j, b] = _row_sum(r[:, :lo], w[:lo]) + mid
        for rows, (_, _, k, _), members, weights in steps:
            if k >= 0 and far[k].size:
                # the reference's deterministic rows: the weights carry e^D
                rel, rows = far[k], (*own[0][0][:2], *rows[2:])
                z = ez[: rel.size]
                np.exp(_build_paths(z, *rows, dw[rel], dw0[rel], scratch[: rel.size]), out=z)
                for j, w in zip(members, weights):
                    out[j, b.start + rel] = np.einsum("ij,j->i", z, w)
    return out


def _utility_draws(grid: TimeGrid, seed: int, i: int) -> Callable[[NDArray, NDArray], None]:
    """The increments of utility chunk ``i`` as a filler: each call
    ``fill(dw, dw0)`` writes the next rows of the chunk's W and W0 Philox
    streams, N(0, dt) each, into two C-ordered (rows, n_steps) buffers.

    ``standard_normal(out=buf)`` then ``buf *= sqrt(dt)`` is what
    ``normal(0, sqrt(dt))`` computes for each value, and a counter-based
    stream fills in row order, so consecutive fills of any row counts equal
    one (chunk size, n_steps) ``normal`` call per stream, bit for bit. The
    utility estimate and the paired deviation test draw the same ones."""
    sd = np.sqrt(grid.dt)
    w = philox_stream(seed, _sid(_DOM_UTIL_W, i))
    w0 = philox_stream(seed, _sid(_DOM_UTIL_W0, i))

    def fill(dw: NDArray, dw0: NDArray) -> None:
        for stream, buf in ((w, dw), (w0, dw0)):
            stream.standard_normal(out=buf)
            buf *= sd

    return fill


def estimate_utility(
    agent: AgentType, strategy: Strategy, flow: FlowModel, n: int, seed: int
) -> UtilityEstimate:
    """Estimate the expected utility of ``strategy`` for one agent type.

    Both noises are integrated out: every sample draws a fresh common-noise
    path and a fresh idiosyncratic path. The population index along each
    common-noise path is folded into the payoff's Euler rows (``_payoffs``),
    so no flow is built per sample.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mean, stderr = _chunk_moments(
        n, lambda i, chunk: _payoffs(agent, [strategy], flow, chunk[1] - chunk[0], _utility_draws(agent.grid, seed, i))
    )
    return UtilityEstimate(float(mean[0]), float(stderr[0]), n)


# ---------------------------------------------------------------------------
# no-profitable-deviation test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """A named admissible deviation from the equilibrium; ``large`` marks
    perturbations big enough that the utility gap must be statistically
    visible."""

    name: str
    strategy: Strategy
    large: bool


@dataclass(frozen=True)
class DeviationRow:
    name: str
    delta: float          # J(equilibrium) - J(perturbation), paired estimate
    stderr: float         # paired standard error
    large: bool
    flagged: bool         # delta < -2 * stderr: profitable deviation found


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple[DeviationRow, ...]
    n_samples: int

    @property
    def margin(self) -> float:
        """Smallest ``delta + 2 stderr``; negative exactly when a row is flagged."""
        return min((r.delta + 2.0 * r.stderr for r in self.rows), default=np.inf)

    @property
    def large_margin(self) -> float:
        """Smallest ``delta - 2 stderr`` over the large perturbations."""
        return min((r.delta - 2.0 * r.stderr for r in self.rows if r.large), default=np.inf)

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    @property
    def large_detected(self) -> bool:
        return self.large_margin > 0.0


def default_perturbations(
    sol: EquilibriumSolution,
    k: int,
    pi_cap: float = DEFAULT_PI_CAP,
    c_min: float = DEFAULT_C_MIN,
    c_max: float = DEFAULT_C_MAX,
) -> list[Perturbation]:
    """The standard 20-entry deviation library around type ``k``'s
    equilibrium: constant investment shifts, consumption rescalings, and
    time-localised bumps of both controls."""
    grid = sol.grid
    pi0 = sol.pi_star[k]
    c0 = sol.c_star[k]
    n = grid.n_steps
    mk = lambda pi, c: Strategy(grid, pi, c, pi_cap, c_min, c_max)

    out: list[Perturbation] = []
    for d in (0.1, 0.5, 1.0):
        out.append(Perturbation(f"pi+{d:g}", mk(pi0 + d, c0), d >= 0.5))
        out.append(Perturbation(f"pi-{d:g}", mk(pi0 - d, c0), d >= 0.5))
    for r in (0.5, 0.8, 1.25, 2.0):
        out.append(Perturbation(f"c*{r:g}", mk(pi0, c0 * r), r <= 0.5 or r >= 2.0))
    thirds = [(0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n + 1)]
    for j, (lo, hi) in enumerate(thirds):
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            pi = pi0.copy()
            pi[lo:hi] += sign * 1.0
            out.append(Perturbation(f"pi{tag}1.0@third{j}", mk(pi, c0), True))
    halves = [(0, n // 2), (n // 2, n + 1)]
    for j, (lo, hi) in enumerate(halves):
        for r in (1.5, 0.7):
            c = c0.copy()
            c[lo:hi] *= r
            out.append(Perturbation(f"c*{r:g}@half{j}", mk(pi0, c), False))
    assert len(out) == 20
    return out


def deviation_test(
    pop: Population,
    k: int,
    sol: EquilibriumSolution,
    perturbations: Sequence[Perturbation],
    n: int,
    seed: int,
    pi_cap: float = DEFAULT_PI_CAP,
    c_min: float = DEFAULT_C_MIN,
    c_max: float = DEFAULT_C_MAX,
) -> DeviationReport:
    """Paired common-random-number comparison of the equilibrium against each
    perturbation: every sample reuses identical (W, W0) draws for all
    strategies, so delta estimates carry only the strategy difference."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    agent = pop.types[k]
    flow = FlowModel(pop, sol)
    strategies = [equilibrium_strategy(sol, k, pi_cap, c_min, c_max), *(p.strategy for p in perturbations)]

    def diffs(i: int, chunk: tuple[int, int]) -> NDArray:
        pay = _payoffs(agent, strategies, flow, chunk[1] - chunk[0], _utility_draws(pop.grid, seed, i))
        return pay[0] - pay[1:]

    delta, stderr = _chunk_moments(n, diffs)
    rows = [
        DeviationRow(p.name, float(d), float(e), p.large, bool(d < -2.0 * e))
        for p, d, e in zip(perturbations, delta, stderr)
    ]
    return DeviationReport(tuple(rows), n)


# ---------------------------------------------------------------------------
# fixed-point consistency test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyRow:
    path_index: int
    t: float
    empirical_mean: float
    flow_mu: float
    stderr: float
    deviation_units: float


@dataclass(frozen=True)
class ConsistencyReport:
    rows: tuple[ConsistencyRow, ...]
    max_deviation_units: float
    n_agents: int


def consistency_w0(grid: TimeGrid, seed: int, path: int) -> NDArray:
    """Common-noise increments of consistency-test path ``path``, (n_steps,)."""
    return philox_stream(seed, _sid(_DOM_CONS_W0, path)).normal(0.0, np.sqrt(grid.dt), grid.n_steps)


def consistency_test(
    pop: Population,
    sol: EquilibriumSolution,
    n_agents: int,
    n_w0_paths: int,
    seed: int,
    probe_times: Sequence[float] | None = None,
    stratified: bool = False,
    w0_seed: int | None = None,
) -> ConsistencyReport:
    """Fixed-point check: per common-noise path, the empirical mean
    log-wealth of ``n_agents`` simulated agents (types drawn by weight,
    independent idiosyncratic noise, equilibrium controls) is compared with
    the semi-analytic flow, in units of the empirical standard error.

    Agents are simulated at the probe knots only, exactly in distribution
    for the Euler scheme: with deterministic controls and curves, log-wealth
    at knot q is a per-type constant plus sum_{i<q} vol_w dW_i, and between
    two probes that sum gains an independent N(0, sum vol_w^2 dt). So each
    agent draws one normal per probe segment, in sorted probe order.

    Agent noise streams are keyed independently of the common-noise values,
    so with no common-noise exposure the report does not depend on the
    common-noise path. ``stratified=True`` allocates agents to types by
    exact proportion instead of sampling, as a variance-reduction option.
    """
    if n_agents < 1 or n_w0_paths < 1:
        raise ValueError("need n_agents >= 1 and n_w0_paths >= 1")
    grid = pop.grid
    times = grid.times
    if probe_times is None:
        probe_times = np.linspace(0.2 * grid.T, grid.T, 5)
    probe_idx = [int(round(t / grid.dt)) for t in probe_times]
    for t in probe_times:
        grid.check_time(t)
    knots = np.unique(probe_idx)
    rank = np.searchsorted(knots, probe_idx)  # sorted row of each caller probe

    flow = FlowModel(pop, sol)
    drift, vol_w, vol_w0 = flow.rows
    log_x0 = np.log(pop.x0s)
    var = np.zeros((pop.n_types, grid.n_steps + 1))
    np.cumsum(vol_w**2 * grid.dt, axis=1, out=var[:, 1:])
    seg_sd = np.sqrt(np.diff(var[:, knots].T, axis=0, prepend=0.0))  # (probes, K)

    rows: list[ConsistencyRow] = []
    for p in range(n_w0_paths):
        w0 = consistency_w0(grid, seed if w0_seed is None else w0_seed, p)
        mu = flow.mu_values(w0)
        # the per-type part: Euler paths with the idiosyncratic increments set to 0
        base = _build_paths(np.empty_like(var), log_x0, drift, vol_w, vol_w0, 0.0, w0)[:, knots].T
        if stratified:
            counts = np.floor(pop.weights * n_agents).astype(int)
            counts[0] += n_agents - counts.sum()
            types = np.repeat(np.arange(pop.n_types), counts)
        else:
            types = sample_agents(pop, n_agents, philox_stream(seed, _sid(_DOM_CONS_TYPES, p)))

        def probes(i: int, chunk: tuple[int, int]) -> NDArray:
            ti = types[slice(*chunk)]
            z = philox_stream(seed, _sid(_DOM_CONS_W, p, i)).standard_normal((len(knots), ti.size))
            z *= seg_sd[:, ti]
            np.cumsum(z, axis=0, out=z)
            z += base[:, ti]
            return z

        means, stderrs = _chunk_moments(n_agents, probes)
        for idx, mean, stderr in zip(probe_idx, means[rank], stderrs[rank]):
            diff = abs(mean - mu[idx])
            if stderr == 0.0:
                units = 0.0 if diff < 1e-12 else np.inf
            else:
                units = diff / stderr
            rows.append(
                ConsistencyRow(p, float(times[idx]), float(mean), float(mu[idx]), float(stderr), float(units))
            )

    max_units = max(r.deviation_units for r in rows)
    return ConsistencyReport(tuple(rows), float(max_units), n_agents)
