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
block size nor the thread count.

Simulation is Euler in log-wealth coordinates: volatilities at the left
endpoint, matching the Ito integral, and the drift by the trapezoid rule.
``_euler_rows`` is the one statement of the step. ``FlowModel`` is the
population mean of its rows, and payoffs fold that index into each
strategy's rows (``_folded_rows``), so no index is built per block. A
block builds the reference strategy's path once. A strategy whose folded
noise rows step off the reference's by a multiple of the unit-pi rows
reads that build and one unit-pi noise sum; any other takes its own. For
constant coefficients the scheme is exact in distribution.
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
from .grid import TimeGrid
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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
# strategies
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
    is a new array. A drift or start that is all zero is not added."""
    inc = out[:, 1:]
    np.multiply(vol_w, dw, out=inc)
    if np.any(drift):
        inc += drift
    inc += np.multiply(vol_w0, dw0, out=scratch)
    np.cumsum(inc, axis=1, out=inc)
    out[:, 0] = log_x0
    if np.any(log_x0):
        out[:, 1:] += out[:, :1]
    return out


def simulate_wealth(agent: AgentType, strategy: Strategy, dw, dw0) -> NDArray:
    """Euler log-wealth paths of ``agent`` under ``strategy``, shape
    (m, n_steps + 1), from idiosyncratic increments ``dw`` of shape
    (m, n_steps) and common-noise increments ``dw0`` that broadcast to it;
    see ``_euler_rows``. Path i reads row i of the increments alone."""
    grid = agent.grid
    if strategy.grid != grid:
        raise ValueError("the strategy must be on the agent's time grid")
    dw, dw0 = np.asarray(dw, dtype=float), np.asarray(dw0, dtype=float)
    fits = dw.ndim == 2 and dw.shape[1] == grid.n_steps and dw0.ndim <= 2
    if not (fits and all(a in (1, b) for a, b in zip(dw0.shape[::-1], dw.shape[::-1]))):
        raise ValueError(f"need dw (m, {grid.n_steps}) and a dw0 that broadcasts to it, got {dw.shape} and {dw0.shape}")
    rows = _euler_rows(agent.h.values, agent.sigma.values, agent.sigma0.values, strategy.pi, strategy.c, grid.dt)
    return _build_paths(np.empty((dw.shape[0], grid.n_steps + 1)), np.log(agent.x0), *rows, dw, dw0)


# ---------------------------------------------------------------------------
# mean-field flow
# ---------------------------------------------------------------------------


class FlowModel:
    """Mean-field flow of a solved equilibrium: the population mean of the
    Euler log-wealth step. The step is linear in its rows, so along one
    common-noise path the weighted mean of the types' Euler paths, with no
    idiosyncratic noise, is the Euler path built from the mean rows:

        mu_hat(t_q) = E[log x0] + sum_{i<q} (E[drift_i] + E[vol_w0_i] dW0_i)

    ``rows`` holds the per-type Euler rows (``_euler_rows``) of the
    equilibrium controls, each (K, n). ``index_rows``, the start and rows
    (E[log x0], E[drift], 0.0, E[vol_w0]) of that path, is the one statement
    of the index: ``mu_batch`` builds it and ``_folded_rows`` subtracts it.
    """

    def __init__(self, pop: Population, sol: EquilibriumSolution):
        if sol.grid != pop.grid:
            raise ValueError("the equilibrium must be solved on the population's time grid")
        self.grid = pop.grid
        self.rows = _euler_rows(pop.h_mat, pop.sigma_mat, pop.sigma0_mat, sol.pi_star, sol.c_star, self.grid.dt)
        start = float(np.dot(pop.weights, np.log(pop.x0s)))  # E[log x0]
        self.index_rows = (start, pop.mean(self.rows[0]), 0.0, pop.mean(self.rows[2]))
        self.e_logc = pop.mean(np.log(sol.c_star))

    def mu_values(self, w0_increments: NDArray) -> NDArray:
        """``mu_hat(t) = E[log X* | common noise]`` at every knot for one
        common-noise path of ``n_steps`` increments, shape (n+1,), with
        ``mu_hat(0) = E[log x0]``. The log consumption index along the same
        path is ``nu_hat = e_logc + mu_hat``, ``e_logc = E[log c*]``."""
        w0 = np.asarray(w0_increments, dtype=float)
        if w0.shape != (self.grid.n_steps,):
            raise ValueError(f"need {self.grid.n_steps} increments, got {w0.shape}")
        return self.mu_batch(w0[None, :])[0]

    def mu_batch(self, dw0: NDArray) -> NDArray:
        """mu_hat curves for a batch of common-noise paths, shape (m, n+1)."""
        out = np.empty((dw0.shape[0], self.grid.n_steps + 1))
        return _build_paths(out, *self.index_rows, 0.0, dw0)


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


# largest |D| and |d| max|N| for which a strategy reads exp(z_ref) exp(|d| N): each
# factor and summed term then lies within exp(+-60) of the exp(z) it stands for,
# so it overflows or underflows only where exp(z) nearly does itself
_MAX_SHIFT = 30.0


def _step_window(noise: tuple, ref: tuple, unit: tuple, dpi: NDArray, top: float, tol: float) -> tuple | None:
    """``(lo, hi, d)`` when the folded noise rows ``noise`` differ from the
    reference's ``ref`` on the steps [lo, hi) alone, and there by d times
    ``unit``, d the mean of the ``pi`` difference ``dpi`` on [lo, hi); None
    otherwise. Rows from equal inputs compare equal. With ``tol`` the
    rounding of a ``pi`` up to ``top``, a row may miss by tol |unit| plus
    the fold's rounding, tol (|noise| + |ref|) / top."""
    nz = np.flatnonzero((noise[0] != ref[0]) | (noise[1] != ref[1]))
    if nz.size == 0:
        return 0, 0, 0.0
    lo, hi = int(nz[0]), int(nz[-1]) + 1
    d = float(dpi[lo:hi].mean())
    a, b, u = (np.stack(rows)[:, lo:hi] for rows in (noise, ref, unit))
    fits = top * np.abs(a - b - d * u) <= tol * (top * np.abs(u) + np.abs(a) + np.abs(b))
    return (lo, hi, d) if fits.all() else None


def _folded_rows(agent: AgentType, strategy: Strategy, flow: FlowModel) -> tuple[tuple, float]:
    """Start and Euler rows of the payoff's exponent, and its offset at T.
    The step is linear in its rows and ``mu_hat`` is the Euler path of
    ``flow.index_rows``, so z = g (log X - th mu_hat) + off, with
    off = g (log c - th E[log c]), is one Euler path: of the rows
    g (own rows - th index rows), plus off[0] at the start and off's steps."""
    g, th = agent.gamma, agent.theta
    own = _euler_rows(agent.h.values, agent.sigma.values, agent.sigma0.values, strategy.pi, strategy.c, agent.grid.dt)
    start, drift, vol_w, vol_w0 = (g * (a - th * b) for a, b in zip((np.log(agent.x0), *own), flow.index_rows))
    off = g * (np.log(strategy.c) - th * flow.e_logc)
    return (start + off[0], drift + np.diff(off), vol_w, vol_w0), off[-1]


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
    (trapezoid in time): one weighted row sum of exp(z), z the exponent of
    ``_folded_rows``, with trapezoid weights (al/g) dt plus exp(-off_T)/g on
    the last knot for the terminal term.

    A strategy either reads R = exp(z_ref) of the reference
    ``strategies[0]`` or takes its own build. It reads R only if
    ``_step_window`` finds its folded noise rows to be the reference's plus
    d times the unit-pi noise rows on the steps [lo, hi) and equal elsewhere,
    and max|D| < ``_MAX_SHIFT``, D the deterministic difference of the two
    exponents. As sigma + sigma0 >= sigma_lb > 0, the rows move exactly
    where ``pi`` moves on a left knot. The plan holds ``reads``, the empty
    steps (lo = hi: a change of ``c`` alone, and the reference itself);
    ``sizes``, the other steps by |d| (equal up to the rounding of ``pi``)
    and then by the sign of d; and ``own``. With N the unit-pi noise sum,
    E = exp(|d| N) and F = E or 1 / E as d > 0 or d < 0, a step's exp(z) is
    R e^D F[clip(q, lo, hi)] / F[lo]. e^D goes into the weights, so per
    block E is taken once per size and R F once per sign, and a step's
    payoff is three row sums: R before lo, R F on [lo, hi] over F[lo], and
    R after hi times F[hi] / F[lo]. A sample row with |d| max|N| at
    ``_MAX_SHIFT`` or past it cannot read R: its E is zeroed, and the row
    is rebuilt from the reference's deterministic rows and the step's noise
    rows, so outputs do not depend on the block size. These rebuilds and
    the ``own`` builds run in one loop after every read of R, into R's buffer.

    Row blocks are as in the module docstring: ``draws(dw, dw0)``
    (``_utility_draws``) fills each block's increments into two
    (rows, n_steps) buffers that this call owns, and a third buffer of that
    shape takes each build's common-noise term."""
    if flow.grid != agent.grid or any(s.grid != agent.grid for s in strategies):
        raise ValueError("every strategy and the flow must be on the agent's time grid")
    g, dt, n = agent.gamma, agent.grid.dt, agent.grid.n_steps
    market = (agent.h.values, agent.sigma.values, agent.sigma0.values)
    unit = tuple(g * u for u in _euler_rows(*market, np.ones(n + 1), 0.0, dt)[1:])  # g times the noise rows at pi = 1
    trapezoid = np.full(n + 1, agent.alpha / g * dt)
    trapezoid[[0, -1]] /= 2
    # step sizes equal up to the rounding of pi share one exp(|d| N)
    top = max(float(np.abs(s.pi).max()) for s in strategies)
    tol = 4.0 * np.spacing(top)
    reads: list[tuple] = []  # (j, weights) of the empty steps
    sizes: dict[float, dict[bool, list[tuple]]] = {}  # |d| -> d > 0 -> [(lo, hi, j, far-row build rows, weights)]
    own: list[tuple] = []  # (j, rows, weights, all sample rows)
    for j, s in enumerate(strategies):
        rows, off_t = _folded_rows(agent, s, flow)
        if j == 0:
            ref = rows
        # D: z - z_ref less its noise terms, which a step's weights carry
        dz = rows[0] - ref[0] + np.concatenate(([0.0], np.cumsum(rows[1] - ref[1])))
        step = _step_window(rows[2:], ref[2:], unit, s.pi - strategies[0].pi, top, tol)
        if j and (step is None or np.abs(dz).max() >= _MAX_SHIFT):
            step, dz = None, np.zeros_like(dz)
        w = trapezoid * np.exp(dz)
        w[-1] += np.exp(dz[-1] - off_t) / g
        if step is None:
            own.append((j, rows, w, slice(None)))
        elif step[0] == step[1]:
            reads.append((j, w))
        else:
            lo, hi, d = step
            size = next((size for size in sizes if abs(abs(d) - size) <= tol), abs(d))
            # a far row keeps the reference's deterministic rows: the weights carry e^D
            sizes.setdefault(size, {}).setdefault(d > 0, []).append((lo, hi, j, (*ref[:2], *rows[2:]), w))

    n_buf = 1 + 3 * bool(sizes)  # R, and N, E and R E^(+-1) when a step has a size
    blocks = _blocks(m, n, n_buf)
    buf = np.empty((n_buf, blocks[0].stop, n + 1))
    drawn = np.empty((3, blocks[0].stop, n))  # dW, dW0 and a build's common-noise term
    out = np.empty((len(strategies), m))
    for b in blocks:
        r, *views = buf[:, : b.stop - b.start]
        dw, dw0, scratch = drawn[:, : b.stop - b.start]
        draws(dw, dw0)
        np.exp(_build_paths(r, *ref, dw, dw0, scratch), out=r)
        for j, w in reads:
            out[j, b] = _row_sum(r, w)
        builds = []  # (j, rows, weights, sample rows) of the rows that cannot read R
        if sizes:
            noise, e, ez = views
            _build_paths(noise, 0.0, 0.0, *unit, dw, dw0, scratch)
            span = np.maximum(noise.max(axis=1), -noise.min(axis=1))
        for size, signs in sizes.items():
            far = np.flatnonzero(size * span >= _MAX_SHIFT)
            np.multiply(noise, size, out=e)
            e[far] = 0.0  # rows past the bound take their own build below
            np.exp(e, out=e)
            for up, steps in signs.items():
                (np.multiply if up else np.divide)(r, e, out=ez)
                for lo, hi, j, rows, w in steps:
                    mid = _row_sum(ez[:, lo : hi + 1], w[lo : hi + 1])
                    after = _row_sum(r[:, hi + 1 :], w[hi + 1 :])
                    mid = (mid + after * e[:, hi]) / e[:, lo] if up else (mid + after / e[:, hi]) * e[:, lo]
                    out[j, b] = _row_sum(r[:, :lo], w[:lo]) + mid
                    if far.size:
                        builds.append((j, rows, w, far))
        for j, rows, w, rel in builds + own:
            x, x0 = dw[rel], dw0[rel]
            z = r[: len(x)]
            np.exp(_build_paths(z, *rows, x, x0, scratch[: len(x)]), out=z)
            out[j, b][rel] = _row_sum(z, w)
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


def relation_w0(grid: TimeGrid, seed: int) -> NDArray:
    """Common-noise increments of ``verify.relation_check``'s path, (n_steps,)."""
    return philox_stream(seed, _sid(_DOM_RELATION)).normal(0.0, np.sqrt(grid.dt), grid.n_steps)


def consistency_test(
    pop: Population,
    sol: EquilibriumSolution,
    n_agents: int,
    n_w0_paths: int,
    seed: int,
    probe_times: Sequence[float] | None = None,
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
    common-noise path.
    """
    if n_agents < 1 or n_w0_paths < 1:
        raise ValueError("need n_agents >= 1 and n_w0_paths >= 1")
    grid = pop.grid
    times = grid.times
    if probe_times is None:
        probe_times = np.linspace(0.2 * grid.T, grid.T, 5)
    if len(probe_times) == 0:
        raise ValueError("need at least one probe time")
    grid.check_time(probe_times)
    probe_idx = [int(round(t / grid.dt)) for t in probe_times]
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
        w0 = consistency_w0(grid, seed, p)
        mu = flow.mu_values(w0)
        # the per-type part: Euler paths with the idiosyncratic increments set to 0
        base = _build_paths(np.empty_like(var), log_x0, drift, vol_w, vol_w0, 0.0, w0)[:, knots].T
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
