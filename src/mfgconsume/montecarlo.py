"""Monte-Carlo engine: wealth simulation, mean-field flow, utility
estimation, no-profitable-deviation and fixed-point consistency tests.

Determinism contract: every stochastic routine takes an integer seed and
draws from independent keyed streams (``keyed_stream``: SFC64 seeded by a
``SeedSequence`` of the key), one per (seed, purpose, chunk), or, in the
consistency test, per (seed, purpose, path); ``consistency_w0`` alone draws
a common-noise path. A stream's draws depend on its key alone, not on the
order in which streams are made or used. Samples are processed in
fixed-size chunks and pooled in chunk order, so results are bit-identical
for any thread count; ``MFG_CONSUME_THREADS`` only sizes the worker pool
that one estimator call opens for its chunks. Both Monte-Carlo checks pool
their groups, chunks or agent types, by ``_pooled_moments``; the utility
estimate and the deviation test chunk their pairs by ``_pair_moments``, each
with its contrast of the payoffs, reduced in place. Within a chunk, payoff
paths are built and reduced in row blocks whose path buffers take about
``_BLOCK_BYTES``, a bound on a block's memory; larger blocks run fewer numpy
calls per sample. A block holds three path buffers (R, R' and R + R'), four
more when a strategy steps off the reference (N, E, R F and R' / F; see
``_payoffs``), and two draw buffers (dW, dW0), each reused across blocks; a
build sums its increments in a contiguous work array of its own. Each
block draws its own increments, in row order, from the chunk's two streams:
a stream fills row after row, so these draws equal one chunk-sized draw per
stream bit for bit, and no chunk-sized draw array is held. Every sample row
is computed by the same operations in any block, and reduced by one
``einsum`` pass along the row (no BLAS), so outputs depend on neither the
block size nor the thread count.

The utility estimate and the deviation test draw antithetic pairs: each
drawn row prices the path on (dW, dW0) and its mirror on (-dW, -dW0), so
``n`` paths take ceil(n / 2) draws, and a report's ``n_samples`` is the
paths used, twice the pairs. A pair's mean is one i.i.d. sample, so the
stderr is that of the pair means. The mirror is read off the drawn path:
the noise part of an Euler path is linear in the increments, so the
mirrored exponent is 2m - z, m the noise-free path.

Simulation is Euler in log-wealth coordinates: volatilities at the left
endpoint, matching the Ito integral, and the drift by the trapezoid rule.
``_euler_rows`` is the one statement of the step. ``FlowModel`` is the
population mean of its rows, and payoffs fold that index into each
strategy's rows (``_folded_rows``), so no index is built per block. A
block builds the reference strategy's path once. A strategy whose folded
noise rows step off the reference's by a multiple of the unit-pi rows
reads that build, its mirror and one unit-pi noise sum; any other takes
its own. For constant coefficients the scheme is exact in distribution.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .closedform import EquilibriumSolution
from .grid import TimeGrid
from .population import AgentType, Population

CHUNK = 4096
# bytes of one row block's (rows, n_steps + 1) float64 path buffers; the block's
# two (rows, n_steps) draw buffers come on top of these. A bound on a block's
# memory: a larger one runs fewer per-block numpy calls, same output. 1.5 MiB
# (109-row blocks at 256 steps and a 7-buffer library): in the benchmark's
# mc-deviate unit, peak RSS rose 2.0 % over 1 MiB blocks with a third draw
# plane, and 2 MiB rose 3.8 %
_BLOCK_BYTES = 3 << 19

DEFAULT_PI_CAP = 10.0
DEFAULT_C_MIN = 1e-3
DEFAULT_C_MAX = 10.0

_MASK64 = (1 << 64) - 1

# stream-id namespaces; (domain, index) -> one 64-bit id
_DOM_UTIL_W0 = 1
_DOM_UTIL_W = 2
_DOM_CONS_W0 = 3
_DOM_CONS_W = 5


def _sid(domain: int, index: int) -> int:
    return ((domain << 56) | (index << 28)) & _MASK64


def keyed_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent stream keyed by (seed, stream id): SFC64 seeded by a
    ``SeedSequence`` of the key. Each is taken mod 2^64 and given as two
    32-bit words, so every key has four words and two keys share an entropy
    only if they are equal; a bare Python int takes as many words as it
    needs, so (x, 2^32 + 1) and (2^32 + x, 1) would share one. A stream
    continues where its last draw stopped, so consecutive fills equal one
    draw of their total size."""
    words = [(key >> shift) & 0xFFFFFFFF for key in (seed, stream_id) for shift in (0, 32)]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


# the former name, which perfbench's traced probe still calls; ROADMAP item 7 moves the probe and drops it
philox_stream = keyed_stream


def _n_threads() -> int:
    raw = os.environ.get("MFG_CONSUME_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _blocks(m: int, n_steps: int, buffers: int) -> list[slice]:
    """Row slices of ``m`` samples, each block's ``buffers`` path buffers
    together about ``_BLOCK_BYTES``."""
    size = max(1, _BLOCK_BYTES // (8 * buffers * (n_steps + 1)))
    return [slice(lo, min(lo + size, m)) for lo in range(0, m, size)]


def _pooled_moments(n: NDArray, xbar: NDArray, m2: NDArray, r: NDArray, flat: NDArray) -> tuple[NDArray, NDArray]:
    """Mean and standard error of each column over G groups of samples, from
    the group counts ``n`` (G,), the group means ``xbar``, and the sums of
    squared deviations ``m2`` and of deviations ``r`` from them (G, P). With
    N = sum n_g and d_g = xbar_g - mean, the mean is sum (n_g / N) xbar_g and
    M2 = sum M2_g + n_g d_g^2 + 2 d_g r_g (corrected two-pass, Chan, Golub &
    LeVeque 1983): no cancellation when the spread is small next to the mean,
    xbar_g's rounding enters at second order, and a group of count 0 adds
    nothing. The stderr is sqrt(M2 / max(1, N - 1) / N), 0 where ``flat``."""
    total = n.sum()
    mean = np.einsum("g,gp->p", n / total, xbar)
    d = xbar - mean
    m2 = (m2 + n[:, None] * np.square(d) + 2.0 * d * r).sum(axis=0)
    return mean, np.where(flat, 0.0, np.sqrt(m2 / max(1, total - 1) / total))


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


def _build_paths(out: NDArray, log_x0, drift: NDArray, vol_w: NDArray, vol_w0: NDArray, dw, dw0) -> NDArray:
    """Log-wealth paths from Euler coefficient rows and increments, written
    into ``out`` of any leading shape, one path per last-axis row, with every
    input broadcast to it: the consistency test builds (paths, K, n+1) at
    once. The increments are formed, the common-noise term added, and the
    cumulative sum taken in a C-contiguous work array of its own, shaped
    like ``out[..., 1:]``, so only the last pass writes through the strided
    ``out[..., 1:]``, adding the start on the way. A drift that is all zero
    is not added."""
    inc = np.multiply(vol_w, dw, out=np.empty(out[..., 1:].shape))
    if np.any(drift):
        inc += drift
    inc += np.multiply(vol_w0, dw0)
    np.cumsum(inc, axis=-1, out=inc)
    out[..., 0] = log_x0
    np.add(inc, out[..., :1], out=out[..., 1:])
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
    A ``sol`` of another population, same grid and type count, goes undetected.
    """

    def __init__(self, pop: Population, sol: EquilibriumSolution):
        if sol.grid != pop.grid:
            raise ValueError("the equilibrium must be solved on the population's time grid")
        if sol.pi_star.shape != pop.h_mat.shape:
            raise ValueError(f"need equilibrium controls of shape {pop.h_mat.shape}, got {sol.pi_star.shape}")
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
        """mu_hat curves, shape (m, n+1), of m common-noise paths, ``dw0``
        of shape (m, n_steps)."""
        dw0 = np.asarray(dw0, dtype=float)
        if dw0.ndim != 2 or dw0.shape[1] != self.grid.n_steps:
            raise ValueError(f"need (m, {self.grid.n_steps}) increments, got {dw0.shape}")
        out = np.empty((dw0.shape[0], self.grid.n_steps + 1))
        return _build_paths(out, *self.index_rows, 0.0, dw0)


# ---------------------------------------------------------------------------
# expected utility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte-Carlo mean, standard error and sample count (paths, twice the
    antithetic pairs) of an expected utility; ``stderr`` is exactly zero iff
    every pair mean is the same."""

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


def _gaussian_moments(rows: tuple, dt: float) -> tuple[NDArray, NDArray]:
    """Mean m and variance v, shape (n+1,), of the Euler path of ``rows``
    (start, drift, vol_w, vol_w0) at every knot, for deterministic rows: m_q
    = start + sum_{i<q} drift_i and v_q = sum_{i<q} (vol_w_i^2 + vol_w0_i^2) dt."""
    start, drift, vol_w, vol_w0 = rows
    m = start + np.concatenate(([0.0], np.cumsum(drift)))
    v = np.concatenate(([0.0], np.cumsum((vol_w**2 + vol_w0**2) * dt)))
    return m, v


def _utility_weights(agent: AgentType, dz: NDArray, off_t: float) -> NDArray:
    """Knot weights of the payoff sum_q w_q exp(z_q) read off exp(z_q - dz_q):
    trapezoid weights (al/g) dt times exp(dz), plus exp(dz_T - off_T)/g at T
    for the terminal term."""
    g, dt = agent.gamma, agent.grid.dt
    w = np.full(dz.size, agent.alpha / g * dt)
    w[[0, -1]] /= 2
    w *= np.exp(dz)
    w[-1] += np.exp(dz[-1] - off_t) / g
    return w


def exact_utility(agent: AgentType, strategy: Strategy, flow: FlowModel) -> float:
    """The expected utility of ``strategy`` under the Euler scheme, exactly,
    which ``estimate_utility`` estimates without bias. The controls and
    curves are deterministic, so the payoff's exponent z (``_folded_rows``)
    is Gaussian at each knot, N(m, v) by ``_gaussian_moments``, and the
    payoff sum_q w_q exp(z_q) has expectation sum_q w_q exp(m_q + v_q / 2)."""
    if flow.grid != agent.grid or strategy.grid != agent.grid:
        raise ValueError("the strategy and the flow must be on the agent's time grid")
    rows, off_t = _folded_rows(agent, strategy, flow)
    m, v = _gaussian_moments(rows, agent.grid.dt)
    return float(np.dot(_utility_weights(agent, np.zeros(m.size), off_t), np.exp(m + v / 2)))


def _pair_exp(z: NDArray, twice_mean: NDArray, mirror: NDArray, out: NDArray) -> NDArray:
    """exp(z) + exp(z'), into ``out``, with z' = 2m - z the exponent on the
    mirrored increments (-dW, -dW0), m the noise-free path: the noise part
    of an Euler path is linear in the increments. ``mirror`` takes exp(z')
    and ``z`` exp(z); z' is taken before either exp, so no exp that
    underflowed is divided by."""
    np.subtract(twice_mean, z, out=mirror)
    np.exp(z, out=z)
    np.exp(mirror, out=mirror)
    return np.add(z, mirror, out=out)


def _payoffs(
    agent: AgentType,
    strategies: Sequence[Strategy],
    flow: FlowModel,
    m: int,
    draws: Callable[[NDArray, NDArray], None],
) -> NDArray:
    """Antithetic pair means of the utility of each strategy on the same
    draws, shape (strategies, m): row i of the draws prices the path on
    (dW, dW0) and its mirror on (-dW, -dW0), and the pair's mean is one
    sample. The utility is terminal power utility of wealth relative to
    the population index, plus the time integral of the consumption utility
    (trapezoid in time): one weighted row sum of exp(z), z the exponent of
    ``_folded_rows``, with trapezoid weights (al/g) dt plus exp(-off_T)/g on
    the last knot for the terminal term (``_utility_weights``), each halved
    for the pair mean.

    The mirror takes no draw and no build: z' = 2m - z (``_pair_exp``), m
    the noise-free path of z's rows, built once per call. A strategy either
    reads R = exp(z_ref) and R' = exp(z'_ref) of the reference
    ``strategies[0]`` or takes its own build. It reads them only if
    ``_step_window`` finds its folded noise rows to be the reference's plus
    d times the unit-pi noise rows on the steps [lo, hi) and equal elsewhere,
    and max|D| < ``_MAX_SHIFT``, D the deterministic difference of the two
    exponents. As sigma + sigma0 >= sigma_lb > 0, the rows move exactly
    where ``pi`` moves on a left knot. The plan holds ``reads``, the empty
    steps (lo = hi: a change of ``c`` alone, and the reference itself), one
    row sum of R + R' each, all in one ``einsum`` per block; ``sizes``, the
    other steps by |d| (equal up to the rounding of ``pi``) and then by the
    sign of d; and ``own``. With N
    the unit-pi noise sum, E = exp(|d| N) and F = E or 1 / E as d > 0 or
    d < 0, a step's exp(z) is R e^D F[clip(q, lo, hi)] / F[lo]. On the
    mirror N is -N, so E is 1 / E and the step reads R' with the sign of d
    flipped. e^D goes into the weights, so per block E is taken once per
    size and R F and R' / F once per sign. A step's pair payoff takes row
    sums by its window: for each path, R F on [lo, hi], and R after hi,
    times F[hi], when hi < n; then, when lo > 0, the division by F[lo] and
    R + R' before lo. That is five row sums at most and two for a step on
    [0, n]; at lo = 0 nothing is divided by, as N[:, 0] is 0 and so F[0] is
    exp(0) = 1 exactly. A sample row with |d| max|N| at ``_MAX_SHIFT`` or
    past it (the same rows on the mirror: its span is the same) cannot read
    R: its E is zeroed, and the row is rebuilt from the reference's deterministic rows and the step's
    noise rows, so outputs do not depend on the block size. These rebuilds
    and the ``own`` builds, each with its mirror, run in one loop after
    every read of R, into the buffers of R and R'.

    Row blocks are as in the module docstring: ``draws(dw, dw0)``
    (``_utility_draws``) fills each block's increments into two
    (rows, n_steps) buffers that this call owns. Each build (``_build_paths``)
    allocates its own contiguous work array."""
    if flow.grid != agent.grid or any(s.grid != agent.grid for s in strategies):
        raise ValueError("every strategy and the flow must be on the agent's time grid")
    g, dt, n = agent.gamma, agent.grid.dt, agent.grid.n_steps
    market = (agent.h.values, agent.sigma.values, agent.sigma0.values)
    unit = tuple(g * u for u in _euler_rows(*market, np.ones(n + 1), 0.0, dt)[1:])  # g times the noise rows at pi = 1
    twice_mean = lambda rows: 2.0 * _build_paths(np.empty(n + 1), *rows, 0.0, 0.0)
    # step sizes equal up to the rounding of pi share one exp(|d| N)
    top = max(float(np.abs(s.pi).max()) for s in strategies)
    tol = 4.0 * np.spacing(top)
    reads: list[tuple] = []  # (j, weights) of the empty steps
    sizes: dict[float, dict[bool, list[tuple]]] = {}  # |d| -> d > 0 -> [(lo, hi, j, far-row build rows, weights)]
    own: list[tuple] = []  # (j, rows, weights, all sample rows, 2m)
    for j, s in enumerate(strategies):
        rows, off_t = _folded_rows(agent, s, flow)
        if j == 0:
            ref, ref_twice = rows, twice_mean(rows)
        # D: z - z_ref less its noise terms, which a step's weights carry
        dz = rows[0] - ref[0] + np.concatenate(([0.0], np.cumsum(rows[1] - ref[1])))
        step = _step_window(rows[2:], ref[2:], unit, s.pi - strategies[0].pi, top, tol)
        if j and (step is None or np.abs(dz).max() >= _MAX_SHIFT):
            step, dz = None, np.zeros_like(dz)
        w = 0.5 * _utility_weights(agent, dz, off_t)  # halved: a pair mean
        if step is None:
            own.append((j, rows, w, slice(None), twice_mean(rows)))
        elif step[0] == step[1]:
            reads.append((j, w))
        else:
            lo, hi, d = step
            size = next((size for size in sizes if abs(abs(d) - size) <= tol), abs(d))
            # a far row keeps the reference's deterministic rows: the weights carry e^D
            sizes.setdefault(size, {}).setdefault(d > 0, []).append((lo, hi, j, (*ref[:2], *rows[2:]), w))

    read_j = [j for j, _ in reads]
    read_w = np.stack([w for _, w in reads])
    n_buf = 3 + 4 * bool(sizes)  # R, R' and R + R', and N, E, R F and R' / F when a step has a size
    blocks = _blocks(m, n, n_buf)
    buf = np.empty((n_buf, blocks[0].stop, n + 1))
    drawn = np.empty((2, blocks[0].stop, n))  # dW and dW0
    out = np.empty((len(strategies), m))
    for b in blocks:
        r, rm, pair, *views = buf[:, : b.stop - b.start]
        dw, dw0 = drawn[:, : b.stop - b.start]
        draws(dw, dw0)
        _build_paths(r, *ref, dw, dw0)
        _pair_exp(r, ref_twice, rm, pair)
        out[read_j, b] = np.einsum("ij,kj->ki", pair, read_w)
        builds = []  # (j, rows, weights, sample rows, 2m) of the rows that cannot read R
        if sizes:
            noise, e, ez, ezm = views
            _build_paths(noise, 0.0, 0.0, *unit, dw, dw0)
            span = np.maximum(noise.max(axis=1), -noise.min(axis=1))
        for size, signs in sizes.items():
            far = np.flatnonzero(size * span >= _MAX_SHIFT)
            np.multiply(noise, size, out=e)
            e[far] = 0.0  # rows past the bound take their own build below
            np.exp(e, out=e)
            for up, steps in signs.items():
                (np.multiply if up else np.divide)(r, e, out=ez)
                (np.divide if up else np.multiply)(rm, e, out=ezm)
                for lo, hi, j, rows, w in steps:
                    # each path: R F on [lo, hi], and R after hi times F[hi], over F[lo],
                    # F = E or 1 / E as the path steps up; e[:, 0] is exp(0) = 1
                    parts = []
                    for zf, z, f_up in ((ez, r, up), (ezm, rm, not up)):
                        part = np.einsum("ij,j->i", zf[:, lo : hi + 1], w[lo : hi + 1])
                        if hi < n:
                            after = np.einsum("ij,j->i", z[:, hi + 1 :], w[hi + 1 :])
                            part += after * e[:, hi] if f_up else after / e[:, hi]
                        if lo:
                            (np.divide if f_up else np.multiply)(part, e[:, lo], out=part)
                        parts.append(part)
                    if lo:  # R + R' before lo
                        parts[0] = np.einsum("ij,j->i", pair[:, :lo], w[:lo]) + parts[0]
                    out[j, b] = parts[0] + parts[1]
                    if far.size:
                        builds.append((j, rows, w, far, ref_twice))
        for j, rows, w, rel, twice in builds + own:
            x, x0 = dw[rel], dw0[rel]
            z, zm = r[: len(x)], rm[: len(x)]
            _build_paths(z, *rows, x, x0)
            out[j, b][rel] = np.einsum("ij,j->i", _pair_exp(z, twice, zm, z), w)
    return out


def _utility_draws(grid: TimeGrid, seed: int, i: int) -> Callable[[NDArray, NDArray], None]:
    """The increments of utility chunk ``i`` as a filler: each call
    ``fill(dw, dw0)`` writes the next rows of the chunk's W and W0 keyed
    streams, N(0, dt) each, into two C-ordered (rows, n_steps) buffers.

    ``standard_normal(out=buf)`` then ``buf *= sqrt(dt)`` is what
    ``normal(0, sqrt(dt))`` computes for each value, and a stream fills in
    row order, so consecutive fills of any row counts equal
    one (chunk size, n_steps) ``normal`` call per stream, bit for bit. The
    utility estimate and the paired deviation test draw the same ones."""
    sd = np.sqrt(grid.dt)
    w = keyed_stream(seed, _sid(_DOM_UTIL_W, i))
    w0 = keyed_stream(seed, _sid(_DOM_UTIL_W0, i))

    def fill(dw: NDArray, dw0: NDArray) -> None:
        for stream, buf in ((w, dw), (w0, dw0)):
            stream.standard_normal(out=buf)
            buf *= sd

    return fill


def _pair_moments(
    agent: AgentType,
    strategies: Sequence[Strategy],
    flow: FlowModel,
    n: int,
    seed: int,
    contrast: Callable[[NDArray], NDArray],
) -> tuple[NDArray, NDArray, int]:
    """Mean and standard error of each row of ``contrast`` of the antithetic
    pair means of ``strategies`` (``_payoffs``), and the paths used: ``n``
    rounded up to whole pairs.

    The pairs are cut into chunks of ``CHUNK``; chunk ``i`` draws from its
    own streams (``_utility_draws``) and is reduced where it is priced to
    its per-row min, max, mean and sums of deviations and of squared
    deviations from the mean (two passes, in place on the contrast); the
    chunks are pooled in chunk order by ``_pooled_moments``. Past one thread and one chunk, the chunks run in a
    worker pool opened for this call; the result does not depend on the
    thread count. A row whose min equals its max has a stderr of exactly 0.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pairs = (n + 1) // 2
    sizes = [min(CHUNK, pairs - lo) for lo in range(0, pairs, CHUNK)]

    def one(i: int) -> tuple[NDArray, ...]:
        x = contrast(_payoffs(agent, strategies, flow, sizes[i], _utility_draws(agent.grid, seed, i)))
        lo, hi = x.min(axis=1), x.max(axis=1)
        mean = x.sum(axis=1) / x.shape[1]
        x -= mean[:, None]  # the deviations, reduced in place
        r = x.sum(axis=1)
        return mean, np.square(x, out=x).sum(axis=1), r, lo, hi

    workers = min(_n_threads(), len(sizes))
    if workers <= 1:
        parts = [one(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    mean, m2, r, lo, hi = (np.stack(p) for p in zip(*parts))
    return (*_pooled_moments(np.array(sizes), mean, m2, r, lo.min(axis=0) == hi.max(axis=0)), 2 * pairs)


def estimate_utility(
    agent: AgentType, strategy: Strategy, flow: FlowModel, n: int, seed: int
) -> UtilityEstimate:
    """Estimate the expected utility of ``strategy`` for one agent type
    from ``n`` paths, rounded up to whole antithetic pairs.

    Both noises are integrated out: every pair draws a fresh common-noise
    path and a fresh idiosyncratic path and prices them and their mirror
    (-dW, -dW0). The mean and stderr are those of the i.i.d. pair means
    (``_payoffs``), and ``n_samples`` is the paths used, twice the pairs.
    The population index along each common-noise path is folded into the
    payoff's Euler rows, so no flow is built per sample.
    """
    mean, stderr, used = _pair_moments(agent, [strategy], flow, n, seed, lambda pay: pay)
    return UtilityEstimate(float(mean[0]), float(stderr[0]), used)


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
    stderr: float         # paired standard error, over the pair means
    large: bool
    flagged: bool         # delta < -2 * stderr: profitable deviation found


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple[DeviationRow, ...]
    n_samples: int        # paths: twice the antithetic pairs

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
    perturbation on ``n`` paths, rounded up to whole antithetic pairs: every
    pair reuses identical (W, W0) draws, and their mirror, for all
    strategies, so delta estimates carry only the strategy difference. Each
    delta and stderr is that of the i.i.d. differences of pair means
    (``_payoffs``), and the report's ``n_samples`` is the paths used."""
    flow = FlowModel(pop, sol)
    strategies = [equilibrium_strategy(sol, k, pi_cap, c_min, c_max), *(p.strategy for p in perturbations)]

    delta, stderr, used = _pair_moments(pop.types[k], strategies, flow, n, seed, lambda pay: pay[0] - pay[1:])
    rows = [
        DeviationRow(p.name, float(d), float(e), p.large, bool(d < -2.0 * e))
        for p, d, e in zip(perturbations, delta, stderr)
    ]
    return DeviationReport(tuple(rows), used)


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
    flow: FlowModel = field(compare=False, repr=False)  # the flow compared against
    mu_hat: NDArray = field(compare=False, repr=False)  # (paths, n_steps + 1): its curve along each drawn path


def consistency_w0(grid: TimeGrid, seed: int, path: int) -> NDArray:
    """Common-noise increments, (n_steps,), of consistency path ``path``."""
    return keyed_stream(seed, _sid(_DOM_CONS_W0, path)).normal(0.0, np.sqrt(grid.dt), grid.n_steps)


def _crowd_moments(
    rng: np.random.Generator, n_agents: int, weights: NDArray, base: NDArray, sd: NDArray
) -> tuple[NDArray, NDArray]:
    """Mean and standard error, at each of P probe knots, of ``n_agents``
    agents whose types are i.i.d. by ``weights`` and whose type-k probe
    values are base[k] + cumsum(sd[k] * xi), xi ~ N(0, I_P) per agent;
    ``base`` and ``sd`` are (K, P). Drawn from the exact joint law of the
    agents' sufficient statistics, with K P (P + 1) normals for any
    ``n_agents``.

    The type counts are n ~ Multinomial(n_agents, weights). Given them, a
    type's mean xi is N(0, I / n_k) and its scatter of xi about that mean
    is W ~ Wishart(n_k - 1, I), independent of it. W = L L' with L the
    Bartlett factor: L_ii^2 ~ chi^2(n_k - 1 - i) and L_ij ~ N(0, 1) below
    the diagonal, on the first min(n_k - 1, P) columns, zero elsewhere
    (rank n_k - 1 when that is below P). A type's scatter of probe values
    is then the squared row norms of cumsum(sd[k] * L). Every type draws,
    present or not, so the stream's use does not depend on the counts. The
    types are pooled by ``_pooled_moments`` with residuals 0 (the means are
    drawn), so with one type present the mean is that type's mean exactly.
    A knot where no type spreads and every present type has one mean (every
    agent's value equal) has a stderr of exactly 0."""
    k, p = base.shape
    n = rng.multinomial(n_agents, weights)
    xbar = base + np.cumsum(sd * rng.standard_normal((k, p)) / np.sqrt(np.maximum(n, 1))[:, None], axis=1)
    df = n[:, None] - 1 - np.arange(p)  # (K, P): L_ii's chi^2 degrees of freedom; column j of L is 0 unless df_j > 0
    bartlett = rng.standard_normal((k, p, p)) * (np.tri(p, k=-1) * (df > 0)[:, None, :])
    bartlett[:, np.arange(p), np.arange(p)] = np.sqrt(2.0 * rng.standard_gamma(np.maximum(df, 0) / 2.0))
    within = np.square(np.cumsum(sd[:, :, None] * bartlett, axis=1)).sum(axis=2)
    present = n[:, None] > 0
    one_value = np.where(present, xbar, -np.inf).max(axis=0) == np.where(present, xbar, np.inf).min(axis=0)
    return _pooled_moments(n, xbar, within, np.zeros_like(xbar), (within.sum(axis=0) == 0.0) & one_value)


def consistency_test(
    pop: Population,
    sol: EquilibriumSolution,
    n_agents: int,
    n_w0_paths: int,
    seed: int,
) -> ConsistencyReport:
    """Fixed-point check: per common-noise path, the empirical mean
    log-wealth of ``n_agents`` simulated agents (types drawn by weight,
    independent idiosyncratic noise, equilibrium controls) is compared with
    the semi-analytic flow, in units of the empirical standard error, at
    five probe knots: the knots nearest 0.2 T, 0.4 T, ..., T.

    What it checks: the agent sampler and the linearity of the flow, not
    the equilibrium. ``FlowModel`` is by construction the mean of the same
    Euler rows the agents are drawn from, so an error in the equilibrium
    controls moves the crowd and the flow alike.

    No agent is simulated. With deterministic controls and curves, a type-k
    agent's log-wealth at the probe knots, given the common-noise path, is
    base_k + cumsum(s_k * xi): base_k the type's Euler path with the
    idiosyncratic increments set to 0, s_k the standard deviation of
    sum vol_w dW over each probe segment, sqrt(sum vol_w^2 dt), and
    xi ~ N(0, I) per agent. The report reads only each knot's sample mean
    and variance, which are functions of the type counts and each type's
    sample mean and scatter matrix of xi. Those are drawn from their exact
    joint law (``_crowd_moments``), so the report has the law of
    ``n_agents`` Euler paths read at the probes, at a cost that does not
    grow with ``n_agents``. Path ``p`` draws from one stream, (seed, p).
    The report keeps the flow and its ``mu_hat`` along each path drawn.

    Agent noise streams are keyed independently of the common-noise values,
    so with no common-noise exposure the report does not depend on the
    common-noise path. Below 5 steps the probes repeat a knot: its second
    segment has length 0, and its rows are the first's.
    """
    if n_agents < 1 or n_w0_paths < 1:
        raise ValueError("need n_agents >= 1 and n_w0_paths >= 1")
    grid = pop.grid
    knots = [int(round(t / grid.dt)) for t in np.linspace(0.2 * grid.T, grid.T, 5)]  # sorted

    flow = FlowModel(pop, sol)
    drift, vol_w, vol_w0 = flow.rows
    log_x0 = np.log(pop.x0s)
    var = np.zeros((pop.n_types, grid.n_steps + 1))
    np.cumsum(vol_w**2 * grid.dt, axis=1, out=var[:, 1:])
    seg_sd = np.sqrt(np.diff(var[:, knots], axis=1, prepend=0.0))  # (K, probes)
    weights = pop.weights / pop.weights.sum()  # the multinomial sees no stray rounding of the sum

    w0s = np.stack([consistency_w0(grid, seed, p) for p in range(n_w0_paths)])
    mu_hat = flow.mu_batch(w0s)
    # the per-type part: Euler paths with the idiosyncratic increments set to 0
    base = _build_paths(np.empty((n_w0_paths, *var.shape)), log_x0, drift, vol_w, vol_w0, 0.0, w0s[:, None])
    crowd = [
        _crowd_moments(keyed_stream(seed, _sid(_DOM_CONS_W, p)), n_agents, weights, b, seg_sd)
        for p, b in enumerate(base[..., knots])
    ]
    means, stderrs = (np.stack(m) for m in zip(*crowd))  # (paths, probes)
    flow_mu = mu_hat[:, knots]
    diff = np.abs(means - flow_mu)
    # where the stderr is 0: 0 units if the crowd mean is on the flow, else inf
    units = np.divide(diff, stderrs, out=np.where(diff < 1e-12, 0.0, np.inf), where=stderrs != 0.0)
    t = np.broadcast_to(grid.times[knots], means.shape)
    cols = np.stack((t, means, flow_mu, stderrs, units), axis=-1).tolist()  # (paths, probes, 5) as floats
    rows = tuple(ConsistencyRow(p, *row) for p, path in enumerate(cols) for row in path)
    return ConsistencyReport(rows, max(r.deviation_units for r in rows), n_agents, flow, mu_hat)
