"""Seeded input generation. The program only ever sees the config files
written here: the same seed gives byte-identical files, and their SHA-256
digests are recorded with the results.

Uses the standard library and numpy only, so inputs can be generated and
hashed without importing mfgconsume.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# demos/configs/reference.json as it stood when the benchmark was defined.
# Frozen here so that a later edit of the demo cannot change the inputs.
REFERENCE = {
    "horizon": 1.0,
    "n_steps": 2000,
    "population": [
        {"weight": 0.6, "x0": 1.0, "gamma": 0.5, "theta": 0.5, "alpha": 1.0,
         "h": 0.1, "sigma": 0.2, "sigma0": 0.1},
        {"weight": 0.4, "x0": 2.0, "gamma": -1.0, "theta": 0.8, "alpha": 1.2,
         "h": 0.08, "sigma": 0.3, "sigma0": 0.05},
    ],
    "bounds": {"gamma_lb": 0.001, "sigma_lb": 0.001, "c_min": 0.001, "c_max": 10.0, "pi_cap": 10.0},
    "mc": {"n_samples": 100000, "n_agents": 100000, "n_w0_paths": 3, "seed": 20240501},
    "tolerances": {"riccati_tol": 1e-6, "residual_tol": 1e-4, "drift_tol": 1e-12},
    "out_dir": "out",
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads and of the traced-run probes."""

    desk_steps: int = 2000
    desk_pool: int = 9
    sweep_points: int = 120
    deviate_steps: int = 256
    deviate_samples: int = 8192
    simulate_steps: int = 2000
    simulate_agents: int = 16384
    simulate_paths: int = 3
    setup_repeats: int = 15
    # traced run only
    probe_repeats: int = 3
    parallel_samples: int = 16384
    parallel_agents: int = 16384
    roadmap_samples: int = 40000


FULL = Sizes()
# For the benchmark's own smoke tests: every code path, in seconds.
TINY = Sizes(desk_steps=64, sweep_points=12, deviate_steps=32, deviate_samples=1024,
             simulate_steps=64, simulate_agents=1024, simulate_paths=2, setup_repeats=2,
             probe_repeats=1, parallel_samples=8192, parallel_agents=8192, roadmap_samples=8192)


# Agent-type counts of the desk scenarios, cycled in this order. K carries
# the O(K^2) scalar API and the size of every per-type matrix.
K_CYCLE = (2, 8, 32)
# Index, within each pool of desk scenarios, of the one drawn from the
# extreme-but-valid family (horizon ~2000, gamma ~0.9, large h).
EXTREME_INDEX = 5


def _curve(rng: np.random.Generator, base: float, n_steps: int) -> list[float]:
    """A smooth positive curve on n_steps + 1 knots: base * (1 + a sin(...))."""
    t = np.linspace(0.0, 1.0, n_steps + 1)
    amp = rng.uniform(0.0, 0.3)
    freq = rng.uniform(0.5, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return np.round(base * (1.0 + amp * np.sin(2.0 * math.pi * freq * t + phase)), 6).tolist()


def desk_scenario(seed: int, index: int, n_steps: int, n_types: int, extreme: bool = False) -> dict:
    """One desk scenario with time-varying h, sigma and sigma0 curves.

    The extreme family is valid (it passes every standing assumption) but
    its integral of B exceeds the exponent cap of the closed form."""
    rng = np.random.default_rng([seed, index])
    weights = rng.uniform(0.5, 1.5, n_types)
    weights = weights / weights.sum()
    types = []
    for k in range(n_types):
        if extreme:
            gamma = rng.uniform(0.85, 0.95)
            h = rng.uniform(0.5, 1.0)
        else:
            gamma = rng.uniform(0.1, 0.7) if rng.random() < 0.5 else rng.uniform(-3.0, -0.2)
            h = rng.uniform(0.02, 0.15)
        types.append({
            "weight": float(weights[k]),
            "x0": round(float(rng.uniform(0.5, 2.0)), 6),
            "gamma": round(float(gamma), 6),
            "theta": round(float(rng.uniform(0.0, 1.0)), 6),
            "alpha": round(float(rng.uniform(0.5, 2.0)), 6),
            "h": _curve(rng, h, n_steps),
            "sigma": _curve(rng, rng.uniform(0.1, 0.4), n_steps),
            "sigma0": _curve(rng, rng.uniform(0.02, 0.3), n_steps),
        })
    horizon = rng.uniform(1800.0, 2200.0) if extreme else rng.uniform(0.5, 2.0)
    return {
        "horizon": round(float(horizon), 6),
        "n_steps": n_steps,
        "population": types,
        "mc": {"seed": int(rng.integers(1, 2**31))},
    }


def desk_pool(seed: int, n_steps: int, size: int) -> list[dict]:
    """``size`` scenarios; K follows K_CYCLE and one per pool is extreme."""
    return [
        desk_scenario(seed, i, n_steps, K_CYCLE[i % len(K_CYCLE)], extreme=(i == EXTREME_INDEX))
        for i in range(size)
    ]


def reference_config(seed: int, n_steps: int, **mc) -> dict:
    """The frozen reference scenario at ``n_steps`` with Monte-Carlo overrides."""
    cfg = copy.deepcopy(REFERENCE)
    cfg["n_steps"] = n_steps
    cfg["mc"].update(mc, seed=seed)
    return cfg


def write_config(path: Path, cfg: dict) -> str:
    """Write ``cfg`` as canonical JSON and return the SHA-256 of the bytes."""
    data = (json.dumps(cfg, sort_keys=True, separators=(",", ":")) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
