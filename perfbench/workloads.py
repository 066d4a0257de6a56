"""The three closed-loop workloads and the benchmark's own output checks.

Each workload writes its seeded inputs in ``setup``, runs one unit of work
per call of ``unit`` (one client; the next unit starts only after the
previous one returned), and checks that unit's outputs in ``check``, outside
the timed region. Every call into the package goes through its public API
and is wrapped in a span, which records nothing in the untraced run.

Two counts are kept. ``fail_ratio``, printed with its base, counts the
package's own verdicts, known defects included:

* base = commands (``cli.load_config``, ``cli.run``, scalar queries)
  + manifest checks evaluated;
* count = typed exceptions raised + manifest checks failed.

The result line's ``attempted`` and ``failed`` count the benchmark's checks
of those commands' outputs:

* attempted = commands + the benchmark's own checks evaluated;
* failed = the benchmark's own checks failed, an exception that is not one
  of the package's typed errors counting as one.

Each such failure is a *defect*, and the run reports ``"correct": false``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mfgconsume import cli, closedform, errors, montecarlo

from . import inputs
from .inputs import Sizes

TYPED_ERRORS = (
    cli.ConfigError,
    errors.StructuralError,
    errors.SingularAggregateError,
    errors.ExponentRangeError,
    errors.IntegrationBlowUpError,
)

VERIFY_CHECKS = {
    "residual_sup", "j_identity_relative", "riccati_relative_sup", "mop_drift_max",
    "mop_drift_at_optimum", "relation_investment", "relation_nu_hat", "relation_z0",
}


@dataclass
class Tally:
    commands: int = 0
    checks: int = 0
    exceptions: list[str] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)

    own_checks: int = 0

    @property
    def fail_ratio_base(self) -> int:
        return self.commands + self.checks

    @property
    def fail_ratio_count(self) -> int:
        return len(self.exceptions) + len(self.failed_checks)

    @property
    def attempted(self) -> int:
        return self.commands + self.own_checks

    @property
    def failed(self) -> int:
        return len(self.defects)

    def expect(self, ok: bool, what: str) -> bool:
        self.own_checks += 1
        if not ok:
            self.defects.append(what)
        return ok


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


@dataclass
class Context:
    work: Path  # scratch directory of this process
    seed: int
    sizes: Sizes
    tally: Tally = field(default_factory=Tally)
    hashes: dict[str, str] = field(default_factory=dict)  # input file name -> SHA-256
    sink: io.TextIOBase = field(default_factory=_Discard)  # where cli.run's summaries go


@dataclass
class Outcome:
    """One public call: its return value, or the typed error it raised."""

    what: str
    value: object = None
    error: str | None = None
    out: Path | None = None


def call(tr, name: str, fn, *args, **kwargs) -> Outcome:
    """Run ``fn`` in a span; a typed package error becomes the outcome."""
    try:
        with tr.span(name):
            return Outcome(name, fn(*args, **kwargs))
    except TYPED_ERRORS as e:
        return Outcome(name, error=type(e).__name__)


def run_cli(ctx: Context, tr, command: str, cfg, out: Path, **kwargs) -> Outcome:
    """``cli.run`` with its own output directory and its summary discarded."""
    def go():
        with contextlib.redirect_stdout(ctx.sink):
            return cli.run(command, replace(cfg, out_dir=str(out)), **kwargs)
    o = call(tr, f"cli.run.{command}", go)
    o.out = out
    return o


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def numeric(rows: list[list[str]], cols: slice = slice(None)) -> np.ndarray:
    return np.array([r[cols] for r in rows], dtype=float).reshape(len(rows), -1)


def account(ctx: Context, o: Outcome) -> dict | None:
    """Count one call; for a ``cli.run`` call return its parsed manifest."""
    t = ctx.tally
    t.commands += 1
    if o.error is not None:
        t.exceptions.append(f"{o.what}:{o.error}")
        return None
    if o.out is None:
        return None
    manifest = json.loads((o.out / "manifest.json").read_text())
    for c in manifest["checks"]:
        t.checks += 1
        if not c["passed"]:
            t.failed_checks.append(f"{o.what}:{c['name']}")
    t.expect(o.value == (0 if manifest["ok"] else 1),
             f"{o.what}: exit code {o.value} but manifest ok={manifest['ok']}")
    return manifest


def close(a, b, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= abs_ + rel * np.abs(np.asarray(b))))


def largest_array_bytes(rows: int, steps: int) -> int:
    """Computed size of one (rows, steps + 1) float64 array."""
    return rows * (steps + 1) * 8


# ---------------------------------------------------------------------------
# desk-closedform
# ---------------------------------------------------------------------------


SCALAR_FUNCTIONS = (closedform.coeff_B, closedform.optimal_consumption, closedform.tilde_Y)
SCALAR_CALLS = 2 * len(SCALAR_FUNCTIONS)


def scalar_batch(tr, pop) -> list[tuple[Outcome, int, float]]:
    """The desk's scalar queries, in one span: B, c* and Ytilde of the last
    type at t = 0 and T/2."""
    k = pop.n_types - 1
    with tr.span("closedform.scalar"):
        return [(call(tr, f"closedform.{fn.__name__}", fn, pop, k, t), k, t)
                for t in (0.0, pop.T / 2) for fn in SCALAR_FUNCTIONS]


def _knot0(value) -> float:
    return float(value[0] if isinstance(value, list) else value)


def independent_policy_at0(raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """pi*(0) and the terminal consumption D from the closed form, computed
    here from the config alone: the check that does not trust the package."""
    tp = raw["population"]
    w = np.array([t["weight"] for t in tp])
    g = np.array([t["gamma"] for t in tp])
    th = np.array([t["theta"] for t in tp])
    al = np.array([t["alpha"] for t in tp])
    h = np.array([_knot0(t["h"]) for t in tp])
    s = np.array([_knot0(t["sigma"]) for t in tp])
    s0 = np.array([_knot0(t["sigma0"]) for t in tp])
    den = (1.0 - g) * (s**2 + s0**2)
    phi = np.dot(w, h * s0 / den)
    psi = np.dot(w, th * g * s0**2 / den)
    pi0 = (h - th * g * s0 * phi / (1.0 + psi)) / den
    e_theta = np.dot(w, th * g / (1.0 - g))
    e_logalpha = np.dot(w, np.log(al) / (1.0 - g))
    d = np.exp(np.log(al) / (1.0 - g) - th * g * e_logalpha / ((1.0 - g) * (1.0 + e_theta)))
    return pi0, d


def solve_or_none(pop):
    try:
        return closedform.solve_equilibrium(pop)
    except TYPED_ERRORS:
        return None


def check_solve(t: Tally, where: str, pop, raw: dict, sol, solve: Outcome) -> None:
    """``equilibrium.csv`` of a ``solve`` command: bit-equal to
    ``solve_equilibrium``, and pi*(0) and c*(T) = D as recomputed from the
    config alone."""
    if solve.error is not None or not t.expect(sol is not None, f"{where}: solve succeeded in cli only"):
        return
    header, rows = read_csv(solve.out / "equilibrium.csv")
    t.expect(header == ["t", "type", "pi_star", "c_star", "y_tilde", "phi", "psi", "z0"],
             f"{where}: equilibrium.csv header {header}")
    got = numeric(rows)
    n, kk = pop.grid.n_steps + 1, pop.n_types
    want = np.column_stack([
        np.repeat(pop.grid.times, kk), np.tile(np.arange(kk), n),
        sol.pi_star.T.ravel(), sol.c_star.T.ravel(), sol.y_tilde.T.ravel(),
        np.repeat(sol.phi, kk), np.repeat(sol.psi, kk), np.repeat(sol.z0_common, kk),
    ])
    if t.expect(got.shape == want.shape, f"{where}: equilibrium.csv shape {got.shape}"):
        t.expect(np.array_equal(got, want), f"{where}: equilibrium.csv differs from solve_equilibrium")
        pi0, d = independent_policy_at0(raw)
        t.expect(close(got[:kk, 2], pi0), f"{where}: pi*(0) differs from the closed form")
        t.expect(close(got[-kk:, 3], d, rel=1e-12), f"{where}: c*(T) differs from D")
        t.expect(bool(np.all(got[:, 3] > 0)), f"{where}: non-positive c*")


def check_verify(t: Tally, where: str, pop, verify: Outcome, manifest: dict | None) -> None:
    """A ``verify`` command ran every check and wrote finite residuals."""
    if manifest is None:
        return
    t.expect({c["name"] for c in manifest["checks"]} == VERIFY_CHECKS, f"{where}: verify checks {manifest['checks']}")
    _, rows = read_csv(verify.out / "residuals.csv")
    res = numeric(rows)
    t.expect(res.shape == (pop.n_types * (pop.grid.n_steps + 1), 3) and np.all(np.isfinite(res)),
             f"{where}: residuals.csv malformed")


def check_sweep(t: Tally, where: str, sweep: Outcome, lo: float, hi: float, points: int) -> None:
    """``sweep.csv`` lies on the requested grid; unflagged rows are finite."""
    if sweep.error is not None:
        return
    header, rows = read_csv(sweep.out / "sweep.csv")
    got = numeric(rows)
    values = np.linspace(lo, hi, points)
    ok = header == ["value", "pi_star", "c_star", "flagged"] and got.shape == (len(values), 4)
    if t.expect(ok, f"{where}: sweep.csv malformed"):
        t.expect(np.array_equal(got[:, 0], values), f"{where}: sweep values differ from the grid")
        good = got[got[:, 3] == 0]
        t.expect(bool(np.all(np.isfinite(good[:, 1:3])) and np.all(good[:, 2] > 0)),
                 f"{where}: unflagged sweep row not finite")


def check_scalars(t: Tally, where: str, pop, sol, scalars: list[tuple[Outcome, int, float]]) -> None:
    """The scalar queries agree with the solved curves at their knots."""
    if sol is None or pop.grid.n_steps % 2:
        return
    idx = {0.0: 0, pop.T / 2: pop.grid.n_steps // 2}
    truth = {"closedform.coeff_B": sol.b_coeff, "closedform.optimal_consumption": sol.c_star,
             "closedform.tilde_Y": sol.y_tilde}
    for o, k, tt in scalars:
        if o.error is None:
            t.expect(close(o.value, truth[o.what][k, idx[tt]]),
                     f"{where}: {o.what}(k={k}, t={tt}) = {o.value} vs {truth[o.what][k, idx[tt]]}")


class Desk:
    """Deterministic desk path: load, solve, verify, two sweeps and scalar
    queries per generated scenario; ``montecarlo`` stays idle."""

    name = "desk-closedform"
    threads = 1
    loop_commands = ("solve", "verify", "sweep")
    work_name = "scenarios"
    # montecarlo is idle here; its chunk probes use the deviate steps
    chunk_on = "deviate"
    roadmap_rows = ("closedform",)

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.paths: list[Path] = []
        self.raw: list[dict] = []

    def setup(self) -> None:
        s = self.ctx.sizes
        for i, cfg in enumerate(inputs.desk_pool(self.ctx.seed, s.desk_steps, s.desk_pool)):
            p = self.ctx.work / f"desk-{i:02d}.json"
            self.ctx.hashes[p.name] = inputs.write_config(p, cfg)
            self.paths.append(p)
            self.raw.append(cfg)
        closedform.solve_equilibrium(cli.load_config(self.paths[0]).population)

    @property
    def steps(self) -> int:
        return self.ctx.sizes.desk_steps

    @property
    def cycle(self) -> int:
        """The loop ends on a whole pool, so every run has the same mix of K
        classes and extreme scenarios."""
        return self.ctx.sizes.desk_pool

    def tag(self, i: int) -> str:
        return self.paths[i % len(self.paths)].stem

    def probe_inputs(self) -> list[tuple[str, Path]]:
        """The first scenario of each K class."""
        return [(p.stem, p) for p in self.paths[:len(inputs.K_CYCLE)]]

    def work_per_unit(self) -> int:
        return 1

    def largest_array_bytes(self) -> int:
        return largest_array_bytes(max(inputs.K_CYCLE), self.ctx.sizes.desk_steps)

    def unit(self, i: int, tr) -> dict:
        j = i % len(self.paths)
        out = self.ctx.work / f"unit{i:04d}"
        rec = {"scenario": j, "out": out, "load": call(tr, "cli.load_config", cli.load_config, self.paths[j])}
        cfg = rec["load"].value
        if cfg is None:
            return rec
        pts = self.ctx.sizes.sweep_points
        rec["solve"] = run_cli(self.ctx, tr, "solve", cfg, out / "solve")
        rec["verify"] = run_cli(self.ctx, tr, "verify", cfg, out / "verify")
        rec["sweep_i"] = run_cli(self.ctx, tr, "sweep", cfg, out / "sweep_i", parameter="sigma0",
                                 lo=0.01, hi=2.0, points=pts, mode="individual")
        rec["sweep_p"] = run_cli(self.ctx, tr, "sweep", cfg, out / "sweep_p", parameter="h",
                                 lo=0.01, hi=0.3, points=pts, mode="population")
        rec["scalars"] = scalar_batch(tr, cfg.population)
        return rec

    def check(self, rec: dict) -> bool:
        ctx, t = self.ctx, self.ctx.tally
        keys = [c for c in ("load", "solve", "verify", "sweep_i", "sweep_p") if c in rec]
        manifests = {c: account(ctx, rec[c]) for c in keys}
        for o, _, _ in rec.get("scalars", ()):
            account(ctx, o)
        if rec["load"].error is not None:
            return False
        pop, raw = rec["load"].value.population, self.raw[rec["scenario"]]
        sol = solve_or_none(pop)
        where = f"scenario {rec['scenario']}"
        check_solve(t, where, pop, raw, sol, rec["solve"])
        check_verify(t, where, pop, rec["verify"], manifests["verify"])
        pts = self.ctx.sizes.sweep_points
        check_sweep(t, f"{where} sweep_i", rec["sweep_i"], 0.01, 2.0, pts)
        check_sweep(t, f"{where} sweep_p", rec["sweep_p"], 0.01, 0.3, pts)
        check_scalars(t, where, pop, sol, rec["scalars"])
        shutil.rmtree(rec["out"], ignore_errors=True)
        return all(rec[c].error is None for c in keys) and all(o.error is None for o, _, _ in rec["scalars"])

    def check_solve_once(self, tr) -> None:
        """Nothing to add: the loop checked every scenario's solve."""


# ---------------------------------------------------------------------------
# mc-deviate and mc-consistency
# ---------------------------------------------------------------------------


class _MonteCarlo:
    command = ""
    threads = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.path = ctx.work / f"{self.name}.json"

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.ctx.hashes[self.path.name] = inputs.write_config(self.path, self.config())
        closedform.solve_equilibrium(cli.load_config(self.path).population)

    def tag(self, i: int) -> str:
        return self.path.stem

    def probe_inputs(self) -> list[tuple[str, Path]]:
        return [(self.path.stem, self.path)]

    def unit(self, i: int, tr) -> dict:
        out = self.ctx.work / f"unit{i:04d}"
        rec = {"pass": i, "out": out,
               "load": call(tr, "cli.load_config", cli.load_config, self.path, seed=self.ctx.seed + i)}
        if rec["load"].value is not None:
            rec["run"] = run_cli(self.ctx, tr, self.command, rec["load"].value, out, **self.kwargs(i))
        return rec

    def kwargs(self, i: int) -> dict:
        return {}

    def check_solve_once(self, tr) -> None:
        """After the timed loop: ``cli solve`` on the workload's input, checked
        against ``solve_equilibrium`` and the closed form."""
        load = call(tr, "cli.load_config", cli.load_config, self.path)
        account(self.ctx, load)
        if load.error is None:
            pop = load.value.population
            o = run_cli(self.ctx, tr, "solve", load.value, self.ctx.work / "solve-once")
            account(self.ctx, o)
            check_solve(self.ctx.tally, self.name, pop, json.loads(self.path.read_text()), solve_or_none(pop), o)

    def check(self, rec: dict) -> bool:
        outcomes = [rec["load"]] + ([rec["run"]] if "run" in rec else [])
        manifest = None
        for o in outcomes:
            manifest = account(self.ctx, o)
        if manifest is not None:
            self.check_outputs(rec, manifest)
        shutil.rmtree(rec["out"], ignore_errors=True)
        return all(o.error is None for o in outcomes)


class Deviate(_MonteCarlo):
    """Paired deviation test on the reference scenario at one thread: 21
    strategies share each chunk's draws, so payoff and ``mu_batch`` dominate."""

    name = "mc-deviate"
    command = "deviate"
    # the probe type alternates 0/1 (gamma > 0 / gamma < 0); whole pairs only
    cycle = 2
    loop_commands = ("deviate",)
    work_name = "paired_samples"
    chunk_on = "deviate"
    roadmap_rows = ("threads",)

    @property
    def steps(self) -> int:
        return self.ctx.sizes.deviate_steps

    def config(self) -> dict:
        s = self.ctx.sizes
        return inputs.reference_config(self.ctx.seed, s.deviate_steps, n_samples=s.deviate_samples)

    def kwargs(self, i: int) -> dict:
        return {"probe_type": i % 2}

    def work_per_unit(self) -> int:
        return self.ctx.sizes.deviate_samples

    def largest_array_bytes(self) -> int:
        return largest_array_bytes(montecarlo.CHUNK, self.ctx.sizes.deviate_steps)

    def check_outputs(self, rec: dict, manifest: dict) -> None:
        t, where = self.ctx.tally, f"deviate pass {rec['pass']}"
        header, rows = read_csv(rec["out"] / "deviations.csv")
        if not t.expect(header == ["name", "delta", "stderr", "large", "flagged"] and len(rows) == 20,
                        f"{where}: deviations.csv malformed"):
            return
        v = numeric(rows, slice(1, 5))
        delta, se, large, flagged = v.T
        t.expect(len({r[0] for r in rows}) == 20, f"{where}: duplicate perturbation names")
        t.expect(bool(np.all(np.isfinite(v)) and np.all(se > 0)), f"{where}: non-finite or zero stderr")
        t.expect(np.array_equal(flagged == 1, delta < -2.0 * se), f"{where}: flagged column inconsistent")
        checks = {c["name"]: c["value"] for c in manifest["checks"]}
        t.expect(checks.get("no_profitable_deviation") == float(np.min(delta + 2.0 * se)),
                 f"{where}: manifest margin disagrees with deviations.csv")


class Consistency(_MonteCarlo):
    """Fixed-point consistency test on the reference scenario at two threads:
    Philox draws and the Euler path build dominate; no payoff is evaluated."""

    name = "mc-consistency"
    command = "simulate"
    cycle = 1
    threads = 2
    loop_commands = ("simulate",)
    work_name = "agent_steps"
    chunk_on = "simulate"
    roadmap_rows = ("closedform",)

    @property
    def steps(self) -> int:
        return self.ctx.sizes.simulate_steps

    def config(self) -> dict:
        s = self.ctx.sizes
        return inputs.reference_config(self.ctx.seed, s.simulate_steps, n_agents=s.simulate_agents,
                                       n_w0_paths=s.simulate_paths)

    def work_per_unit(self) -> int:
        s = self.ctx.sizes
        return s.simulate_agents * s.simulate_paths * s.simulate_steps

    def largest_array_bytes(self) -> int:
        return largest_array_bytes(montecarlo.CHUNK, self.ctx.sizes.simulate_steps)

    def check_outputs(self, rec: dict, manifest: dict) -> None:
        t, s, where = self.ctx.tally, self.ctx.sizes, f"simulate pass {rec['pass']}"
        _, frows = read_csv(rec["out"] / "flow.csv")
        flow = numeric(frows)
        header, crows = read_csv(rec["out"] / "consistency.csv")
        cons = numeric(crows)
        ok = (flow.shape == (s.simulate_steps + 1, 3) and np.all(np.isfinite(flow))
              and header == ["path", "t", "empirical_mean", "flow_mu", "stderr", "deviation_units"]
              and cons.shape == (5 * s.simulate_paths, 6) and np.all(np.isfinite(cons)))
        if not t.expect(bool(ok), f"{where}: flow.csv or consistency.csv malformed"):
            return
        path, times, emp, mu, se, units = cons.T
        t.expect(np.array_equal(units, np.abs(emp - mu) / se), f"{where}: deviation units inconsistent")
        first = path == 0
        knots = np.searchsorted(flow[:, 0], times[first])
        t.expect(np.array_equal(flow[knots, 0], times[first]) and np.array_equal(flow[knots, 1], mu[first]),
                 f"{where}: path-0 flow differs from flow.csv")
        checks = {c["name"]: c["value"] for c in manifest["checks"]}
        t.expect(checks.get("consistency_max_units") == float(units.max()),
                 f"{where}: manifest max units disagrees with consistency.csv")


WORKLOADS = {w.name: w for w in (Desk, Deviate, Consistency)}
