"""Batch command-line front end.

``mfgconsume <command> --config scenario.json [--out DIR] [overrides]``
with commands:

* ``solve``    -- equilibrium curves to CSV, terminal-condition checks
* ``verify``   -- backward-equation residual, drift bracket, Riccati
  agreement, coefficient identity and cross-formulation relations
* ``simulate`` -- mean-field flow dump and the fixed-point consistency test
* ``deviate``  -- paired common-random-number deviation table
* ``sweep``    -- sensitivity of (pi*, c*) at t = 0 to one parameter

Every run writes UTF-8 CSV artifacts plus one JSON manifest (config hash,
seed, artifact list, per-check pass/fail) and prints a plain-text summary.
Each command hands its artifact to :meth:`RunManifest.write_csv` as named
columns; floats are written in their shortest round-trip form.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or config error
(a value of the wrong type or out of range, such as an MC size below 1),
3 a numerical error, named in the manifest's ``error`` block (``"ok": false``).
All randomness flows from the single config seed; ``MFG_CONSUME_THREADS``
caps simulation parallelism without changing any output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np
from numpy.typing import ArrayLike

from . import closedform, montecarlo, population, verify
from .closedform import (
    population_aggregates,
    sigma0_thresholds,
    solve_equilibrium,
    tagged_policy_at0,
)
from .errors import ExponentRangeError, IntegrationBlowUpError, SingularAggregateError, StructuralError
from .grid import GridCurve, TimeGrid
from .population import AgentType, Population, type_violations, validate


class ConfigError(Exception):
    """Unusable configuration or command line; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_CURVES = ("h", "sigma", "sigma0")  # market parameters given per knot
SWEEPABLE = (*_CURVES, "theta", "gamma", "alpha")


@dataclass(frozen=True)
class Bounds:
    gamma_lb: float = population.DEFAULT_GAMMA_LB
    sigma_lb: float = population.DEFAULT_SIGMA_LB
    c_min: float = montecarlo.DEFAULT_C_MIN
    c_max: float = montecarlo.DEFAULT_C_MAX
    pi_cap: float = montecarlo.DEFAULT_PI_CAP


@dataclass(frozen=True)
class McSettings:
    n_samples: int = 20000
    n_agents: int = 20000
    n_w0_paths: int = 3
    seed: int = 12345


@dataclass(frozen=True)
class Tolerances:
    riccati_tol: float = 1e-6
    residual_tol: float = 1e-4
    drift_tol: float = 1e-12


@dataclass(frozen=True)
class ScenarioConfig:
    population: Population
    bounds: Bounds
    mc: McSettings
    tolerances: Tolerances
    out_dir: str

    @property
    def horizon(self) -> float:
        return self.population.grid.T

    @property
    def n_steps(self) -> int:
        return self.population.grid.n_steps


def _keys(obj, allowed, where: str) -> dict:
    """``obj`` when it is an object with no key outside ``allowed``, else a
    ConfigError naming ``where``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return obj


def _section(raw: dict, key: str, cls: type, **overrides):
    """Section ``key`` of ``raw``, whose schema is the dataclass ``cls``:
    each field is a key, its default the key's default and its annotation
    the key's kind. Returns the ``cls`` instance of the typed values of the
    raw keys over the defaults, with the ``overrides`` that are not None on
    top. A float must be finite and positive, an int integral (both by the
    rule of ``_number``)."""
    merged = {f.name: f.default for f in fields(cls)}
    merged.update(_keys(raw.get(key, {}), merged, f"'{key}'"))
    merged.update((k, v) for k, v in overrides.items() if v is not None)
    for name, kind in get_type_hints(cls).items():
        v, where = merged[name], f"{key}.{name}"
        merged[name] = _number(kind, v, where)
        if kind is float and not 0 < merged[name] < math.inf:
            raise ConfigError(f"{where} must be finite and positive, got {v}")
    return cls(**merged)


def _number(kind: type, value, where: str):
    """``value`` as a ``float`` or an ``int``, else a ConfigError naming
    ``where``. A float is any JSON number; an int is a JSON integer or an
    integral float such as ``1e3``. Booleans and strings are neither."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if kind is int and not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError as e:  # an integer literal beyond the float range
        raise ConfigError(f"{where}: number out of range") from e


def _curve(grid: TimeGrid, value, where: str) -> GridCurve:
    """Scalar config values broadcast to constant curves; arrays must have
    one value per knot, each a number by the rule of ``_number``."""
    if isinstance(value, list):
        if len(value) != grid.n_steps + 1:
            raise ConfigError(
                f"{where}: curve needs {grid.n_steps + 1} values (n_steps + 1), got {len(value)}"
            )
        if not set(map(type, value)) <= {int, float}:  # JSON numbers; a bool's type is bool
            raise ConfigError(f"{where}: every curve value must be a number, not a string, a boolean or null")
        try:
            return GridCurve(grid, np.asarray(value, dtype=float))
        except (StructuralError, ValueError, OverflowError) as e:
            raise ConfigError(f"{where}: {e}") from e
    return GridCurve.constant(grid, _number(float, value, f"{where} (a number or an array)"))


def load_config(
    path: str | Path,
    *,
    seed: int | None = None,
    steps: int | None = None,
    samples: int | None = None,
    out_dir: str | None = None,
) -> ScenarioConfig:
    """Parse, default, and validate a scenario file; command-line overrides
    are applied before the population is built."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: parse error at line {e.lineno} col {e.colno}: {e.msg}") from e
    except ValueError as e:  # not UTF-8, or an integer literal past the interpreter's digit limit
        raise ConfigError(f"{path}: {e}") from e
    _keys(raw, ("horizon", "n_steps", "population", "bounds", "mc", "tolerances", "out_dir"),
          f"the top level of {path}")

    horizon = _number(float, raw.get("horizon", 1.0), "horizon")
    n_steps = _number(int, steps if steps is not None else raw.get("n_steps", 2000), "n_steps")
    bounds = _section(raw, "bounds", Bounds)
    if bounds.c_max < bounds.c_min:
        raise ConfigError(f"bounds.c_max must be at least bounds.c_min, got {bounds.c_max} < {bounds.c_min}")
    tolerances = _section(raw, "tolerances", Tolerances)
    mc = _section(raw, "mc", McSettings, seed=seed, n_samples=samples)
    for name in ("n_samples", "n_agents", "n_w0_paths"):
        if getattr(mc, name) < 1:
            raise ConfigError(f"mc.{name} must be at least 1, got {getattr(mc, name)}")
    if mc.seed < 0:
        raise ConfigError(f"mc.seed must be non-negative, got {mc.seed}")

    type_specs = raw.get("population")
    if not isinstance(type_specs, list) or not type_specs:
        raise ConfigError("'population' must be a non-empty array of type records")
    try:
        grid = TimeGrid(horizon, n_steps)
    except (StructuralError, MemoryError) as e:  # numpy refuses a grid past memory at once
        raise ConfigError(str(e)) from e
    scalars = {"weight": 1.0 / len(type_specs), "x0": 1.0, "gamma": None, "theta": 0.0, "alpha": 1.0}
    types = []
    for i, record in enumerate(type_specs):
        where = f"population[{i}]"
        _keys(record, (*scalars, *_CURVES), where)
        for req in ("gamma", *_CURVES):
            if req not in record:
                raise ConfigError(f"{where}: missing required key '{req}'")
        rec = {k: _number(float, record.get(k, d), f"{where}.{k}") for k, d in scalars.items()}
        try:
            curves = {k: _curve(grid, record[k], f"{where}.{k}") for k in _CURVES}
            types.append(AgentType(**rec, **curves))
        except StructuralError as e:
            raise ConfigError(f"{where}: {e}") from e

    try:
        pop = Population(tuple(types), gamma_lb=bounds.gamma_lb, sigma_lb=bounds.sigma_lb)
    except StructuralError as e:
        raise ConfigError(str(e)) from e
    report = validate(pop)
    if not report.ok:
        raise ConfigError(f"population violates standing assumptions: {report.describe()}")

    return ScenarioConfig(
        population=pop,
        bounds=bounds,
        mc=mc,
        tolerances=tolerances,
        out_dir=str(out_dir if out_dir is not None else raw.get("out_dir", "out")),
    )


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


_CSV_BLOCK = 256  # rows per block: bounds the Python objects a write holds at once


def _type_record(t: AgentType) -> dict:
    """An agent type as hashed into manifests: its scalars, and each curve
    as its one float if constant, else one float per knot."""
    rec = {k: getattr(t, k) for k in ("weight", "x0", "gamma", "theta", "alpha")}
    for k in _CURVES:
        v = getattr(t, k).values
        rec[k] = float(v[0]) if np.all(v == v[0]) else v.tolist()
    return rec


class RunManifest:
    """Collects artifacts and checks; serialised once per run."""

    def __init__(self, command: str, cfg: ScenarioConfig):
        # hash the typed scenario itself; where artifacts land is not part of it
        hashed = {
            "horizon": cfg.horizon,
            "n_steps": cfg.n_steps,
            **{key: asdict(getattr(cfg, key)) for key in ("bounds", "mc", "tolerances")},
            "population": [_type_record(t) for t in cfg.population.types],
        }
        canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        self.data = {
            "command": command,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "seed": cfg.mc.seed,
            "artifacts": [],
            "checks": [],
        }

    def artifact(self, name: str) -> None:
        self.data["artifacts"].append(name)

    def write_csv(self, path: Path, columns: dict[str, ArrayLike]) -> None:
        """Write ``{header: column}`` to ``path`` as CSV and record it as an
        artifact. Cells are the columns' ``tolist()`` values, so the csv
        module writes each float as its shortest round-trip ``repr``;
        booleans are written as 0/1."""
        cols = [c.astype(int) if c.dtype == bool else c for c in map(np.asarray, columns.values())]
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(columns)
            for i in range(0, len(cols[0]), _CSV_BLOCK):
                w.writerows(zip(*(c[i:i + _CSV_BLOCK].tolist() for c in cols)))
        self.artifact(path.name)

    def check(self, name: str, value: float, tolerance: float, passed: bool) -> None:
        self.data["checks"].append(
            {"name": name, "value": value, "tolerance": tolerance, "passed": bool(passed)}
        )

    def extra(self, key: str, value) -> None:
        self.data[key] = value

    @property
    def ok(self) -> bool:
        return "error" not in self.data and all(c["passed"] for c in self.data["checks"])

    def write(self, out: Path) -> None:
        self.data["ok"] = self.ok
        self.data["artifacts"].append("manifest.json")
        (out / "manifest.json").write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")

    def summary(self) -> str:
        lines = []
        for c in self.data["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{mark} {c['name']}: value={c['value']:.6g} tolerance={c['tolerance']:.6g}")
        lines.append("ok" if self.ok else "FAILED: " + ",".join(
            c["name"] for c in self.data["checks"] if not c["passed"]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _report_columns(rows: Sequence, header: Sequence[str]) -> dict:
    """A report's dataclass rows as ``{header: column}``, header i naming field i."""
    return dict(zip(header, zip(*map(astuple, rows))))


def _cmd_solve(cfg: ScenarioConfig, out: Path, manifest: RunManifest) -> None:
    pop = cfg.population
    sol = solve_equilibrium(pop)
    k = pop.n_types  # one row per knot and type, time-major
    manifest.write_csv(out / "equilibrium.csv", {
        "t": np.repeat(pop.grid.times, k), "type": np.tile(np.arange(k), pop.grid.n_steps + 1),
        "pi_star": sol.pi_star.T.ravel(), "c_star": sol.c_star.T.ravel(), "y_tilde": sol.y_tilde.T.ravel(),
        "phi": np.repeat(sol.phi, k), "psi": np.repeat(sol.psi, k), "z0": np.repeat(sol.z0_common, k),
    })

    c_term = float(np.abs(sol.c_star[:, -1] - sol.d_coeff).max())
    manifest.check("c_terminal_equals_d", c_term, 0.0, c_term <= 0.0)
    y_term = float(np.abs(sol.y_tilde[:, -1]).max())
    manifest.check("y_tilde_terminal", y_term, 1e-10, y_term <= 1e-10)
    one_plus_psi = float((1.0 + sol.psi).min())
    manifest.check("one_plus_psi_positive", one_plus_psi, 1e-12, one_plus_psi > 1e-12)


def _cmd_verify(cfg: ScenarioConfig, out: Path, manifest: RunManifest) -> None:
    pop = cfg.population
    tol = cfg.tolerances
    sol = solve_equilibrium(pop)

    res = verify.bsde_residual(pop, sol)
    manifest.write_csv(out / "residuals.csv", {  # type-major
        "t": np.tile(pop.grid.times, pop.n_types),
        "type": np.repeat(np.arange(pop.n_types), pop.grid.n_steps + 1),
        "residual": res.residuals.ravel(),
    })
    manifest.check("residual_sup", res.sup_norm, tol.residual_tol, res.sup_norm <= tol.residual_tol)

    j0 = verify._j_at_zero(pop)
    j_err = float((np.abs(j0 + sol.a_coeff) / np.maximum(1.0, np.abs(sol.a_coeff))).max())
    manifest.check("j_identity_relative", j_err, 1e-9, j_err <= 1e-9)

    numeric = closedform.solve_riccati_numeric(pop)
    ric_err = float((np.abs(numeric - sol.c_star) / np.abs(sol.c_star)).max())
    manifest.check("riccati_relative_sup", ric_err, tol.riccati_tol, ric_err <= tol.riccati_tol)

    worst, worst_opt = verify.drift_check(cfg.mc.seed, 10000, "positive")
    w2, w2o = verify.drift_check(cfg.mc.seed + 1, 10000, "negative")
    worst, worst_opt = max(worst, w2), max(worst_opt, w2o)
    manifest.check("mop_drift_max", worst, tol.drift_tol, worst <= tol.drift_tol)
    manifest.check("mop_drift_at_optimum", worst_opt, 1e-10, worst_opt <= 1e-10)

    rel = verify.relation_check(pop, sol, seed=cfg.mc.seed)
    manifest.check("relation_investment", rel.max_err_investment, 1e-12, rel.max_err_investment <= 1e-12)
    manifest.check("relation_nu_hat", rel.max_err_nu_hat, 1e-8, rel.max_err_nu_hat <= 1e-8)
    manifest.check("relation_z0", rel.max_err_z0, 1e-12, rel.max_err_z0 <= 1e-12)


def _cmd_simulate(cfg: ScenarioConfig, out: Path, manifest: RunManifest) -> None:
    pop = cfg.population
    sol = solve_equilibrium(pop)
    flow = montecarlo.FlowModel(pop, sol)
    mu = flow.mu_values(montecarlo.consistency_w0(pop.grid, cfg.mc.seed, 0))
    manifest.write_csv(out / "flow.csv", {"t": pop.grid.times, "mu_hat": mu, "nu_hat": flow.e_logc + mu})

    rep = montecarlo.consistency_test(pop, sol, cfg.mc.n_agents, cfg.mc.n_w0_paths, cfg.mc.seed)
    manifest.write_csv(out / "consistency.csv", _report_columns(
        rep.rows, ("path", "t", "empirical_mean", "flow_mu", "stderr", "deviation_units")))
    manifest.check("consistency_max_units", rep.max_deviation_units, 3.0, rep.max_deviation_units <= 3.0)


def _cmd_deviate(cfg: ScenarioConfig, out: Path, manifest: RunManifest, probe_type: int = 0) -> None:
    pop = cfg.population
    b = cfg.bounds
    if not 0 <= probe_type < pop.n_types:
        raise ConfigError(f"probe type {probe_type} out of range")
    sol = solve_equilibrium(pop)
    try:
        perts = montecarlo.default_perturbations(sol, probe_type, b.pi_cap, b.c_min, b.c_max)
    except ValueError as e:
        raise ConfigError(f"equilibrium incompatible with strategy bounds: {e}") from e
    rep = montecarlo.deviation_test(
        pop, probe_type, sol, perts, cfg.mc.n_samples, cfg.mc.seed, b.pi_cap, b.c_min, b.c_max
    )
    manifest.write_csv(out / "deviations.csv",
                       _report_columns(rep.rows, ("name", "delta", "stderr", "large", "flagged")))
    manifest.check("no_profitable_deviation", rep.margin, 0.0, rep.passed)
    manifest.check("large_deviations_detected", rep.large_margin, 0.0, rep.large_detected)


def _set_param(agent: AgentType, parameter: str, value: float) -> AgentType:
    grid = agent.grid
    if parameter in _CURVES:
        return replace(agent, **{parameter: GridCurve.constant(grid, value)})
    return replace(agent, **{parameter: float(value)})


def sweep_sensitivity(
    cfg: ScenarioConfig,
    parameter: str,
    values: Sequence[float],
    mode: str = "individual",
    probe_type: int = 0,
) -> list[tuple[float, float, float, bool]]:
    """Rows of (value, pi_star, c_star, flagged) at t = 0.

    The swept parameter is treated as deterministic. ``individual`` perturbs
    a tagged agent carrying the probe type's parameters while population
    aggregates stay fixed; ``population`` sets the parameter for every type
    and re-solves the aggregates, the tagged probe keeping its original
    parameters. Rows whose perturbed inputs leave the validated region are
    flagged rather than dropped, with NaN rates where the closed form does
    not evaluate there.
    """
    if parameter not in SWEEPABLE:
        raise ConfigError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    if mode not in ("individual", "population"):
        raise ConfigError(f"mode must be 'individual' or 'population', got {mode!r}")
    pop = cfg.population
    if not 0 <= probe_type < pop.n_types:
        raise ConfigError(f"probe type {probe_type} out of range")
    probe = pop.types[probe_type]
    base_agg = population_aggregates(pop) if mode == "individual" else None

    rows = []
    for v in values:
        flagged = False
        try:
            if mode == "individual":
                agent = _set_param(probe, parameter, v)
                flagged = bool(type_violations(probe_type, agent, pop.gamma_lb, pop.sigma_lb))
                pi0, c0 = tagged_policy_at0(base_agg, agent)
            else:
                shifted = Population(
                    tuple(_set_param(tp, parameter, v) for tp in pop.types),
                    gamma_lb=pop.gamma_lb,
                    sigma_lb=pop.sigma_lb,
                )
                flagged = not validate(shifted).ok
                pi0, c0 = tagged_policy_at0(population_aggregates(shifted), probe)
        except (ValueError, SingularAggregateError, ExponentRangeError):
            # outside the validated region the closed form may not evaluate;
            # inside it, that is an error of its own and is not masked
            if not flagged:
                raise
            rows.append((float(v), math.nan, math.nan, True))
            continue
        rows.append((float(v), pi0, c0, flagged))
    return rows


def _cmd_sweep(
    cfg: ScenarioConfig,
    out: Path,
    manifest: RunManifest,
    parameter: str,
    lo: float,
    hi: float,
    points: int = 50,
    mode: str = "individual",
    probe_type: int = 0,
) -> None:
    if points < 2:
        raise ConfigError("sweep needs at least 2 points")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"sweep ends must be finite, got lo={lo} hi={hi}")
    rows = sweep_sensitivity(cfg, parameter, np.linspace(lo, hi, points), mode, probe_type)
    vals, pis, cs, flagged = (np.array(c) for c in zip(*rows))
    manifest.write_csv(out / "sweep.csv", {"value": vals, "pi_star": pis, "c_star": cs, "flagged": flagged})
    manifest.extra("sweep", {"parameter": parameter, "mode": mode, "probe_type": probe_type})

    if parameter == "sigma0" and mode == "individual":
        thr = sigma0_thresholds(cfg.population, probe_type, 0.0)
        if thr.valid:
            manifest.extra(
                "thresholds", {"sigma0_upper": thr.sigma0_upper, "sigma0_lower": thr.sigma0_lower}
            )
            marker = max(thr.sigma0_upper, thr.sigma0_lower)
            slopes = np.diff(pis)
            flips = np.flatnonzero(np.sign(slopes[:-1]) != np.sign(slopes[1:]))
            if vals[0] < marker < vals[-1]:
                cell = float(vals[1] - vals[0])
                crossing = float(vals[flips[0] + 1]) if flips.size else math.nan
                err = abs(crossing - marker)
                manifest.extra("threshold_crossing", crossing)
                manifest.check("threshold_within_one_cell", err, cell, err <= cell)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {"solve": _cmd_solve, "verify": _cmd_verify, "simulate": _cmd_simulate,
             "deviate": _cmd_deviate, "sweep": _cmd_sweep}
_NUMERICAL_ERRORS = (ExponentRangeError, SingularAggregateError, IntegrationBlowUpError)


def run(command: str, cfg: ScenarioConfig, **kwargs) -> int:
    """Execute one command against a loaded config; returns the exit code.
    ``kwargs`` default in the ``_cmd_*`` function; a numerical error is
    recorded in the manifest and re-raised."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(command, cfg)
    try:
        _COMMANDS[command](cfg, out, manifest, **kwargs)
    except _NUMERICAL_ERRORS as e:
        manifest.extra("error", {"type": type(e).__name__, "message": str(e)})
        manifest.write(out)
        raise
    manifest.write(out)
    print(f"seed={cfg.mc.seed} out={out}")
    print(manifest.summary())
    return 0 if manifest.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mfgconsume", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        q = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        q.add_argument("--config", required=True, help="scenario JSON file")
        q.add_argument("--out", default=None, help="output directory (overrides config)")
        q.add_argument("--seed", type=int, default=None, help="seed override")
        q.add_argument("--steps", type=int, default=None, help="grid steps override")
        q.add_argument("--samples", type=int, default=None, help="Monte-Carlo samples override")
        # command options without a default here: the _cmd_* function has it
        if name in ("deviate", "sweep"):
            q.add_argument("--probe-type", type=int)
        if name == "sweep":
            q.add_argument("--parameter", required=True, choices=SWEEPABLE)
            q.add_argument("--lo", type=float, required=True)
            q.add_argument("--hi", type=float, required=True)
            q.add_argument("--points", type=int)
            q.add_argument("--mode", choices=("individual", "population"))
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        cfg = load_config(
            args.pop("config"), seed=args.pop("seed"), steps=args.pop("steps"),
            samples=args.pop("samples"), out_dir=args.pop("out"),
        )
        return run(command, cfg, **args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
