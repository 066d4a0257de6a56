import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgconsume.cli import (
    SWEEPABLE,
    Bounds,
    ConfigError,
    McSettings,
    RunManifest,
    Tolerances,
    load_config,
    main,
    run,
    sweep_sensitivity,
)
from mfgconsume.errors import ExponentRangeError

REFERENCE = Path(__file__).resolve().parents[1] / "demos" / "configs" / "reference.json"


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "horizon": 1.0,
        "n_steps": 128,
        "population": [
            {"weight": 1.0, "x0": 1.0, "gamma": 0.5, "theta": 0.5, "alpha": 1.0,
             "h": 0.1, "sigma": 0.2, "sigma0": 0.1}
        ],
        "mc": {"n_samples": 4000, "n_agents": 4000, "n_w0_paths": 2, "seed": 99},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"population": [{"gamma": 0.5, "h": 0.1, "sigma": 0.2, "sigma0": 0.0}]}))
        cfg = load_config(path)
        assert cfg.horizon == 1.0
        assert cfg.n_steps == 2000
        assert cfg.population.types[0].theta == 0.0
        assert cfg.population.types[0].alpha == 1.0
        assert cfg.bounds.pi_cap == 10.0
        assert cfg.tolerances.residual_tol == 1e-4

    def test_gamma_zero_rejected_with_context(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0]["gamma"] = 0.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "gamma_nonzero" in str(exc.value)
        assert "type 0" in str(exc.value)

    def test_wrong_curve_length_is_structural(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0]["h"] = [0.1, 0.1, 0.1]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "129" in str(exc.value)

    def test_curve_arrays_accepted(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0]["h"] = list(np.linspace(0.05, 0.15, 129))
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.population.types[0].h(0.0) == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"population": [], "horizonn": 2.0}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_parse_error_has_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"horizon\": ,\n}")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert "line 2" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, seed=5, steps=64, samples=1000, out_dir="elsewhere")
        assert cfg.mc.seed == 5
        assert cfg.n_steps == 64
        assert cfg.mc.n_samples == 1000
        assert cfg.out_dir == "elsewhere"

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = write_config(tmp_path, tolerances={"residual_tol": 0.0})
        with pytest.raises(ConfigError):
            load_config(path)


class TestSolveCommand:
    def test_merton_scenario_constant_column(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0].update(theta=0.0, sigma0=0.0)
        path.write_text(json.dumps(raw))
        cfg = load_config(path, out_dir=str(tmp_path / "out"))
        assert run("solve", cfg) == 0
        rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        pis = {r["pi_star"] for r in rows}
        assert len(pis) == 1
        assert float(pis.pop()) == pytest.approx(5.0, rel=1e-14)

    def test_csv_schema(self, tmp_path):
        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        run("solve", cfg)
        with open(tmp_path / "out" / "equilibrium.csv", newline="") as f:
            header = f.readline().strip()
        assert header == "t,type,pi_star,c_star,y_tilde,phi,psi,z0"

    def test_manifest_contents(self, tmp_path):
        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        run("solve", cfg)
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["seed"] == 99
        assert man["ok"] is True
        assert "equilibrium.csv" in man["artifacts"]
        assert len(man["config_hash"]) == 64
        assert all(c["passed"] for c in man["checks"])

    def test_round_trip_bit_identical(self, tmp_path):
        p = write_config(tmp_path)
        c1 = load_config(p, out_dir=str(tmp_path / "a"))
        c2 = load_config(p, out_dir=str(tmp_path / "b"))
        run("solve", c1)
        run("solve", c2)
        a = (tmp_path / "a" / "equilibrium.csv").read_bytes()
        b = (tmp_path / "b" / "equilibrium.csv").read_bytes()
        assert a == b

    def test_csv_floats_round_trip(self, tmp_path):
        from mfgconsume import solve_equilibrium

        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        run("solve", cfg)
        sol = solve_equilibrium(cfg.population)
        rows = read_csv(tmp_path / "out" / "equilibrium.csv")
        for i in (0, 64, 128):
            row = rows[i]
            assert float(row["pi_star"]) == sol.pi_star[0, i]
            assert float(row["c_star"]) == sol.c_star[0, i]
            assert float(row["y_tilde"]) == sol.y_tilde[0, i]


class TestVerifyCommand:
    def test_reference_passes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, n_steps=400), out_dir=str(tmp_path / "out"))
        assert run("verify", cfg) == 0
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        names = {c["name"] for c in man["checks"]}
        assert {"residual_sup", "j_identity_relative", "riccati_relative_sup",
                "mop_drift_max", "mop_drift_at_optimum", "relation_investment",
                "relation_nu_hat", "relation_z0"} <= names

    def test_impossible_tolerance_fails_with_exit_one(self, tmp_path):
        path = write_config(tmp_path, tolerances={"residual_tol": 1e-300})
        cfg = load_config(path, out_dir=str(tmp_path / "out"))
        assert run("verify", cfg) == 1
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert man["ok"] is False

    def test_rerun_reproduces_checks_bit_identically(self, tmp_path):
        p = write_config(tmp_path)
        run("verify", load_config(p, out_dir=str(tmp_path / "a")))
        run("verify", load_config(p, out_dir=str(tmp_path / "b")))
        a = (tmp_path / "a" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert a == b


class TestSimulateAndDeviate:
    def test_simulate(self, tmp_path):
        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        assert run("simulate", cfg) == 0
        assert (tmp_path / "out" / "flow.csv").exists()
        rows = read_csv(tmp_path / "out" / "consistency.csv")
        assert len(rows) == 10  # 2 paths x 5 probes
        assert all(float(r["deviation_units"]) <= 3.0 for r in rows)

    @pytest.mark.parametrize("units, code", [(3.5, 1), (2.5, 0)])
    def test_simulate_fails_past_three_units(self, tmp_path, monkeypatch, units, code):
        from mfgconsume import montecarlo

        real = montecarlo.consistency_test
        monkeypatch.setattr(montecarlo, "consistency_test",
                            lambda *a: replace(real(*a), max_deviation_units=units))
        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        assert run("simulate", cfg) == code
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        check = next(c for c in man["checks"] if c["name"] == "consistency_max_units")
        assert (check["value"], check["passed"], man["ok"]) == (units, code == 0, code == 0)

    def test_flow_csv_is_the_flow_model_bit_for_bit(self, tmp_path):
        from mfgconsume import FlowModel, solve_equilibrium
        from mfgconsume.montecarlo import consistency_w0

        cfg = load_config(write_config(tmp_path), out_dir=str(tmp_path / "out"))
        assert run("simulate", cfg) == 0
        pop = cfg.population
        flow = FlowModel(pop, solve_equilibrium(pop))
        mu = flow.mu_values(consistency_w0(pop.grid, cfg.mc.seed, 0))
        rows = read_csv(tmp_path / "out" / "flow.csv")
        assert np.array_equal([float(r["t"]) for r in rows], pop.grid.times)
        assert np.array_equal([float(r["mu_hat"]) for r in rows], mu)
        assert np.array_equal([float(r["nu_hat"]) for r in rows], flow.e_logc + mu)

    def test_simulate_draws_each_common_noise_path_once(self, tmp_path, monkeypatch):
        # flow.csv is the consistency report's path 0, not a second draw of it
        from mfgconsume import montecarlo

        drawn = []
        real = montecarlo.consistency_w0
        monkeypatch.setattr(montecarlo, "consistency_w0",
                            lambda grid, seed, path: drawn.append(path) or real(grid, seed, path))
        path = write_config(tmp_path, mc={"n_agents": 4000, "n_w0_paths": 3, "seed": 99})
        assert run("simulate", load_config(path, out_dir=str(tmp_path / "out"))) == 0
        assert drawn == [0, 1, 2]

    def test_deviate(self, tmp_path):
        path = write_config(tmp_path, mc={"n_samples": 30000, "seed": 99})
        cfg = load_config(path, out_dir=str(tmp_path / "out"))
        code = run("deviate", cfg)
        rows = read_csv(tmp_path / "out" / "deviations.csv")
        assert len(rows) == 20
        assert all(r["flagged"] == "0" for r in rows)
        assert code == 0


class TestSweep:
    def test_individual_h_strictly_increasing(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        rows = sweep_sensitivity(cfg, "h", np.linspace(0.05, 0.3, 12), "individual")
        pis = [r[1] for r in rows]
        assert all(b > a for a, b in zip(pis, pis[1:]))
        assert not any(r[3] for r in rows)

    def test_population_h_decreasing_for_positive_gamma(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        rows = sweep_sensitivity(cfg, "h", np.linspace(0.05, 0.3, 12), "population")
        pis = [r[1] for r in rows]
        assert all(b < a for a, b in zip(pis, pis[1:]))

    def test_sigma0_without_competition_decreasing(self, tmp_path):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0]["theta"] = 0.0
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        rows = sweep_sensitivity(cfg, "sigma0", np.linspace(0.01, 2.0, 25), "individual")
        pis = [r[1] for r in rows]
        assert all(b < a for a, b in zip(pis, pis[1:]))

    def test_out_of_assumption_rows_flagged_not_dropped(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        rows = sweep_sensitivity(cfg, "gamma", np.linspace(-0.5, 1.5, 11), "individual")
        assert len(rows) == 11
        flagged = [r for r in rows if r[3]]
        assert flagged  # gamma >= 1 sits in the range
        assert any(math.isnan(r[1]) for r in flagged)

    def test_individual_flags_are_the_standing_assumptions(self, tmp_path):
        # every value range crosses the bounds of its parameter: 0 < |gamma|
        # < gamma_lb, theta > 1, sigma0 < 0, sigma + sigma0 < sigma_lb with
        # both volatilities nonnegative (type 1 has sigma0 = 0), alpha <= 0
        from dataclasses import replace

        from mfgconsume import GridCurve, Population, validate

        path = write_config(tmp_path, population=[
            {"weight": 0.5, "gamma": 0.5, "theta": 0.5, "h": 0.1, "sigma": 0.2, "sigma0": 0.1},
            {"weight": 0.5, "gamma": -1.0, "theta": 0.8, "alpha": 1.2, "h": 0.08, "sigma": 0.3,
             "sigma0": 0.0},
        ])
        cfg = load_config(path)
        pop = cfg.population
        values = {
            "h": [-0.1, 0.0, 0.1, 0.4],
            "sigma": [-0.2, -0.05, 0.0, 0.0005, 0.002, 0.3],
            "sigma0": [-0.1995, -0.1, 0.0, 0.05, 2.0],
            "theta": [-0.1, 0.0, 0.5, 1.0, 1.2],
            "gamma": [-2.0, -0.5, -0.0005, 0.0, 0.0005, 0.5, 0.9, 1.0, 1.5],
            "alpha": [-1.0, 0.0, 0.5, 2.0],
        }
        assert set(values) == set(SWEEPABLE)
        seen = set()
        for parameter, vals in values.items():
            for k in range(pop.n_types):
                with np.errstate(divide="ignore", invalid="ignore"):  # sigma = sigma0 = 0 row
                    rows = sweep_sensitivity(cfg, parameter, vals, "individual", probe_type=k)
                for v, (_, _, _, flagged) in zip(vals, rows):
                    tp = pop.types[k]
                    if parameter in ("h", "sigma", "sigma0"):
                        probe = replace(tp, **{parameter: GridCurve.constant(pop.grid, v)})
                    else:
                        probe = replace(tp, **{parameter: v})
                    types = pop.types[:k] + (probe,) + pop.types[k + 1:]
                    report = validate(Population(types, pop.gamma_lb, pop.sigma_lb))
                    assert flagged == (not report.ok), (parameter, k, v, report.describe())
                    seen.update(vi.rule for vi in report.violations)
        assert seen == {
            "alpha_positive", "theta_in_unit_interval", "gamma_nonzero", "gamma_below_one",
            "gamma_lower_bound", "volatility_lower_bound", "sigma_nonnegative", "sigma0_nonnegative",
        }

    def test_threshold_marker_in_manifest(self, tmp_path):
        # scenario whose slope sign change sits inside the sweep range
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["population"][0].update(theta=1.0, sigma0=0.3)
        path.write_text(json.dumps(raw))
        cfg = load_config(path, out_dir=str(tmp_path / "out"))
        code = run("sweep", cfg, parameter="sigma0", lo=0.01, hi=2.0, points=120, mode="individual")
        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "thresholds" in man
        assert any(c["name"] == "threshold_within_one_cell" and c["passed"] for c in man["checks"])
        assert code == 0

    def test_bad_parameter(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError):
            sweep_sensitivity(cfg, "rho", [0.1], "individual")

    def test_gamma_inside_a_small_gamma_lb_solves(self, tmp_path, capsys):
        # gamma_lb = 1e-20 admits |gamma| = 1e-16: the tagged policy rejects
        # only gamma = 0 and gamma >= 1, no cutoff of its own
        raw = json.loads(REFERENCE.read_text())
        raw["bounds"]["gamma_lb"] = 1e-20
        path = tmp_path / "tiny_gamma_lb.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        flags = ["--parameter", "gamma", "--lo", "1e-16", "--hi", "2e-16", "--points", "2"]
        assert main(["sweep", "--config", str(path), "--out", str(out), *flags]) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out / "sweep.csv")
        assert [r["flagged"] for r in rows] == ["0", "0"]
        assert all(math.isfinite(float(r[c])) for r in rows for c in ("pi_star", "c_star"))


class TestMainEntry:
    def test_usage_error_exit_two(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2

    def test_solve_via_main(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_seed_override_recorded(self, tmp_path):
        path = write_config(tmp_path)
        main(["solve", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "7"])
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["seed"] == 7

    def test_numerical_error_exit_three_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["sweep", "--config", str(REFERENCE), "--parameter", "gamma",
                "--lo", "0.99", "--hi", "0.999", "--points", "2", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: ExponentRangeError: ")
        man = json.loads((out / "manifest.json").read_text())
        assert man["ok"] is False
        assert man["error"]["type"] == "ExponentRangeError"
        assert man["error"]["message"]
        # the library entry keeps raising the typed error, after writing the manifest
        (out / "manifest.json").unlink()
        with pytest.raises(ExponentRangeError):
            run("sweep", load_config(REFERENCE, out_dir=str(out)), parameter="gamma", lo=0.99, hi=0.999, points=2)
        assert json.loads((out / "manifest.json").read_text())["error"]["type"] == "ExponentRangeError"

    def test_terminal_consumption_overflow_exits_three(self, tmp_path, capsys):
        # log D = log(alpha) / (1 - gamma) is about 3000 here: D must not
        # overflow to inf and leave NaN c_star behind a failed check
        one = {"weight": 1.0, "gamma": 0.999, "theta": 0.0, "alpha": 20.0, "h": 0.01, "sigma": 0.2, "sigma0": 0.1}
        path = write_config(tmp_path, horizon=0.01, n_steps=64, population=[one])
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ExponentRangeError: ")
        man = json.loads((out / "manifest.json").read_text())
        assert man["ok"] is False
        assert man["error"]["type"] == "ExponentRangeError"
        assert not (out / "equilibrium.csv").exists()


class TestConfigErrorsExitTwo:
    """Bad sizes and values of the wrong type are config errors: exit 2 and
    one ``error:`` line, not a traceback."""

    @pytest.mark.parametrize("command, flags, edit", [
        pytest.param("deviate", ["--samples", "0"], None, id="samples-0"),
        pytest.param("simulate", ["--steps", "0"], None, id="steps-0"),
        pytest.param("solve", ["--steps", "-3"], None, id="steps-negative"),
        pytest.param("solve", [], lambda raw: raw.update(horizon=-1), id="horizon-negative"),
        pytest.param("solve", [], lambda raw: raw.update(horizon="long"), id="horizon-string"),
        pytest.param("simulate", [], lambda raw: raw["mc"].update(n_agents=0), id="n_agents-0"),
        pytest.param("simulate", [], lambda raw: raw["mc"].update(n_w0_paths=0), id="n_w0_paths-0"),
        pytest.param("deviate", [], lambda raw: raw["mc"].update(n_samples="many"), id="n_samples-string"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(gamma="x"), id="gamma-string"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(weight=None), id="weight-null"),
        pytest.param("verify", [], lambda raw: raw.update(tolerances={"drift_tol": "tight"}),
                     id="tolerance-string"),
        pytest.param("solve", [], lambda raw: raw.update(n_steps=2.5), id="n_steps-fractional"),
        pytest.param("solve", [], lambda raw: raw.update(n_steps=True), id="n_steps-bool"),
        pytest.param("solve", [], lambda raw: raw["mc"].update(seed=True), id="seed-bool"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(theta=True), id="theta-bool"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(h=True), id="h-bool"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(gamma="0.5"), id="gamma-numeric-string"),
        pytest.param("solve", [], lambda raw: raw.update(horizon="1.0"), id="horizon-numeric-string"),
        pytest.param("solve", [], lambda raw: raw.update(population=[dict(raw["population"][0], weight="0.6"),
                                                                     dict(raw["population"][0], weight=0.4)]),
                     id="weight-numeric-string"),
        pytest.param("verify", ["--seed", "-1"], None, id="seed-flag-negative"),
        pytest.param("solve", [], lambda raw: raw["mc"].update(seed=-3), id="seed-negative"),
        pytest.param("solve", [], lambda raw: (raw.update(bounds={"gamma_lb": -1}),
                                               raw["population"][0].update(gamma=1e-5)), id="gamma_lb-negative"),
        pytest.param("solve", [], lambda raw: raw.update(bounds={"pi_cap": math.nan}), id="pi_cap-nan"),
        pytest.param("solve", [], lambda raw: raw.update(bounds={"c_min": 0.5, "c_max": 0.1}),
                     id="c_max-below-c_min"),
        pytest.param("sweep", ["--parameter", "h", "--lo", "nan", "--hi", "0.3"], None, id="sweep-lo-nan"),
        pytest.param("sweep", ["--parameter", "gamma", "--lo", "0.1", "--hi", "inf"], None, id="sweep-hi-inf"),
        pytest.param("solve", [], lambda raw: (raw.update(n_steps=8), raw["population"][0].update(h=["0.1"] * 9)),
                     id="h-array-strings"),
        pytest.param("solve", [], lambda raw: (raw.update(n_steps=8), raw["population"][0].update(sigma=[True] * 9)),
                     id="sigma-array-bools"),
        pytest.param("verify", [], lambda raw: raw.update(tolerances={"residual_tol": math.inf}), id="tolerance-inf"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(x0=10**400), id="x0-huge-integer"),
        pytest.param("solve", [], lambda raw: (raw.update(n_steps=8), raw["population"][0].update(h=[0.1] * 8 + [10**400])),
                     id="h-array-huge-integer"),
        # numpy refuses the 7 PiB grid at once, so nothing is allocated
        pytest.param("solve", ["--steps", "1000000000000000"], None, id="steps-past-memory"),
        pytest.param("solve", [], lambda raw: raw.update(population=[]), id="population-empty"),
        pytest.param("solve", [], lambda raw: raw.update(population=[0.5]), id="type-not-object"),
        pytest.param("solve", [], lambda raw: raw["population"][0].pop("sigma0"), id="sigma0-missing"),
        pytest.param("solve", [], lambda raw: raw["population"][0].update(x0=math.nan), id="x0-nan"),
        pytest.param("deviate", ["--probe-type", "9"], None, id="deviate-probe-type-9"),
        pytest.param("deviate", [], lambda raw: raw.update(bounds={"pi_cap": 0.01}),
                     id="deviate-equilibrium-past-pi_cap"),
        pytest.param("sweep", ["--parameter", "h", "--lo", "0.1", "--hi", "0.3", "--probe-type", "9"], None,
                     id="sweep-probe-type-9"),
        pytest.param("sweep", ["--parameter", "h", "--lo", "0.1", "--hi", "0.3", "--points", "1"], None,
                     id="sweep-points-1"),
    ])
    def test_exit_two_with_error_line(self, tmp_path, capsys, command, flags, edit):
        path = write_config(tmp_path)
        if edit is not None:
            raw = json.loads(path.read_text())
            edit(raw)
            path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda cfg: sweep_sensitivity(cfg, "h", [0.1], mode="x"), "mode must be", id="sweep-mode-x"),
        pytest.param(lambda cfg: run("nope", cfg), "unknown command", id="unknown-command"),
    ])
    def test_library_entries_raise_config_error(self, tmp_path, call, message):
        # values that the command line's choices never let through
        with pytest.raises(ConfigError, match=message):
            call(load_config(write_config(tmp_path), out_dir=str(tmp_path / "o")))

    @pytest.mark.parametrize("x0", [b"1" + b"0" * 5000, b'"\xff"'], ids=["integer-past-digit-limit", "not-utf8"])
    def test_unreadable_json_text(self, tmp_path, capsys, x0):
        path = write_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"1.0", x0, 1))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSchema:
    """The section dataclasses are the schema: every field is a key, and a
    key outside them is an error naming its path."""

    def test_every_section_field_loads_as_given(self, tmp_path):
        sections = {
            "bounds": (Bounds, {"gamma_lb": 2e-3, "sigma_lb": 3e-3, "c_min": 4e-3, "c_max": 5.0, "pi_cap": 6.0}),
            "mc": (McSettings, {"n_samples": 111, "n_agents": 222, "n_w0_paths": 4, "seed": 5}),
            "tolerances": (Tolerances, {"riccati_tol": 2e-6, "residual_tol": 3e-4, "drift_tol": 4e-12}),
        }
        for cls, values in sections.values():
            assert set(values) == {f.name for f in fields(cls)}
            assert all(values[f.name] != f.default for f in fields(cls))
        path = write_config(tmp_path, **{key: values for key, (_, values) in sections.items()})
        cfg = load_config(path)
        for key, (cls, values) in sections.items():
            assert getattr(cfg, key) == cls(**values)

    def test_readme_scenario_config_loads_as_shown(self, tmp_path):
        # the README's example is the documented schema: it must load, and
        # each section must come back key for key as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Scenario config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.json"
        path.write_text(block)
        cfg = load_config(path)
        raw = json.loads(block)
        for key in ("bounds", "mc", "tolerances"):
            assert asdict(getattr(cfg, key)) == raw[key]

    @pytest.mark.parametrize("where", ["top level", "bounds", "mc", "tolerances", "population[0]"])
    def test_unknown_key_exits_two_naming_its_path(self, tmp_path, capsys, where):
        path = write_config(tmp_path)
        raw = json.loads(path.read_text())
        if where == "top level":
            raw["extra"] = 1
        elif where == "population[0]":
            raw["population"][0]["extra"] = 1
        else:
            raw.setdefault(where, {})["extra"] = 1
        path.write_text(json.dumps(raw))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown keys in ") and err.count("\n") == 1
        assert where in err and "'extra'" in err

    @pytest.mark.parametrize("flags, digest", [
        ([], "faa89ccb7ac776de369d343848bcb4911990ff94f494b95d11f0dbb9b3dd9c6c"),
        (["--seed", "7", "--steps", "256", "--samples", "8192"],
         "7318d54c068260d9ace5a84b3ccfa822717a5af3f248245576335d80a2f4a162"),
    ], ids=["reference", "reference-overrides"])
    def test_config_hash_is_pinned(self, tmp_path, flags, digest):
        out = tmp_path / "o"
        assert main(["solve", "--config", str(REFERENCE), "--out", str(out), *flags]) == 0
        assert json.loads((out / "manifest.json").read_text())["config_hash"] == digest

    @pytest.mark.parametrize("section, key, spellings", [
        ("bounds", "pi_cap", [10, 10.0, None]),  # None: left out, so the default 10.0
        ("mc", "n_samples", [2e4, 20000]),
        ("population", "sigma0", [0, 0.0]),
        ("population", "sigma0", [[0] * 129, [0.0] * 129]),
        ("population", "h", [0.1, [0.1] * 129]),  # a constant curve hashes as its one value
    ])
    def test_config_hash_reads_typed_values(self, tmp_path, section, key, spellings):
        digests = set()
        for value in spellings:
            raw = json.loads(write_config(tmp_path).read_text())
            part = raw["population"][0] if section == "population" else raw.setdefault(section, {})
            if value is not None:
                part[key] = value
            path = tmp_path / "typed.json"
            path.write_text(json.dumps(raw))
            digests.add(RunManifest("solve", load_config(path)).data["config_hash"])
        assert len(digests) == 1


def _cells_round_trip(path, ints=("type", "path", "large", "flagged"), text=("name",)):
    """Every float cell is its own shortest repr, every integer cell plain
    digits; no cell holds a numpy scalar repr."""
    rows = read_csv(path)
    assert rows
    for row in rows:
        for key, cell in row.items():
            assert "np." not in cell, (path.name, key, cell)
            if key in ints:
                assert cell == str(int(cell)), (path.name, key, cell)
            elif key not in text:
                assert repr(float(cell)) == cell, (path.name, key, cell)


class TestArtifactFloats:
    def test_every_artifact_round_trips(self, tmp_path):
        path = write_config(tmp_path, n_steps=64, mc={"n_samples": 2000, "n_agents": 2000,
                                                       "n_w0_paths": 2, "seed": 99})
        cfg = load_config(path)
        runs = {"verify": ({}, "residuals.csv"), "simulate": ({}, "flow.csv consistency.csv"),
                "deviate": ({}, "deviations.csv"),
                "sweep": ({"parameter": "gamma", "lo": -0.5, "hi": 1.5, "points": 11}, "sweep.csv")}
        for command, (kwargs, names) in runs.items():
            out = tmp_path / command
            run(command, replace(cfg, out_dir=str(out)), **kwargs)
            for name in names.split():
                _cells_round_trip(out / name)
        # the sweep crosses gamma >= 1, where the closed form gives NaN
        assert "nan" in (tmp_path / "sweep" / "sweep.csv").read_text()

    def test_text_cells_are_quoted_and_round_trip(self, tmp_path):
        names = ["plain", "a,b", 'say "hi"', '"', "", "line\nbreak", "cr\rhere"]
        columns = {"name": names, "x": np.linspace(0.1, 1.0, len(names)), "flagged": np.arange(len(names)) % 2 == 1,
                   'odd, "header"': np.arange(len(names))}
        man = RunManifest("deviate", load_config(write_config(tmp_path)))
        man.write_csv(tmp_path / "names.csv", columns)
        with open(tmp_path / "names.csv", newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert header == list(columns)
        assert [r[0] for r in rows] == names
        assert [float(r[1]) for r in rows] == columns["x"].tolist()
        assert [r[2] for r in rows] == ["0", "1"] * 3 + ["0"]
        # the csv module's writer gives the same bytes where it quotes the
        # same cells: it leaves a bare carriage return unquoted
        plain = {k: v[:-1] for k, v in columns.items()}
        man.write_csv(tmp_path / "plain.csv", plain)
        with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(plain)
            w.writerows(zip(*(np.asarray(c).astype(int).tolist() if np.asarray(c).dtype == bool
                              else np.asarray(c).tolist() for c in plain.values())))
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


_NUMERICAL = {"ExponentRangeError", "SingularAggregateError", "IntegrationBlowUpError"}


@st.composite
def extreme_scenarios(draw):
    """Valid scenarios at the edges of the standing assumptions: gamma at
    +-gamma_lb or large |gamma|, sigma0 >> sigma, sigma = 0, long horizons."""
    gamma_lb = 1e-3
    types = []
    for _ in range(draw(st.integers(1, 3))):
        sigma = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
        types.append({
            "gamma": draw(st.one_of(st.sampled_from([gamma_lb, -gamma_lb]), st.floats(-1e3, -1.0),
                                    st.floats(0.9, 0.999), st.floats(-1.0, 0.99).filter(lambda g: abs(g) >= gamma_lb))),
            "theta": draw(st.floats(0.0, 1.0)),
            "alpha": draw(st.floats(0.05, 20.0)),
            "x0": draw(st.floats(0.01, 100.0)),
            "h": draw(st.floats(-0.5, 1.0)),
            "sigma": sigma,
            # sigma0 >> sigma, and sigma + sigma0 >= sigma_lb when sigma = 0
            "sigma0": draw(st.one_of(st.floats(max(0.0, 1e-3 - sigma), 0.5), st.floats(1.0, 20.0))),
        })
    horizon = draw(st.one_of(st.floats(0.01, 2000.0), st.just(2000.0)))
    return {"horizon": horizon, "n_steps": 64, "population": types,
            "bounds": {"gamma_lb": gamma_lb, "sigma_lb": 1e-3}}


class TestFailureContract:
    @settings(max_examples=20)
    @given(extreme_scenarios())
    def test_extreme_valid_scenarios_exit_with_manifest(self, raw):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "scenario.json"
            path.write_text(json.dumps(raw))
            for command in ("solve", "verify"):
                out = Path(d) / command
                code = main([command, "--config", str(path), "--out", str(out)])
                assert code in (0, 1, 3)
                man = json.loads((out / "manifest.json").read_text())
                assert man["ok"] is (code == 0)
                assert (code == 3) is ("error" in man)
                if code == 3:
                    assert man["error"]["type"] in _NUMERICAL

    # one type, 8 steps: each value overflows a coefficient of the closed
    # form (h, sigma0) or of the verification driver (gamma) to inf or NaN;
    # the CLI runs in its own process, so stderr is what a user sees
    @pytest.mark.parametrize("command, key, value", [
        ("solve", "h", 1e200),
        ("solve", "sigma0", 1e200),
        ("verify", "gamma", -1e300),
    ])
    def test_overflowing_coefficient_exits_three(self, tmp_path, command, key, value):
        path = write_config(tmp_path, n_steps=8)
        raw = json.loads(path.read_text())
        raw["population"][0][key] = value
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cmd = [sys.executable, "-m", "mfgconsume.cli", command, "--config", str(path), "--out", str(out)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert done.returncode == 3
        [line] = done.stderr.splitlines()  # no numpy warning before the error line
        assert line.startswith("error: ExponentRangeError: ")
        man = json.loads((out / "manifest.json").read_text())
        assert man["ok"] is False
        assert man["error"]["type"] == "ExponentRangeError"
        assert all(math.isfinite(c["value"]) for c in man["checks"])


class TestPeakMemory:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_deviate_at_2000_steps_peaks_under_60_mb(self, tmp_path, threads):
        # a wrapper process runs the CLI as its only child, so RUSAGE_CHILDREN
        # reads that child's peak RSS and nothing else this suite started
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=False, capture_output=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, MFG_CONSUME_THREADS=threads, PYTHONPATH=str(src))
        cmd = [sys.executable, "-m", "mfgconsume.cli", "deviate", "--config", str(REFERENCE),
               "--samples", "4096", "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-c", wrapper, *cmd], env=env, capture_output=True, text=True, check=True)
        assert (tmp_path / "out" / "deviations.csv").exists()
        peak_mb = int(done.stdout) * 1024 / 1e6  # ru_maxrss is in KiB on Linux
        assert peak_mb <= 60.0
