"""Benchmark of mfgconsume, one workload per invocation:

    python3 perfbench/run.py --workload desk-closedform --seed 1 --seconds 30 --trace 0

Workloads: desk-closedform, mc-deviate, mc-consistency (see README.md).
Each runs in its own fresh process; ``setup_s`` is the median over several
fresh-process set-ups, half taken before the run and half after it.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The report is
printed first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Everything is
written under ``perfbench/out/``; the full record of a run is kept in
``perfbench/out/results/``. Exits non-zero without a result when the
package sources (``src/mfgconsume``) are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.inputs import FULL, TINY  # noqa: E402

WORKLOADS = ("desk-closedform", "mc-deviate", "mc-consistency")
TIME_LIMIT_S = 170.0  # a run must end within 180 s


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the machine so far, from /proc/stat; (0, 0) if unreadable."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def environment(threads: int) -> dict:
    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "MFG_CONSUME_THREADS": threads,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            env[f"L{level}_bytes"] = int(size[:-1]) * 1024
    return env


def child(args, mode: str, work: Path, result: Path, deadline: float, spans: Path | None = None) -> dict:
    work.mkdir()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work", str(work), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(args, res: dict, setups: list[float], e2e: dict, env: dict, defects: list[str]) -> None:
    print(f"mfgconsume benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}  (closed loop, one client)")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    big = res["largest_array_bytes"]
    caches = ", ".join(f"{big / env[k]:.3g} x {k[:2]}" for k in ("L2_bytes", "L3_bytes") if k in env)
    print(f"largest live array (computed): {big} B per thread, {res['threads']} thread(s); {caches}")
    print("inputs (sha256): " + " ".join(f"{n}={h[:16]}" for n, h in sorted(res["hashes"].items())))
    n, done = res["units"], res["completed"]
    print(f"scenarios: {n} run, {done} completed, {res['busy_s']:.4g} s timed")
    if args.trace == 0:
        print("\nend-to-end (untraced)")
        notes = {"setup_s": f"median of {len(setups)} fresh-process set-ups",
                 "scenario_s_p50": f"over {n} scenarios"}
        for name, unit, _ in metrics.END_TO_END:
            print(f"  {name:<24} {fmt(e2e[name]):>12} {unit:<6} {notes.get(name, '')}")
        if res["work_name"] != "scenarios":
            rate = e2e["scenarios_per_s"] * res["work_per_unit"]
            print(f"  {res['work_name'] + '_per_s':<24} {fmt(rate):>12} {'1/s':<6} "
                  f"= scenarios_per_s x {res['work_per_unit']}")
    else:
        print("\nper-layer (traced run)                         value        unit   should move")
        for name, unit, moves in metrics.PER_LAYER:
            print(f"  {name:<44} {fmt(res['layer'][name]):>12} {unit:<6} {moves}")
        rows = [(row, base, res["roadmap"][key]) for key, row, base in metrics.ROADMAP_BASELINE
                if key in res["roadmap"]]
        if rows:
            print("\nROADMAP baseline rows                      baseline     traced   ratio")
            for row, base, got in rows:
                flag = "  <-- more than 2x apart" if not 0.5 <= got / base <= 2.0 else ""
                print(f"  {row:<40} {base:>9.4g} s {got:>9.4g} s {got / base:>6.2f}{flag}")
        print("\nspans                                       count     total s      self s  errors")
        for name, s in sorted(res["span_summary"].items()):
            print(f"  {name:<40} {s['count']:>6} {s['total_s']:>11.4g} {s['self_s']:>11.4g} {s['errors']:>6}")
    n, base = res["fail_ratio_count"], res["fail_ratio_base"]
    print(f"\nfail_ratio {n / base:.4g} = {n} / {base} "
          "(typed exceptions + failed manifest checks) / (commands + manifest checks); known defects included")
    for what, count in sorted({**res["exceptions"], **res["failed_checks"]}.items()):
        print(f"  {count} x {what}")
    print(f"correctness gate: {res['attempted']} commands and own checks, "
          + ("pass" if not defects else f"FAIL ({len(defects)})"))
    for d in defects[:5]:
        print("  " + d.strip().replace("\n", "\n  "))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="mfgconsume benchmark (one workload per run)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, required=True, help="minimum timed duration of the loop")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "mfgconsume" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    sizes = TINY if args.size == "tiny" else FULL
    out = ROOT / "perfbench" / "out"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    tmp = Path(tempfile.mkdtemp(prefix=stem + "-", dir=out))
    ticks0 = cpu_ticks()
    try:
        def setup(i: int) -> float:
            return child(args, "setup", tmp / f"setup{i}", tmp / f"setup{i}.json", deadline)["setup_s"]

        # half the set-ups before the run and half after, so that their median
        # spans the run's whole time window, as the loop's metrics do
        before = (sizes.setup_repeats - 1) // 2
        setups = [setup(i) for i in range(before)]
        res = child(args, "run", tmp / "run", tmp / "run.json", deadline, results / f"{stem}.spans.json")
        setups += [setup(i) for i in range(before, sizes.setup_repeats - 1)]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res["setup_s"])

    e2e = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": res["completed"] / res["busy_s"],
        "scenario_s_p50": res["p50_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    spec = metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER
    values = e2e if args.trace == 0 else res["layer"]
    shown = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    defects = list(res["defects"])
    defects += [f"metric {n} is not finite: {m['value']}" for n, m in shown.items()
                if not math.isfinite(m["value"])]
    if res["completed"] == 0:
        defects.append("no scenario completed")
    res["attempted"] += len(shown) + 1  # the two checks above
    res["failed"] = len(defects)
    env = environment(res["threads"])
    ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
    if ticks[0]:
        env["host_steal_share"] = round(ticks[1] / ticks[0], 4)  # machine-wide, over this run
    report(args, res, setups, e2e, env, defects)
    record = {"args": vars(args), "environment": env, "setup_samples_s": setups, "end_to_end": e2e,
              "correct": not defects, **res, "defects": defects}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for m in shown.values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": not defects, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
