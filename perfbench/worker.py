"""One workload in a fresh interpreter; started by ``run.py``.

``--mode setup`` sets the workload up and exits: one sample of ``setup_s``,
which counts from the first line of this module, so the parent's process
spawn and the interpreter's start are left out.
``--mode run`` sets up, runs the closed loop and, with ``--trace 1``, the
per-layer probes. The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, first solve

import argparse
import collections
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def csv_counts(out: Path) -> tuple[int, int]:
    """Data rows and bytes of the CSV artifacts under ``out``."""
    rows = size = 0
    for f in out.rglob("*.csv"):
        size += f.stat().st_size
        with open(f, "rb") as fh:
            rows += sum(1 for _ in fh) - 1
    return rows, size


def closed_loop(wl, tr, seconds: float, count_artifacts: bool = False) -> dict:
    """Units 0, 1, ... one after another until ``seconds`` of unit time have
    passed, ending on a ``wl.cycle`` boundary. A unit's outputs are checked
    after its time is taken."""
    tally = wl.ctx.tally
    durations, ok, artifacts = [], [], []
    busy, i = 0.0, 0
    while busy < seconds or i % wl.cycle:
        tr.pass_id, tr.tag = i, wl.tag(i)
        rec, crash = None, None
        t0 = time.perf_counter()
        try:
            with tr.span("bench.pass"):
                rec = wl.unit(i, tr)
        except Exception:
            crash = traceback.format_exc()
        dt = time.perf_counter() - t0
        busy += dt
        if rec is not None:
            if count_artifacts:
                artifacts.append(csv_counts(rec["out"]))
            try:
                good = wl.check(rec)
            except Exception:
                crash = traceback.format_exc()
        if crash is not None:
            tally.exceptions.append("untyped")
            tally.expect(False, f"unit {i}: {crash}")
            shutil.rmtree(wl.ctx.work / f"unit{i:04d}", ignore_errors=True)
            good = False
        durations.append(dt)
        ok.append(good)
        i += 1
    return {"durations": durations, "ok": ok, "busy": busy, "artifacts": artifacts}


def run(ctx, wl, seconds: float, trace: bool, spans_path: Path) -> dict:
    from perfbench import metrics, probes, tracing

    out = {}
    if trace:
        tr = tracing.Tracer()
        loop = closed_loop(wl, tr, seconds, count_artifacts=True)
        overhead = metrics.overhead_ratio(loop["busy"], len(tr.spans), tracing.span_cost())
        pr = probes.Probes(ctx, wl, tr)
        pr.run()
        out["layer"] = pr.layer_metrics(loop["artifacts"], overhead)
        out["roadmap"] = pr.roadmap
        out["span_summary"] = tracing.summary(tr.spans)
        spans_path.write_text(json.dumps(tr.dump()))
    else:
        loop = closed_loop(wl, tracing.NULL, seconds)
    wl.check_solve_once(tracing.NULL)
    t = ctx.tally
    out.update(
        unit_durations_s=loop["durations"],
        unit_ok=loop["ok"],
        units=len(loop["durations"]),
        completed=sum(loop["ok"]),
        busy_s=loop["busy"],
        p50_s=metrics.latency_p50(loop["durations"], loop["ok"]),
        work_name=wl.work_name,
        work_per_unit=wl.work_per_unit(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        attempted=t.attempted,
        failed=t.failed,
        fail_ratio_base=t.fail_ratio_base,
        fail_ratio_count=t.fail_ratio_count,
        exceptions=collections.Counter(t.exceptions),
        failed_checks=collections.Counter(t.failed_checks),
        defects=t.defects,
        threads=wl.threads,
        largest_array_bytes=wl.largest_array_bytes(),
    )
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--work", type=Path, required=True, help="scratch directory of this process")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import mfgconsume

    if Path(mfgconsume.__file__).resolve().parent != (src / "mfgconsume").resolve():
        print(f"error: imported mfgconsume from {mfgconsume.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import inputs, workloads

    ctx = workloads.Context(args.work, args.seed, inputs.TINY if args.size == "tiny" else inputs.FULL)
    wl = workloads.WORKLOADS[args.workload](ctx)
    os.environ["MFG_CONSUME_THREADS"] = str(wl.threads)
    wl.setup()
    result = {"setup_s": time.perf_counter() - T0}
    if args.mode == "run":
        result.update(run(ctx, wl, args.seconds, bool(args.trace), args.spans), hashes=ctx.hashes)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
