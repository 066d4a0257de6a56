"""Benchmark of the mfgconsume pipeline: three seed-generated closed-loop
workloads, end-to-end metrics from untraced runs and per-layer metrics from
a separate traced run. ``python3 perfbench/run.py --help`` runs it; see
``perfbench/README.md`` for the metric definitions."""
