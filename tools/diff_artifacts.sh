#!/usr/bin/env bash
# Check that a change leaves every command's output unchanged.
#
#   tools/diff_artifacts.sh <rev>
#
# Runs eleven CLI commands on demos/configs/reference.json, two `deviate`
# runs on a steep config, and one `simulate` run each on a small-crowd
# config and on a config without idiosyncratic noise, at one, two and
# three threads, once from the committed files of <rev> and once from the
# working tree, and compares the two output trees with `diff -r`. It then
# compares the working tree's one-thread outputs with its two-thread and
# its three-thread ones, which must be identical whatever <rev> gives. The
# steep, small-crowd and noise-free configs are written to temp files that
# both trees read. In the steep one (a type with gamma -30), at probe
# type 0 thousands of sample rows pass the payoff's exponent bound
# `_MAX_SHIFT` and are rebuilt, a path that the reference config never
# reaches. The small-crowd
# one (simulate-crowd3) has 3 agents, fewer than the consistency test's 5
# probes, and a type of weight 1e-6, so empty and one-agent types occur.
# The noise-free one (simulate-sigma0) has one type with sigma 0 and sigma0
# 0.2: every agent sits on the flow, all 15 consistency rows have a stderr
# of exactly 0, and the rule for those rows (0 units when the crowd mean is
# within 1e-12 of the flow, else inf) decides each of them.
# Each run's exit status is kept in its output directory beside its
# artifacts and manifest.json, so a verdict or a crash that differs shows in
# the diff; sweep-gamma ends in exit 3, so a manifest's `error` block is
# diffed too, and deviate-steep-p0 in exit 1. deviate-4097 asks for an odd
# sample count, which `deviate` rounds up to whole antithetic pairs.
# deviate-15k-pairs spans four chunks, the last one short, so at two
# threads its chunks run on two workers, and at three on three workers that
# take the four chunks unevenly. The
# four demos/*.py scripts run once per tree as well; their stdout and exit
# status go to demos/ in the output tree, so a library change that moves a
# printed number shows in the same diff. Outputs stay under
# out/diff_artifacts/ for inspection. Exits 0 when every file of every
# comparison is byte-identical, 1 when some file differs.
set -euo pipefail

rev=${1:?usage: tools/diff_artifacts.sh <rev>}
root=$(git rev-parse --show-toplevel)
name=$(git -C "$root" rev-parse --short "$rev")
out=$root/out/diff_artifacts
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree=$tmp/tree
mkdir "$tree"
git -C "$root" archive "$rev" | tar -x -C "$tree"  # <rev>'s files, without its untracked outputs
ref=demos/configs/reference.json  # each tree reads its own copy
steep=$tmp/steep.json
cat > "$steep" <<'JSON'
{"horizon": 4.0, "n_steps": 64, "mc": {"n_samples": 4096, "seed": 3},
 "population": [
  {"weight": 0.5, "gamma": -30.0, "theta": 0.5, "h": 0.1, "sigma": 0.5, "sigma0": 0.3},
  {"weight": 0.5, "gamma": 0.4, "theta": 0.3, "h": 0.05, "sigma": 0.2, "sigma0": 0.1}]}
JSON
crowd=$tmp/crowd.json
cat > "$crowd" <<'JSON'
{"horizon": 1.0, "n_steps": 64, "mc": {"n_agents": 3, "n_w0_paths": 4, "seed": 5},
 "population": [
  {"weight": 1e-6, "gamma": 0.5, "theta": 0.5, "h": 0.1, "sigma": 0.2, "sigma0": 0.1},
  {"weight": 0.499999, "gamma": -1.0, "theta": 0.8, "x0": 2.0, "h": 0.08, "sigma": 0.3, "sigma0": 0.05},
  {"weight": 0.5, "gamma": 0.4, "theta": 0.3, "h": 0.05, "sigma": 0.2, "sigma0": 0.1}]}
JSON
sigma0=$tmp/sigma0.json
cat > "$sigma0" <<'JSON'
{"horizon": 1.0, "n_steps": 64, "mc": {"n_agents": 1000, "seed": 5},
 "population": [{"weight": 1.0, "gamma": 0.5, "theta": 0.5, "h": 0.1, "sigma": 0.0, "sigma0": 0.2}]}
JSON

# run_all <source tree> <output tree>
run_all() {
  rm -rf "$2"
  for threads in 1 2 3; do
    while read -r run config args; do
      dir=$2/t$threads/$run
      mkdir -p "$dir"
      status=0
      (cd "$1" && MFG_CONSUME_THREADS=$threads PYTHONPATH=src python -m mfgconsume.cli $args \
          --config "$config" --out "$dir" < /dev/null > /dev/null) || status=$?
      echo "$status" > "$dir/exit_status"
    done <<EOF
deviate-256-p0 $ref deviate --steps 256 --samples 8192 --probe-type 0
deviate-256-p1 $ref deviate --steps 256 --samples 8192 --probe-type 1
deviate-10k-p1 $ref deviate --samples 10000 --probe-type 1
deviate-4097 $ref deviate --steps 256 --samples 4097
deviate-15k-pairs $ref deviate --steps 64 --samples 30000
deviate-steep-p0 $steep deviate --probe-type 0
deviate-steep-p1 $steep deviate --probe-type 1
simulate $ref simulate
simulate-crowd3 $crowd simulate
simulate-sigma0 $sigma0 simulate
solve $ref solve
solve-seed7 $ref solve --seed 7 --steps 256
verify $ref verify
sweep-sigma0 $ref sweep --parameter sigma0 --lo 0.01 --hi 2.0 --points 120
sweep-gamma $ref sweep --parameter gamma --lo 0.95 --hi 0.99 --points 5
EOF
  done
  mkdir "$2/demos"
  for demo in "$1"/demos/*.py; do
    base=$(basename "$demo" .py)
    status=0
    (cd "$1" && PYTHONPATH=src python "demos/$base.py" < /dev/null > "$2/demos/$base.out") || status=$?
    echo "$status" > "$2/demos/$base.exit_status"
  done
}

run_all "$tree" "$out/$name"
run_all "$root" "$out/worktree"
status=0
diff -r "$out/$name" "$out/worktree" || status=1
for threads in 2 3; do
  diff -r "$out/worktree/t1" "$out/worktree/t$threads" || status=1
done
if [ "$status" = 0 ]; then
  echo "no difference: $rev and the working tree, 1, 2 and 3 threads; the working tree's 1 thread and its 2 and 3"
fi
exit "$status"
