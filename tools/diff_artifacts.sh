#!/usr/bin/env bash
# Check that a change leaves every command's output unchanged.
#
#   tools/diff_artifacts.sh <rev>
#
# Runs nine CLI commands on demos/configs/reference.json at one and two
# threads, once from the committed files of <rev> and once from the working
# tree, and compares the two output trees with `diff -r`. Each run's exit
# status is kept in its output directory beside its artifacts and
# manifest.json, so a verdict or a crash that differs shows in the diff;
# sweep-gamma ends in exit 3, so a manifest's `error` block is diffed too.
# Outputs stay under out/diff_artifacts/ for inspection. Exits 0 when every
# file is byte-identical, 1 when some file differs.
set -euo pipefail

rev=${1:?usage: tools/diff_artifacts.sh <rev>}
root=$(git rev-parse --show-toplevel)
name=$(git -C "$root" rev-parse --short "$rev")
out=$root/out/diff_artifacts
tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$tree"  # <rev>'s files, without its untracked outputs

# run_all <source tree> <output tree>
run_all() {
  rm -rf "$2"
  for threads in 1 2; do
    while read -r run args; do
      dir=$2/t$threads/$run
      mkdir -p "$dir"
      status=0
      (cd "$1" && MFG_CONSUME_THREADS=$threads PYTHONPATH=src python -m mfgconsume.cli $args \
          --config demos/configs/reference.json --out "$dir" < /dev/null > /dev/null) || status=$?
      echo "$status" > "$dir/exit_status"
    done <<'EOF'
deviate-256-p0 deviate --steps 256 --samples 8192 --probe-type 0
deviate-256-p1 deviate --steps 256 --samples 8192 --probe-type 1
deviate-10k-p1 deviate --samples 10000 --probe-type 1
simulate simulate
solve solve
solve-seed7 solve --seed 7 --steps 256
verify verify
sweep-sigma0 sweep --parameter sigma0 --lo 0.01 --hi 2.0 --points 120
sweep-gamma sweep --parameter gamma --lo 0.95 --hi 0.99 --points 5
EOF
  done
}

run_all "$tree" "$out/$name"
run_all "$root" "$out/worktree"
diff -r "$out/$name" "$out/worktree" && echo "no difference: $rev and the working tree, 1 and 2 threads"
