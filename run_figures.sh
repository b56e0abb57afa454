#!/bin/bash
# Regenerates every virtual-clock result into results/<bin>.txt: each
# file is the binary's stdout, a pure function of the seed, so a rerun
# leaves `git diff results/` empty. Stderr (the `[sweep]` wall-clock
# lines) is appended to the untracked results/sweep_wall.log. Exits
# non-zero at the first binary that fails or outruns its budget, leaving
# that result file as it was.
#
# fig9_scale is not here: it prints host ns/flow, which no rerun
# repeats, so it stays a ci.sh row and not a committed file.
set -u
cd "$(dirname "$0")"
cargo build --release --offline --quiet -p ix-bench || exit 1
BIN=./target/release
mkdir -p results
run() {
  name=$1; budget=$2
  echo "=== running $name (budget ${budget}s)"
  if ! timeout "$budget" $BIN/$name > results/$name.txt.new 2>> results/sweep_wall.log; then
    echo "=== $name FAILED (exit status or ${budget}s budget)" >&2
    rm -f results/$name.txt.new
    exit 1
  fi
  mv results/$name.txt.new results/$name.txt
}
run fig2_netpipe 300
run fig6_batchbound 1200
run fig3c_msgsize 1500
run fig3a_cores 2400
run fig3b_roundtrips 2400
run fig4_connscale 2400
run fig5_memcached 1200
run table2_sla 2400
run ablations 1200
run fig7_faults 300
run fig8_adversarial 300
run fig9_elastic 300
echo ALL_FIGURES_DONE
