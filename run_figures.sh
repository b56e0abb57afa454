#!/bin/bash
# Regenerates every paper figure/table into results/.
set -u
cd "$(dirname "$0")"
BIN=./target/release
mkdir -p results
run() {
  name=$1; budget=$2
  echo "=== running $name (budget ${budget}s)"
  timeout "$budget" $BIN/$name > results/$name.txt 2>&1
  echo "=== $name exit=$?"
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
echo ALL_FIGURES_DONE
