#!/usr/bin/env bash
# Tier-1 gate (README.md): build · test · clippy · README examples ·
# run gates · allocation ceilings, all OFFLINE — zero registry
# dependencies (DESIGN.md §14), so a cargo call that reaches for
# crates.io is itself a regression.
#
# `cargo test --workspace` is the only test run (a failing test names
# itself), and `benchmark/`'s `compare` is the one judge of host time.
# One row here still compares two host timings: `fig9-scale` requires
# absorb ns/flow at its largest point within 2x of its smallest, until
# a count that witnesses the same O(1)-per-flow absorb replaces it
# (ROADMAP item 13). What the old microbench ratio floors stood for is
# held by counts in that run:
#   widened checksum  crates/net/tests/checksum_prop.rs — exactly the RFC 1071 u16 fold
#   RX batching       rx_batch.rs interleaved_inorder_runs_coalesce_acks — one ACK per flow per batch
#   bulk migration    the fig9-scale row — every flow moved, 0 resets, flat absorb cost
set -euo pipefail
cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
# `benchmark/` is a workspace of its own, so `--workspace` never lints
# it, although it builds against every crate above.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

# `input()` is the one receive path on a batch of one, byte-identical to
# the `input_reference` oracle; every per-frame caller (Linux/mTCP
# models, quiesce drain, golden traces) leans on that witness. It ran
# above; this pins that nobody deleted it.
grep -q "^fn batch_of_one_is_byte_identical()" crates/tcp/tests/rx_batch.rs ||
    { echo "ci: FAIL — rx_batch.rs lost its batch-of-one byte-identity witness" >&2; exit 1; }

# README examples: clippy above only compiles them; the gates below run
# them.
cargo build --release --offline --quiet --examples

# Run gates, one row each: name | wall-clock budget (s) | command |
# lines its stdout must contain (';'-separated) | file its stdout must
# equal; the last two may be empty. Quick stdout is a pure function of
# the seed, so a diff means results/ is stale: rerun the row into its
# file and ./run_figures.sh for the full-length ones. Budgets are
# generous (slow shared hosts): they catch a return to minutes-long
# runs, they do not measure.
#  fig5       scheduler or pool regression (the seed took minutes)
#  fig2       NetPIPE: the one two-engine assembly (the client runs the
#             server's system and its engine must outlive the run)
#  fig3a/3c   closed-loop echo against the Linux and mTCP servers too
#  fig3b      a payload copy or pool leak back in in-order RX delivery
#  fig4       a return to per-message O(conns) scans at 10k connections
#  fig6       a per-segment allocation back in the zero-copy TX loop
#  fig7       fault plane / watchdog: every scenario must recover
#  fig8       attack generator, NIC filter stage and cookie handshake
#             (the binary asserts dropped frames allocate nothing)
#  fig9       controller-off reruns bit-identical; the elastic run
#             absorbs the spike, consolidates, beats static core-time
#  fig9-scale flat per-flow migration cost, full-shard moves, 0 resets
#             (prints host ns/flow, so no file)
#  benchmark  the host-clock benchmark still builds against the
#             workspace's API and its correctness and determinism gates
#             pass on all five workloads (benchmark/README.md)
#  quickstart, three_stacks, key_value_store, elastic_scaling
#             the README examples: each one's stdout, a pure function of
#             its seed, equals results/examples/<name>.txt
#  deep-prop  ix-tcp's property suites in release at 1000 cases
#             (migration, rx_batch, flow_table_prop, rx_reassembly,
#             zerocopy, rx_zerocopy, bucket_index), on the default seed
#             and on a second one (~20 s with the test build, ~7 s for
#             the second seed); prop.rs joins once its
#             stream_integrity_hostile_wire case 54 (ROADMAP item 2) is
#             fixed
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
gates='
fig5|120|IX_SWEEP_QUICK=1 ./target/release/fig5_memcached||results/quick/fig5_memcached.txt
fig2|60|IX_SWEEP_QUICK=1 ./target/release/fig2_netpipe||results/quick/fig2_netpipe.txt
fig3a|60|IX_SWEEP_QUICK=1 ./target/release/fig3a_cores||results/quick/fig3a_cores.txt
fig3c|60|IX_SWEEP_QUICK=1 ./target/release/fig3c_msgsize||results/quick/fig3c_msgsize.txt
fig3b|120|IX_SWEEP_QUICK=1 ./target/release/fig3b_roundtrips||results/quick/fig3b_roundtrips.txt
fig4|120|IX_SWEEP_QUICK=1 ./target/release/fig4_connscale||results/quick/fig4_connscale.txt
fig6|120|IX_SWEEP_QUICK=1 ./target/release/fig6_batchbound||results/quick/fig6_batchbound.txt
fig7|60|IX_SWEEP_QUICK=1 ./target/release/fig7_faults|no permanently stalled connections|results/quick/fig7_faults.txt
fig8|120|IX_SWEEP_QUICK=1 ./target/release/fig8_adversarial||results/quick/fig8_adversarial.txt
fig9|60|IX_SWEEP_QUICK=1 ./target/release/fig9_elastic|controller-off runs are byte-identical;elastic run absorbed the spike|results/quick/fig9_elastic.txt
fig9-scale|90|IX_SWEEP_QUICK=1 ./target/release/fig9_scale|flat migration scaling:|
benchmark|120|./benchmark/target/release/ix-benchmark --quick||
quickstart|30|./target/release/examples/quickstart||results/examples/quickstart.txt
three_stacks|30|./target/release/examples/three_stacks||results/examples/three_stacks.txt
key_value_store|30|./target/release/examples/key_value_store||results/examples/key_value_store.txt
elastic_scaling|30|./target/release/examples/elastic_scaling||results/examples/elastic_scaling.txt
deep-prop|90|IX_PROP_CASES=1000 cargo test -q --release --offline -p ix-tcp --test migration --test rx_batch --test flow_table_prop --test rx_reassembly --test zerocopy --test rx_zerocopy --test bucket_index && IX_PROP_CASES=1000 IX_PROP_SEED=2 cargo test -q --release --offline -p ix-tcp --test migration --test rx_batch --test flow_table_prop --test rx_reassembly --test zerocopy --test rx_zerocopy --test bucket_index||
'
while IFS='|' read -r name budget_s cmd must same_as; do
    [ -n "$name" ] || continue
    out=$tmp/$name.out
    start_s=$SECONDS
    if ! bash -c "$cmd" > "$out" 2> "$out.err"; then
        tail -n 20 "$out" "$out.err" >&2
        echo "ci: FAIL — ${name} exited non-zero" >&2
        exit 1
    fi
    elapsed_s=$(( SECONDS - start_s ))
    echo "ci: ${name} took ${elapsed_s}s (budget ${budget_s}s)"
    if [ "$elapsed_s" -gt "$budget_s" ]; then
        echo "ci: FAIL — ${name} exceeded its wall-clock budget" >&2
        exit 1
    fi
    IFS=';' read -ra lines <<< "$must"
    for line in "${lines[@]}"; do
        if ! grep -qF -- "$line" "$out"; then
            echo "ci: FAIL — ${name} output lacks \"${line}\"" >&2
            exit 1
        fi
    done
    if [ -n "$same_as" ] && ! diff -u "$same_as" "$out" >&2; then
        echo "ci: FAIL — ${name} stdout differs from ${same_as} (stale, or the model moved)" >&2
        exit 1
    fi
done <<< "$gates"

# Host allocation discipline (DESIGN.md §13): ceilings on what the
# benchmark row above recorded — counts of this program, not timings,
# the same on every box for the quick run's one seed. Allocations per
# message read echo_small 0.006, echo_churn 0.058, echo_bulk 0.21,
# kv_etc 0.018 and conn_scale 0.009 in the quick window (warm-up weighs
# ten times what it does in a full run: 0.0014, 0.010, 0.030, 0.0036,
# 0.0015 there), and each ceiling is about twice its reading. A boxed
# event, a per-cycle vector or a `Vec` per memcached request back on the
# message path is a whole one more; a timer wheel that allocates per
# slot again reads 0.09 / 0.52 / 1.96 / 0.33 / 0.26 (echo_bulk and
# echo_churn arm the most timers per message). Peak RSS reads 41 MiB on
# echo_small (646 before PR 15) and 136 MiB on conn_scale, where a queue
# keeping its buffer on every idle connection, or a 376-byte TCB,
# crosses the ceiling.
while read -r workload metric ceiling; do
    value=$(awk -F'\t' -v w="$workload" -v m="$metric" '$1 == w && $4 == 0 && $6 == m { print $7 }' \
        benchmark/out/quick.tsv)
    if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v <= c) }'; then
        echo "ci: FAIL — ${workload} ${metric} = ${value:-missing}, ceiling ${ceiling}" >&2
        exit 1
    fi
    echo "ci: ${workload} ${metric} = ${value} (ceiling ${ceiling})"
done <<'EOF2'
echo_small host_allocs_per_msg 0.012
echo_small host_peak_rss_mib 128
echo_churn host_allocs_per_msg 0.12
echo_bulk host_allocs_per_msg 0.45
kv_etc host_allocs_per_msg 0.036
conn_scale host_allocs_per_msg 0.02
conn_scale host_peak_rss_mib 160
EOF2

echo "ci: all green"
