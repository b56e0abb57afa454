#!/usr/bin/env bash
# Tier-1 gate (documented in README.md): the whole pipeline runs
# OFFLINE — the workspace has zero registry dependencies (hermetic-build
# policy, DESIGN.md), so a clean checkout must build, test, and lint
# with no network at all. Any `cargo` invocation that tries to reach
# crates.io is itself a regression.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Zero-copy TX regression gate: run the alloc/copy-count suite by name
# (it is also part of the workspace run above) so a counter drift — a
# reintroduced staging buffer or payload copy — fails with an explicit,
# greppable test name rather than somewhere in the workspace wall.
cargo test -q --offline -p ix-tcp --test zerocopy

# Zero-copy RX regression gate, same shape as the TX one: the identity
# suite pins rx_payload_copies/rx_ooo_copies at 0 and Bytes::ptr_eq
# ring-to-app aliasing; the reassembly suite differentially checks the
# mbuf-holding reorder path against a naive copying oracle.
cargo test -q --offline -p ix-tcp --test rx_zerocopy
cargo test -q --offline -p ix-tcp --test rx_reassembly

# Pre-stack filter / SYN-cookie regression gates: the listener-hardening
# suite pins the RFC 793 §3.4 no-listener RST fields and the half-open
# backlog bound; the cookie suite pins the stateless handshake — zero
# TCB-slab growth and zero held buffers under a 64k-SYN blast.
cargo test -q --offline -p ix-tcp --test syn_filter
cargo test -q --offline -p ix-tcp --test syn_cookies

# Flow-group migration property gate: the differential suite replays
# mid-transfer migrations against a never-migrated oracle and pins
# 0 resets / 0 payload divergence / 0 leaked mbufs, plus the golden
# RTO-rearm trace and the StackStats conservation checks.
cargo test -q --offline -p ix-tcp --test migration

# Bucket-index gate: the per-RSS-bucket intrusive lists on FlowMap must
# stay in lock-step with the probe table under randomized insert /
# remove / extract / absorb churn, and the migration order must be a
# function of insertion history alone, independent of table layout.
cargo test -q --offline -p ix-tcp --test bucket_index

# RX-path gates: the checksum property suite pins the widened u64 fold
# byte-identical to the RFC 1071 u16 reference; the rx_batch
# differential suite replays randomized interleavings (reordering,
# corruption, passive opens with and without SYN cookies, mid-batch
# teardown) through `input_batch` against the `input_reference` oracle
# under all three ACK policies. The grep pins the named batch-of-one
# witness: `input()` is the same receive path on a batch of one, and
# fed one frame per call it is globally byte-identical to the oracle —
# every wire frame, every event, the whole StackStats block. That is
# what keeps every per-frame caller (Linux/mTCP models, quiesce drain,
# golden traces) where it is.
cargo test -q --offline -p ix-net --test checksum_prop
cargo test --offline -p ix-tcp --test rx_batch 2>&1 | tee /tmp/ci_rxbatch.out
if ! grep -q "test batch_of_one_is_byte_identical ... ok" /tmp/ci_rxbatch.out; then
    echo "ci: FAIL — batch-of-one byte-identity witness did not pass" >&2
    exit 1
fi

# Elastic control-loop gate: spike absorption, bounded migration rate,
# hung-target backoff, admission-gate shed/lift, RCU filter republish
# on absorb, and the inert-controller byte-identical determinism pin.
cargo test -q --offline -p ix-core --test elastic

# Microbench smoke: quick mode trims iteration counts so this is a
# does-it-still-run check (plus BENCH_sim.json regeneration), not a
# statistically meaningful measurement. The greps assert the TX- and
# RX-path comparisons actually ran and produced their speedup sections.
IX_BENCH_QUICK=1 cargo bench -q -p ix-bench --offline | tee /tmp/ci_bench.out
if ! grep -q "^\[txpath\] retransmit_front:" /tmp/ci_bench.out; then
    echo "ci: FAIL — txpath microbench comparison did not run" >&2
    exit 1
fi
for wl in deliver_1460b ooo_drain kv_parse_inplace; do
    if ! grep -q "^\[rxpath\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — rxpath/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
for wl in classify_hit classify_miss syn_cookie_roundtrip; do
    if ! grep -q "^\[filter\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — filter/${wl} microbench did not run" >&2
        exit 1
    fi
done

# Bulk-migration microbench gate: the [migrate] comparisons must run,
# and the bulk extract path must hold a >= 5x speedup over the per-flow
# scan/sort/re-lookup baseline at 100k live flows. The factor gate
# reads extract_100k — its per-iteration cost calibrates to hundreds of
# iterations even in quick mode, so the ratio is stable; the heavier
# absorb points are presence-checked only.
for wl in extract_100k absorb_100k; do
    if ! grep -q "^\[migrate\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — migrate/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
speedup=$(sed -n 's/^\[migrate\] extract_100k:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 5.0) }'; then
    echo "ci: FAIL — migrate/extract_100k bulk speedup ${speedup}x is below the 5x floor" >&2
    exit 1
fi
echo "ci: migrate/extract_100k bulk speedup ${speedup}x (floor 5x)"

# RX microbench gates: the [checksum] and [rxbatch] comparisons must
# run; the widened checksum fold must hold >= 2x over the u16 baseline
# at MTU size; and one `input_batch` of 64 frames (16 interleaved flows)
# must hold >= 1.2x over the same frames through 64 `input` calls. Both
# sides of that ratio are the same code — it is the price of not
# batching (one table probe and one ACK per flow per batch instead of
# per segment), not a comparison of two implementations. Floor reset
# from 1.5x: `input` now takes the in-order fast path too, so the
# 64-call side fell 19.4 -> 18.0 us with the batched side unchanged at
# 11.8 us; measured 1.52x median, 1.22-2.09x over 22 quick runs. Both
# per-iteration costs calibrate to plenty of iterations in quick mode,
# so the ratios are stable enough to gate.
for wl in verify_64b verify_1460b build_1460b; do
    if ! grep -q "^\[checksum\] ${wl}:" /tmp/ci_bench.out; then
        echo "ci: FAIL — checksum/${wl} microbench comparison did not run" >&2
        exit 1
    fi
done
rxb=$(sed -n 's/^\[rxbatch\] group_probe:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$rxb" 'BEGIN { exit !(s >= 1.2) }'; then
    echo "ci: FAIL — rxbatch/group_probe speedup ${rxb}x is below the 1.2x floor" >&2
    exit 1
fi
echo "ci: rxbatch/group_probe batched speedup ${rxb}x (floor 1.2x)"
cks=$(sed -n 's/^\[checksum\] verify_1460b:.*(\([0-9.]*\)x)$/\1/p' /tmp/ci_bench.out)
if ! awk -v s="$cks" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "ci: FAIL — checksum/verify_1460b speedup ${cks}x is below the 2x floor" >&2
    exit 1
fi
echo "ci: checksum/verify_1460b widened-fold speedup ${cks}x (floor 2x)"

# Run gates, one row each: name | wall-clock budget (s) | command |
# lines its output must contain (';'-separated, may be empty). A row
# fails on a non-zero exit, on a missing line, or past its budget. The
# budgets are generous (slow shared CI hosts) — they exist to catch a
# return to minutes-long runs, not to measure.
#
#  fig5       scheduler or pool regression (the seed took minutes)
#  fig3b      a payload copy or pool leak back in in-order RX delivery
#  fig4       a return to per-message O(conns) scans at 10k connections
#  fig6       a per-segment allocation back in the zero-copy TX loop
#  fig7       fault plane / watchdog: every scenario must recover
#  fig8       attack generator, NIC filter stage and cookie handshake
#             (the binary asserts dropped frames allocate nothing)
#  fig9       controller-off reruns bit-identical; the elastic run
#             absorbs the spike, consolidates, beats static core-time
#  fig9-scale flat per-flow migration cost, full-shard moves, 0 resets
#  benchmark  the host-clock benchmark still builds against the
#             workspace's API and its correctness and determinism gates
#             pass on all five workloads (benchmark/README.md)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
gates='
fig5|120|IX_SWEEP_QUICK=1 ./target/release/fig5_memcached|
fig3b|120|IX_SWEEP_QUICK=1 ./target/release/fig3b_roundtrips|
fig4|120|IX_SWEEP_QUICK=1 ./target/release/fig4_connscale|
fig6|120|IX_SWEEP_QUICK=1 ./target/release/fig6_batchbound|
fig7|60|IX_SWEEP_QUICK=1 ./target/release/fig7_faults|no permanently stalled connections
fig8|120|IX_SWEEP_QUICK=1 ./target/release/fig8_adversarial|
fig9|60|IX_SWEEP_QUICK=1 ./target/release/fig9_elastic|controller-off runs are byte-identical;elastic run absorbed the spike
fig9-scale|90|IX_SWEEP_QUICK=1 ./target/release/fig9_scale|flat migration scaling:
benchmark|120|./benchmark/target/release/ix-benchmark --quick|
'
while IFS='|' read -r name budget_s cmd must; do
    [ -n "$name" ] || continue
    out=/tmp/ci_${name}.out
    start_s=$SECONDS
    if ! bash -c "$cmd" > "$out" 2>&1; then
        tail -n 20 "$out" >&2
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
done <<< "$gates"

# Host allocation discipline (DESIGN.md §5k): ceilings on what the
# benchmark row above recorded, one row per workload and metric. All are
# counts of this program, not timings. echo_small, recorded at this
# commit: 0.09 allocations per message and 50 MiB (before PR 15: 29.3
# and 646), so the margins are wide and a boxed event or a per-cycle
# vector back on the message path still trips them. conn_scale, where
# 100 000 connections are open and a few hundred busy: 0.26 allocations
# per message and 140 MiB at this commit (at the parent: 6.45 and 272),
# ceilings about 15 % above — one kind of queue keeping its buffer on
# every connection again (160-200 bytes x 100 000 x two ends: +35 MiB,
# and more than one allocation per message in the quick window), or the
# TCB back at 376 bytes (+25 MiB), trips them. kv_etc: 0.33 allocations
# per request in the quick window at this commit, all of it warm-up
# (0.07 over the full ten seconds; at the parent 8.42 and 8.14), ceiling
# about twice that — one vector or `Bytes::from` per request back in
# the memcached client, server or store is a whole allocation more.
while read -r workload metric ceiling; do
    value=$(awk -F'\t' -v w="$workload" -v m="$metric" '$1 == w && $4 == 0 && $6 == m { print $7 }' \
        benchmark/out/quick.tsv)
    if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v <= c) }'; then
        echo "ci: FAIL — ${workload} ${metric} = ${value:-missing}, ceiling ${ceiling}" >&2
        exit 1
    fi
    echo "ci: ${workload} ${metric} = ${value} (ceiling ${ceiling})"
done <<'EOF2'
echo_small host_allocs_per_msg 3.0
echo_small host_peak_rss_mib 128
conn_scale host_allocs_per_msg 0.30
conn_scale host_peak_rss_mib 160
kv_etc host_allocs_per_msg 0.65
EOF2

echo "ci: all green"
