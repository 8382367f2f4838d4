#!/usr/bin/env bash
# Full repository health check: format, lints, tests, docs, examples.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --check
echo "== clippy (workspace, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings
echo "== tests (debug) =="
cargo test --workspace
echo "== benchmark self-tests (perfbench/, its own workspace) =="
# Mini-scale report digests, request conservation and the auditor
# check of the BENCHMARK.json workloads; release mode keeps it ~10 s.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
echo "== examples build =="
cargo build --release --examples
echo "== benches compile and self-test =="
cargo bench --workspace -- --test
echo "== loop-profile baseline (BENCH_loop.json) =="
cargo bench -q -p radar-bench --bench loop_profile
echo "== throughput baseline + regression gate (BENCH_throughput.json) =="
# Fails on >10% events/sec regression or >10% allocations/event growth
# against the committed baseline, then refreshes it.
cargo bench -q -p radar-bench --bench throughput
echo "== batched hand-off gate (BENCH_profile.json) =="
# The bench's profiled scaling runs must show a real batched transport:
# every profile records hand-offs and the 2-shard profile's batch-size
# p50 stays at ≥ 2 items per message (1 would mean the hand-off path
# degenerated back to one message per decision).
cargo run -q -p radar-cli --bin radar -- perf BENCH_profile.json \
  --check-batch-p50 2
echo "== golden event-log regression diff (serial, --shards 1) =="
./scripts/golden-diff.sh
echo "== replica-set invariant audit (golden log + faulted 2-shard run) =="
# The paper's correctness contract (notify after create, before
# delete) must hold on the committed golden log and on a faulted
# sharded run — crashes, purges and re-replication are exactly where
# an unnotified drop would slip through. Exit code 2 names the seqs.
mkdir -p target
cargo run -q -p radar-cli --bin radar -- objects audit \
  tests/golden/events-seed42.jsonl
printf 'min-replicas 2\ndeclare-dead-after 30\nhost-down 5 60 180\nhost-down 12 120\n' \
  > target/audit-faults.txt
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --shards 2 \
  --faults target/audit-faults.txt --events target/audit-faulted.jsonl \
  >/dev/null
cargo run -q -p radar-cli --bin radar -- objects audit target/audit-faulted.jsonl
echo "== invariant audit of an update-heavy type-1 run =="
# Provider updates against the default (all type-1, primary-copy)
# catalog: the auditor additionally checks that every update is issued
# from a directory-known primary and that every non-wasted delivery
# lands on a host that still holds the replica — the drop/delivery race
# is exactly where stale bookkeeping would surface.
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --update-rate 2 \
  --events target/audit-updates.jsonl >/dev/null
grep -q '"type":"provider-update"' target/audit-updates.jsonl \
  || { echo "FAIL: update-heavy run emitted no provider updates"; exit 1; }
cargo run -q -p radar-cli --bin radar -- objects audit target/audit-updates.jsonl
echo "== protocol-health baseline (BENCH_protocol_health.json) =="
# The ledger-enabled golden run is deterministic, so its
# protocol_health report section doubles as a committed churn/audit
# baseline next to the perf baselines.
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --ledger --json \
  > target/report-ledger.json
# protocol_health is the report's final section; re-wrapping the tail
# in braces yields a standalone JSON document.
{ echo '{'; sed -n '/^  "protocol_health": {$/,$p' target/report-ledger.json; } \
  > BENCH_protocol_health.json
echo "wrote BENCH_protocol_health.json"
echo "== sharded end-state equivalence (2 shards vs 1) =="
# The sharded loop promises byte-identical observable output for any
# fixed shard count; spot-check it end to end through the CLI by
# comparing the full JSON reports of a 1-shard and a 2-shard run.
mkdir -p target
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --shards 1 --json \
  > target/report-shards1.json
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 0.05 --duration 150 --seed 42 --shards 2 --json \
  > target/report-shards2.json
diff target/report-shards1.json target/report-shards2.json \
  || { echo "FAIL: 2-shard report diverged from 1-shard"; exit 1; }
echo "reports identical"
echo "== shard-profile coverage + batch gate (--profile + radar perf) =="
# A profiled sharded run must attribute at least 95% of every lane's
# wall-clock to named spans (busy / waits / barrier / reunite / idle)
# and show a batched hand-off (p50 ≥ 2 items/message). The smoke rate
# is 2 req/s rather than the golden log's 0.05: at 0.05 the simulated
# inter-arrival gap dwarfs every propagation bound, so no two redirects
# can ever share a batch and the batch gate would measure nothing.
cargo run -q -p radar-cli --bin radar -- simulate \
  --objects 16 --rate 2 --duration 150 --seed 42 --shards 2 --profile \
  --json > target/report-profiled.json
cargo run -q -p radar-cli --bin radar -- perf target/report-profiled.json \
  --check-coverage 95 --check-batch-p50 2
echo "== placement-policy sweep (BENCH_policies.json) =="
# Regenerates the placement-policy × consistency-mix head-to-head at
# the unit-test scale and gates on its shape: every placement policy
# must appear under at least the read-only and write-heavy mixes.
cargo run -q --release -p radar-bench --bin experiments -- --tiny policies \
  > /dev/null
for policy in radar availability cluster; do
  grep -q "\"placement\": \"$policy\"" BENCH_policies.json \
    || { echo "FAIL: placement policy $policy missing from sweep"; exit 1; }
done
for mix in read-only mixed write-heavy; do
  grep -q "\"mix\": \"$mix\"" BENCH_policies.json \
    || { echo "FAIL: consistency mix $mix missing from sweep"; exit 1; }
done
echo "BENCH_policies.json covers 3 policies x 3 mixes"
echo "ALL CHECKS PASSED"
