#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, and the
# cross-thread-count determinism check. Offline-friendly: never touches
# the network (all dependencies are vendored under vendor/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> ingest: CSV reader against its row-major oracle, parser fuzz, allocation pin (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --offline --release -p smartml-data --lib io::
PROPTEST_CASES=2048 cargo test -q --offline --release -p smartml-data --test parser_fuzz --test parser_alloc

echo "==> classifiers: LDA/RDA/NaiveBayes and encoder kernels against their per-row oracles (release, 2048 cases)"
PROPTEST_CASES=2048 cargo test -q --offline --release -p smartml-classifiers --lib algorithms::

echo "==> benchmark harness: compiles against the current crates; smoke pass exits clean"
# benchmark/ is a workspace of its own, so tier-1 does not build it: this is
# where a public-API change that breaks it shows up. Exit status only.
if [ "$(nproc)" -ge 2 ]; then
  benchmark/run.sh --smoke > /dev/null
else
  # The harness refuses to measure on one core; it must still build.
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi

echo "==> determinism: identical reports for n_threads in {1, 2, 3, 5, 8}, tracing on and off"
cargo test -q --offline -p smartml-integration --test determinism --test observability

echo "==> determinism: ASHA and Hyperband byte-identical at pool widths {1, 2, 8}"
cargo test -q --offline -p smartml-integration --test asha_determinism

SMOKE_DIR="$(mktemp -d)"
SERVER_PID=""
REPLICA_PID=""
JOBD_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [ -n "$REPLICA_PID" ] && kill -9 "$REPLICA_PID" 2>/dev/null || true
  [ -n "$JOBD_PID" ] && kill -9 "$JOBD_PID" 2>/dev/null || true
  rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

CSV="$SMOKE_DIR/smoke.csv"
{
  echo "f1,f2,f3,label"
  for i in $(seq 0 29); do
    if [ $((i % 2)) -eq 0 ]; then
      echo "$i.1,0.$i,1.5,a"
    else
      echo "$i.7,1.$i,3.5,b"
    fi
  done
} > "$CSV"

CLI=./target/release/smartml-cli
SMARTMLD=./target/release/smartmld

start_server() {
  local dir="$1" log="$2"
  "$SMARTMLD" --dir "$dir" --addr 127.0.0.1:0 > "$log" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^smartmld: listening on //p' "$log")"
    [ -n "$ADDR" ] && return 0
    sleep 0.1
  done
  echo "smartmld failed to start:"; cat "$log"; exit 1
}

smartmld_smoke() {
  echo "==> smartmld: record, query, METRICS round-trip, kill -9, restart, verify recovery"

  start_server "$SMOKE_DIR/kb" "$SMOKE_DIR/server1.log"
  "$CLI" kb record "$CSV" --kb "tcp:$ADDR" --algorithm KNN --accuracy 0.91 > /dev/null
  "$CLI" kb record "$CSV" --kb "tcp:$ADDR" --algorithm RandomForest --accuracy 0.88 > /dev/null

  # METRICS verb round-trip against the live server: the raw JSON response
  # must parse (jq) and carry the metrics status; the typed client path via
  # `kb metrics` must agree on the per-verb counters.
  local HOST="${ADDR%:*}" PORT="${ADDR##*:}"
  RESP="$(exec 3<>"/dev/tcp/$HOST/$PORT"; printf '{"op":"metrics"}\n' >&3; head -n 1 <&3)"
  echo "$RESP" | jq -e '.status == "metrics" and (.metrics.requests >= 2)' > /dev/null \
    || { echo "METRICS verb returned malformed or wrong JSON: $RESP"; exit 1; }
  "$CLI" kb metrics --kb "tcp:$ADDR" | grep "record_run" > /dev/null \
    || { echo "kb metrics CLI missing record_run counter"; exit 1; }
  # Plain grep (not -q): grep -q exits at the first match, closing the pipe
  # and SIGPIPE-ing the CLI while it is still printing the neighbour list.
  "$CLI" kb query  "$CSV" --kb "tcp:$ADDR" | grep "KNN" > /dev/null \
    || { echo "live query missing KNN nomination"; exit 1; }

  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""

  start_server "$SMOKE_DIR/kb" "$SMOKE_DIR/server2.log"
  "$CLI" kb stats --kb "tcp:$ADDR" | grep "1 datasets / 2 runs" > /dev/null \
    || { echo "recovery lost records"; "$CLI" kb stats --kb "tcp:$ADDR"; exit 1; }
  "$CLI" kb query "$CSV" --kb "tcp:$ADDR" | grep "KNN" > /dev/null \
    || { echo "recovered KB missing KNN nomination"; exit 1; }
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  echo "    smartmld survives kill -9 with no data loss"
}

smartmld_smoke

echo "==> fault injection: panics/hangs at 30% contained, ledger exact, kill-the-trial watchdog"
echo "    (includes ASHA rung-promotion determinism under 30% injected panics)"
cargo test -q --offline --features fault-injection \
  -p smartml-smac --test fault_injection \
  -p smartml-integration --test fault_containment --test asha_determinism

echo "==> kbd: server responses byte-identical to the in-memory KB model under the fault-injection harness"
echo "    (includes replica catch-up byte-identity under 30% injected pull/apply panics)"
cargo test -q --offline --features fault-injection \
  -p smartml-kbd --test backend_equiv --test replication
echo "    sharded index vs the monolithic KB by to_bits (release, 2048 histories), allocation pin, poison-pill requests"
PROPTEST_CASES=2048 cargo test -q --offline --release -p smartml-kb --lib index::
PROPTEST_CASES=2048 cargo test -q --offline --release \
  -p smartml-kbd --test sharded_differential --test zindex_alloc --test misbehaving_clients

echo "==> replication chaos: primary + replica, kill -9 both sides, failover reads"
start_server "$SMOKE_DIR/kb" "$SMOKE_DIR/repl-primary.log"
PRIMARY_PID="$SERVER_PID"
PADDR="$ADDR"
"$CLI" kb record "$CSV" --kb "tcp:$PADDR" --algorithm KNN --accuracy 0.91 > /dev/null
"$CLI" kb record "$CSV" --kb "tcp:$PADDR" --algorithm RandomForest --accuracy 0.88 > /dev/null
PRIMARY_SEQ="$("$CLI" kb stats --kb "tcp:$PADDR" | sed -n 's/.*applied seq \([0-9]*\).*/\1/p')"
[ -n "$PRIMARY_SEQ" ] && [ "$PRIMARY_SEQ" -ge 2 ] \
  || { echo "primary stats missing applied seq"; "$CLI" kb stats --kb "tcp:$PADDR"; exit 1; }

start_replica() {
  local log="$1"
  "$SMARTMLD" --dir "$SMOKE_DIR/kb-replica" --addr 127.0.0.1:0 \
    --replica-of "$PADDR" > "$log" 2>&1 &
  REPLICA_PID=$!
  RADDR=""
  for _ in $(seq 1 100); do
    RADDR="$(sed -n 's/^smartmld: listening on //p' "$log")"
    [ -n "$RADDR" ] && return 0
    sleep 0.1
  done
  echo "smartmld --replica-of failed to start:"; cat "$log"; exit 1
}

wait_replica_seq() {
  local want="$1"
  for _ in $(seq 1 100); do
    SEQ="$("$CLI" kb stats --kb "tcp:$RADDR" 2>/dev/null \
      | sed -n 's/.*applied seq \([0-9]*\).*/\1/p')"
    [ "$SEQ" = "$want" ] && return 0
    sleep 0.1
  done
  echo "replica stalled at applied seq ${SEQ:-unknown}, want $want"
  "$CLI" kb stats --kb "tcp:$RADDR" || true
  exit 1
}

# Spawn the replica and kill -9 it mid-catch-up; a re-spawn must resume
# from its own WAL and converge with no operator reset.
start_replica "$SMOKE_DIR/repl-replica1.log"
kill -9 "$REPLICA_PID"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
start_replica "$SMOKE_DIR/repl-replica2.log"
grep "smartmld: read replica of $PADDR" "$SMOKE_DIR/repl-replica2.log" > /dev/null \
  || { echo "replica did not announce its primary"; cat "$SMOKE_DIR/repl-replica2.log"; exit 1; }
wait_replica_seq "$PRIMARY_SEQ"

# Live tailing: a third record on the primary must reach the replica.
"$CLI" kb record "$CSV" --kb "tcp:$PADDR" --algorithm NaiveBayes --accuracy 0.80 > /dev/null
wait_replica_seq "$((PRIMARY_SEQ + 1))"

# Lose the primary: the replica keeps serving reads, refuses writes with
# a redirect, and the multi-endpoint client fails over transparently.
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
SERVER_PID=""
"$CLI" kb query "$CSV" --kb "tcp:$RADDR" | grep "KNN" > /dev/null \
  || { echo "replica lost reads after primary death"; exit 1; }
if "$CLI" kb record "$CSV" --kb "tcp:$RADDR" --algorithm KNN --accuracy 0.5 \
    > "$SMOKE_DIR/repl-write.log" 2>&1; then
  echo "replica accepted a write"; exit 1
fi
grep -i "primary" "$SMOKE_DIR/repl-write.log" > /dev/null \
  || { echo "replica write rejection missing redirect"; cat "$SMOKE_DIR/repl-write.log"; exit 1; }
"$CLI" kb query "$CSV" --kb "tcp:$PADDR,$RADDR" | grep "KNN" > /dev/null \
  || { echo "client failover query failed with the primary down"; exit 1; }

# Promote the survivor with the primary still dead: it must flip to
# primary in place and start accepting writes, with nothing lost.
"$CLI" kb promote --kb "tcp:$RADDR" | grep "promoted" > /dev/null \
  || { echo "kb promote did not flip the replica"; exit 1; }
"$CLI" kb record "$CSV" --kb "tcp:$RADDR" --algorithm LDA --accuracy 0.70 > /dev/null \
  || { echo "promoted replica refused a write"; exit 1; }
"$CLI" kb query "$CSV" --kb "tcp:$RADDR" --top-n 20 | grep "KNN" > /dev/null \
  || { echo "promoted replica lost pre-promotion records"; exit 1; }
"$CLI" kb query "$CSV" --kb "tcp:$RADDR" --top-n 20 | grep "LDA" > /dev/null \
  || { echo "post-promotion write did not land"; exit 1; }
kill -9 "$REPLICA_PID"
wait "$REPLICA_PID" 2>/dev/null || true
REPLICA_PID=""
echo "    replication survives kill -9 on both sides; reads fail over, promote restores writes"

JOBD=./target/release/jobd
start_jobd() {
  local dir="$1" log="$2"; shift 2
  "$JOBD" serve --dir "$dir" --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
  JOBD_PID=$!
  JADDR=""
  for _ in $(seq 1 100); do
    JADDR="$(sed -n 's/^jobd: listening on //p' "$log")"
    [ -n "$JADDR" ] && return 0
    sleep 0.1
  done
  echo "jobd failed to start:"; cat "$log"; exit 1
}
submit_id() { sed -n 's/^jobd: submitted job \([0-9]*\).*/\1/p'; }

echo "==> jobd: 3 tenants concurrent, quota enforcement, result byte-identical to one-shot CLI"
SPEC='{"blobs":{"n":60,"d":3,"k":2,"spread":0.5}}'
start_jobd "$SMOKE_DIR/jobs" "$SMOKE_DIR/jobd1.log" --workers 2 --quota-trials 12 --no-fsync
ID_A="$("$JOBD" submit --addr "$JADDR" --tenant alpha --name jobsmoke \
  --synth "$SPEC" --seed 7 --trials 4 | submit_id)"
ID_B="$("$JOBD" submit --addr "$JADDR" --tenant beta --name jobsmoke \
  --synth "$SPEC" --seed 7 --trials 4 | submit_id)"
ID_C="$("$JOBD" submit --addr "$JADDR" --tenant gamma --name jobsmoke \
  --synth "$SPEC" --seed 7 --trials 4 | submit_id)"
for id in "$ID_A" "$ID_B" "$ID_C"; do
  "$JOBD" watch --addr "$JADDR" "$id" | grep "jobd: job finished Done" > /dev/null \
    || { echo "job $id did not finish Done"; "$JOBD" jobs --addr "$JADDR"; exit 1; }
done

# Quota: alpha has 12 trials; 4 are spent, two more 4-trial jobs drain
# it, the fourth submission must come back as a typed quota rejection.
"$JOBD" submit --addr "$JADDR" --tenant alpha --name q2 --synth "$SPEC" --trials 4 > /dev/null
"$JOBD" submit --addr "$JADDR" --tenant alpha --name q3 --synth "$SPEC" --trials 4 > /dev/null
if "$JOBD" submit --addr "$JADDR" --tenant alpha --name q4 --synth "$SPEC" --trials 4 \
    > "$SMOKE_DIR/jobd-reject.log" 2>&1; then
  echo "submission beyond the tenant quota was admitted"; exit 1
fi
grep "quota_exhausted" "$SMOKE_DIR/jobd-reject.log" > /dev/null \
  || { echo "quota rejection untyped:"; cat "$SMOKE_DIR/jobd-reject.log"; exit 1; }
# Other tenants are untouched by alpha's exhaustion.
"$JOBD" submit --addr "$JADDR" --tenant beta --name ok --synth "$SPEC" --trials 4 > /dev/null \
  || { echo "quota exhaustion leaked across tenants"; exit 1; }

# Byte-identity: the daemon's report equals the one-shot CLI run over
# the same exported synthetic dataset, modulo wall-clock phase timings.
"$CLI" synth --spec "$SPEC" --seed 7 --name jobsmoke --out "$SMOKE_DIR/jobsmoke.csv" 2> /dev/null
NORM='.phases[].secs = 0 | .timeline = null'
"$JOBD" result --addr "$JADDR" "$ID_A" | jq "$NORM" > "$SMOKE_DIR/job-report.json"
"$CLI" run "$SMOKE_DIR/jobsmoke.csv" --budget 4 --seed 7 --json \
  | sed '1d' | jq "$NORM" > "$SMOKE_DIR/cli-report.json"
diff "$SMOKE_DIR/job-report.json" "$SMOKE_DIR/cli-report.json" > /dev/null \
  || { echo "jobd report diverged from the one-shot CLI run"; \
       diff "$SMOKE_DIR/job-report.json" "$SMOKE_DIR/cli-report.json" | head -20; exit 1; }
"$JOBD" shutdown --addr "$JADDR" > /dev/null
wait "$JOBD_PID" 2>/dev/null || true
JOBD_PID=""
echo "    3 tenants served, quotas enforced per tenant, report byte-identical to smartml-cli run"

echo "==> jobd: kill -9 mid-job; recovery aborts the running job, re-queues and completes the queued one"
start_jobd "$SMOKE_DIR/jobs-chaos" "$SMOKE_DIR/jobd-chaos1.log" --workers 1
BIG='{"blobs":{"n":20000,"d":8,"k":3,"spread":1.0}}'
ID_BIG="$("$JOBD" submit --addr "$JADDR" --tenant chaos --name big \
  --synth "$BIG" --seed 3 --trials 10 | submit_id)"
ID_SMALL="$("$JOBD" submit --addr "$JADDR" --tenant chaos --name small \
  --synth "$SPEC" --seed 5 --trials 4 | submit_id)"
for _ in $(seq 1 100); do
  "$JOBD" status --addr "$JADDR" "$ID_BIG" | grep '"state":"running"' > /dev/null && break
  sleep 0.1
done
kill -9 "$JOBD_PID"
wait "$JOBD_PID" 2>/dev/null || true
JOBD_PID=""
start_jobd "$SMOKE_DIR/jobs-chaos" "$SMOKE_DIR/jobd-chaos2.log" --workers 1
grep "jobd: recovered" "$SMOKE_DIR/jobd-chaos2.log" | grep "(1 aborted, 1 re-queued" > /dev/null \
  || { echo "recovery line wrong:"; cat "$SMOKE_DIR/jobd-chaos2.log"; exit 1; }
"$JOBD" status --addr "$JADDR" "$ID_BIG" | grep '"state":"aborted"' > /dev/null \
  || { echo "running job not aborted after kill -9"; "$JOBD" jobs --addr "$JADDR"; exit 1; }
"$JOBD" watch --addr "$JADDR" "$ID_SMALL" | grep "jobd: job finished Done" > /dev/null \
  || { echo "re-queued job did not complete after recovery"; exit 1; }
"$JOBD" shutdown --addr "$JADDR" > /dev/null
wait "$JOBD_PID" 2>/dev/null || true
JOBD_PID=""
echo "    jobd survives kill -9: running job aborted, queued job re-queued and finished"

echo "==> perf smoke: job service submit-to-running latency + jobs/hour vs committed baseline"
./target/release/job_bench --quick --check BENCH_jobs.json > /dev/null

echo "==> perf smoke: replication catch-up + failover latency vs committed baseline"
./target/release/kb_replication_bench --quick --check BENCH_kb_replication.json > /dev/null

echo "==> perf smoke: tree kernels vs committed baseline (fails on panic or >5x regression)"
./target/release/tree_kernels --quick --check BENCH_tree_kernels.json > /dev/null

echo "==> perf smoke: ASHA vs sync halving at width 8 (gates speedup >= 1.2x, 5x watchdog)"
./target/release/asha_bench --quick --check BENCH_asha.json > /dev/null

echo "==> obs: traced run emits a valid Chrome trace and a timeline section"
OBS_CSV="$SMOKE_DIR/obs.csv"
{
  echo "f1,f2,f3,label"
  for i in $(seq 0 59); do
    if [ $((i % 2)) -eq 0 ]; then
      echo "$i.1,0.$i,1.5,a"
    else
      echo "$i.7,1.$i,3.5,b"
    fi
  done
} > "$OBS_CSV"
"$CLI" run "$OBS_CSV" --budget 6 --top-n 2 --seed 13 \
  --trace-out "$SMOKE_DIR/trace.json" --metrics \
  > "$SMOKE_DIR/obs-report.txt" 2> "$SMOKE_DIR/obs-metrics.txt"
./target/release/trace_check "$SMOKE_DIR/trace.json"
grep "Where the time went" "$SMOKE_DIR/obs-report.txt" > /dev/null \
  || { echo "traced report missing its timeline section"; exit 1; }
grep "smac.trial.ok" "$SMOKE_DIR/obs-metrics.txt" > /dev/null \
  || { echo "--metrics dump missing smac.trial.ok"; exit 1; }

echo "==> obs overhead: disabled-path instrumentation within budget (hard 5 ns/op gate)"
./target/release/obs_overhead --quick --check BENCH_obs.json > /dev/null

echo "==> compute kernels: equivalence proptests under default codegen and -C target-cpu=native"
cargo test -q --offline -p smartml-linalg --lib --test kernel_equiv
# The codegen-invariance contract: the same bit patterns must reproduce
# when the compiler is free to use every vector unit on this host. A
# separate target dir keeps the native artifacts from clobbering the
# default-codegen build cache.
CARGO_TARGET_DIR=target/native-verify RUSTFLAGS="-C target-cpu=native" \
  cargo test -q --offline -p smartml-linalg --lib --test kernel_equiv
# The bounded distance kernel is inlined into the z-index scan, so that
# crate's scan proptests run under the same codegen.
CARGO_TARGET_DIR=target/native-verify RUSTFLAGS="-C target-cpu=native" \
  cargo test -q --offline -p smartml-kb --lib index::

echo "verify: OK"
