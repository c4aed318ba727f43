#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> perfbench unit tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -p hybriddnn-par -- -D warnings"
cargo clippy -p hybriddnn-par --all-targets --offline -- -D warnings

echo "==> cargo clippy -p hybriddnn-server -- -D warnings"
cargo clippy -p hybriddnn-server --all-targets --offline -- -D warnings

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

# Benchmarks that emit BENCH_sim.json must at least build; running them
# is a manual step (they measure host speed, which CI machines vary on).
echo "==> bench-json binaries build"
cargo build --release --offline -p hybriddnn-bench --bins --examples

# Host-parallelism smoke test: the same functional inference at 1 and 4
# threads must print the same validation error bit for bit (the full
# bit-identity contract is tests/parallel_determinism.rs; this exercises
# the CLI --threads plumbing end to end).
echo "==> --threads 1 vs 4 smoke test"
one=$(./target/release/hybriddnn specs/vgg_tiny.hdnn pynq-z1 --functional --threads 1 | grep validation)
four=$(./target/release/hybriddnn specs/vgg_tiny.hdnn pynq-z1 --functional --threads 4 | grep validation)
if [ "$one" != "$four" ]; then
    echo "thread-count divergence: [$one] vs [$four]" >&2
    exit 1
fi
echo "    $one"

# Session-plan smoke test: stage_probe exercises record + replay across
# every stage of the pipeline. BENCH_JSON points at a scratch file so a
# CI run never dirties the repo's committed BENCH_sim.json; the numbers
# it measures are discarded — this only checks that the probe runs.
echo "==> stage_probe smoke test (session-plan record/replay)"
BENCH_JSON="$(mktemp)" ./target/release/examples/stage_probe > /dev/null

# Batched-execution smoke test: batch_probe measures functional µs per
# batch element at B ∈ {1, 4, 16}; B=16 must beat B=1 per-run — the
# O(weights + B·activations) amortization of the batched kernels. The
# asserted floor is 1.0x (strictly faster), not the ~2x this host
# records, so a loaded CI machine doesn't flake the gate.
echo "==> batch_probe smoke test (B=16 must beat B=1 per-run)"
probe_out="$(BENCH_JSON="$(mktemp)" ./target/release/examples/batch_probe)"
echo "$probe_out" | sed 's/^/    /'
ratio=$(echo "$probe_out" | awk '/amortization/ {gsub(/x$/, "", $NF); print $NF}')
if ! awk -v r="$ratio" 'BEGIN {exit !(r > 1.0)}'; then
    echo "batched execution no faster than sequential (ratio ${ratio}x)" >&2
    exit 1
fi

# Batched 1-vs-4-thread output equality: the batch suite pins batched
# runs bit-identical to sequential ones at both thread counts (outputs,
# cycles, stage stats, and error outcomes).
echo "==> batched output equality, 1 vs 4 threads"
cargo test -q --offline --release -p hybriddnn-sim --test batch \
    tiny_cnn_batched_is_bit_identical

# Schedule-replay validation: run the CLI twice in one session with the
# cached timing schedule cross-checked against a full re-simulation.
echo "==> --validate-plan smoke test"
./target/release/hybriddnn specs/vgg_tiny.hdnn pynq-z1 --functional --validate-plan --threads 1 | grep "plan"

# Chaos suite: the serving layer under deterministic fault injection
# (transients retried to bit-identical results, hangs watchdog-cancelled,
# wedges respawned, full-quarantine drains with typed errors).
echo "==> chaos tests (fault injection + self-healing)"
cargo test -q --offline --release -p hybriddnn-runtime --test chaos

# Faulted serving smoke test: serve-bench with a uniform fault plan must
# answer every request (served or typed error) and print fault metrics.
echo "==> serve-bench --fault-rate 0.01 smoke test"
./target/release/hybriddnn serve-bench tiny-cnn pynq-z1 --requests 200 --workers 2 \
    --fault-rate 0.01 --retries 8 | grep "fault tolerance"

# Network-serving smoke test: serve-net on an ephemeral port, the
# net_throughput load generator driving 256 concurrent pipelined
# connections over real sockets, then a wire-protocol DRAIN. Asserts
# nonzero throughput (the load generator exits nonzero if it serves
# nothing), that the reactor multiplexes every connection on a fixed
# thread pool (thread count must not scale with connections:
# main + 2 reuseport acceptors + 2 io + pump + batcher + 2 workers = 9,
# asserted with slack at 12), that the accept path is actually sharded
# across SO_REUSEPORT listeners, and a clean server shutdown (bounded
# PID wait).
echo "==> serve-net + net_throughput 256-connection smoke test"
serve_log="$(mktemp)"
./target/release/hybriddnn serve-net tiny-cnn vu9p --port 0 --workers 2 \
    --io-threads 2 --max-conns 512 --reuse-port 2 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(grep -m1 '^listening on ' "$serve_log" | awk '{print $3}' || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-net never reported a listening address" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/net_throughput --addr "$addr" --requests 2000 --conns 256
nthreads=$(awk '/^Threads:/ {print $2}' "/proc/$serve_pid/status")
if [ "$nthreads" -gt 12 ]; then
    echo "serve-net running $nthreads threads for 256 connections" \
         "(thread-per-connection regression?)" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
echo "    server threads under 256-connection load: $nthreads"
if ! grep -q 'accept sharding: 2 reuseport listeners' "$serve_log"; then
    echo "serve-net did not shard its accept path across reuseport listeners" >&2
    cat "$serve_log" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/net_throughput --addr "$addr" --requests 300 --drain
for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "serve-net did not shut down after drain" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
wait "$serve_pid"
grep "drained:" "$serve_log"

# Chaos-resilience smoke test: serve-net behind a seeded chaos proxy
# (connection resets, stream truncation, fragmentation, bounded
# delays); the resilient client must complete 500 pipelined requests
# exactly once each (chaos_smoke exits nonzero otherwise), the server
# must have observed replayed frames (client_retries > 0, asserted by
# chaos_smoke), and a wire DRAIN issued through the proxy must still
# shut the server down cleanly (bounded PID wait + drained log line).
echo "==> chaos-proxy + resilient-client smoke test"
chaos_serve_log="$(mktemp)"
./target/release/hybriddnn serve-net tiny-cnn vu9p --port 0 --workers 2 \
    --io-threads 2 > "$chaos_serve_log" 2>&1 &
chaos_serve_pid=$!
upstream=""
for _ in $(seq 1 100); do
    upstream=$(grep -m1 '^listening on ' "$chaos_serve_log" | awk '{print $3}' || true)
    [ -n "$upstream" ] && break
    sleep 0.1
done
if [ -z "$upstream" ]; then
    echo "serve-net never reported a listening address" >&2
    cat "$chaos_serve_log" >&2
    kill "$chaos_serve_pid" 2>/dev/null || true
    exit 1
fi
proxy_log="$(mktemp)"
./target/release/hybriddnn chaos-proxy "$upstream" --port 0 --seed 42 \
    --reset-rate 0.02 --truncate-rate 0.02 --fragment-rate 0.3 \
    --delay-rate 0.2 --max-delay-us 2000 > "$proxy_log" 2>&1 &
proxy_pid=$!
proxy_addr=""
for _ in $(seq 1 100); do
    proxy_addr=$(grep -m1 '^listening on ' "$proxy_log" | awk '{print $3}' || true)
    [ -n "$proxy_addr" ] && break
    sleep 0.1
done
if [ -z "$proxy_addr" ]; then
    echo "chaos-proxy never reported a listening address" >&2
    cat "$proxy_log" >&2
    kill "$proxy_pid" "$chaos_serve_pid" 2>/dev/null || true
    exit 1
fi
./target/release/chaos_smoke --addr "$proxy_addr" --requests 500 \
    --window 16 --seed 7 --drain
for _ in $(seq 1 100); do
    kill -0 "$chaos_serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$chaos_serve_pid" 2>/dev/null; then
    echo "serve-net did not shut down after a drain through the proxy" >&2
    kill "$chaos_serve_pid" "$proxy_pid" 2>/dev/null || true
    exit 1
fi
wait "$chaos_serve_pid"
grep "drained:" "$chaos_serve_log"
kill "$proxy_pid" 2>/dev/null || true
wait "$proxy_pid" 2>/dev/null || true

# Cluster smoke test: a reconciliation-loop controller converges a
# 3-node serve-net fleet onto a declarative spec (unloading the orphan
# each node preloaded), a consistent-hash router fronts the fleet, and
# a load generator drives requests through the router while a second
# controller run performs a rolling upgrade of the `canary` model —
# every request must be served (zero rejected, zero lost), the upgrade
# must converge, the router must drain with zero synthesized errors,
# and a fleet-wide DRAIN must shut every node down (bounded PID waits).
echo "==> cluster smoke test (controller + 3 nodes + router + rolling upgrade)"
cl_pids=()
cl_logs=()
cl_addrs=()
for _ in 1 2 3; do
    log="$(mktemp)"
    ./target/release/hybriddnn serve-net tiny-cnn vu9p --port 0 \
        --workers 1 --io-threads 1 > "$log" 2>&1 &
    cl_pids+=($!)
    cl_logs+=("$log")
done
for i in 0 1 2; do
    a=""
    for _ in $(seq 1 100); do
        a=$(grep -m1 '^listening on ' "${cl_logs[$i]}" | awk '{print $3}' || true)
        [ -n "$a" ] && break
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "cluster node $i never reported a listening address" >&2
        cat "${cl_logs[$i]}" >&2
        exit 1
    fi
    cl_addrs+=("$a")
done
cl_nodes=$(IFS=,; echo "${cl_addrs[*]}")
spec_v1="$(mktemp)"
cat > "$spec_v1" <<'EOF'
[cluster]
unhealthy_after = 3
poll_interval_ms = 100

[[model]]
name = "steady"
model = "tiny-cnn"
device = "vu9p"
version = 1
replicas = 3
min_ready = 2
functional = false

[[model]]
name = "canary"
model = "tiny-cnn"
device = "vu9p"
version = 1
replicas = 2
min_ready = 1
functional = false
EOF
spec_v2="$(mktemp)"
cat > "$spec_v2" <<'EOF'
[cluster]
unhealthy_after = 3
poll_interval_ms = 100

[[model]]
name = "steady"
model = "tiny-cnn"
device = "vu9p"
version = 1
replicas = 3
min_ready = 2
functional = false

[[model]]
name = "canary"
model = "tiny-cnn"
device = "vu9p"
version = 2
replicas = 2
min_ready = 1
functional = false
EOF
ctl_out="$(./target/release/hybriddnn cluster-ctl "$spec_v1" --nodes "$cl_nodes" \
    --timeout-s 120)"
echo "$ctl_out" | sed 's/^/    /'
echo "$ctl_out" | grep -q "converged in"
route_log="$(mktemp)"
./target/release/hybriddnn route --cluster "$cl_nodes" --port 0 > "$route_log" 2>&1 &
route_pid=$!
router_addr=""
for _ in $(seq 1 100); do
    router_addr=$(grep -m1 '^listening on ' "$route_log" | awk '{print $3}' || true)
    [ -n "$router_addr" ] && break
    sleep 0.1
done
if [ -z "$router_addr" ]; then
    echo "route never reported a listening address" >&2
    cat "$route_log" >&2
    exit 1
fi
upgrade_log="$(mktemp)"
./target/release/hybriddnn cluster-ctl "$spec_v2" --nodes "$cl_nodes" \
    --timeout-s 120 > "$upgrade_log" 2>&1 &
upgrade_pid=$!
sleep 0.3
gen_out="$(./target/release/net_throughput --addr "$router_addr" --model steady \
    --conns 8 --requests 3000)"
echo "$gen_out" | sed 's/^/    /'
echo "$gen_out" | grep -q "load-gen: 3000/3000 served"
echo "$gen_out" | grep -q "(0 rejected, 0 lost on 0 dead connection(s))"
if ! wait "$upgrade_pid"; then
    echo "rolling upgrade did not converge" >&2
    cat "$upgrade_log" >&2
    exit 1
fi
sed 's/^/    /' "$upgrade_log"
grep -q "converged in" "$upgrade_log"
./target/release/net_throughput --addr "$router_addr" --requests 50 \
    --model steady --drain > /dev/null
for _ in $(seq 1 100); do
    kill -0 "$route_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$route_pid" 2>/dev/null; then
    echo "route did not shut down after drain" >&2
    kill "$route_pid" 2>/dev/null || true
    exit 1
fi
wait "$route_pid"
grep "drained:" "$route_log" | sed 's/^/    /'
grep "drained:" "$route_log" | grep -q "0 synthesized error(s)"
./target/release/hybriddnn cluster-ctl "$spec_v2" --nodes "$cl_nodes" --drain \
    | grep -q "drain: 3 of 3 node(s) acked"
for i in 0 1 2; do
    pid=${cl_pids[$i]}
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "cluster node $i did not shut down after the fleet drain" >&2
        kill "$pid" 2>/dev/null || true
        exit 1
    fi
    wait "$pid"
    grep -q "drained:" "${cl_logs[$i]}"
done

# Router scaling: the same device-paced model served by a 1-node fleet
# and a 3-node fleet, both behind the router. Pacing (--pace-mhz) makes
# each node sleep out its simulated device time, so a single host CPU
# can stand in for N accelerator nodes: throughput is bounded by
# device-time parallelism, which triples with three nodes. The asserted
# floor is 1.5x (this host records near-3x) so a loaded CI machine
# doesn't flake the gate. BENCH_JSON points at a scratch file — the
# committed BENCH_sim.json tiers come from manual --record runs.
echo "==> router scaling: 1-node vs 3-node paced tiers"
scale_bench="$(mktemp)"
declare -A tier_rps
for tier in 1 3; do
    sc_pids=()
    sc_logs=()
    sc_addrs=()
    for _ in $(seq 1 "$tier"); do
        log="$(mktemp)"
        ./target/release/hybriddnn serve-net tiny-cnn vu9p --port 0 \
            --workers 1 --io-threads 1 --pace-mhz 2 > "$log" 2>&1 &
        sc_pids+=($!)
        sc_logs+=("$log")
    done
    for i in $(seq 0 $((tier - 1))); do
        a=""
        for _ in $(seq 1 100); do
            a=$(grep -m1 '^listening on ' "${sc_logs[$i]}" | awk '{print $3}' || true)
            [ -n "$a" ] && break
            sleep 0.1
        done
        if [ -z "$a" ]; then
            echo "paced node $i never reported a listening address" >&2
            cat "${sc_logs[$i]}" >&2
            exit 1
        fi
        sc_addrs+=("$a")
    done
    backends=$(IFS=,; echo "${sc_addrs[*]}")
    sc_route_log="$(mktemp)"
    ./target/release/hybriddnn route --cluster "$backends" --port 0 \
        > "$sc_route_log" 2>&1 &
    sc_route_pid=$!
    raddr=""
    for _ in $(seq 1 100); do
        raddr=$(grep -m1 '^listening on ' "$sc_route_log" | awk '{print $3}' || true)
        [ -n "$raddr" ] && break
        sleep 0.1
    done
    if [ -z "$raddr" ]; then
        echo "route never reported a listening address" >&2
        cat "$sc_route_log" >&2
        exit 1
    fi
    out="$(BENCH_JSON="$scale_bench" ./target/release/net_throughput --addr "$raddr" \
        --conns 8 --requests $((tier * 2000)) --record "net_router_${tier}node")"
    echo "$out" | sed 's/^/    /'
    tier_rps[$tier]=$(echo "$out" | awk '{for (i = 2; i <= NF; i++) if ($i == "req/s") print $(i - 1)}' | head -1)
    ./target/release/net_throughput --addr "$raddr" --requests 10 --drain > /dev/null
    for _ in $(seq 1 100); do
        kill -0 "$sc_route_pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$sc_route_pid" 2>/dev/null; then
        echo "route did not shut down after drain" >&2
        kill "$sc_route_pid" 2>/dev/null || true
        exit 1
    fi
    wait "$sc_route_pid"
    for i in $(seq 0 $((tier - 1))); do
        ./target/release/net_throughput --addr "${sc_addrs[$i]}" --requests 10 \
            --drain > /dev/null
        pid=${sc_pids[$i]}
        for _ in $(seq 1 100); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        if kill -0 "$pid" 2>/dev/null; then
            echo "paced node $i did not shut down after drain" >&2
            kill "$pid" 2>/dev/null || true
            exit 1
        fi
        wait "$pid"
    done
done
if ! awk -v one="${tier_rps[1]}" -v three="${tier_rps[3]}" \
    'BEGIN {exit !(three > 1.5 * one)}'; then
    echo "router 3-node tier (${tier_rps[3]} req/s) is not >1.5x the" \
         "1-node tier (${tier_rps[1]} req/s)" >&2
    exit 1
fi
echo "    router scaling 1 -> 3 nodes: ${tier_rps[1]} -> ${tier_rps[3]} req/s"

echo "CI OK"
