#!/usr/bin/env bash
# scale_smoke.sh — live shard-scaling smoke test: a 4-shard pmkvd with a
# crash instant armed serves a 5-second pmkvload run, with the admin
# endpoint and flight recorder on. Mid-run the smoke scrapes /metrics and
# validates the exposition with promcheck; then the crashing shard fires,
# the server self-initiates the drain, every shard's recovery invariants
# must verify, and the flight recorder must be consistent with the
# recovery report (no ack beyond the durable prefix). Its dump is a Chrome
# trace, the format persistsim -trace writes (open it in Perfetto; 1 us on
# screen = 1 ns): it must parse as JSON, name a process for each of the 4
# shards and hold at least one durable_wait span. The dump is copied to
# $FLIGHT_ARTIFACT (default flight-recorder.json in the repo root) so CI
# can upload it as a post-mortem artifact. Between
# the two, a write-heavy soak scrapes /metrics mid-run and asserts that
# the engines are releasing what is durable (pmkv_records_folded_total
# against pmkv_records_retained), that Puts rewrite recycled entry lines
# (pmkv_entry_lines_recycled_total against pmkv_entry_lines_bumped_total,
# pmkv_machine_lines_tracked) and that the process stays under a
# resident-memory ceiling.
#
# Both phases run with -check, so the online durable-linearizability
# verdict line must appear — under a clean SIGTERM drain first, then
# under the injected crash. In each phase a one-in-flight paced loader
# and a pipelined loader share the server, so serial and pipelined
# completions and the drain/crash handling are exercised together.
set -euo pipefail
cd "$(dirname "$0")/.."

artifact=${FLIGHT_ARTIFACT:-flight-recorder.json}
dir=$(mktemp -d)
pid=
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$dir"' EXIT

go build -o "$dir/pmkvd" ./cmd/pmkvd
go build -o "$dir/pmkvload" ./cmd/pmkvload
go build -o "$dir/promcheck" ./cmd/promcheck

# start_server LOG FLAGS... starts pmkvd on free ports (it binds :0 and
# prints what it got, which is also how benchmark/server.go finds it) and
# sets pid, addr and admin once it is serving.
start_server() {
    local log=$1
    shift
    # Created here, not by the child's redirect, so the first poll below
    # cannot run before the file exists.
    : >"$log"
    "$dir/pmkvd" -addr 127.0.0.1:0 -admin 127.0.0.1:0 "$@" >"$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 200); do
        addr=$(sed -n 's/^pmkvd: serving on \([^ ]*\).*/\1/p' "$log")
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    admin=$(sed -n 's|^pmkvd: admin endpoint on http://\([^ ]*\).*|\1|p' "$log")
    if [ -z "$addr" ] || [ -z "$admin" ]; then
        echo "scale_smoke: pmkvd did not start serving" >&2
        cat "$log" >&2
        exit 1
    fi
}

# wait_exit PHASE LOG waits up to 120 s for pmkvd to finish its drain and
# prints its log.
wait_exit() {
    for _ in $(seq 1 120); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "scale_smoke: pmkvd ($1) did not drain within 120s" >&2
        cat "$2" >&2
        exit 1
    fi
    cat "$2"
}

# Phase 1: clean drain under load with the durable-linearizability
# checker on — SIGTERM quiesces every shard and the verdict must be OK.
# The binary loader is closed-loop (no -rate): both connections keep 32
# requests in flight over the loader's 256 shared keys, so writes to one
# key meet in one commit window on different cores (about 600 times in
# 73 000 writes, nearly half of them committing in the other order than
# they were translated in), and the recovery invariants (Verify's check 6:
# every key is served as it is recovered) are held against all of them.
# Paced at 150 ops/s two such writes essentially never met. The
# one-in-flight loader stays paced.
start_server "$dir/pmkvd-clean.log" -shards 4 -check
"$dir/pmkvload" -addr "$addr" -window 1 -conns 2 -rate 150 -duration 2s &
pacedload=$!
"$dir/pmkvload" -addr "$addr" -window 32 -conns 2 -duration 2s
wait "$pacedload"
kill -TERM "$pid"
wait_exit "clean phase" "$dir/pmkvd-clean.log"
grep -q "clean drain" "$dir/pmkvd-clean.log" || {
    echo "scale_smoke: clean phase did not report a clean drain" >&2
    exit 1
}
grep -q "durable linearizability: OK" "$dir/pmkvd-clean.log" || {
    echo "scale_smoke: no durable-linearizability verdict under clean drain" >&2
    exit 1
}
grep -q "flight recorder: .* consistency OK" "$dir/pmkvd-clean.log" || {
    echo "scale_smoke: flight recorder inconsistent with recovery report under clean drain" >&2
    exit 1
}

# Phase 1b: read-heavy load (95/5) with the checker on — the GET fast
# path must actually serve hits (counted on /metrics), and the clean
# drain's durable-linearizability verdict must still be OK with reads
# bypassing the shard mailboxes.
start_server "$dir/pmkvd-read.log" -shards 4 -check
"$dir/pmkvload" -addr "$addr" -window 1 -get 0.95 -del 0.01 -conns 2 -rate 300 -duration 2s &
pacedload=$!
"$dir/pmkvload" -addr "$addr" -window 32 -get 0.95 -del 0.01 \
    -conns 2 -rate 300 -duration 2s
wait "$pacedload"
curl -fsS "http://$admin/metrics" >"$dir/metrics-read.txt" || {
    echo "scale_smoke: /metrics scrape (read phase) failed" >&2
    exit 1
}
"$dir/promcheck" "$dir/metrics-read.txt"
grep '^pmkv_read_fast_hits_total' "$dir/metrics-read.txt" | awk '{s+=$2} END {exit s>0?0:1}' || {
    echo "scale_smoke: read-heavy phase recorded no fast-path hits" >&2
    exit 1
}
kill -TERM "$pid"
wait_exit "read phase" "$dir/pmkvd-read.log"
grep -q "durable linearizability: OK" "$dir/pmkvd-read.log" || {
    echo "scale_smoke: no durable-linearizability verdict in the read-heavy phase" >&2
    exit 1
}
grep -q "flight recorder: .* consistency OK" "$dir/pmkvd-read.log" || {
    echo "scale_smoke: flight recorder inconsistent with recovery report in the read-heavy phase" >&2
    exit 1
}

# Phase 1c: write-heavy soak (45/50/5, paced at 40k ops/s for 10 s) — the
# 20-second stand-in for a nightly soak. Every durable write is verified,
# folded into its shard's checkpoint and released, and the entry lines it
# superseded go back to the free list, so mid-run the engines must have let
# go of far more records than they hold, the heap must be fed by recycling,
# and the process must fit under a ceiling that growing per write would
# break. At the scrape, ~175k writes in: 67-72 MB resident (ceiling: that
# plus 25 %), against 103 MB while every Put carved new lines and 300 MB
# when each write also kept its record, tokens and epoch summary for good.
# Most of what is left is the checker's own history, which -check still
# keeps per op, so the ceiling is tied to this run length.
rss_ceiling=$((86 << 20))
start_server "$dir/pmkvd-soak.log" -shards 2 -check
"$dir/pmkvload" -addr "$addr" -window 64 -conns 2 -keys 4096 \
    -get 0.45 -del 0.05 -rate 40000 -duration 10s &
loadpid=$!
sleep 8
curl -fsS "http://$admin/metrics" >"$dir/metrics-soak.txt" || {
    echo "scale_smoke: /metrics scrape (soak phase) failed" >&2
    exit 1
}
"$dir/promcheck" "$dir/metrics-soak.txt"
sum() { awk -v m="$1" '$1 ~ "^"m"($|{)" {s+=$2} END {printf "%.0f\n", s}' "$dir/metrics-soak.txt"; }
folded=$(sum pmkv_records_folded_total)
retained=$(sum pmkv_records_retained)
rss=$(sum process_resident_memory_bytes)
bumped=$(sum pmkv_entry_lines_bumped_total)
recycled=$(sum pmkv_entry_lines_recycled_total)
tracked=$(sum pmkv_machine_lines_tracked)
echo "scale_smoke: soak scrape: folded $folded, retained $retained, resident $rss bytes"
echo "scale_smoke: soak scrape: entry lines bumped $bumped, recycled $recycled; machine lines tracked $tracked"
[ "$folded" -gt 0 ] && [ "$folded" -ge $((10 * retained)) ] || {
    echo "scale_smoke: soak: folded $folded has not passed 10 x retained $retained" >&2
    exit 1
}
# The persistent heap is the live keys, not the writes served: by now the
# Puts are fed by the free list, and the machines keep per-line state for
# the 4 096 keys' entries, the in-flight window and the index lines.
[ "$bumped" -gt 0 ] && [ "$recycled" -ge $((5 * bumped)) ] || {
    echo "scale_smoke: soak: $recycled entry lines recycled has not passed 5 x $bumped bumped" >&2
    exit 1
}
[ "$tracked" -gt 0 ] && [ "$tracked" -lt $((3 * 4096)) ] || {
    echo "scale_smoke: soak: the machines track $tracked lines for 4096 keys" >&2
    exit 1
}
[ "$rss" -gt 0 ] && [ "$rss" -lt "$rss_ceiling" ] || {
    echo "scale_smoke: soak: resident $rss bytes is not under the $rss_ceiling-byte ceiling" >&2
    exit 1
}
wait "$loadpid"
kill -TERM "$pid"
wait_exit "soak phase" "$dir/pmkvd-soak.log"
grep -q "recovery invariants: OK" "$dir/pmkvd-soak.log" || {
    echo "scale_smoke: recovery verification did not pass after the soak" >&2
    exit 1
}
grep -q "flight recorder: .* consistency OK" "$dir/pmkvd-soak.log" || {
    echo "scale_smoke: flight recorder inconsistent with recovery report after the soak" >&2
    exit 1
}
grep -q "durable linearizability: OK" "$dir/pmkvd-soak.log" || {
    echo "scale_smoke: no durable-linearizability verdict after the soak" >&2
    exit 1
}

# Phase 2: crash mid-load, flight recorder + checker both armed. The two
# paced loaders send each shard a batch of about one request at a time,
# so its clock runs at 9-15k cycles a second: without a crash, shard
# clocks read 18 198-27 355 at the 2-second scrape and 53 149-72 961 when
# the loaders stop (three runs on a 2-vCPU host). Power is lost at cycle
# 40 000, after the scrape and before the loaders stop on every shard.
start_server "$dir/pmkvd.log" -shards 4 -crash-at 40000 -check \
    -flight-dump "$dir/flight.json"

"$dir/pmkvload" -addr "$addr" -window 1 -conns 4 -rate 200 -duration 5s &
pacedload=$!
"$dir/pmkvload" -addr "$addr" -window 32 -conns 4 -rate 200 -duration 5s -admin "$admin" &
loadpid=$!

# Mid-run: scrape the live exposition and assert it parses.
sleep 2
curl -fsS "http://$admin/metrics" >"$dir/metrics.txt" || {
    echo "scale_smoke: /metrics scrape failed" >&2
    exit 1
}
"$dir/promcheck" "$dir/metrics.txt"
grep -q '^pmkv_stage_duration_seconds_bucket' "$dir/metrics.txt" || {
    echo "scale_smoke: exposition has no stage histograms" >&2
    exit 1
}
# The machines' own counters are on the same scrape: stall cycles by
# cause, and — the default machine has PF on — epochs persisted proactively.
grep -q '^pmkv_stall_cycles_total{' "$dir/metrics.txt" || {
    echo "scale_smoke: exposition has no pmkv_stall_cycles_total" >&2
    exit 1
}
grep '^pmkv_epochs_persisted_by_cause_total{.*cause="proactive"}' "$dir/metrics.txt" |
    awk '{s+=$2} END {exit s>0?0:1}' || {
    echo "scale_smoke: no epoch persisted proactively on a PF machine" >&2
    exit 1
}
curl -fsS "http://$admin/statz" >"$dir/statz.json" || {
    echo "scale_smoke: /statz scrape failed" >&2
    exit 1
}
grep -q '"stages"' "$dir/statz.json" || {
    echo "scale_smoke: /statz has no stage breakdown" >&2
    exit 1
}

wait "$loadpid"
wait "$pacedload"

# The crash fires mid-load and the server drains itself; wait for exit.
wait_exit "crash phase" "$dir/pmkvd.log"
grep -q "crashed at cycle" "$dir/pmkvd.log" || {
    echo "scale_smoke: no shard reached its crash instant" >&2
    exit 1
}
grep -q "recovery invariants: OK" "$dir/pmkvd.log" || {
    echo "scale_smoke: recovery verification did not pass" >&2
    exit 1
}
grep -q "flight recorder: .* consistency OK" "$dir/pmkvd.log" || {
    echo "scale_smoke: flight recorder inconsistent with recovery report" >&2
    exit 1
}
grep -q "durable linearizability: OK" "$dir/pmkvd.log" || {
    echo "scale_smoke: no durable-linearizability verdict under crash" >&2
    exit 1
}
# The dump is a Chrome trace: one process per shard, each op a span with
# a nested span per pipeline segment.
python3 -m json.tool "$dir/flight.json" >"$dir/flight.pretty" || {
    echo "scale_smoke: flight-recorder dump missing or not JSON" >&2
    exit 1
}
for shard in 0 1 2 3; do
    grep -q "\"name\": \"shard $shard\"" "$dir/flight.pretty" || {
        echo "scale_smoke: flight-recorder dump names no process for shard $shard" >&2
        exit 1
    }
done
grep -q '"name": "durable_wait"' "$dir/flight.pretty" || {
    echo "scale_smoke: flight-recorder dump has no durable_wait span" >&2
    exit 1
}
cp "$dir/flight.json" "$artifact"
echo "scale_smoke: flight-recorder dump at $artifact"
echo "scale_smoke: OK"
