#!/bin/sh
# chaos-smoke: end-to-end resilience check, two stages. Run via
# `make chaos-smoke`.
#
# Stage 1 (formation): run the self-healing distributed formation as real
# OS processes over TCP, once fault-free and once under seeded chaos (5%
# drop, 5% dup, rank 2 crashed mid-formation). The chaos run must report
# the crash and the redistribution, and every surviving rank must land on
# the exact system hash of the fault-free run — bit-identical recovery.
#
# Stage 2 (serving): boot parmad with one worker and a deliberately tiny
# queue, warm the stale cache, then hammer it past saturation with a mix
# that includes a cold heavy geometry, whose solves hold the worker long
# enough for the queue to fill. Shed requests must carry Retry-After;
# saturated requests on warmed geometries must be served from the stale
# cache flagged degraded:true. SIGTERM must still drain cleanly.
set -eu

tmp=$(mktemp -d chaos-smoke.XXXXXX)
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parma-mpi" ./cmd/parma-mpi
go build -o "$tmp/parmad" ./cmd/parmad
go build -o "$tmp/parma-load" ./cmd/parma-load

# --- Stage 1: self-healing formation, bit-identical under chaos ---------

"$tmp/parma-mpi" -launch -ranks 4 -n 10 -resilient >"$tmp/clean.log" 2>&1 || {
	echo "chaos-smoke: fault-free resilient run failed"; cat "$tmp/clean.log"; exit 1; }
"$tmp/parma-mpi" -launch -ranks 4 -n 10 \
	-chaos "seed=7,drop=0.05,dup=0.05,crash=2@3" >"$tmp/chaos.log" 2>&1 || {
	echo "chaos-smoke: chaos run failed"; cat "$tmp/chaos.log"; exit 1; }

grep -q "crashed by fault injection" "$tmp/chaos.log" || {
	echo "chaos-smoke: scheduled crash never fired"; cat "$tmp/chaos.log"; exit 1; }
grep -q "dead ranks \[2\]" "$tmp/chaos.log" || {
	echo "chaos-smoke: coordinator never declared rank 2 dead"; cat "$tmp/chaos.log"; exit 1; }

clean_hash=$(grep -o 'system hash [0-9a-f]*' "$tmp/clean.log" | sort -u)
chaos_hash=$(grep -o 'system hash [0-9a-f]*' "$tmp/chaos.log" | sort -u)
[ "$(printf '%s\n' "$clean_hash" | wc -l)" = 1 ] || {
	echo "chaos-smoke: fault-free ranks disagree on the system hash"; cat "$tmp/clean.log"; exit 1; }
[ "$(printf '%s\n' "$chaos_hash" | wc -l)" = 1 ] || {
	echo "chaos-smoke: surviving ranks disagree on the system hash"; cat "$tmp/chaos.log"; exit 1; }
[ -n "$clean_hash" ] && [ "$clean_hash" = "$chaos_hash" ] || {
	echo "chaos-smoke: chaos run diverged: '$clean_hash' vs '$chaos_hash'"
	cat "$tmp/clean.log" "$tmp/chaos.log"; exit 1; }

echo "chaos-smoke: formation survived drop/dup/crash with $clean_hash"

# --- Stage 2: parmad saturation -> Retry-After sheds + degraded stale ---

"$tmp/parmad" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
	-workers 1 -queue-depth 2 \
	>"$tmp/parmad.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
	[ -s "$tmp/addr" ] && break
	sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "chaos-smoke: parmad never published its address"; cat "$tmp/parmad.log"; exit 1; }
addr=$(head -n 1 "$tmp/addr")

# Warm the 4x4 stale cache at a rate the tiny queue can absorb.
"$tmp/parma-load" -addr "$addr" -n 8 -qps 2 -geoms 4x4 || {
	echo "chaos-smoke: warm-up load failed"; cat "$tmp/parmad.log"; exit 1; }

# Hammer far past capacity: cold 48x48 solves keep the single worker busy,
# so warmed 4x4 traffic must degrade to stale answers and cold 48x48
# traffic must shed with Retry-After.
"$tmp/parma-load" -addr "$addr" -n 60 -qps 300 -geoms 4x4,48x48 \
	-expect-shed -expect-degraded || {
	echo "chaos-smoke: saturation load did not shed+degrade as required"; cat "$tmp/parmad.log"; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "chaos-smoke: parmad exited nonzero on SIGTERM"; cat "$tmp/parmad.log"; exit 1; }
daemon_pid=""
grep -q "drained cleanly" "$tmp/parmad.log" || {
	echo "chaos-smoke: no clean-drain line in the daemon log"; cat "$tmp/parmad.log"; exit 1; }

echo "chaos-smoke: parmad shed with Retry-After, served stale degraded answers, drained cleanly"
