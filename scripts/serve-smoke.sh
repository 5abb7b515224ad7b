#!/bin/sh
# serve-smoke: boot parmad on a random port, drive a mixed-geometry load
# through parma-load, assert every request succeeds with a healthy cache
# hit rate and the serving metrics exposed, then shut the daemon down
# gracefully and require a clean drain. Run via `make serve-smoke`.
set -eu

tmp=$(mktemp -d serve-smoke.XXXXXX)
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parmad" ./cmd/parmad
go build -o "$tmp/parma-load" ./cmd/parma-load

"$tmp/parmad" -addr 127.0.0.1:0 -addr-file "$tmp/addr" >"$tmp/parmad.log" 2>&1 &
daemon_pid=$!

# Wait for the daemon to publish its bound address.
for _ in $(seq 1 50); do
	[ -s "$tmp/addr" ] && break
	sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "serve-smoke: parmad never published its address"; cat "$tmp/parmad.log"; exit 1; }
addr=$(head -n 1 "$tmp/addr")

# 200 mixed requests; the run itself asserts zero failures, a >50% cache
# hit rate, and the queue-depth, stage-latency and RED series on /metrics.
"$tmp/parma-load" -addr "$addr" -n 200 -qps 150 -geoms 4x4,5x5,6x6 \
	-min-cache-hit-rate 0.5 -check-metrics

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "serve-smoke: parmad exited nonzero on SIGTERM"; cat "$tmp/parmad.log"; exit 1; }
daemon_pid=""
grep -q "drained cleanly" "$tmp/parmad.log" || {
	echo "serve-smoke: no clean-drain line in the daemon log"; cat "$tmp/parmad.log"; exit 1; }

echo "serve-smoke: 200 requests served, cache and metrics healthy, clean drain"
