#!/bin/sh
# chaos-smoke: end-to-end degradation check of the serving layer. Run via
# `make chaos-smoke`.
#
# Boot parmad with one worker and a deliberately tiny queue, warm the stale
# cache, then hammer it past saturation with a mix that includes a cold
# heavy geometry, whose solves hold the worker long enough for the queue to
# fill. Shed requests must carry Retry-After; saturated requests on warmed
# geometries must be served from the stale cache flagged degraded:true.
# SIGTERM must still drain cleanly.
set -eu

tmp=$(mktemp -d chaos-smoke.XXXXXX)
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parmad" ./cmd/parmad
go build -o "$tmp/parma-load" ./cmd/parma-load

# --- parmad saturation -> Retry-After sheds + degraded stale -----------

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
