#!/bin/sh
# trace-smoke: end-to-end distributed tracing, in both deployment shapes.
#
# Daemon leg: boot parmad with tracing, drive a traced mixed load through
# parma-load (which asserts every response carries a trace_id and a
# latency breakdown whose stages sum to its total), drain, and require
# that the daemon's Chrome trace contains one connected span tree per
# request reaching from the HTTP handler through the queue to the solver.
#
# Multi-process leg: run parma-mpi -launch with per-rank trace files, merge
# them with parma tracemerge, and require the merged timeline to form one
# connected tree rooted at rank 0's job span — cross-process parenting over
# real TCP, not just in-process channels. Run via `make trace-smoke`.
set -eu

tmp=$(mktemp -d trace-smoke.XXXXXX)
daemon_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parmad" ./cmd/parmad
go build -o "$tmp/parma-load" ./cmd/parma-load
go build -o "$tmp/parma" ./cmd/parma
go build -o "$tmp/parma-mpi" ./cmd/parma-mpi

# --- Daemon leg -----------------------------------------------------------

"$tmp/parmad" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
	-log-format json \
	-trace "$tmp/serve-trace.json" \
	>"$tmp/parmad.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 50); do
	[ -s "$tmp/addr" ] && break
	sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "trace-smoke: parmad never published its address"; cat "$tmp/parmad.log"; exit 1; }
addr=$(head -n 1 "$tmp/addr")

# Traced mixed load: every OK response must carry a trace_id and a stage
# breakdown summing to its total; /metrics must expose the RED series and
# stage histograms.
"$tmp/parma-load" -addr "$addr" -n 40 -qps 100 -geoms 4x4,5x5 \
	-check-timings -check-traces -check-metrics

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "trace-smoke: parmad exited nonzero on SIGTERM"; cat "$tmp/parmad.log"; exit 1; }
daemon_pid=""
grep -q "drained cleanly" "$tmp/parmad.log" || {
	echo "trace-smoke: no clean-drain line in the daemon log"; cat "$tmp/parmad.log"; exit 1; }

# Every traced request must form one connected tree; at least one must
# reach handler -> queue -> solver inside a single tree.
"$tmp/parma" tracecheck -distributed \
	-require serve/http/recover -require serve/queue -require serve/recover \
	-require solver/recover \
	"$tmp/serve-trace.json"

# --- Multi-process leg ----------------------------------------------------

"$tmp/parma-mpi" -launch -ranks 3 -n 8 -trace-dir "$tmp/ranks" >"$tmp/mpi.log" 2>&1 || {
	echo "trace-smoke: parma-mpi launch failed"; cat "$tmp/mpi.log"; exit 1; }
"$tmp/parma" tracemerge -o "$tmp/mpi-trace.json" \
	"$tmp/ranks/rank0.json" "$tmp/ranks/rank1.json" "$tmp/ranks/rank2.json"
"$tmp/parma" tracecheck -distributed \
	-require mpi/job -require mpi/formation -require mpi/allreduce \
	"$tmp/mpi-trace.json"

echo "trace-smoke: connected span trees across serve and solver in the daemon, and across MPI ranks in the multi-process job"
