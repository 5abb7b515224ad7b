#!/bin/sh
# fleet-smoke: the sharded-fleet claims, end to end. Boot three parmad
# workers behind parma-router with the geometry-affinity policy and
# assert, in order:
#
#   1. Affinity pins each geometry to its ring owner (parma-load
#      -expect-affinity over the X-Parma-Backend labels).
#   2. SIGKILL one worker mid-load: zero availability loss beyond
#      shed-with-Retry-After responses, failovers counted on /metrics,
#      the dead worker ejected by the health prober, and its keys
#      re-homed to their ring successors (the worker that owned nothing
#      before the kill starts answering, the dead one never does).
#   3. The router preserves distributed tracing: merged router + worker
#      traces form connected router -> worker -> solver span trees.
#   4. On fresh fleets, affinity strictly beats round-robin on cache hit
#      rate — the reason the policy exists.
#   5. Membership churn self-heals: a backend added through the
#      authenticated /admin/backends API takes traffic, a drain-removal
#      completes with its keys warm-handed to ring successors, and the
#      first re-homed request is already a warm-start cache hit
#      (-expect-prewarm-hit) — all with zero non-shed failures while a
#      load run is in flight, including a SIGKILL at the end.
#
# The geometry set 6x6..11x11 is chosen deterministically: with backends
# named w0,w1,w2 the ring assigns 7x7 and 10x10 to w0, the rest to w2,
# and nothing to w1 — so killing w0 makes w1's first response the
# re-homing witness. Run via `make fleet-smoke`.
set -eu

tmp=$(mktemp -d fleet-smoke.XXXXXX)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/parmad" ./cmd/parmad
go build -o "$tmp/parma-router" ./cmd/parma-router
go build -o "$tmp/parma-load" ./cmd/parma-load
go build -o "$tmp/parma" ./cmd/parma

GEOMS="6x6,7x7,8x8,9x9,10x10,11x11"

# wait_addr <file> <what>: wait for a daemon to publish its bound address.
wait_addr() {
	for _ in $(seq 1 50); do
		[ -s "$1" ] && break
		sleep 0.1
	done
	[ -s "$1" ] || { echo "fleet-smoke: $2 never published its address"; exit 1; }
	head -n 1 "$1"
}

# start_worker <name> [extra flags...]: boot one parmad on a random port.
start_worker() {
	name=$1; shift
	"$tmp/parmad" -addr 127.0.0.1:0 -addr-file "$tmp/$name.addr" -log-format json \
		"$@" >"$tmp/$name.log" 2>&1 &
	eval "${name}_pid=$!"
	pids="$pids $!"
}

# --- Phase 1+2+3: affinity, failover under SIGKILL, tracing ---------------

start_worker w0 -trace "$tmp/w0-trace.json"
start_worker w1 -trace "$tmp/w1-trace.json"
start_worker w2 -trace "$tmp/w2-trace.json"
a0=$(wait_addr "$tmp/w0.addr" w0)
a1=$(wait_addr "$tmp/w1.addr" w1)
a2=$(wait_addr "$tmp/w2.addr" w2)

"$tmp/parma-router" -addr 127.0.0.1:0 -addr-file "$tmp/router.addr" \
	-policy affinity -backend "w0=$a0,w1=$a1,w2=$a2" \
	-probe-every 50ms -suspect-after 300ms -breaker-threshold 3 \
	-trace "$tmp/router-trace.json" -log-format json \
	>"$tmp/router.log" 2>&1 &
router_pid=$!
pids="$pids $router_pid"
router=$(wait_addr "$tmp/router.addr" parma-router)

# Healthy fleet: every request OK and every geometry pinned to one worker.
"$tmp/parma-load" -target "$router" -n 120 -qps 200 -geoms "$GEOMS" \
	-expect-affinity >"$tmp/load1.out"
grep "w0:" "$tmp/load1.out" >/dev/null || {
	echo "fleet-smoke: w0 served nothing before the kill"; cat "$tmp/load1.out"; exit 1; }

# SIGKILL w0 mid-load. Every request must still succeed (failover replays
# the buffered body on the ring successor) or be shed with Retry-After —
# -allow-shed treats only those as acceptable, anything else fails the run.
"$tmp/parma-load" -target "$router" -n 200 -qps 300 -geoms "$GEOMS" \
	-allow-shed >"$tmp/load2.out" &
load_pid=$!
sleep 0.2
kill -9 "$w0_pid"
wait "$load_pid" || { echo "fleet-smoke: availability lost during worker kill"; cat "$tmp/load2.out"; exit 1; }

# The router must have failed over (counted on /metrics) and the prober
# must have ejected the dead worker.
metrics=$(curl -sf "http://$router/metrics")
echo "$metrics" | awk '$1 == "parma_fleet_failover_total" && $2+0 >= 1 {found=1} END {exit !found}' || {
	echo "fleet-smoke: no failovers counted after SIGKILL"; echo "$metrics" | grep ^parma_fleet || true; exit 1; }
echo "$metrics" | awk '$1 == "parma_fleet_ejected_total" && $2+0 >= 1 {found=1} END {exit !found}' || {
	echo "fleet-smoke: dead worker never ejected"; exit 1; }

# Keys re-home to ring successors: w0's geometries (7x7, 10x10) now land
# on w1, which owned nothing before; w0 never answers again; and the
# shrunken fleet still satisfies the affinity pinning contract.
"$tmp/parma-load" -target "$router" -n 120 -qps 200 -geoms "$GEOMS" \
	-expect-affinity >"$tmp/load3.out"
grep "backends:" "$tmp/load3.out" | grep -q "w1:" || {
	echo "fleet-smoke: orphaned keys did not re-home to the ring successor"; cat "$tmp/load3.out"; exit 1; }
grep "backends:" "$tmp/load3.out" | grep -q "w0:" && {
	echo "fleet-smoke: ejected worker still receiving traffic"; cat "$tmp/load3.out"; exit 1; }

# Graceful shutdown, then the tracing claim: merged router + surviving
# worker traces must form connected span trees that reach from the
# router's HTTP handler through its proxy attempt into the worker's
# handler and down to the solver.
kill -TERM "$router_pid"
wait "$router_pid" || { echo "fleet-smoke: router exited nonzero on SIGTERM"; cat "$tmp/router.log"; exit 1; }
kill -TERM "$w1_pid" "$w2_pid"
wait "$w1_pid" || { echo "fleet-smoke: w1 exited nonzero on SIGTERM"; cat "$tmp/w1.log"; exit 1; }
wait "$w2_pid" || { echo "fleet-smoke: w2 exited nonzero on SIGTERM"; cat "$tmp/w2.log"; exit 1; }
pids=""

"$tmp/parma" tracemerge -o "$tmp/fleet-trace.json" \
	"$tmp/router-trace.json" "$tmp/w1-trace.json" "$tmp/w2-trace.json"
"$tmp/parma" tracecheck -distributed \
	-require fleet/http/recover -require fleet/proxy \
	-require serve/http/recover -require serve/recover -require solver/recover \
	"$tmp/fleet-trace.json"

# --- Phase 4: affinity strictly beats round-robin on cache hit rate -------
# Fresh workers per policy: caches must start cold both times.

run_policy() {
	policy=$1 tag=$2
	inherited=$pids
	start_worker "${tag}0"
	start_worker "${tag}1"
	start_worker "${tag}2"
	b0=$(wait_addr "$tmp/${tag}0.addr" "${tag}0")
	b1=$(wait_addr "$tmp/${tag}1.addr" "${tag}1")
	b2=$(wait_addr "$tmp/${tag}2.addr" "${tag}2")
	"$tmp/parma-router" -addr 127.0.0.1:0 -addr-file "$tmp/${tag}router.addr" \
		-policy "$policy" -backend "w0=$b0,w1=$b1,w2=$b2" \
		>"$tmp/${tag}router.log" 2>&1 &
	rpid=$!
	pids="$pids $rpid"
	raddr=$(wait_addr "$tmp/${tag}router.addr" "${tag}router")
	# Moderate rate: concurrent first-misses for one geometry blur the
	# policy difference, so keep enough spacing that repeat traffic
	# dominates.
	"$tmp/parma-load" -target "$raddr" -n 240 -qps 150 -geoms "$GEOMS" \
		>"$tmp/$tag.out"
	# Callers run this inside $(...): additions to $pids die with the
	# subshell, so stop this policy's fleet here, not in cleanup.
	for p in ${pids#"$inherited"}; do kill "$p" 2>/dev/null || true; done
	awk '/^cache:/ {split($2, a, "/"); print a[1]}' "$tmp/$tag.out"
}

rr_hits=$(run_policy roundrobin rr)
aff_hits=$(run_policy affinity aff)
[ "$aff_hits" -gt "$rr_hits" ] || {
	echo "fleet-smoke: affinity hit count $aff_hits not strictly above round-robin $rr_hits"
	cat "$tmp/rr.out" "$tmp/aff.out"; exit 1; }

# --- Phase 5: membership churn with coordinated drain and warm handoff ----
# Three workers c0,c1,c2; under load, c3 joins through the admin API and
# c0 is drain-removed. Ring arithmetic (the rule TestMovesMatchRouting-
# Delta checks) moves 8x8 and 10x10 to c3 on the join and 6x6 on the
# removal — all warm-handed, so the first post-churn request per geometry
# must be a warm-start cache hit. Then SIGKILL c1 to prove the churned
# fleet still fails over losslessly.

ADMIN_TOKEN=churn-smoke-secret

start_worker c0
start_worker c1
start_worker c2
ca0=$(wait_addr "$tmp/c0.addr" c0)
ca1=$(wait_addr "$tmp/c1.addr" c1)
ca2=$(wait_addr "$tmp/c2.addr" c2)

"$tmp/parma-router" -addr 127.0.0.1:0 -addr-file "$tmp/crouter.addr" \
	-policy affinity -backend "c0=$ca0,c1=$ca1,c2=$ca2" \
	-probe-every 50ms -suspect-after 300ms -breaker-threshold 3 \
	-admin-token "$ADMIN_TOKEN" -drain-timeout 5s -log-format json \
	>"$tmp/crouter.log" 2>&1 &
crouter_pid=$!
pids="$pids $crouter_pid"
crouter=$(wait_addr "$tmp/crouter.addr" crouter)

# The admin API must refuse unauthenticated callers.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$crouter/admin/backends")
[ "$code" = "401" ] || {
	echo "fleet-smoke: unauthenticated admin request answered $code, want 401"; exit 1; }

# Warm every geometry so the departing owners have warm state to hand off.
"$tmp/parma-load" -target "$crouter" -n 120 -qps 200 -geoms "$GEOMS" \
	-measure-frac 0 >"$tmp/churn-warm.out"

# Churn under fire: membership changes land mid-load and nothing beyond
# shed-with-Retry-After may fail.
"$tmp/parma-load" -target "$crouter" -n 300 -qps 200 -geoms "$GEOMS" \
	-measure-frac 0 -allow-shed >"$tmp/churn-load.out" &
churn_load_pid=$!

sleep 0.3
start_worker c3
ca3=$(wait_addr "$tmp/c3.addr" c3)
add_resp=$(curl -sf -X POST -H "X-Parma-Admin-Token: $ADMIN_TOKEN" \
	-H "Content-Type: application/json" -d "{\"name\":\"c3\",\"url\":\"$ca3\"}" \
	"http://$crouter/admin/backends") || {
	echo "fleet-smoke: admin add of c3 failed"; cat "$tmp/crouter.log"; exit 1; }
echo "$add_resp" | grep -q '"c3"' || {
	echo "fleet-smoke: add response does not list the joiner: $add_resp"; exit 1; }

sleep 0.3
rm_resp=$(curl -sf -X DELETE -H "X-Parma-Admin-Token: $ADMIN_TOKEN" \
	"http://$crouter/admin/backends/c0") || {
	echo "fleet-smoke: coordinated removal of c0 failed"; cat "$tmp/crouter.log"; exit 1; }
echo "$rm_resp" | grep -q '"drained":true' || {
	echo "fleet-smoke: removal did not report a completed drain: $rm_resp"; exit 1; }

wait "$churn_load_pid" || {
	echo "fleet-smoke: availability lost during membership churn"; cat "$tmp/churn-load.out"; exit 1; }

# Warm handoff proof, BEFORE any kill (a corpse's warm state is
# unrecoverable): the first request per geometry — including the keys the
# churn just re-homed to c3 — must be a warm-start cache hit. The admin
# calls above return only after the new owners stored the warm starts.
"$tmp/parma-load" -target "$crouter" -n 60 -qps 200 -geoms "$GEOMS" \
	-measure-frac 0 -expect-prewarm-hit >"$tmp/churn-prewarm.out" || {
	echo "fleet-smoke: re-homed keys were not prewarmed"; cat "$tmp/churn-prewarm.out"; exit 1; }
grep "backends:" "$tmp/churn-prewarm.out" | grep -q "c3:" || {
	echo "fleet-smoke: joiner c3 serving nothing after churn"; cat "$tmp/churn-prewarm.out"; exit 1; }
grep "backends:" "$tmp/churn-prewarm.out" | grep -q "c0:" && {
	echo "fleet-smoke: removed member c0 still receiving traffic"; cat "$tmp/churn-prewarm.out"; exit 1; }

cmetrics=$(curl -sf "http://$crouter/metrics")
echo "$cmetrics" | awk '$1 == "parma_fleet_membership_changes_total" && $2+0 >= 2 {found=1} END {exit !found}' || {
	echo "fleet-smoke: membership changes not counted"; echo "$cmetrics" | grep ^parma_fleet || true; exit 1; }
echo "$cmetrics" | awk '$1 == "parma_fleet_prewarm_keys_total" && $2+0 >= 1 {found=1} END {exit !found}' || {
	echo "fleet-smoke: no warm-handoff keys counted"; echo "$cmetrics" | grep ^parma_fleet || true; exit 1; }

# The churned fleet still heals around a SIGKILL.
"$tmp/parma-load" -target "$crouter" -n 200 -qps 300 -geoms "$GEOMS" \
	-measure-frac 0 -allow-shed >"$tmp/churn-kill.out" &
churn_kill_pid=$!
sleep 0.2
kill -9 "$c1_pid"
wait "$churn_kill_pid" || {
	echo "fleet-smoke: availability lost on SIGKILL after churn"; cat "$tmp/churn-kill.out"; exit 1; }

kill -TERM "$crouter_pid" "$c0_pid" "$c2_pid" "$c3_pid" 2>/dev/null || true

echo "fleet-smoke: affinity pinned, SIGKILL failover lossless, keys re-homed, traces connected, affinity $aff_hits vs round-robin $rr_hits cache hits, churn drained+prewarmed"
