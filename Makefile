# Common development tasks for the Parma repository.

GO ?= go

.PHONY: all build test race lint bench bench-build vet parmavet vet-fixtures fmt figures examples obs-smoke serve-smoke chaos-smoke trace-smoke fleet-smoke fuzz-smoke clean

all: lint test race build bench-build obs-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint fails on vet findings, parmavet findings, a //parmavet:allow without
# a justification, or files gofmt would rewrite.
lint: vet parmavet
	$(GO) run ./cmd/parmavet -allows ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-build compiles and tests the repo benchmark. benchmark/ is its own
# module importing internal/, so the root `go build ./...` never sees it and
# a removed exported name would otherwise break it silently.
bench-build:
	cd benchmark && $(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

# parmavet runs the project-specific analyzers (span lifetimes, dropped MPI
# errors, float equality, locks across blocking calls, determinism, context
# propagation, atomic/plain mixes). See docs/static-analysis.md.
parmavet:
	$(GO) run ./cmd/parmavet ./...

# vet-fixtures proves the suite still bites: parmavet over every fixture
# package must exit 1 (findings present). The glob picks up new fixture
# directories automatically — no hand-maintained list to forget to extend.
vet-fixtures:
	@dirs=$$(find ./cmd/parmavet/testdata/src -mindepth 1 -maxdepth 1 -type d | sort); \
	[ -n "$$dirs" ] || { echo "no fixture directories under cmd/parmavet/testdata/src"; exit 1; }; \
	$(GO) run ./cmd/parmavet $$dirs; code=$$?; \
	if [ "$$code" -ne 1 ]; then \
		echo "parmavet exited $$code on fixtures, want 1 (the suite has gone blind)"; exit 1; \
	fi; \
	echo "vet-fixtures: suite still flags every fixture package"

fmt:
	gofmt -w .

# obs-smoke runs a traced end-to-end solve and validates the Chrome trace
# and metrics artifacts it produces.
obs-smoke:
	@rm -rf obs-smoke.tmp && mkdir obs-smoke.tmp
	$(GO) run ./cmd/parma gen -rows 8 -cols 8 -seed 3 \
		-r obs-smoke.tmp/r.txt -z obs-smoke.tmp/z.txt
	$(GO) run ./cmd/parma solve -z obs-smoke.tmp/z.txt -o obs-smoke.tmp/rec.txt \
		-trace obs-smoke.tmp/trace.json -metrics obs-smoke.tmp/metrics.txt
	$(GO) run ./cmd/parma tracecheck obs-smoke.tmp/trace.json
	@grep -q "parma_mpi_rank0_bytes_sent" obs-smoke.tmp/metrics.txt || \
		{ echo "metrics dump is missing per-rank byte counters"; exit 1; }
	@rm -rf obs-smoke.tmp
	@echo "obs-smoke: trace and metrics artifacts check out"

# serve-smoke boots parmad on a random port, fires a 200-request
# mixed-geometry load through parma-load (asserting zero failures, >50%
# cache hits, and the serving metrics), then requires a clean SIGTERM
# drain. See docs/serving.md.
serve-smoke:
	sh scripts/serve-smoke.sh

# trace-smoke proves distributed tracing end to end in both deployment
# shapes: a traced parmad load whose responses carry trace ids and latency
# breakdowns and whose Chrome trace forms connected per-request span trees
# from the HTTP handler down to the MPI ranks, then a multi-process
# parma-mpi run whose per-rank traces merge into one connected job tree.
# See docs/observability.md.
trace-smoke:
	sh scripts/trace-smoke.sh

# fleet-smoke boots three parmad workers behind parma-router and proves
# the sharding claims: geometry-affinity pinning, lossless failover when
# a worker is SIGKILLed mid-load (keys re-home to their ring successors),
# connected router->worker->solver span trees, and a strictly better
# cache hit rate under affinity than round-robin. See docs/fleet.md.
fleet-smoke:
	sh scripts/fleet-smoke.sh

# chaos-smoke drives the resilience stack end to end: self-healing
# formation as real TCP processes under seeded faults (bit-identical to
# the fault-free run), then parmad past saturation (Retry-After sheds +
# degraded stale-cache answers). See docs/robustness.md.
chaos-smoke:
	sh scripts/chaos-smoke.sh

# fuzz-smoke gives the randomized-input surfaces a short beating: the
# trace-JSON validator and the MPI inbox under concurrent send/recv/close.
# Go allows one -fuzz pattern per invocation, hence two runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzValidateTrace -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzInbox -fuzztime 10s ./internal/mpi

# Regenerate every paper figure plus the extension studies.
figures:
	$(GO) run ./cmd/parma-bench -figure all
	$(GO) run ./cmd/parma-bench -figure hetero
	$(GO) run ./cmd/parma-bench -figure noise
	$(GO) run ./cmd/parma-bench -figure inverse

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/woundmonitor
	$(GO) run ./examples/scalability -n 12 -workers 1,2,4
	$(GO) run ./examples/homology
	$(GO) run ./examples/vlsi
	$(GO) run ./examples/stokes
	$(GO) run ./examples/faultscan
	$(GO) run ./examples/estimator
	$(GO) run ./examples/morphology

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
