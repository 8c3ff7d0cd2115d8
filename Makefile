# Convenience targets for the reproduction repo. Everything is plain
# `go` tooling; the Makefile only fixes the invocations.

GO ?= go

.PHONY: build test race vet bench-check bench-smoke fuzz-smoke chaos-smoke corruption-smoke bench-middleware bus-stress sched-smoke search-smoke fleet-smoke journal-smoke docs-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the library packages, including the parallel experiment
# engine and the intra-frame shard loops.
race:
	$(GO) test -race -timeout 15m ./internal/...

vet:
	$(GO) vet ./...

# Vet and test the benchmark. cmd/bench is a nested module, so the
# root build, vet and test never compile it; without this target a
# change to an export it uses would break only the benchmark.
bench-check:
	cd cmd/bench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test -count=1 ./...

# Short fuzzing pass over the repo's codecs: rosbag, ring, guard
# payloads, and the scenario-params line (seed corpora are checked in
# under each package's testdata/fuzz). Go allows one -fuzz target per
# invocation, so each target gets its own ~10s run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBagDecode -fuzztime=10s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzBagRoundTrip -fuzztime=10s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzRingPushPop -fuzztime=10s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzGuardValidate -fuzztime=10s ./internal/guard/
	$(GO) test -run=NONE -fuzz=FuzzScenarioParams -fuzztime=10s ./internal/world/
	$(GO) test -run=NONE -fuzz=FuzzJournalDecode -fuzztime=10s ./internal/journal/

# Run every built-in chaos scenario end to end (baseline + faulted
# stack each) and throw the reports away — a crash in any injection,
# supervision or shedding path fails the target.
CHAOS_SCENARIOS = contention camera-stall lidar-drop sensor-jitter queue-burst crash-recover overload-shed contention-tuned
chaos-smoke:
	@for s in $(CHAOS_SCENARIOS); do \
		echo "==> $$s"; \
		$(GO) run ./cmd/characterize -faults $$s -duration 12s -out /dev/null || exit 1; \
	done

# Run the adversarial-input scenarios end to end with the integrity
# guard attached — a panic anywhere in validation, time sanitization or
# quarantine accounting fails the target — then prove the guard does no
# harm on clean input (byte-identical guarded vs unguarded run) and
# that its accept path stays allocation-free.
CORRUPTION_SCENARIOS = corrupt-lidar clock-skew dup-storm
corruption-smoke:
	@for s in $(CORRUPTION_SCENARIOS); do \
		echo "==> $$s"; \
		$(GO) run ./cmd/characterize -faults $$s -duration 12s -out /dev/null || exit 1; \
	done
	$(GO) test -run='TestGuardCleanRunByteIdentical' ./internal/scenario/
	$(GO) test -run='TestGuardAcceptPathZeroAlloc' ./internal/guard/

# Quick allocation/latency smoke over the hot-path micro-benches.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkVoxelGrid|BenchmarkKDTreeBuild|BenchmarkKDTreeRadius' -benchmem -benchtime=10x ./internal/pointcloud/
	$(GO) test -run=NONE -bench='BenchmarkCluster' -benchmem -benchtime=10x ./internal/nodes/lidardet/
	$(GO) test -run=NONE -bench='BenchmarkCastRay' -benchmem -benchtime=1000x ./internal/world/
	$(GO) test -run=NONE -bench='BenchmarkLiDARScan' -benchmem -benchtime=10x ./internal/sensor/
	$(GO) test -run=NONE -bench='BenchmarkTrackerStep' -benchmem -benchtime=100x ./internal/nodes/tracking/
	$(GO) test -run=NONE -bench='BenchmarkDirect7' -benchmem -benchtime=1000x ./internal/hdmap/
	$(GO) test -run=NONE -bench='BenchmarkConv2D|BenchmarkDetectorInfer' -benchmem -benchtime=10x ./internal/dnn/
	$(GO) test -run=NONE -bench='BenchmarkVisionProcess' -benchmem -benchtime=10x ./internal/nodes/visiondet/
	$(GO) test -run=NONE -bench='BenchmarkBusPublishFanout|BenchmarkQueuePush|BenchmarkRingSteadyState' -benchmem -benchtime=10x ./internal/ros/

# Middleware perf trajectory: measure the transport benches against the
# committed pre-rewrite baselines and refresh BENCH_middleware.json.
bench-middleware:
	$(GO) run ./cmd/benchmw -out BENCH_middleware.json

# Scheduler tail-latency closure: run the auto-tuner against the
# contention scenario (characterize exits non-zero if the elected
# schedule's p99 is worse than the no-scheduler baseline), then the
# regression pair — the pinned tuned schedule must beat plain
# contention's p99, and the scheduled trace must be bit-exact across
# worker counts. The JSON search record lands in BENCH_sched.json.
sched-smoke:
	$(GO) run ./cmd/characterize -exp tune -duration 12s -seed 1 -bench BENCH_sched.json -out /dev/null
	$(GO) test -count=1 -run='TestContentionTunedImprovesP99|TestSchedWorkerInvariance' ./internal/scenario/
	$(GO) test -count=1 ./internal/sched/

# Adversarial latency search smoke: run a tiny seeded search twice over
# the compact space (characterize exits non-zero if the elected worst
# case undercuts the baseline) and demand byte-identical JSON reports —
# the reproducibility contract behind every pinned gen-* scenario —
# plus the search/world/faults codec and generator test suites.
search-smoke:
	$(GO) run ./cmd/characterize -exp search -duration 7s -seed 3 -budget 3 -space compact -bench /tmp/search_a.json -out /dev/null
	$(GO) run ./cmd/characterize -exp search -duration 7s -seed 3 -budget 3 -space compact -bench /tmp/search_b.json -out /dev/null
	cmp /tmp/search_a.json /tmp/search_b.json
	$(GO) test -count=1 -short ./internal/search/
	$(GO) test -count=1 ./internal/world/ ./internal/faults/

# Fleet service smoke: the avfleet self-test drives a real loopback
# instance over HTTP — healthy jobs plus a byte-identical cache hit, a
# crash-then-recover retry, a crash-always dead letter, a past-deadline
# job, and queue saturation answered with an explicit 429 — and exits
# non-zero if any contract breaks or the service crashes. Then the
# package's chaos-isolation and retry-determinism tests (unaffected
# tenants byte-identical to solo runs with crashing/stalling neighbours).
fleet-smoke:
	$(GO) run ./cmd/avfleet -smoke
	$(GO) test -count=1 -run='TestFleetIsolationUnderChaos|TestFleetRetryDeterminism' ./internal/fleet/

# Durability smoke: the avfleet kill -9 self-test — spawn a journaled
# child, load it, SIGKILL it mid-flight, restart it on the same journal,
# and verify completed reports survived byte-identically, every admitted
# job is accounted for, queued work resumes and the pinned stall jobs
# dead-letter deterministically. Then the package's in-process crash
# recovery, torn-tail salvage and fair-share starvation tests.
journal-smoke:
	$(GO) run ./cmd/avfleet -journal-smoke
	$(GO) test -count=1 -run='TestFleetJournal|TestFairShareStarvation' ./internal/fleet/
	$(GO) test -count=1 ./internal/journal/

# Docs hygiene: formatting, vet, and a package comment on every
# internal package (godoc's first requirement for a readable map).
docs-lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt -l flagged:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	@missing=""; \
	for d in $$(find internal -type d ! -path '*testdata*'); do \
		ls $$d/*.go >/dev/null 2>&1 || continue; \
		grep -ls '^// Package ' $$d/*.go >/dev/null || missing="$$missing $$d"; \
	done; \
	if [ -n "$$missing" ]; then echo "missing package comment in:$$missing"; exit 1; fi
	@echo "docs-lint clean"

# Transport stress: race-run the executor's reference-accounting table
# (FIFO and EDF dispatch under no verdict, deadline shed, crash-drop and
# stall — the pool must drain to zero and every frame be accounted for),
# then the queue-burst chaos scenario end to end.
bus-stress:
	$(GO) test -race -count=1 -run='TestExecutorPoolDrainsToZero' ./internal/platform/
	$(GO) run ./cmd/characterize -faults queue-burst -duration 12s -out /dev/null
