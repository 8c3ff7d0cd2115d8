# Convenience targets for the reproduction repo. Everything is plain
# `go` tooling; the Makefile only fixes the invocations.

GO ?= go

.PHONY: build test test-times race vet bench-check bench-smoke fuzz-smoke characterize-smoke chaos-smoke corruption-smoke bench-middleware bus-stress sched-smoke search-smoke fleet-smoke journal-smoke map-smoke docs-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 timings, not a gate (timings are noisy): run the suite once
# with -json and record each package's elapsed time, the 20 slowest
# tests, the Go version and nproc in BENCH_tier1.json under
# TIMES_LABEL, keeping the other labels' records. The first command
# compiles every test binary without running a test, so the timed run
# does not compile packages while other packages' tests run.
TIMES_LABEL ?= change
test-times:
	$(GO) test -count=1 -run '^$$' ./... >/dev/null
	$(GO) test -count=1 -json ./... | $(GO) run ./cmd/testtimes -label $(TIMES_LABEL)

# Race-check the library packages, including the parallel experiment
# engine and the fleet's worker pool.
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
# payloads, the scenario-params line, the journal's frames, and the
# fleet's replay of journal entries (seed corpora are checked in under
# each package's testdata/fuzz), and over the NDT grid's lookups and
# euclidean clustering against their reference implementations (seeds
# in the tests). Go allows one -fuzz target per
# invocation, so each target gets its own ~10s run. Go minimizes each
# new interesting input for up to -fuzzminimizetime (60s by default)
# without counting it toward -fuzztime, so it is capped at 1s to leave
# the 10s to fuzzing.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBagDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzBagRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzRingPushPop -fuzztime=10s -fuzzminimizetime=1s ./internal/ros/
	$(GO) test -run=NONE -fuzz=FuzzGuardValidate -fuzztime=10s -fuzzminimizetime=1s ./internal/guard/
	$(GO) test -run=NONE -fuzz=FuzzScenarioParams -fuzztime=10s -fuzzminimizetime=1s ./internal/world/
	$(GO) test -run=NONE -fuzz=FuzzJournalDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/journal/
	$(GO) test -run=NONE -fuzz=FuzzFleetReplay -fuzztime=10s -fuzzminimizetime=1s ./internal/fleet/
	$(GO) test -run=NONE -fuzz=FuzzVoxelGridLookup -fuzztime=10s -fuzzminimizetime=1s ./internal/pointcloud/
	$(GO) test -run=NONE -fuzz=FuzzExtractMatchesReference -fuzztime=10s -fuzzminimizetime=1s ./internal/nodes/lidardet/

# Paper-table smoke: regenerate every table and figure, then the
# findings, at -workers 1 and -workers 2, and fail unless the two
# reports and their CSV exports are byte-identical and -duration 0
# exits non-zero. Then -exp findings, which simulates its three
# configurations across -workers, at -workers 1 and 2: both outputs
# must equal the lines under the full report's findings header. The
# verdicts are not asserted: at 8 s F2, F4 and F5 read DEVIATION.
characterize-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/characterize" ./cmd/characterize || exit 1; \
	for w in 1 2; do \
		"$$dir/characterize" -duration 8s -workers $$w -out "$$dir/w$$w.txt" -csv "$$dir/csv$$w" || exit 1; \
		"$$dir/characterize" -exp findings -duration 8s -workers $$w -out "$$dir/findings$$w.txt" || exit 1; \
	done; \
	grep -q '^=== Findings ===$$' "$$dir/w1.txt" || { echo "characterize-smoke: no findings section"; exit 1; }; \
	cmp "$$dir/w1.txt" "$$dir/w2.txt" || { echo "characterize-smoke: reports differ between -workers 1 and 2"; exit 1; }; \
	diff -r "$$dir/csv1" "$$dir/csv2" || { echo "characterize-smoke: CSV exports differ between -workers 1 and 2"; exit 1; }; \
	sed '1,/^=== Findings ===$$/d' "$$dir/w1.txt" >"$$dir/findings_all.txt"; \
	[ -s "$$dir/findings_all.txt" ] || { echo "characterize-smoke: empty findings section"; exit 1; }; \
	for w in 1 2; do \
		cmp "$$dir/findings$$w.txt" "$$dir/findings_all.txt" || { echo "characterize-smoke: -exp findings at -workers $$w differs from the full report's findings"; exit 1; }; \
	done; \
	if "$$dir/characterize" -duration 0 -out /dev/null; then echo "characterize-smoke: -duration 0 exited 0"; exit 1; fi; \
	echo "characterize-smoke ok"

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
	$(GO) test -run=NONE -bench='BenchmarkCluster|BenchmarkExtractDrive' -benchmem -benchtime=10x ./internal/nodes/lidardet/
	$(GO) test -run=NONE -bench='BenchmarkCastRay' -benchmem -benchtime=1000x ./internal/world/
	$(GO) test -run=NONE -bench='BenchmarkLiDARScan' -benchmem -benchtime=10x ./internal/sensor/
	$(GO) test -run=NONE -bench='BenchmarkTrackerStep' -benchmem -benchtime=100x ./internal/nodes/tracking/
	$(GO) test -run=NONE -bench='BenchmarkDirect7' -benchmem -benchtime=1000x ./internal/hdmap/
	$(GO) test -run=NONE -bench='BenchmarkNDTAlign' -benchmem -benchtime=10x ./internal/nodes/localization/
	$(GO) test -run=NONE -bench='BenchmarkConv2D|BenchmarkDetectorInfer' -benchmem -benchtime=10x ./internal/dnn/
	$(GO) test -run=NONE -bench='BenchmarkVisionProcess' -benchmem -benchtime=10x ./internal/nodes/visiondet/
	$(GO) test -run=NONE -bench='BenchmarkBusPublishFanout|BenchmarkQueuePush|BenchmarkRingSteadyState' -benchmem -benchtime=10x ./internal/ros/

# Middleware perf trajectory: measure the transport benches against the
# committed pre-rewrite baselines, print them and write the record to a
# temporary file, so a run never rewrites the committed
# BENCH_middleware.json. A deliberate refresh of the committed record
# runs:
#   go run ./cmd/benchmw -out BENCH_middleware.json
bench-middleware:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/benchmw -out "$$dir/middleware.json"

# Scheduler tail-latency closure: run the auto-tuner against the
# contention scenario (characterize exits non-zero if the elected
# schedule's p99 is worse than the no-scheduler baseline) and fail
# unless its JSON search record, which holds virtual-time values only,
# is byte-identical to the committed BENCH_sched.json; then the
# regression pair — the pinned tuned schedule must beat plain
# contention's p99, and the scheduled trace must be bit-exact across
# two independent runs. A deliberate re-pin rewrites the committed
# record with:
#   go run ./cmd/characterize -exp tune -duration 12s -seed 1 -bench BENCH_sched.json -out /dev/null
sched-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/characterize -exp tune -duration 12s -seed 1 -bench "$$dir/sched.json" -out /dev/null || exit 1; \
	cmp "$$dir/sched.json" BENCH_sched.json || { echo "sched-smoke: search record differs from BENCH_sched.json"; exit 1; }
	$(GO) test -count=1 -run='TestContentionTunedImprovesP99|TestChainLogCleanLegByteIdentical|TestSchedRepeatable' ./internal/scenario/
	$(GO) test -count=1 ./internal/sched/

# Adversarial latency search smoke: re-run the committed search
# (characterize exits non-zero if the elected worst case undercuts the
# baseline) and fail unless its JSON record, which holds virtual-time
# values only, is byte-identical to BENCH_search.json; then run a tiny
# seeded search twice over the compact space and demand byte-identical
# records — the reproducibility contract behind every pinned gen-*
# scenario — plus the search/world/faults codec and generator test
# suites. A deliberate re-pin rewrites the committed record with:
#   go run ./cmd/characterize -exp search -duration 12s -seed 1 -budget 12 -space default -detector SSD300 -bench BENCH_search.json -out /dev/null
search-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/characterize" ./cmd/characterize || exit 1; \
	"$$dir/characterize" -exp search -duration 12s -seed 1 -budget 12 -space default -detector SSD300 -bench "$$dir/search.json" -out /dev/null || exit 1; \
	cmp "$$dir/search.json" BENCH_search.json || { echo "search-smoke: search record differs from BENCH_search.json"; exit 1; }; \
	for r in a b; do \
		"$$dir/characterize" -exp search -duration 7s -seed 3 -budget 3 -space compact -bench "$$dir/search_$$r.json" -out /dev/null || exit 1; \
	done; \
	cmp "$$dir/search_a.json" "$$dir/search_b.json" || { echo "search-smoke: compact search records differ between two runs"; exit 1; }
	$(GO) test -count=1 -short ./internal/search/
	$(GO) test -count=1 ./internal/world/ ./internal/faults/

# Fleet service smoke: the avfleet self-test drives a real loopback
# instance over HTTP — healthy jobs plus a byte-identical cache hit, a
# crash-then-recover retry, a crash-always dead letter, a past-deadline
# job, and queue saturation answered with an explicit 429 — and exits
# non-zero if any contract breaks or the service crashes. Then the
# package's chaos-isolation and retry-determinism tests (unaffected
# tenants byte-identical to solo runs with crashing/stalling
# neighbours) and its execution-bound test (Workers goroutines run
# jobs: at most Workers runner calls overlap, a job keeps its worker
# through its backoff, and Close waits for running jobs and leaves no
# goroutine behind).
fleet-smoke:
	$(GO) run ./cmd/avfleet -smoke
	$(GO) test -count=1 -run='TestFleetIsolationUnderChaos|TestFleetRetryDeterminism|TestFleetWorkersBound' ./internal/fleet/

# Durability smoke: the avfleet kill -9 self-test — spawn a journaled
# child, load it, SIGKILL it mid-flight, restart it on the same journal,
# and verify completed reports survived byte-identically, every admitted
# job is accounted for, queued work resumes and the pinned stall jobs
# dead-letter deterministically. Then the package's in-process crash
# recovery, torn-tail salvage, replay-matches-live and fair-share
# starvation tests, and the journal's tests, its fault sweep included.
journal-smoke:
	$(GO) run ./cmd/avfleet -journal-smoke
	$(GO) test -count=1 -run='TestFleetJournal|TestFairShareStarvation' ./internal/fleet/
	$(GO) test -count=1 ./internal/journal/

# Map-builder smoke: build the scripted world's HD map with the default
# scan spacing (hdmap.DefaultConfig, the map every run builds) into a
# temporary directory, then inspect the file. Fails unless both commands
# exit 0 and info reports the point count the build printed and 100%
# route coverage: every route probe's 3x3x3 voxel neighborhood holds a
# usable NDT voxel (hdmap.Map.Coverage).
map-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/mapbuilder" ./cmd/mapbuilder || exit 1; \
	"$$dir/mapbuilder" build -out "$$dir/city.avmap" >"$$dir/build.txt"; st=$$?; cat "$$dir/build.txt"; \
	[ $$st -eq 0 ] || exit 1; \
	"$$dir/mapbuilder" info -map "$$dir/city.avmap" >"$$dir/info.txt"; st=$$?; cat "$$dir/info.txt"; \
	[ $$st -eq 0 ] || exit 1; \
	pts=$$(sed -n 's/.* scans, \([0-9][0-9]*\) map points.*/\1/p' "$$dir/build.txt"); \
	if [ -z "$$pts" ] || ! grep -q "^  map points  *$$pts\$$" "$$dir/info.txt"; then \
		echo "map-smoke: info does not report the built point count ($$pts)"; exit 1; \
	fi; \
	grep -q '^  route coverage 100%$$' "$$dir/info.txt" || { echo "map-smoke: route coverage below 100%"; exit 1; }; \
	echo "map-smoke ok: $$pts map points, 100% route coverage"

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

# Transport stress: race-run the executor's frame-accounting table
# (FIFO and EDF dispatch under no verdict, deadline shed, crash-drop and
# stall — every queue must drain and every frame be accounted for),
# then the queue-burst chaos scenario end to end.
bus-stress:
	$(GO) test -race -count=1 -run='TestExecutorAccountsEveryFrame' ./internal/platform/
	$(GO) run ./cmd/characterize -faults queue-burst -duration 12s -out /dev/null
