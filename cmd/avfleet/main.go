// Command avfleet serves vehicle simulations as a fleet: a long-running
// HTTP service that accepts jobs keyed by (scenario, seed, world
// params, config), runs each as an isolated virtual-time vehicle on one
// of -workers worker goroutines, and aggregates per-tenant results.
//
// Usage:
//
//	avfleet [-addr :8373] [-workers N] [-queue 64] [-detector SSD300]
//	        [-duration 8s] [-retries 2] [-retry-base 50ms] [-retry-seed 1]
//	        [-attempt-timeout 0] [-cache 256] [-chaos]
//	        [-journal DIR] [-snapshot-every 512]
//	        [-tenant-rate 0] [-tenant-burst 8] [-tenant-limit name=rate:burst:weight]...
//	        [-smoke] [-journal-smoke]
//
// Endpoints:
//
//	POST /jobs            submit a job; ?wait=1 blocks for the result
//	GET  /jobs            list jobs; ?state=queued|running|done|failed|shed|dead
//	GET  /jobs/{id}       job record
//	GET  /jobs/{id}/report  final side-by-side report
//	POST /tenants/{tenant}/limit  install a tenant rate/burst/weight contract
//	GET  /fleetz          ladder state, queue, per-tenant p50/p99,
//	                      retries/sheds/rejections, limits, journal
//	                      stats, dead letters
//	GET  /healthz         liveness
//
// Admission is per-tenant fair share: each tenant queues on its own,
// and dispatch serves tenants in weighted round-robin, each tenant's
// jobs in priority order.
//
// Overload is explicit, never silent. As the admission queue fills, the
// ladder first sheds — best-effort (priority 0) jobs are evicted and
// refused with 429 — then drains, refusing everything with 503 until the
// backlog clears; with the default water marks it answers before the
// queue is full, so the full queue's own 429 is only a backstop. A
// tenant past its rate limit gets a 429 with a Retry-After hint.
// Identical job keys are served from the result cache byte-identically.
//
// -journal DIR makes the fleet durable: every job transition is an entry
// in a CRC-framed write-ahead log, admissions and terminal transitions
// fsynced before they are acknowledged, and the service's state is
// those entries applied in order. A restarted avfleet pointed at the
// same directory replays the log into the same records — completed
// reports byte-identical, interrupted jobs re-queued with their retry
// schedules intact. If a journal write fails, the journal stops and new
// work is answered with 503 until a restart. The directory's file
// system must accept fsync on directories (snapshots are installed by
// rename); where it does not, avfleet refuses to start. A directory
// written before snapshots became entry lists is refused. -snapshot-every
// bounds the log via periodic snapshot compaction.
//
// -chaos enables per-job fault injection (crash/stall attempts) for
// harness use; leave it off in real deployments. -smoke starts the
// service on a loopback port, drives the full robustness surface over
// real HTTP — healthy jobs, a cache hit, a crash-then-recover retry, a
// crash-always dead letter, a past-deadline job, queue saturation —
// and exits non-zero if any contract is violated. -journal-smoke runs
// the kill -9 restart-recovery self-test: it spawns a journaled child
// avfleet, loads it, SIGKILLs it mid-flight, restarts it against the
// same journal, and verifies nothing admitted was lost and completed
// reports survived byte-identically.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/autoware"
	"repro/internal/fleet"
)

// tenantLimitFlags collects repeated -tenant-limit name=rate:burst:weight
// values (burst and weight optional).
type tenantLimitFlags map[string]fleet.TenantLimit

func (f tenantLimitFlags) String() string { return fmt.Sprintf("%d limits", len(f)) }

func (f tenantLimitFlags) Set(v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=rate[:burst[:weight]], got %q", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return fmt.Errorf("want name=rate[:burst[:weight]], got %q", v)
	}
	var limit fleet.TenantLimit
	var err error
	if limit.Rate, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return fmt.Errorf("rate in %q: %v", v, err)
	}
	if len(parts) > 1 {
		if limit.Burst, err = strconv.Atoi(parts[1]); err != nil {
			return fmt.Errorf("burst in %q: %v", v, err)
		}
	}
	if len(parts) > 2 {
		if limit.Weight, err = strconv.Atoi(parts[2]); err != nil {
			return fmt.Errorf("weight in %q: %v", v, err)
		}
	}
	f[name] = limit
	return nil
}

func main() {
	addr := flag.String("addr", ":8373", "listen address")
	workers := flag.Int("workers", 0, "max concurrently simulating vehicles (0 = NumCPU)")
	queue := flag.Int("queue", 64, "admission queue depth (the ladder sheds at 3/4 and drains at 0.95 of it)")
	detector := flag.String("detector", string(autoware.DetectorSSD300), "vision detector (SSD300, SSD512, YOLOv3-416)")
	duration := flag.Duration("duration", 8*time.Second, "default virtual drive length per job")
	retries := flag.Int("retries", 2, "retry budget for transient (crash/timeout) failures")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first backoff delay (doubles per retry, seeded jitter)")
	retrySeed := flag.Uint64("retry-seed", 1, "seed for the deterministic backoff jitter")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "wall-clock bound per attempt (0 = job deadline only)")
	cache := flag.Int("cache", 256, "result cache entries (negative disables)")
	chaos := flag.Bool("chaos", false, "allow per-job chaos injection (crash/stall attempts)")
	journalDir := flag.String("journal", "", "write-ahead log directory for crash-safe restarts, on a file system that supports directory fsync (empty = in-memory only)")
	snapshotEvery := flag.Int("snapshot-every", 512, "WAL entries between snapshot compactions (negative disables)")
	tenantRate := flag.Float64("tenant-rate", 0, "default per-tenant admission rate in jobs/sec (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 8, "default per-tenant token-bucket burst")
	limits := tenantLimitFlags{}
	flag.Var(limits, "tenant-limit", "per-tenant limit name=rate[:burst[:weight]] (repeatable)")
	smoke := flag.Bool("smoke", false, "run the self-test against a loopback instance and exit")
	journalSmoke := flag.Bool("journal-smoke", false, "run the kill -9 restart-recovery self-test and exit")
	flag.Parse()

	cfg := fleet.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Detector:       autoware.Detector(*detector),
		Duration:       *duration,
		RetryBudget:    *retries,
		RetryBase:      *retryBase,
		RetrySeed:      *retrySeed,
		AttemptTimeout: *attemptTimeout,
		CacheSize:      *cache,
		AllowChaos:     *chaos,
		Journal:        *journalDir,
		SnapshotEvery:  *snapshotEvery,
		TenantRate:     *tenantRate,
		TenantBurst:    *tenantBurst,
		Limits:         limits,
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "avfleet smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("avfleet smoke: ok")
		return
	}
	if *journalSmoke {
		if err := runJournalSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "avfleet journal-smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("avfleet journal-smoke: ok")
		return
	}

	svc, err := fleet.New(cfg)
	if err != nil {
		log.Fatalf("avfleet: %v", err)
	}
	defer svc.Close()
	if cfg.Journal != "" {
		log.Printf("avfleet: journal %s (snapshot every %d entries)", cfg.Journal, cfg.SnapshotEvery)
	}
	log.Printf("avfleet: serving on %s (workers=%d queue=%d detector=%s)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.Detector)
	log.Fatal(http.ListenAndServe(*addr, fleet.Handler(svc)))
}
