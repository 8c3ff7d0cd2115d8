// Package fleet is the simulation-as-a-service layer: a long-running
// service that accepts vehicle simulation jobs keyed by (scenario,
// seed, world params, config), runs each as an isolated vehicle on one
// of Config.Workers worker goroutines, and aggregates per-tenant and
// fleet-wide results. Where the guard/supervise/sched layers harden one
// vehicle against its own faults, this layer protects vehicles from
// *each other* — robustness is the headline, not throughput:
//
//   - Admission is a bounded priority queue, and overload is answered
//     explicitly, never by unbounded buffering: the degradation ladder
//     (below) refuses best-effort work with 429s and then everything
//     with 503s before the queue fills, and a full queue
//     (ErrFleetSaturated, a 429) is the backstop behind it.
//   - Per-job wall-clock deadlines propagate as context cancellation
//     into the run (autoware.Stack.RunContext), so an expired job stops
//     simulating within a slice of wall clock instead of leaking until
//     drive end.
//   - Transient failures — a crashed (panicking) or timed-out attempt —
//     retry under a seeded exponential-backoff schedule with a bounded
//     budget; exhaustion lands the job in the dead-letter record, never
//     in a crash loop.
//   - Panic isolation rides parallel.Tasks' capture contract: one
//     corrupt scenario costs exactly its own job (a *parallel.PanicError
//     in the job record), never the service.
//   - A load-aware degradation ladder (nominal → shed low-priority →
//     drain-and-reject) driven by queue depth and per-family
//     virtual-time drift keeps the service answering under overload.
//   - Results are cached by job key, and determinism is preserved: the
//     same job key yields a byte-identical report whether run solo,
//     under contention, or after a retry — every vehicle is its own
//     virtual-time simulation, so host scheduling cannot leak in.
//   - With Config.Journal set, every job state transition is an entry
//     in a CRC32C-framed write-ahead log (internal/journal), written
//     before it is applied and fsynced before it is acknowledged; the
//     service's durable state is those entries applied in order, so a
//     crashed service restarts into the same records, queue, retry
//     schedules, result cache, and dead-letter ledger — completed
//     reports byte-identical, in-flight jobs re-run deterministically.
//   - Admission is per-tenant fair share: token-bucket rate limits at
//     the door and deficit-round-robin dispatch behind it, so one
//     tenant's burst cannot starve another.
//
// The HTTP surface (Handler, cmd/avfleet) exposes submission, per-job
// status/report endpoints, and the /fleetz aggregate.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/scenario"
)

// Admission and job errors.
var (
	// ErrFleetSaturated rejects a submission when the admission queue is
	// full — the 429-style backpressure signal.
	ErrFleetSaturated = errors.New("fleet: saturated (admission queue full)")
	// ErrFleetShedding rejects a low-priority submission while the
	// degradation ladder is in the shedding state.
	ErrFleetShedding = errors.New("fleet: shedding low-priority load")
	// ErrFleetDraining rejects every submission while the ladder is in
	// the draining state (in-flight jobs still finish).
	ErrFleetDraining = errors.New("fleet: draining (rejecting all new jobs)")
	// ErrFleetClosed rejects submissions after Close.
	ErrFleetClosed = errors.New("fleet: service closed")
	// ErrJobShed marks a queued job evicted by the shedding ladder.
	ErrJobShed = errors.New("fleet: job shed under overload")
	// ErrRetriesExhausted wraps the last transient error once the retry
	// budget is spent; such jobs land in the dead-letter record.
	ErrRetriesExhausted = errors.New("fleet: retry budget exhausted")
	// ErrBadJob marks a submission that fails validation.
	ErrBadJob = errors.New("fleet: invalid job")
	// ErrTenantThrottled rejects a submission that exceeded its tenant's
	// token-bucket rate limit; the concrete error is a *ThrottleError
	// carrying the retry-after hint.
	ErrTenantThrottled = errors.New("fleet: tenant rate limit exceeded")
	// ErrJournal refuses a submission or limit change whose entry could
	// not be journaled. The journal stops at its first failed write, so
	// every later one is refused too, until the service restarts on the
	// same directory.
	ErrJournal = errors.New("fleet: journal unavailable")
)

// Chaos is test-only attempt perturbation, reusing the fault-kind
// vocabulary of internal/faults at the fleet layer: KindCrash panics
// inside the attempt (captured as a *parallel.PanicError),
// KindStall blocks the attempt until its context expires. It models
// infrastructure failures — the vehicle's own faults belong in the
// scenario's fault schedule. Ignored unless Config.AllowChaos.
type Chaos struct {
	Kind faults.Kind `json:"kind"`
	// Attempts is how many leading attempts are perturbed; a job whose
	// chaos covers fewer attempts than the retry budget therefore
	// recovers — the deterministic "transient crash" fixture.
	Attempts int `json:"attempts"`
}

// Job is one vehicle simulation request.
type Job struct {
	// Tenant is the isolation and aggregation unit. Empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority orders admission (higher first) and shedding (lowest
	// evicted first). Priority 0 is the best-effort class: it is
	// rejected, and evicted from the queue, while the ladder sheds.
	Priority int `json:"priority,omitempty"`
	// Scenario names a registry scenario (builtin or pinned gen-*
	// search winner). Exactly one of Scenario and Params must be set.
	Scenario string `json:"scenario,omitempty"`
	// Params is a canonical world-params line (world.MarshalParams /
	// the adversarial search's discovered worlds): the job drives the
	// hardened stack fault-free through that generated world.
	Params string `json:"params,omitempty"`
	// Seed overrides the scenario's fault seed (0 keeps the spec's).
	Seed uint64 `json:"seed,omitempty"`
	// Duration is the virtual drive length (0 uses Config.Duration).
	Duration time.Duration `json:"duration,omitempty"`
	// Deadline is the job's wall-clock budget measured from admission;
	// 0 means none. An expired deadline cancels in-flight simulation.
	Deadline time.Duration `json:"deadline,omitempty"`
	// Chaos perturbs attempts for fault-injection tests (see Chaos).
	Chaos *Chaos `json:"chaos,omitempty"`
}

// Key returns the job's canonical cache key: every input that changes
// the simulation — scenario, world params, seed, duration, detector —
// and nothing that does not (tenant, priority, deadline, chaos). Two
// submissions with equal keys produce byte-identical reports, which is
// what makes the result cache sound.
func (j Job) key(det autoware.Detector, duration time.Duration) string {
	return fmt.Sprintf("scenario=%s|params=%s|seed=%d|duration=%s|detector=%s",
		j.Scenario, j.Params, j.Seed, duration, det)
}

// JobState is a job record's lifecycle state.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	StateShed    JobState = "shed"
)

// Attempt is one recorded execution attempt.
type Attempt struct {
	// Outcome is "ok", "crash" (captured panic), "timeout" (context
	// expiry), or "error".
	Outcome string `json:"outcome"`
	// WallMS is the attempt's wall-clock cost in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Err is the attempt's error text, empty on success.
	Err string `json:"err,omitempty"`
}

// Record is a job's full service-side record. Snapshots returned by
// the service are copies; mutation happens only under the service lock.
type Record struct {
	ID       int64     `json:"id"`
	Job      Job       `json:"job"`
	Key      string    `json:"key"`
	State    JobState  `json:"state"`
	Tenant   string    `json:"tenant"`
	Attempts []Attempt `json:"attempts,omitempty"`
	// Backoff is the seeded retry schedule planned at admission — a
	// pure function of (retry seed, job key), so identical jobs retry
	// identically.
	Backoff []time.Duration `json:"backoff,omitempty"`
	// Retries is how many backoff delays were actually consumed.
	Retries int `json:"retries"`
	// CacheHit marks a job served from the result cache without
	// re-simulation.
	CacheHit bool `json:"cache_hit"`
	// DeadLetter marks a job that exhausted its retry budget.
	DeadLetter bool   `json:"dead_letter"`
	Err        string `json:"err,omitempty"`
	// E2EP99 is the run's worst-path p99 in milliseconds (faulted leg).
	E2EP99 float64 `json:"e2e_p99_ms"`
	// WallMS is the job's total wall-clock service time in ms.
	WallMS float64 `json:"wall_ms"`
	// Resumed marks a job reconstructed from the journal after a
	// restart: it was admitted by a previous process incarnation.
	Resumed bool `json:"resumed,omitempty"`

	report []byte
	// hash is the report's content hash, as journaled with it.
	hash     string
	enqueued time.Time
	done     chan struct{}
	// resumeFrom is the attempt index execution continues at — zero for
	// fresh jobs, the replayed retry count for journal-recovered ones,
	// so the seeded backoff schedule resumes exactly where it stopped.
	resumeFrom int
}

// Report returns the job's final report bytes (nil until done).
func (r *Record) Report() []byte { return r.report }

// Config parameterizes a Service.
type Config struct {
	// Workers is how many worker goroutines run jobs, and so the bound
	// on concurrently simulating vehicles (default
	// parallel.MaxWorkers()).
	Workers int
	// QueueDepth bounds the admission queue (default 64). The ladder's
	// water marks are fractions of it; a full queue rejects with
	// ErrFleetSaturated, which the default marks never reach.
	QueueDepth int
	// Detector is the vision configuration vehicles run with (default
	// SSD300, the cheapest).
	Detector autoware.Detector
	// Duration is the default virtual drive length for jobs that do not
	// set one (default 8s, enough for every builtin horizon under 8s).
	Duration time.Duration
	// RetryBudget is the number of retries after the first attempt
	// (default 2).
	RetryBudget int
	// RetryBase is the first backoff delay; delay k doubles it k times,
	// with ±25% seeded jitter (default 50ms).
	RetryBase time.Duration
	// RetrySeed drives the backoff jitter (default 1). The schedule is
	// a pure function of (RetrySeed, job key).
	RetrySeed uint64
	// AttemptTimeout bounds each attempt's wall clock (0 = only the
	// job deadline bounds it). A timed-out attempt is transient and
	// retries; an expired job deadline is final.
	AttemptTimeout time.Duration
	// CacheSize bounds the result cache (default 256 entries; 0 keeps
	// the default, negative disables caching).
	CacheSize int
	// ShedHighWater is the queue occupancy (0..1) entering the shedding
	// state (default 0.75); DrainHighWater the occupancy entering
	// draining (default 0.95); LowWater the occupancy returning to
	// nominal (default 0.25, hysteresis).
	ShedHighWater  float64
	DrainHighWater float64
	LowWater       float64
	// AllowChaos enables Job.Chaos (tests and the smoke harness only).
	AllowChaos bool
	// Journal is the write-ahead log directory. Empty disables
	// durability: the service is the in-memory PR-8 fleet. Set, every
	// admission and terminal transition is fsynced to the log before it
	// is acknowledged, and New replays any existing log so a restarted
	// service resumes its queue, cache, and dead-letter ledger.
	Journal string
	// SnapshotEvery bounds the WAL: after this many appended entries the
	// service folds its full state into an atomic snapshot and truncates
	// the log (default 512; negative disables compaction).
	SnapshotEvery int
	// TenantRate is the default per-tenant admission rate in jobs/second
	// (0 = unlimited); TenantBurst the default bucket capacity (default
	// 8). Per-tenant overrides live in Limits / SetTenantLimit.
	TenantRate  float64
	TenantBurst int
	// Limits seeds per-tenant admission contracts at startup; limits set
	// later via SetTenantLimit are journaled and survive restarts.
	Limits map[string]TenantLimit
	// Resolve maps a scenario name to its spec (default
	// scenario.ByName; tests substitute tiny fixtures).
	Resolve func(string) (scenario.Spec, error)
	// Runner executes one resolved job attempt (default the shared
	// environment-caching scenario runner; tests substitute fakes).
	Runner Runner
}

func (c *Config) fill() {
	if c.Workers < 1 {
		c.Workers = parallel.MaxWorkers()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.Detector == "" {
		c.Detector = autoware.DetectorSSD300
	}
	if c.Duration <= 0 {
		c.Duration = 8 * time.Second
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	} else if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.ShedHighWater <= 0 {
		c.ShedHighWater = 0.75
	}
	if c.DrainHighWater <= 0 {
		c.DrainHighWater = 0.95
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.25
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 512
	}
	if c.TenantBurst < 1 {
		c.TenantBurst = 8
	}
	if c.Resolve == nil {
		c.Resolve = scenario.ByName
	}
	if c.Runner == nil {
		c.Runner = defaultRunner()
	}
}

// LadderState is the degradation ladder's position.
type LadderState string

// Ladder states, in degradation order.
const (
	LadderNominal  LadderState = "nominal"
	LadderShedding LadderState = "shedding"
	LadderDraining LadderState = "draining"
)

const (
	// driftFactor scales a family's virtual-time baseline into the drift
	// threshold that trips shedding.
	driftFactor = 2
	// shedPriority is the admission floor while shedding: submissions
	// with Priority below it are rejected, queued jobs below it are
	// evicted.
	shedPriority = 1
	// deadLetterCap bounds the /fleetz dead-letter ledger.
	deadLetterCap = 128
)

// Service is the fleet server. Create with New, stop with Close.
type Service struct {
	cfg Config

	mu    sync.Mutex
	cond  *sync.Cond
	queue *admitQueue
	// Durable state: what applyLocked builds from journal entries.
	// Beside it, Submit counts door tallies live, a worker marks records
	// running and recovery marks them resumed.
	records    map[int64]*Record
	nextID     int64
	limits     map[string]TenantLimit
	limitRevs  map[string]int64
	doors      map[string]*doorTally
	baselines  map[string]*baseline
	cache      map[string]cacheEntry
	cacheOrder []string
	// Live-only state.
	state    LadderState
	buckets  map[string]*bucket
	inFlight int
	closed   bool
	// panics counts attempts that ended in a captured panic.
	panics atomic.Int64

	// Durability state (nil/zero without Config.Journal).
	jl              *journal.Log
	walSinceCompact int
	jlErrs          int64
	recovered       RecoveredStats

	// now is the admission clock, injectable so token-bucket tests are
	// deterministic.
	now func() time.Time

	// wg tracks the worker goroutines.
	wg sync.WaitGroup
}

type cacheEntry struct {
	report []byte
	hash   string
	e2e    float64
}

// New starts a fleet service and its Config.Workers worker goroutines.
// With Config.Journal set it first opens (or creates) the write-ahead
// log, replays any prior state — salvaging a torn tail the way
// BagReader does — and requeues interrupted jobs, which the workers
// take before new ones.
func New(cfg Config) (*Service, error) {
	cfg.fill()
	s := &Service{
		cfg:       cfg,
		records:   make(map[int64]*Record),
		state:     LadderNominal,
		limits:    make(map[string]TenantLimit),
		limitRevs: make(map[string]int64),
		doors:     make(map[string]*doorTally),
		buckets:   make(map[string]*bucket),
		baselines: make(map[string]*baseline),
		cache:     make(map[string]cacheEntry),
		now:       time.Now,
	}
	for name, l := range cfg.Limits {
		s.limits[name] = l
	}
	s.queue = newAdmitQueue(func(tenant string) int {
		return s.limitFor(tenant).Weight
	})
	s.cond = sync.NewCond(&s.mu)
	if cfg.Journal != "" {
		if err := s.recover(cfg.Journal); err != nil {
			return nil, err
		}
	}
	s.wg.Add(cfg.Workers)
	for range cfg.Workers {
		go s.work()
	}
	return s, nil
}

// limitFor resolves a tenant's effective admission contract: the
// journaled/per-tenant override when present, the service defaults
// otherwise, with burst and weight floored at sane minimums.
func (s *Service) limitFor(tenant string) TenantLimit {
	l, ok := s.limits[tenant]
	if !ok {
		l = TenantLimit{Rate: s.cfg.TenantRate, Burst: s.cfg.TenantBurst}
	}
	if l.Burst < 1 {
		l.Burst = s.cfg.TenantBurst
	}
	if l.Weight < 1 {
		l.Weight = 1
	}
	return l
}

// SetTenantLimit installs a tenant's admission contract at runtime,
// resets its token bucket so the new rate takes effect immediately,
// and journals the change (fsynced) so it survives restarts.
func (s *Service) SetTenantLimit(tenant string, limit TenantLimit) error {
	if tenant == "" {
		tenant = "default"
	}
	if limit.Rate < 0 || limit.Burst < 0 || limit.Weight < 0 {
		return fmt.Errorf("%w: negative rate, burst, or weight", ErrBadJob)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrFleetClosed
	}
	e := walEntry{Op: opLimit, Tenant: tenant, Limit: &limit, Rev: s.limitRevs[tenant] + 1}
	if err := s.logLocked(e, true); err != nil {
		return err
	}
	s.applyLocked(e)
	delete(s.buckets, tenant)
	return nil
}

// Close stops admission and waits for the workers to finish their
// running jobs and return. Without a journal, whatever is still queued
// is failed explicitly; with one, queued jobs stay journaled and resume
// when a new service opens the same log.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.jl == nil {
		for _, rec := range s.queue.drain() {
			s.commitLocked(endEntry(rec, opFail, nil, fmt.Errorf("%w: queued at shutdown", ErrFleetClosed)), true)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	if s.jl != nil {
		// Fold the final state into a snapshot so the next open replays
		// from a compact image, then release the log.
		s.compactLocked()
		s.jl.Close()
		s.jl = nil
	}
	s.mu.Unlock()
}

// doorLocked returns (creating) a tenant's door tally. Callers hold
// s.mu.
func (s *Service) doorLocked(tenant string) *doorTally {
	d := s.doors[tenant]
	if d == nil {
		d = &doorTally{}
		s.doors[tenant] = d
	}
	return d
}

// Submit validates and admits a job. The returned record is a live
// handle: use Wait (or the record's ID with Get) to observe completion.
// Rejections are explicit errors — ErrFleetShedding for best-effort
// load while shedding, ErrFleetDraining while draining, ErrFleetSaturated
// on a full queue, *ThrottleError past the tenant's rate limit — and
// are counted in the tenant's door tally. On a journaled service the
// admission is fsynced to the WAL before it is applied and Submit
// returns: an acknowledged job is never silently lost to a crash, and
// one that could not be journaled is refused with ErrJournal.
func (s *Service) Submit(job Job) (*Record, error) {
	if job.Tenant == "" {
		job.Tenant = "default"
	}
	if err := validate(job, s.cfg.AllowChaos); err != nil {
		return nil, err
	}
	if job.Duration <= 0 {
		job.Duration = s.cfg.Duration
	}
	key := job.key(s.cfg.Detector, job.Duration)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrFleetClosed
	}

	// Degradation ladder, before the cache: a draining service answers
	// nothing new, a shedding one only its protected classes.
	switch s.state {
	case LadderDraining:
		s.doorLocked(job.Tenant).Rejected++
		return nil, ErrFleetDraining
	case LadderShedding:
		if job.Priority < shedPriority {
			d := s.doorLocked(job.Tenant)
			d.Rejected++
			d.Shed++
			return nil, ErrFleetShedding
		}
	}

	now := time.Now()
	e := walEntry{Op: opAdmit, Key: key, Tenant: job.Tenant, Job: &job, Enq: now.UnixNano()}
	if ent, ok := s.cache[key]; ok {
		// Cache hit: served without re-simulation, no queue slot and no
		// rate-limit token consumed. The admit entry carries the report,
		// so it alone rebuilds the record.
		e.CacheHit = true
		e.Report = ent.report
		e.Hash = ent.hash
		e.E2E = ent.e2e
	} else {
		// Queue-depth check before the token bucket: a saturated
		// rejection must not also burn one of the tenant's tokens.
		if s.queue.Len() >= s.cfg.QueueDepth {
			s.doorLocked(job.Tenant).Rejected++
			s.reladderLocked()
			return nil, ErrFleetSaturated
		}
		if limit := s.limitFor(job.Tenant); limit.Rate > 0 {
			b := s.buckets[job.Tenant]
			if b == nil {
				b = &bucket{}
				s.buckets[job.Tenant] = b
			}
			if wait, ok := b.take(s.now(), limit.Rate, limit.Burst); !ok {
				d := s.doorLocked(job.Tenant)
				d.Rejected++
				d.Throttled++
				return nil, &ThrottleError{Tenant: job.Tenant, RetryAfter: wait}
			}
		}
	}

	e.ID = s.nextID + 1
	if err := s.logLocked(e, true); err != nil {
		// The ID is used up all the same: the frame may have reached
		// disk, and a later job must not share its ID.
		s.nextID = e.ID
		return nil, err
	}
	s.applyLocked(e)
	rec := s.records[e.ID]
	// The same instant, with its monotonic reading, so the deadline and
	// wall times of a live job do not move with the wall clock.
	rec.enqueued = now
	if !rec.CacheHit {
		s.queue.push(rec)
		s.reladderLocked()
		s.cond.Signal()
	}
	return rec, nil
}

// validate rejects structurally bad jobs at admission; scenario
// resolution failures surface later as job failures (so a bad pin in
// the registry degrades to per-job errors, not a dead service).
func validate(job Job, allowChaos bool) error {
	if (job.Scenario == "") == (job.Params == "") {
		return fmt.Errorf("%w: exactly one of scenario and params must be set", ErrBadJob)
	}
	if job.Duration < 0 || job.Deadline < 0 {
		return fmt.Errorf("%w: negative duration or deadline", ErrBadJob)
	}
	if job.Chaos != nil {
		if !allowChaos {
			return fmt.Errorf("%w: chaos injection disabled on this service", ErrBadJob)
		}
		switch job.Chaos.Kind {
		case faults.KindCrash, faults.KindStall:
		default:
			return fmt.Errorf("%w: unsupported chaos kind %q (have crash, stall)", ErrBadJob, job.Chaos.Kind)
		}
	}
	return nil
}

// Get returns a snapshot of a job record.
func (s *Service) Get(id int64) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.records[id]
	if !ok {
		return Record{}, false
	}
	return snapshotLocked(rec), true
}

// snapshotLocked copies the fields a reader may hold after the lock is
// released.
func snapshotLocked(rec *Record) Record {
	cp := *rec
	cp.Attempts = append([]Attempt(nil), rec.Attempts...)
	cp.Backoff = append([]time.Duration(nil), rec.Backoff...)
	cp.done = nil
	return cp
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its final snapshot.
func (s *Service) Wait(ctx context.Context, id int64) (Record, error) {
	s.mu.Lock()
	rec, ok := s.records[id]
	s.mu.Unlock()
	if !ok {
		return Record{}, fmt.Errorf("fleet: unknown job %d", id)
	}
	select {
	case <-rec.done:
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return snapshotLocked(rec), nil
}

// work is one of the Config.Workers goroutines that run jobs, the
// fleet's one execution bound. It takes the next admitted job in
// fair-share deficit-round-robin order and runs it to a terminal state
// before taking another, holding the job through its backoff sleeps, so
// retries never add concurrency.
func (s *Service) work() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queue.Len() == 0 {
			s.cond.Wait()
		}
		if s.closed {
			// A journaled service leaves its queue in the log for the
			// next incarnation; a plain one already drained it in Close.
			s.mu.Unlock()
			return
		}
		rec := s.queue.pop()
		rec.State = StateRunning
		s.inFlight++
		s.reladderLocked()
		s.mu.Unlock()
		s.execute(rec)
	}
}

// execute runs one job to a terminal state on the calling worker:
// transient failures retried on the planned backoff schedule, the
// deadline enforced as context cancellation throughout.
func (s *Service) execute(rec *Record) {
	ctx := context.Background()
	cancel := func() {}
	if rec.Job.Deadline > 0 {
		ctx, cancel = context.WithDeadline(ctx, rec.enqueued.Add(rec.Job.Deadline))
	}
	defer cancel()

	for attempt := rec.resumeFrom; ; attempt++ {
		start := time.Now()
		res, err := s.attempt(ctx, rec, attempt)
		a := Attempt{WallMS: float64(time.Since(start)) / 1e6}
		if err == nil {
			a.Outcome = "ok"
		} else {
			a.Err = err.Error()
			a.Outcome = classify(err)
		}

		switch {
		case err == nil:
			s.finish(walEntry{
				Op: opDone, ID: rec.ID, Try: &a, Report: res.Report, Hash: reportHash(res.Report),
				E2E: res.E2EP99, Wall: float64(time.Since(rec.enqueued)) / 1e6,
			})
			return
		case ctx.Err() != nil:
			// The job deadline is final: a dead context cannot host
			// another attempt, whatever the failure class.
			s.finish(endEntry(rec, opFail, &a, fmt.Errorf("fleet: job deadline: %w", err)))
			return
		case !transient(err):
			s.finish(endEntry(rec, opFail, &a, err))
			return
		case attempt >= len(rec.Backoff):
			s.finish(endEntry(rec, opDead, &a, fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt+1, err)))
			return
		}
		s.mu.Lock()
		s.commitLocked(walEntry{Op: opRetry, ID: rec.ID, Attempt: attempt, Try: &a}, false)
		s.mu.Unlock()
		select {
		case <-time.After(rec.Backoff[attempt]):
		case <-ctx.Done():
			// Loop once more; the dead-context branch above finishes it.
		}
	}
}

// attempt runs attempt n of a job on the calling worker. Tasks' capture
// contract turns a panicking vehicle into this attempt's
// *parallel.PanicError — isolation, not a dead service — and the
// service counts it.
func (s *Service) attempt(ctx context.Context, rec *Record, n int) (*RunResult, error) {
	actx := ctx
	cancel := func() {}
	if s.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, s.cfg.AttemptTimeout)
	}
	defer cancel()

	var res *RunResult
	panicked := true
	err := parallel.Tasks(1, 1, func(int) error {
		r, err := s.run(actx, rec, n)
		res, panicked = r, false
		return err
	})[0]
	if panicked {
		s.panics.Add(1)
	}
	return res, err
}

// run resolves and executes attempt n of the job's simulation, or the
// failure its chaos injects into that attempt.
func (s *Service) run(ctx context.Context, rec *Record, n int) (*RunResult, error) {
	if c := rec.Job.Chaos; c != nil && s.cfg.AllowChaos && n < c.Attempts {
		switch c.Kind {
		case faults.KindCrash:
			panic(fmt.Sprintf("fleet: injected %s (tenant %s, attempt %d)", c.Kind, rec.Tenant, n))
		case faults.KindStall:
			<-ctx.Done()
			return nil, fmt.Errorf("fleet: injected %s (tenant %s, attempt %d): %w", c.Kind, rec.Tenant, n, ctx.Err())
		}
	}
	spec, err := resolveSpec(rec.Job, s.cfg.Resolve)
	if err != nil {
		return nil, err
	}
	return s.cfg.Runner.Run(ctx, spec, s.cfg.Detector, rec.Job.Duration)
}

// classify names an attempt outcome for the record.
func classify(err error) string {
	var pe *parallel.PanicError
	switch {
	case errors.As(err, &pe):
		return "crash"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
		errors.Is(err, autoware.ErrCancelled):
		return "timeout"
	default:
		return "error"
	}
}

// transient reports whether a failure class retries: crashes (captured
// panics) and attempt timeouts do; validation and run errors do not.
func transient(err error) bool {
	switch classify(err) {
	case "crash", "timeout":
		return true
	}
	return false
}

// endEntry is the entry that fails, dead-letters or sheds rec with
// err, carrying the attempt that ended it if one did.
func endEntry(rec *Record, op string, try *Attempt, err error) walEntry {
	return walEntry{Op: op, ID: rec.ID, Try: try, Err: err.Error(), Wall: float64(time.Since(rec.enqueued)) / 1e6}
}

// finish commits a running job's terminal entry (fsynced; a done entry
// carries the report's content hash so replay can verify it), then
// counts the job out of flight: the ladder is re-evaluated and the WAL
// compacted when due.
func (s *Service) finish(e walEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitLocked(e, true)
	s.inFlight--
	s.reladderLocked()
	s.maybeCompactLocked()
}

// cacheInsertLocked adds a result to the bounded key cache.
func (s *Service) cacheInsertLocked(key string, report []byte, hash string, e2e float64) {
	if s.cfg.CacheSize <= 0 {
		return
	}
	if _, dup := s.cache[key]; dup {
		return
	}
	s.cache[key] = cacheEntry{report: report, hash: hash, e2e: e2e}
	s.cacheOrder = append(s.cacheOrder, key)
	for len(s.cacheOrder) > s.cfg.CacheSize {
		delete(s.cache, s.cacheOrder[0])
		s.cacheOrder = s.cacheOrder[1:]
	}
}

// reladderLocked re-evaluates the degradation ladder from queue
// occupancy and the scenario families' virtual-time drift (drift.go),
// with hysteresis, and applies the shedding state's queue eviction. An
// eviction changes occupancy, so the ladder is evaluated once more
// after it: a queue the eviction emptied leaves shedding unless drift
// still holds it there. Callers hold s.mu.
func (s *Service) reladderLocked() {
	occ := float64(s.queue.Len()) / float64(s.cfg.QueueDepth)
	drift := len(s.driftedVirtualLocked()) > 0
	switch {
	case occ >= s.cfg.DrainHighWater:
		s.state = LadderDraining
	case occ >= s.cfg.ShedHighWater || drift:
		if s.state != LadderDraining || occ <= s.cfg.LowWater {
			s.state = LadderShedding
		}
	case occ <= s.cfg.LowWater && !drift:
		s.state = LadderNominal
	}
	if s.state == LadderShedding && s.shedQueuedLocked() > 0 {
		s.reladderLocked()
	}
}

// shedQueuedLocked evicts queued jobs below the shed-priority floor and
// returns how many it evicted.
func (s *Service) shedQueuedLocked() int {
	shed := s.queue.evictBelow(shedPriority)
	for _, rec := range shed {
		s.commitLocked(endEntry(rec, opShed, nil, ErrJobShed), true)
	}
	return len(shed)
}

// jobHeap orders pending jobs by (priority desc, ID asc).
type jobHeap []*Record

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Job.Priority != h[j].Job.Priority {
		return h[i].Job.Priority > h[j].Job.Priority
	}
	return h[i].ID < h[j].ID
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Record)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TenantStatus is one tenant's aggregate in the /fleetz report.
type TenantStatus struct {
	Tenant    string  `json:"tenant"`
	Submitted int64   `json:"submitted"`
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	Retries   int64   `json:"retries"`
	Shed      int64   `json:"shed"`
	Rejected  int64   `json:"rejected"`
	Throttled int64   `json:"throttled"`
	CacheHits int64   `json:"cache_hits"`
	E2EP50    float64 `json:"e2e_p50_ms"`
	E2EP99    float64 `json:"e2e_p99_ms"`
	WallP50   float64 `json:"wall_p50_ms"`
	WallP99   float64 `json:"wall_p99_ms"`
}

// TenantLimitStatus is one tenant's effective admission contract in
// the /fleetz report.
type TenantLimitStatus struct {
	Tenant string  `json:"tenant"`
	Rate   float64 `json:"rate"`
	Burst  int     `json:"burst"`
	Weight int     `json:"weight"`
}

// JournalStatus reports the write-ahead log's health in /fleetz.
type JournalStatus struct {
	Dir string `json:"dir"`
	// Stats are the log's own counters: appends, fsyncs, compactions,
	// current WAL records/bytes, salvage note from the last open.
	Stats journal.Stats `json:"stats"`
	// Errors counts journal write failures the service absorbed
	// (terminal transitions are still applied in memory).
	Errors int64 `json:"errors"`
	// Recovered summarizes what the last restart replayed.
	Recovered RecoveredStats `json:"recovered"`
}

// DeadLetter is one dead-letter row in the /fleetz report.
type DeadLetter struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant"`
	Key      string `json:"key"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
}

// Status is the /fleetz aggregate: the ladder state, queue occupancy,
// per-tenant and fleet-wide latency summaries, and the outage ledger
// (retries, sheds, rejections, dead letters, captured panics).
type Status struct {
	State      LadderState `json:"state"`
	QueueDepth int         `json:"queue_depth"`
	QueueCap   int         `json:"queue_cap"`
	InFlight   int         `json:"in_flight"`
	// Drifting lists scenario-family key prefixes whose virtual-time
	// p99 has drifted past twice their established baseline.
	Drifting    []string            `json:"drifting,omitempty"`
	Fleet       TenantStatus        `json:"fleet"`
	Tenants     []TenantStatus      `json:"tenants"`
	Limits      []TenantLimitStatus `json:"limits,omitempty"`
	DeadLetters []DeadLetter        `json:"dead_letters,omitempty"`
	CacheSize   int                 `json:"cache_size"`
	// PoolPanics counts attempts that ended in a captured panic since
	// the service started.
	PoolPanics int64          `json:"pool_panics"`
	Journal    *JournalStatus `json:"journal,omitempty"`
}

// tenantSum adds up a tenant's /fleetz status from its records and
// door tally.
type tenantSum struct {
	st   TenantStatus
	e2e  []float64 // completed jobs' worst-path p99 (ms)
	wall []float64 // completed jobs' wall time (ms)
}

func (a *tenantSum) addRecord(rec *Record) {
	a.st.Submitted++
	a.st.Retries += int64(rec.Retries)
	switch rec.State {
	case StateDone:
		a.st.Completed++
		a.e2e = append(a.e2e, rec.E2EP99)
		a.wall = append(a.wall, rec.WallMS)
	case StateFailed:
		a.st.Failed++
	case StateShed:
		a.st.Shed++
	}
	if rec.CacheHit {
		a.st.CacheHits++
	}
}

func (a *tenantSum) addDoor(d *doorTally) {
	a.st.Rejected += d.Rejected
	a.st.Throttled += d.Throttled
	a.st.Shed += d.Shed
}

func (a *tenantSum) status(name string) TenantStatus {
	st := a.st
	st.Tenant = name
	e2e := mathx.Summarize(a.e2e)
	wall := mathx.Summarize(a.wall)
	st.E2EP50, st.E2EP99 = e2e.Median, e2e.P99
	st.WallP50, st.WallP99 = wall.Median, wall.P99
	return st
}

// Fleetz assembles the aggregate status report. Tenant counters,
// quantiles and the dead-letter ledger are computed from the records
// and door tallies on each call.
func (s *Service) Fleetz() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		State:      s.state,
		QueueDepth: s.queue.Len(),
		QueueCap:   s.cfg.QueueDepth,
		InFlight:   s.inFlight,
		Drifting:   s.driftedVirtualLocked(),
		CacheSize:  len(s.cache),
		PoolPanics: s.panics.Load(),
	}
	var fleet tenantSum
	tenants := make(map[string]*tenantSum)
	tenant := func(name string) *tenantSum {
		a := tenants[name]
		if a == nil {
			a = &tenantSum{}
			tenants[name] = a
		}
		return a
	}
	for _, id := range s.sortedIDsLocked() {
		rec := s.records[id]
		tenant(rec.Tenant).addRecord(rec)
		fleet.addRecord(rec)
		if rec.DeadLetter {
			st.DeadLetters = append(st.DeadLetters, DeadLetter{
				ID: rec.ID, Tenant: rec.Tenant, Key: rec.Key,
				Attempts: len(rec.Attempts), Err: rec.Err,
			})
		}
	}
	if n := len(st.DeadLetters); n > deadLetterCap {
		st.DeadLetters = st.DeadLetters[n-deadLetterCap:]
	}
	for name, d := range s.doors {
		tenant(name).addDoor(d)
		fleet.addDoor(d)
	}
	for _, name := range sortedKeys(tenants) {
		st.Tenants = append(st.Tenants, tenants[name].status(name))
	}
	st.Fleet = fleet.status("fleet")
	for _, name := range sortedKeys(s.limits) {
		l := s.limitFor(name)
		st.Limits = append(st.Limits, TenantLimitStatus{
			Tenant: name, Rate: l.Rate, Burst: l.Burst, Weight: l.Weight,
		})
	}
	if s.cfg.Journal != "" {
		js := &JournalStatus{Dir: s.cfg.Journal, Errors: s.jlErrs, Recovered: s.recovered}
		if s.jl != nil {
			js.Stats = s.jl.Stats()
		}
		st.Journal = js
	}
	return st
}

// Jobs returns snapshots of all records, sorted by ID. filter narrows
// by lifecycle state ("queued", "running", "done", "failed", "shed")
// or the special "dead" (dead-lettered jobs); empty returns all.
func (s *Service) Jobs(filter string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.records))
	for _, rec := range s.records {
		switch filter {
		case "":
		case "dead":
			if !rec.DeadLetter {
				continue
			}
		default:
			if string(rec.State) != filter {
				continue
			}
		}
		out = append(out, snapshotLocked(rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// State returns the ladder's current position.
func (s *Service) State() LadderState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// resolveSpec maps a job to its scenario spec: a named registry lookup
// (builtins + pinned search winners), or a params-line job driving the
// hardened stack fault-free through a discovered world.
func resolveSpec(job Job, resolve func(string) (scenario.Spec, error)) (scenario.Spec, error) {
	if job.Scenario != "" {
		spec, err := resolve(job.Scenario)
		if err != nil {
			return scenario.Spec{}, err
		}
		if job.Seed != 0 {
			spec.Seed = job.Seed
		}
		return spec, nil
	}
	cfg, err := worldFromParams(job.Params)
	if err != nil {
		return scenario.Spec{}, err
	}
	name := "params"
	if i := strings.IndexByte(job.Params, ' '); i > 0 {
		name = "params:" + job.Params[:min(12, len(job.Params))]
	}
	return scenario.Spec{
		Name:        name,
		Description: "fleet params-line job: generated world, hardened stack, fault-free",
		World:       &cfg,
		Guard:       true,
		Supervise:   true,
		Seed:        job.Seed,
	}, nil
}
