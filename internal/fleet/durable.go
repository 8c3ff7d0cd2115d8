package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/journal"
)

// Durability: the fleet's durable state — job records, journaled tenant
// limits, door tallies, the result cache and the drift baselines — is
// the result of applying journal entries in order through one function,
// applyLocked. A live transition journals its entry and then applies
// it; a restart applies the snapshot's entries and then the WAL's; a
// snapshot is the list of entries that rebuilds the current state.
// Admissions and terminal transitions are fsynced before they are
// acknowledged; retries ride the page cache until the next fsync —
// losing one to a crash only re-runs a deterministic attempt. Replay is
// idempotent: the crash window between snapshot install and WAL
// truncation re-delivers old entries, and an entry the state already
// reflects changes nothing.

// Journal entry operation codes.
const (
	opAdmit = "admit" // job admitted (fsynced; CacheHit admits are self-contained)
	opRetry = "retry" // transient failure consumed one backoff slot (not fsynced)
	opDone  = "done"  // completed, with report bytes + content hash (fsynced)
	opDead  = "dead"  // retry budget exhausted, dead-lettered (fsynced)
	opFail  = "fail"  // terminal non-dead failure (fsynced)
	opShed  = "shed"  // evicted by the degradation ladder (fsynced)
	opLimit = "limit" // tenant admission contract installed (fsynced)
	opTally = "tally" // a tenant's door tally (snapshots only)
)

// walEntry is one journaled state transition.
type walEntry struct {
	Op     string `json:"op"`
	ID     int64  `json:"id,omitempty"`
	Key    string `json:"key,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Job    *Job   `json:"job,omitempty"`
	Enq    int64  `json:"enq,omitempty"` // admission time, unix nanos
	// Attempt is the index of the attempt a retry entry ends.
	Attempt int `json:"attempt,omitempty"`
	// Try is the attempt a retry or terminal entry ends, as the record
	// holds it.
	Try      *Attempt `json:"try,omitempty"`
	Err      string   `json:"err,omitempty"`
	Report   []byte   `json:"report,omitempty"`
	Hash     string   `json:"hash,omitempty"`
	E2E      float64  `json:"e2e,omitempty"`
	Wall     float64  `json:"wall,omitempty"`
	CacheHit bool     `json:"cache_hit,omitempty"`
	// Resumed carries Record.Resumed into snapshots.
	Resumed bool         `json:"resumed,omitempty"`
	Limit   *TenantLimit `json:"limit,omitempty"`
	// Rev orders a tenant's limit entries, so a re-delivered older one
	// cannot undo a newer one.
	Rev  int64      `json:"rev,omitempty"`
	Door *doorTally `json:"door,omitempty"`
}

// doorTally counts one tenant's refusals at admission: every refusal
// (Rejected), those past the rate limit (Throttled), and best-effort
// submissions refused while shedding (Shed). It is the only per-tenant
// state not derived from records; snapshots carry it, the WAL does not.
type doorTally struct {
	Rejected  int64 `json:"rejected,omitempty"`
	Throttled int64 `json:"throttled,omitempty"`
	Shed      int64 `json:"shed,omitempty"`
}

// reportHash is the content hash journaled with every completion so
// replay can verify the report bytes survived the disk intact.
func reportHash(report []byte) string {
	sum := sha256.Sum256(report)
	return hex.EncodeToString(sum[:])
}

// RecoveredStats summarizes what a restart replayed from the journal.
type RecoveredStats struct {
	// Queued is how many interrupted (queued or in-flight) jobs were
	// requeued for re-execution.
	Queued int `json:"queued"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Dead   int `json:"dead"`
	Shed   int `json:"shed"`
	// Skipped counts WAL entries that failed to decode or verify and
	// were dropped (the affected job re-runs rather than trusting them).
	Skipped int `json:"skipped"`
	// Salvage is the journal's torn-tail note, empty on a clean open.
	Salvage string `json:"salvage,omitempty"`
}

// applyLocked applies one journal entry to the durable state. It is the
// only code that changes records, limits, door tallies, the result
// cache or the drift baselines from an entry, whether the entry is live,
// replayed from the WAL or part of a snapshot. An entry the state
// already reflects — re-delivered, or overtaken by a later one —
// changes nothing and reports true; a malformed entry, or a report that
// fails its content hash, changes nothing and reports false, and the
// affected job re-runs, which determinism makes safe. Callers hold s.mu.
func (s *Service) applyLocked(e walEntry) bool {
	switch e.Op {
	case opLimit:
		if e.Limit == nil {
			return false
		}
		if e.Rev > s.limitRevs[e.Tenant] {
			s.limits[e.Tenant] = *e.Limit
			s.limitRevs[e.Tenant] = e.Rev
		}
	case opTally:
		if e.Door == nil {
			return false
		}
		// Tallies only grow, so the larger count is the later one.
		d := s.doorLocked(e.Tenant)
		d.Rejected = max(d.Rejected, e.Door.Rejected)
		d.Throttled = max(d.Throttled, e.Door.Throttled)
		d.Shed = max(d.Shed, e.Door.Shed)
	case opAdmit:
		if e.Job == nil || e.ID < 1 {
			return false
		}
		if e.ID <= s.nextID {
			// Admits arrive in ID order, so this one was delivered
			// before, or an entry for its job overtook it.
			return true
		}
		rec := &Record{
			ID: e.ID, Job: *e.Job, Key: e.Key, State: StateQueued,
			Tenant: e.Tenant, Resumed: e.Resumed,
			enqueued: time.Unix(0, e.Enq), done: make(chan struct{}),
		}
		if e.CacheHit {
			if reportHash(e.Report) != e.Hash {
				return false
			}
			rec.State = StateDone
			rec.CacheHit = true
			rec.report = e.Report
			rec.hash = e.Hash
			rec.E2EP99 = e.E2E
			close(rec.done)
		} else {
			rec.Backoff = BackoffSchedule(s.cfg.RetrySeed, rec.Key, s.cfg.RetryBase, s.cfg.RetryBudget)
		}
		s.records[rec.ID] = rec
		s.nextID = rec.ID
	case opRetry, opDone, opFail, opDead, opShed:
		rec := s.records[e.ID]
		switch {
		case rec == nil:
			// The entry uses its job's ID up, so an admit of the job
			// arriving after it is out of order and skipped.
			s.nextID = max(s.nextID, e.ID)
			return false
		case terminal(rec.State):
			return true
		case e.Op == opRetry:
			// The attempt is not checked against the current retry
			// budget: a restart under a lower one keeps every attempt
			// the journal holds, and execute dead-letters a resumed job
			// already past it after one more failed attempt. Retries
			// becomes Attempt + 1, which must not overflow.
			if e.Try == nil || e.Attempt < 0 || e.Attempt == math.MaxInt {
				return false
			}
			if e.Attempt >= rec.Retries {
				rec.Retries = e.Attempt + 1
				rec.Attempts = append(rec.Attempts, *e.Try)
			}
			return true
		case e.Op == opDone && reportHash(e.Report) != e.Hash:
			return false
		}
		if e.Try != nil {
			rec.Attempts = append(rec.Attempts, *e.Try)
		}
		rec.Err = e.Err
		rec.WallMS = e.Wall
		switch e.Op {
		case opDone:
			rec.State = StateDone
			rec.report = e.Report
			rec.hash = e.Hash
			rec.E2EP99 = e.E2E
			s.cacheInsertLocked(rec.Key, e.Report, e.Hash, e.E2E)
			s.observeVirtualLocked(rec.Key, e.E2E)
		case opShed:
			rec.State = StateShed
		default:
			rec.State = StateFailed
			rec.DeadLetter = e.Op == opDead
		}
		close(rec.done)
	default:
		return false
	}
	return true
}

// terminal reports whether a state ends the job lifecycle.
func terminal(st JobState) bool {
	return st == StateDone || st == StateFailed || st == StateShed
}

// logLocked journals one entry, fsyncing it when sync is set. A nil
// journal is a no-op. A failure is counted in Journal.Errors and
// returned wrapping ErrJournal; when only the fsync failed, the frame
// may still reach disk, and the error says the entry's outcome is
// unknown. Callers hold s.mu.
func (s *Service) logLocked(e walEntry, sync bool) error {
	if s.jl == nil {
		return nil
	}
	data, err := json.Marshal(e)
	if err == nil {
		err = s.jl.Append(data)
	}
	if err != nil {
		s.jlErrs++
		return fmt.Errorf("%w: %s not journaled: %w", ErrJournal, e.Op, err)
	}
	s.walSinceCompact++
	if sync {
		if err := s.jl.Sync(); err != nil {
			s.jlErrs++
			return fmt.Errorf("%w: %s outcome unknown (written but not fsynced; it takes effect after a restart if it reached disk): %w",
				ErrJournal, e.Op, err)
		}
	}
	return nil
}

// commitLocked journals a transition of an admitted job, then applies
// it. The entry is applied even when journaling fails — the work it
// records is done — and the failure is counted in Journal.Errors; the
// job runs again after a restart. Callers hold s.mu.
func (s *Service) commitLocked(e walEntry, sync bool) {
	s.logLocked(e, sync)
	s.applyLocked(e)
}

// maybeCompactLocked folds state into a snapshot once enough WAL
// entries accumulated. Callers hold s.mu.
func (s *Service) maybeCompactLocked() {
	if s.jl == nil || s.cfg.SnapshotEvery <= 0 || s.walSinceCompact < s.cfg.SnapshotEvery {
		return
	}
	s.compactLocked()
}

// compactLocked writes the full service state as an atomic snapshot
// and truncates the WAL. A failure is counted in jlErrs and returned; a
// failed Compact stops the journal, so the service refuses submissions
// and limit changes with ErrJournal (503) until it restarts on the same
// directory, where the snapshot and WAL on disk still rebuild everything
// acknowledged. Callers hold s.mu.
func (s *Service) compactLocked() error {
	if s.jl == nil {
		return nil
	}
	data, err := json.Marshal(s.snapshotLocked())
	if err == nil {
		err = s.jl.Compact(data)
	}
	if err != nil {
		s.jlErrs++
		return err
	}
	s.walSinceCompact = 0
	return nil
}

// snapshotLocked lists the entries that rebuild the durable state on a
// fresh service: each journaled tenant limit and door tally, then each
// record's admit, retry and terminal entries, in admission order.
// Callers hold s.mu.
func (s *Service) snapshotLocked() []walEntry {
	var out []walEntry
	for _, name := range sortedKeys(s.limitRevs) {
		l := s.limits[name]
		out = append(out, walEntry{Op: opLimit, Tenant: name, Limit: &l, Rev: s.limitRevs[name]})
	}
	for _, name := range sortedKeys(s.doors) {
		out = append(out, walEntry{Op: opTally, Tenant: name, Door: s.doors[name]})
	}
	for _, id := range s.sortedIDsLocked() {
		rec := s.records[id]
		admit := walEntry{
			Op: opAdmit, ID: rec.ID, Key: rec.Key, Tenant: rec.Tenant, Job: &rec.Job,
			Enq: rec.enqueued.UnixNano(), Resumed: rec.Resumed,
		}
		if rec.CacheHit {
			admit.CacheHit = true
			admit.Report = rec.report
			admit.Hash = rec.hash
			admit.E2E = rec.E2EP99
		}
		out = append(out, admit)
		if rec.CacheHit {
			continue // the admit alone rebuilds it
		}
		// A retry appends one attempt and raises Retries to its index
		// + 1 (skipping indices only in a damaged log); the terminal
		// entry appends at most one more attempt. Numbering the retried
		// attempts up to Retries - 1 rebuilds both.
		retried := min(len(rec.Attempts), rec.Retries)
		for k := 0; k < retried; k++ {
			out = append(out, walEntry{
				Op: opRetry, ID: rec.ID, Attempt: rec.Retries - retried + k, Try: &rec.Attempts[k],
			})
		}
		if !terminal(rec.State) {
			continue
		}
		end := walEntry{ID: rec.ID, Err: rec.Err, Wall: rec.WallMS}
		if retried < len(rec.Attempts) {
			end.Try = &rec.Attempts[retried]
		}
		switch {
		case rec.State == StateDone:
			end.Op = opDone
			end.Report = rec.report
			end.Hash = rec.hash
			end.E2E = rec.E2EP99
		case rec.State == StateShed:
			end.Op = opShed
		case rec.DeadLetter:
			end.Op = opDead
		default:
			end.Op = opFail
		}
		out = append(out, end)
	}
	return out
}

// sortedIDsLocked returns every record ID in admission order. Callers
// hold s.mu.
func (s *Service) sortedIDsLocked() []int64 {
	ids := make([]int64, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recover opens the journal and rebuilds service state: the snapshot's
// entries first, then the WAL tail's, then interrupted jobs are
// requeued and the replayed state is folded into a fresh snapshot.
// Runs during New, before the workers start.
func (s *Service) recover(dir string) error {
	l, rec, err := journal.Open(dir)
	if err != nil {
		return fmt.Errorf("fleet: opening journal: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Snapshot != nil {
		if err := s.installLocked(rec.Snapshot); err != nil {
			l.Close()
			return fmt.Errorf("fleet: installing journal snapshot: %w", err)
		}
	}
	s.jl = l
	s.recovered.Salvage = rec.Salvage
	for _, data := range rec.Entries {
		var e walEntry
		if json.Unmarshal(data, &e) != nil || !s.applyLocked(e) {
			s.recovered.Skipped++
		}
	}
	s.resumeQueuedLocked()
	// Fold the replayed state into a snapshot now: the consumed WAL
	// tail truncates away, and the next crash replays from here. A
	// journal that cannot compact at start — a full disk, or a file
	// system that refuses directory fsync — would refuse every
	// submission, so the service does not start on it.
	if err := s.compactLocked(); err != nil {
		l.Close()
		s.jl = nil
		return fmt.Errorf("fleet: compacting the recovered journal: %w", err)
	}
	return nil
}

// installLocked applies a snapshot's entries. A snapshot that fails to
// decode, or holds an entry that does not apply, is a hard error — it
// was written atomically, so damage means disk-level corruption (or a
// journal from before snapshots were entry lists), and silently
// serving partial state would be worse than refusing to start.
func (s *Service) installLocked(data []byte) error {
	var entries []walEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("not a list of journal entries: %w", err)
	}
	for i, e := range entries {
		if !s.applyLocked(e) {
			return fmt.Errorf("entry %d (%s, job %d) does not apply", i, e.Op, e.ID)
		}
	}
	return nil
}

// resumeQueuedLocked requeues every non-terminal record in admission
// order: interrupted jobs restart at their replayed retry count, on the
// backoff schedule the admit entry recomputed — a pure function of
// (retry seed, job key), so it is the one the dead process planned.
func (s *Service) resumeQueuedLocked() {
	for _, id := range s.sortedIDsLocked() {
		rec := s.records[id]
		switch rec.State {
		case StateQueued:
			rec.Resumed = true
			rec.resumeFrom = rec.Retries
			s.queue.push(rec)
			s.recovered.Queued++
		case StateDone:
			s.recovered.Done++
		case StateFailed:
			if rec.DeadLetter {
				s.recovered.Dead++
			} else {
				s.recovered.Failed++
			}
		case StateShed:
			s.recovered.Shed++
		}
	}
}

// killForTest simulates an abrupt process death for crash-recovery
// tests: admission stops and the journal handle drops immediately —
// anything not yet journaled is lost, exactly as under SIGKILL — then
// resources are reaped so the test leaks nothing. No shutdown snapshot
// is taken; the next Open replays the raw WAL.
func (s *Service) killForTest() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.jl != nil {
		s.jl.Close()
		s.jl = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
