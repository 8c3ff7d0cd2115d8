package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/journal"
)

// replayEntries decodes one journal entry per line, skipping lines that
// do not decode, as WAL replay does.
func replayEntries(data []byte) []walEntry {
	var out []walEntry
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e walEntry
		if json.Unmarshal(line, &e) == nil {
			out = append(out, e)
		}
	}
	return out
}

// applied returns a fresh service with entries applied in order. The
// caller closes it.
func applied(t *testing.T, entries []walEntry) *Service {
	t.Helper()
	svc := mustNew(t, Config{Workers: 1, Resolve: passResolve, Runner: deterministicRunner("", nil)})
	underLock(svc, func() {
		for _, e := range entries {
			svc.applyLocked(e)
		}
	})
	return svc
}

// underLock runs f holding svc's lock and releases it even if f
// panics, so a panic surfaces as one instead of deadlocking a deferred
// Close.
func underLock(svc *Service, f func()) {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	f()
}

// FuzzFleetReplay applies an arbitrary list of journal entries, one
// JSON object per line, to a fresh service. Applying must never panic.
// Delivering any prefix of the list a second time — what the crash
// window between snapshot rename and WAL truncation does — must leave
// the same records and /fleetz as applying the list once. And the
// snapshot of the result must install on a fresh service, every entry
// applying, and rebuild the same records and /fleetz; only the drift
// baselines may differ, since a snapshot feeds them in admission order.
func FuzzFleetReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		entries := replayEntries(data)
		if len(entries) > 64 {
			entries = entries[:64]
		}
		once := applied(t, entries)
		defer once.Close()
		wantJobs, wantStatus := once.Jobs(""), once.Fleetz()
		// Re-delivering the prefix of k entries is re-delivering the
		// prefix of k-1, then entry k-1.
		twice := applied(t, entries)
		defer twice.Close()
		for k := 0; k <= len(entries); k++ {
			if k > 0 {
				underLock(twice, func() { twice.applyLocked(entries[k-1]) })
			}
			if jobs := twice.Jobs(""); !reflect.DeepEqual(jobs, wantJobs) {
				t.Fatalf("prefix of %d delivered again changed the records:\n got %+v\nwant %+v", k, jobs, wantJobs)
			}
			if st := twice.Fleetz(); !reflect.DeepEqual(st, wantStatus) {
				t.Fatalf("prefix of %d delivered again changed /fleetz:\n got %+v\nwant %+v", k, st, wantStatus)
			}
		}

		var snap []byte
		var err error
		underLock(once, func() { snap, err = json.Marshal(once.snapshotLocked()) })
		if err != nil {
			t.Fatal(err)
		}
		installed := applied(t, nil)
		defer installed.Close()
		underLock(installed, func() { err = installed.installLocked(snap) })
		if err != nil {
			t.Fatalf("installing the snapshot: %v", err)
		}
		if jobs := installed.Jobs(""); !reflect.DeepEqual(jobs, wantJobs) {
			t.Errorf("snapshot rebuilt different records:\n got %+v\nwant %+v", jobs, wantJobs)
		}
		st := installed.Fleetz()
		st.Drifting, wantStatus.Drifting = nil, nil
		if !reflect.DeepEqual(st, wantStatus) {
			t.Errorf("snapshot rebuilt a different /fleetz:\n got %+v\nwant %+v", st, wantStatus)
		}
	})
}

// TestWriteFleetReplayCorpus regenerates FuzzFleetReplay's checked-in
// seed corpus under testdata/fuzz from runSession: the raw WAL of a
// killed session, and the snapshot of the same state, one entry per
// line. Guarded: run with WRITE_CORPUS=1, then commit the files.
func TestWriteFleetReplayCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := t.TempDir()
	gate := make(chan struct{})
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, RetryBudget: 2, RetryBase: time.Millisecond,
		AllowChaos: true, Journal: dir, Resolve: passResolve, Runner: deterministicRunner("hold", gate),
	})
	runSession(t, svc, gate)
	svc.mu.Lock()
	var snapshot [][]byte
	for _, e := range svc.snapshotLocked() {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		snapshot = append(snapshot, line)
	}
	svc.mu.Unlock()
	killMidFlight(t, svc, nil)
	l, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	out := filepath.Join("testdata", "fuzz", "FuzzFleetReplay")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, lines := range map[string][][]byte{"session-wal": rec.Entries, "session-snapshot": snapshot} {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(bytes.Join(lines, []byte("\n")))) + ")\n"
		if err := os.WriteFile(filepath.Join(out, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
