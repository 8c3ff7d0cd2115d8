package journal

import (
	"fmt"
	"os"
	"strings"
	"syscall"
	"testing"
)

// faultFS is the real file system with one call made to fail: the n-th
// call, counting every open, write, fsync, truncate, rename and
// directory fsync, fails with the chosen fault. A short write lands
// half its bytes before failing. The sweep below reopens without a
// crash, so the page cache already shows everything written: fsyncs are
// counted and failed but not performed.
type faultFS struct {
	failAt int // 1-based; 0 never fails
	fault  error
	short  bool
	calls  int
}

func (fs *faultFS) hit() bool {
	fs.calls++
	return fs.calls == fs.failAt
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if fs.hit() {
		return nil, &os.PathError{Op: "open", Path: name, Err: fs.fault}
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, fs: fs}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if fs.hit() {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.fault}
	}
	return os.Rename(oldpath, newpath)
}

func (fs *faultFS) SyncDir(dir string) error {
	if fs.hit() {
		return &os.PathError{Op: "sync", Path: dir, Err: fs.fault}
	}
	return nil
}

type faultFile struct {
	f  *os.File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.fs.hit() {
		return f.f.Write(p)
	}
	n := 0
	if f.fs.short {
		n, _ = f.f.Write(p[:len(p)/2])
	}
	return n, &os.PathError{Op: "write", Path: f.f.Name(), Err: f.fs.fault}
}

func (f *faultFile) Sync() error {
	if f.fs.hit() {
		return &os.PathError{Op: "sync", Path: f.f.Name(), Err: f.fs.fault}
	}
	return nil
}

func (f *faultFile) Truncate(size int64) error {
	if f.fs.hit() {
		return &os.PathError{Op: "truncate", Path: f.f.Name(), Err: f.fs.fault}
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Close() error { return f.f.Close() }

// scriptRecords is how many records the crash-consistency script
// appends; it compacts after every third.
const scriptRecords = 8

// runScript opens a log over fs and appends, syncs and compacts the
// scripted records, carrying on past failures as a service keeps
// journaling. It returns the acknowledged records (appended and synced
// without error), in order, and fails the test if any record is
// acknowledged or any compaction succeeds after the first failure. A
// snapshot holds the acknowledged records, one per line.
func runScript(t *testing.T, dir string, fs fileSystem) []string {
	t.Helper()
	l, _, err := open(dir, fs)
	if err != nil {
		return nil
	}
	defer l.Close()
	var acked []string
	var failed error
	for i := 0; i < scriptRecords; i++ {
		r := fmt.Sprintf("r%d", i)
		err := l.Append([]byte(r))
		if err == nil {
			err = l.Sync()
		}
		if err == nil {
			acked = append(acked, r)
			if len(acked)%3 == 0 {
				err = l.Compact([]byte(strings.Join(acked, "\n")))
			}
		}
		switch {
		case err == nil && failed != nil:
			t.Errorf("%s acknowledged after %v", r, failed)
		case err != nil && failed == nil:
			failed = err
		}
	}
	return acked
}

// recovered reopens dir on the real file system and returns the
// records it holds: the snapshot's, then the WAL's that the snapshot
// does not already hold (a failed truncation leaves them behind).
func recovered(t *testing.T, dir string) []string {
	t.Helper()
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var got []string
	seen := map[string]bool{}
	if len(rec.Snapshot) > 0 {
		for _, r := range strings.Split(string(rec.Snapshot), "\n") {
			got = append(got, r)
			seen[r] = true
		}
	}
	for _, e := range rec.Entries {
		if !seen[string(e)] {
			got = append(got, string(e))
		}
	}
	return got
}

// TestJournalFaultSweep is the crash-consistency sweep, in the style of
// ALICE (Pillai et al., OSDI 2014): the scripted appends and
// compactions run once for every file operation they make, with that
// operation failing by a short write, EIO or ENOSPC. After each run the
// directory is reopened on the real file system. Every acknowledged
// record must come back, in order, followed by at most the one record
// whose fsync failed (its outcome is unknown), and nothing else.
func TestJournalFaultSweep(t *testing.T) {
	clean := &faultFS{}
	if got := runScript(t, t.TempDir(), clean); len(got) != scriptRecords {
		t.Fatalf("fault-free run acknowledged %d of %d records", len(got), scriptRecords)
	}
	faults := []struct {
		name  string
		err   error
		short bool
	}{
		{"short-write", syscall.ENOSPC, true},
		{"eio", syscall.EIO, false},
		{"enospc", syscall.ENOSPC, false},
	}
	for _, f := range faults {
		for n := 1; n <= clean.calls; n++ {
			dir := t.TempDir()
			acked := runScript(t, dir, &faultFS{failAt: n, fault: f.err, short: f.short})
			got := recovered(t, dir)
			want := append(acked, fmt.Sprintf("r%d", len(acked)))
			if len(got) < len(acked) || len(got) > len(want) || strings.Join(got, " ") != strings.Join(want[:len(got)], " ") {
				t.Errorf("%s at call %d: acknowledged %q, recovered %q", f.name, n, acked, got)
			}
		}
	}
}
