// Package journal is the durability layer under the fleet service: a
// CRC32C-framed, fsync-disciplined write-ahead log plus an atomically
// replaced snapshot, managed together as one on-disk directory.
//
// The design mirrors what storage engines do, scaled to this repo:
//
//   - Every appended record is enveloped as [len | crc32c | payload],
//     so corruption is detected at read time and attributed to the
//     exact record — the same Castagnoli discipline as the v2 bag
//     format in internal/ros.
//   - Open salvages a torn or truncated tail the way ros.BagReader
//     salvages a damaged bag: the intact prefix is returned, the bad
//     record is named (*TornError), and the file is truncated back to
//     the last whole frame so new appends never interleave with
//     garbage.
//   - Compact replaces the snapshot atomically (write temp, fsync,
//     rename, fsync dir) and only then truncates the WAL, so a crash
//     at any instant leaves either the old state or the new state on
//     disk — never neither. Replay after a crash in the window between
//     rename and truncate sees pre-snapshot entries again, which is
//     why the fleet's replay is idempotent.
//   - Appends write straight through to the file; Sync is a separate
//     call so callers choose the fsync discipline per record class
//     (the fleet syncs admissions and terminal transitions, and lets
//     retry records ride the page cache until the next sync).
//   - The first failed file operation (create, write, fsync, truncate,
//     rename, directory fsync) stops the log: every later Append, Sync
//     and Compact returns that error. A failed write can leave part of
//     a frame in the WAL, and Open stops decoding there, so a record
//     appended behind it would be lost however well it was synced.
//     Reopening the directory salvages the intact prefix and starts
//     afresh.
//   - The directory must be on a file system that accepts fsync on a
//     directory. The snapshot and a new WAL are installed by rename,
//     and without the directory fsync a crash may undo the rename after
//     the WAL was truncated behind it. Where it is refused, Open of a
//     new directory and every Compact fail.
//
// Payloads are opaque bytes; the caller owns the encoding. Decoded
// payloads alias the read buffer and must not be mutated.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// fileSystem is the journal's view of the calls that change what is on
// disk, so tests can fail any one of them.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(oldpath, newpath string) error
	SyncDir(dir string) error
}

// file is the part of *os.File the journal writes through.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the real file system.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir fsyncs a directory so renames and creates within it are
// durable.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// File-format constants. The magic doubles as a version stamp: bump it
// for incompatible layouts.
const (
	walMagic  = "AVWAL001"
	snapMagic = "AVSNAP01"
	// frameHeader is the per-record envelope: uint32 LE payload length,
	// then uint32 LE CRC32C of the payload.
	frameHeader = 8
)

// ErrTorn is the sentinel wrapped by every torn/truncated-tail
// condition; match with errors.Is.
var ErrTorn = errors.New("journal: torn record")

// castagnoli is the CRC32C table (same polynomial as the bag format).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TornError names the exact record where a WAL stopped decoding
// cleanly: its 1-based index, the byte offset its frame starts at, and
// why it failed (truncated header, truncated payload, or checksum
// mismatch). Everything before it is intact and was salvaged.
type TornError struct {
	Record int
	Offset int64
	Reason string
}

func (e *TornError) Error() string {
	return fmt.Sprintf("journal: record %d at offset %d torn: %s (%d records salvaged before it)",
		e.Record, e.Offset, e.Reason, e.Record-1)
}

// Is makes errors.Is(err, ErrTorn) match.
func (e *TornError) Is(target error) bool { return target == ErrTorn }

// appendFrame appends one [len|crc|payload] envelope to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Decode parses a whole WAL image: the magic header, then frames until
// the data ends. It returns the decoded payloads (aliasing data), the
// number of bytes consumed by the header plus every intact frame, and
// an error. A torn or truncated tail returns the intact prefix together
// with a *TornError naming the damage — callers salvage, they do not
// lose the log. Only a missing or foreign magic is unrecoverable.
func Decode(data []byte) (recs [][]byte, validLen int, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("journal: not a journal file (bad magic)")
	}
	off := len(walMagic)
	for off < len(data) {
		rem := len(data) - off
		if rem < frameHeader {
			return recs, off, &TornError{Record: len(recs) + 1, Offset: int64(off),
				Reason: fmt.Sprintf("truncated frame header (%d of %d bytes)", rem, frameHeader)}
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > rem-frameHeader {
			return recs, off, &TornError{Record: len(recs) + 1, Offset: int64(off),
				Reason: fmt.Sprintf("truncated payload (%d of %d bytes)", rem-frameHeader, length)}
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return recs, off, &TornError{Record: len(recs) + 1, Offset: int64(off),
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
		}
		recs = append(recs, payload)
		off += frameHeader + length
	}
	return recs, off, nil
}

// Stats is the log's operational ledger, surfaced on /fleetz.
type Stats struct {
	// Appends counts records appended this process lifetime; Syncs the
	// fsync calls; Compactions the snapshot+truncate passes.
	Appends     int64 `json:"appends"`
	Syncs       int64 `json:"syncs"`
	Compactions int64 `json:"compactions"`
	// WALRecords/WALBytes describe the live WAL segment (records since
	// the last compaction, including those recovered at Open).
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Salvaged describes the torn-tail salvage performed at Open, empty
	// for a clean log.
	Salvaged string `json:"salvaged,omitempty"`
}

// Recovered is what Open found on disk: the latest snapshot (nil if
// none was ever taken), the WAL entries appended after it, and the
// torn-tail note if the WAL needed salvaging.
type Recovered struct {
	Snapshot []byte
	Entries  [][]byte
	Salvage  string
}

// Log is an open journal directory: one `snapshot` file (atomically
// replaced by Compact) and one `wal` file (appended by Append). Safe
// for concurrent use.
type Log struct {
	mu     sync.Mutex
	fs     fileSystem
	dir    string
	wal    file
	stats  Stats
	closed bool
	// err is the first failed file operation; once set, Append, Sync
	// and Compact return it without touching disk.
	err error
}

func (l *Log) walPath() string  { return filepath.Join(l.dir, "wal") }
func (l *Log) snapPath() string { return filepath.Join(l.dir, "snapshot") }

// Open opens (creating if needed) the journal directory and recovers
// its contents. A torn WAL tail is salvaged: the intact prefix is
// returned in Recovered.Entries, the damage is described in
// Recovered.Salvage, and the file is truncated back to the last whole
// frame. A corrupt snapshot is fatal — it is written atomically, so
// damage there is disk-level and needs an operator, not a guess.
func Open(dir string) (*Log, Recovered, error) {
	return open(dir, osFS{})
}

func open(dir string, fs fileSystem) (*Log, Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	l := &Log{fs: fs, dir: dir}
	var rec Recovered

	if data, err := os.ReadFile(l.snapPath()); err == nil {
		snap, derr := decodeSnapshot(data)
		if derr != nil {
			return nil, Recovered{}, fmt.Errorf("journal: snapshot %s: %w", l.snapPath(), derr)
		}
		rec.Snapshot = snap
	} else if !os.IsNotExist(err) {
		return nil, Recovered{}, fmt.Errorf("journal: reading snapshot: %w", err)
	}

	data, err := os.ReadFile(l.walPath())
	validLen := len(walMagic)
	switch {
	case os.IsNotExist(err):
		// Created whole or not at all, so a crash here never leaves a
		// WAL without its magic.
		if err := l.replace(l.walPath(), []byte(walMagic)); err != nil {
			return nil, Recovered{}, fmt.Errorf("journal: creating wal: %w", err)
		}
	case err != nil:
		return nil, Recovered{}, fmt.Errorf("journal: reading wal: %w", err)
	default:
		var entries [][]byte
		var derr error
		entries, validLen, derr = Decode(data)
		if derr != nil {
			var torn *TornError
			if !errors.As(derr, &torn) {
				return nil, Recovered{}, derr // bad magic: not salvageable
			}
			rec.Salvage = torn.Error()
		}
		// Copy entries out: the WAL image backing them is transient.
		rec.Entries = make([][]byte, len(entries))
		for i, e := range entries {
			rec.Entries[i] = append([]byte(nil), e...)
		}
		l.stats.WALRecords = len(entries)
		l.stats.Salvaged = rec.Salvage
	}
	l.stats.WALBytes = int64(validLen)

	f, err := fs.OpenFile(l.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("journal: opening wal for append: %w", err)
	}
	if rec.Salvage != "" {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, Recovered{}, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	l.wal = f
	return l, rec, nil
}

// Append writes one record envelope to the WAL. It does not fsync —
// call Sync when the record class demands durability before the caller
// proceeds (admissions, terminal transitions).
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("append"); err != nil {
		return err
	}
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	if _, err := l.wal.Write(frame); err != nil {
		return l.fail(fmt.Errorf("journal: appending record: %w", err))
	}
	l.stats.Appends++
	l.stats.WALRecords++
	l.stats.WALBytes += int64(len(frame))
	return nil
}

// Sync fsyncs the WAL.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("sync"); err != nil {
		return err
	}
	if err := l.wal.Sync(); err != nil {
		return l.fail(fmt.Errorf("journal: fsync: %w", err))
	}
	l.stats.Syncs++
	return nil
}

// Compact replaces the snapshot with the given state and truncates the
// WAL. The snapshot lands atomically (temp file, fsync, rename, dir
// fsync) before the WAL is touched: a crash anywhere in the sequence
// leaves a replayable combination on disk. Entries that survive in the
// WAL across the rename/truncate window are pre-snapshot entries —
// replaying them over the snapshot must be (and in the fleet, is)
// idempotent.
func (l *Log) Compact(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable("compact"); err != nil {
		return err
	}
	img := appendFrame(append(make([]byte, 0, len(snapMagic)+frameHeader+len(snapshot)), snapMagic...), snapshot)
	if err := l.replace(l.snapPath(), img); err != nil {
		return err
	}
	if err := l.wal.Truncate(int64(len(walMagic))); err != nil {
		return l.fail(fmt.Errorf("journal: truncating wal after snapshot: %w", err))
	}
	if err := l.wal.Sync(); err != nil {
		return l.fail(fmt.Errorf("journal: syncing truncated wal: %w", err))
	}
	l.stats.Compactions++
	l.stats.WALRecords = 0
	l.stats.WALBytes = int64(len(walMagic))
	return nil
}

// replace installs data as the file at path atomically: temp file,
// fsync, rename, directory fsync. Any failure stops the log.
func (l *Log) replace(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return l.fail(fmt.Errorf("journal: creating %s: %w", filepath.Base(tmp), err))
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("journal: writing %s: %w", filepath.Base(tmp), err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return l.fail(fmt.Errorf("journal: syncing %s: %w", filepath.Base(tmp), err))
	}
	if err := f.Close(); err != nil {
		return l.fail(fmt.Errorf("journal: closing %s: %w", filepath.Base(tmp), err))
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return l.fail(fmt.Errorf("journal: installing %s: %w", filepath.Base(path), err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(fmt.Errorf("journal: syncing %s: %w", l.dir, err))
	}
	return nil
}

// usable reports why the log cannot take an operation: it is closed, or
// an earlier failure stopped it. Callers hold l.mu.
func (l *Log) usable(op string) error {
	if l.closed {
		return fmt.Errorf("journal: %s on closed log", op)
	}
	return l.err
}

// fail stops the log at its first failure and returns err. Callers hold
// l.mu.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Stats returns a copy of the operational counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close fsyncs and closes the WAL. Further operations error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.err != nil {
		// A sync now could report success over pages an earlier
		// failure lost.
		return l.wal.Close()
	}
	serr := l.wal.Sync()
	cerr := l.wal.Close()
	if serr != nil {
		return fmt.Errorf("journal: closing: %w", serr)
	}
	return cerr
}

// decodeSnapshot validates a snapshot file image: magic, exactly one
// intact frame, nothing after it.
func decodeSnapshot(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("not a snapshot file (bad magic)")
	}
	body := data[len(snapMagic):]
	if len(body) < frameHeader {
		return nil, fmt.Errorf("truncated snapshot frame header")
	}
	length := int(binary.LittleEndian.Uint32(body[0:4]))
	want := binary.LittleEndian.Uint32(body[4:8])
	if length != len(body)-frameHeader {
		return nil, fmt.Errorf("snapshot length %d does not match file (%d payload bytes)", length, len(body)-frameHeader)
	}
	payload := body[frameHeader:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("snapshot checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return append([]byte(nil), payload...), nil
}
