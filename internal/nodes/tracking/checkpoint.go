package tracking

import "time"

// This file implements the supervision layer's Checkpointer contract
// (internal/supervise): Snapshot deep-copies the tracker's full state
// so a supervisor can restore it after a crash, losing only the updates
// since the last checkpoint instead of silently carrying stale
// in-memory tracks across the crash window.

// checkpoint is the tracker's snapshot payload.
type checkpoint struct {
	tracks []*Track
	nextID int
	last   time.Duration
}

// Snapshot returns a deep copy of the tracker state.
func (t *Tracker) Snapshot() any {
	cp := &checkpoint{nextID: t.nextID, last: t.last}
	cp.tracks = make([]*Track, len(t.tracks))
	for i, tr := range t.tracks {
		cp.tracks[i] = tr.clone()
	}
	return cp
}

// Restore replaces the tracker state with a deep copy of a snapshot
// taken by Snapshot, so the same snapshot can be restored repeatedly
// (failed restart probes) without aliasing live state. A nil snapshot
// is a cold restart: all tracks are lost.
func (t *Tracker) Restore(snapshot any) {
	cp, ok := snapshot.(*checkpoint)
	if !ok || cp == nil {
		t.tracks = nil
		t.nextID = 1
		t.last = 0
		return
	}
	t.tracks = make([]*Track, len(cp.tracks))
	for i, tr := range cp.tracks {
		t.tracks[i] = tr.clone()
	}
	t.nextID = cp.nextID
	t.last = cp.last
}

// clone deep-copies one track, including its filter bank.
func (t *Track) clone() *Track {
	c := *t
	c.IMM = t.IMM.Clone()
	c.Hull = append(c.Hull[:0:0], t.Hull...)
	return &c
}

// Clone deep-copies the IMM filter bank.
func (m *IMM) Clone() *IMM {
	c := &IMM{Mu: m.Mu}
	for i, f := range m.Filters {
		c.Filters[i] = f.Clone()
	}
	return c
}

// Clone deep-copies one UKF.
func (u *UKF) Clone() *UKF {
	c := *u
	return &c
}
