package ros

import (
	"fmt"
	"testing"
	"time"
)

// msg builds a message whose payload is its push index, so eviction
// order is checkable.
func msg(i int) *Message {
	return &Message{Topic: "/t", Header: Header{Seq: uint64(i)}, Payload: i}
}

// TestQueueDropOldestSemantics is the table-driven contract for the
// bounded drop-oldest queue across the capacity spectrum: unbounded
// (depth 0), degenerate (depth 1), and general (depth N). For each case
// it pushes `pushes` messages and checks what survives, what was
// evicted, and that the counters account for every message exactly once.
func TestQueueDropOldestSemantics(t *testing.T) {
	cases := []struct {
		depth       int
		pushes      int
		wantLen     int
		wantDropped uint64
		wantFirst   int // payload of the oldest surviving message
	}{
		{depth: 0, pushes: 0, wantLen: 0, wantDropped: 0, wantFirst: -1},
		{depth: 0, pushes: 1, wantLen: 1, wantDropped: 0, wantFirst: 0},
		{depth: 0, pushes: 7, wantLen: 7, wantDropped: 0, wantFirst: 0},
		// More pushes than the unbounded queue's initial storage (8):
		// the ring must grow instead of dropping.
		{depth: 0, pushes: 100, wantLen: 100, wantDropped: 0, wantFirst: 0},
		{depth: 1, pushes: 1, wantLen: 1, wantDropped: 0, wantFirst: 0},
		{depth: 1, pushes: 5, wantLen: 1, wantDropped: 4, wantFirst: 4},
		{depth: 3, pushes: 2, wantLen: 2, wantDropped: 0, wantFirst: 0},
		{depth: 3, pushes: 3, wantLen: 3, wantDropped: 0, wantFirst: 0},
		{depth: 3, pushes: 10, wantLen: 3, wantDropped: 7, wantFirst: 7},
		{depth: 64, pushes: 1000, wantLen: 64, wantDropped: 936, wantFirst: 936},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("depth=%d/pushes=%d", tc.depth, tc.pushes), func(t *testing.T) {
			q := NewQueue(tc.depth)
			var evicted []int
			for i := 0; i < tc.pushes; i++ {
				if ev := q.Push(msg(i)); ev != nil {
					evicted = append(evicted, ev.Payload.(int))
				}
			}
			if got := q.Len(); got != tc.wantLen {
				t.Errorf("Len = %d, want %d", got, tc.wantLen)
			}
			arrived, delivered, dropped := q.Stats()
			if arrived != uint64(tc.pushes) {
				t.Errorf("arrived = %d, want %d", arrived, tc.pushes)
			}
			if dropped != tc.wantDropped {
				t.Errorf("dropped = %d, want %d", dropped, tc.wantDropped)
			}
			if uint64(len(evicted)) != tc.wantDropped {
				t.Errorf("Push returned %d evictions, counter says %d", len(evicted), dropped)
			}
			// Evictions are the oldest messages, in order.
			for i, p := range evicted {
				if p != i {
					t.Errorf("eviction %d returned payload %d (drop-oldest violated)", i, p)
				}
			}
			// Survivors pop in FIFO order starting at wantFirst.
			for i := 0; i < tc.wantLen; i++ {
				m := q.Pop()
				if m == nil {
					t.Fatalf("Pop %d returned nil with %d queued", i, tc.wantLen-i)
				}
				if got := m.Payload.(int); got != tc.wantFirst+i {
					t.Errorf("Pop %d = payload %d, want %d", i, got, tc.wantFirst+i)
				}
			}
			if q.Pop() != nil {
				t.Error("queue not empty after draining")
			}
			// Conservation: every arrival is either still queued (none,
			// we drained), delivered, or dropped.
			arrived, delivered, dropped = q.Stats()
			if arrived != delivered+dropped {
				t.Errorf("counter leak: arrived=%d delivered=%d dropped=%d", arrived, delivered, dropped)
			}
		})
	}
}

// stamped builds a message with an explicit header stamp; the payload
// is the push index so arrival order stays checkable.
func stamped(i int, stamp int64) *Message {
	return &Message{Topic: "/t", Header: Header{Seq: uint64(i), Stamp: time.Duration(stamp)}, Payload: i}
}

// TestQueueStampOrderDelivery is the table-driven contract for the
// delivery-order guarantee: Pop always yields the oldest stamp
// regardless of arrival order, duplicate stamps preserve arrival order
// (stable), and drop-oldest evicts the oldest stamp — not whichever
// message happened to arrive first.
func TestQueueStampOrderDelivery(t *testing.T) {
	cases := []struct {
		name    string
		depth   int
		stamps  []int64
		wantPop []int // push indices in expected pop order
		wantEv  []int // push indices expected evicted, in order
	}{
		{
			name:  "in-order stream is FIFO",
			depth: 0, stamps: []int64{10, 20, 30},
			wantPop: []int{0, 1, 2},
		},
		{
			name:  "late frame is delivered first",
			depth: 0, stamps: []int64{20, 30, 10},
			wantPop: []int{2, 0, 1},
		},
		{
			name:  "fully reversed arrival",
			depth: 0, stamps: []int64{40, 30, 20, 10},
			wantPop: []int{3, 2, 1, 0},
		},
		{
			name:  "duplicate stamps keep arrival order",
			depth: 0, stamps: []int64{10, 20, 20, 20, 30},
			wantPop: []int{0, 1, 2, 3, 4},
		},
		{
			name:  "interleaved duplicates stay stable",
			depth: 0, stamps: []int64{20, 10, 20, 10},
			wantPop: []int{1, 3, 0, 2},
		},
		{
			name:  "drop-oldest evicts oldest stamp not first arrival",
			depth: 2, stamps: []int64{30, 10, 20},
			// Arrivals: 30, then 10 (sorted ahead of 30). Third push
			// evicts stamp 10 — the oldest — leaving 20, 30.
			wantPop: []int{2, 0},
			wantEv:  []int{1},
		},
		{
			name:  "overflow under reversed stamps",
			depth: 3, stamps: []int64{50, 40, 30, 20, 10},
			// Each overflow evicts the oldest *queued* stamp before the
			// incoming frame is inserted (ROS semantics: the new message
			// always lands): push of 20 evicts 30, push of 10 evicts 20.
			wantPop: []int{4, 1, 0},
			wantEv:  []int{2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(tc.depth)
			var evicted []int
			for i, s := range tc.stamps {
				if ev := q.Push(stamped(i, s)); ev != nil {
					evicted = append(evicted, ev.Payload.(int))
				}
			}
			for i, want := range tc.wantPop {
				if peek := q.Peek(); peek == nil || peek.Payload.(int) != want {
					t.Errorf("Peek %d = %v, want index %d", i, peek, want)
				}
				m := q.Pop()
				if m == nil {
					t.Fatalf("Pop %d returned nil", i)
				}
				if got := m.Payload.(int); got != want {
					t.Errorf("Pop %d = index %d (stamp %v), want index %d",
						i, got, m.Header.Stamp, want)
				}
			}
			if q.Pop() != nil {
				t.Error("queue not empty after draining")
			}
			if len(evicted) != len(tc.wantEv) {
				t.Fatalf("evicted %v, want %v", evicted, tc.wantEv)
			}
			for i, want := range tc.wantEv {
				if evicted[i] != want {
					t.Errorf("eviction %d = index %d, want %d", i, evicted[i], want)
				}
			}
		})
	}
}

// TestQueueDropRate pins the derived statistic used by Table III.
func TestQueueDropRate(t *testing.T) {
	q := NewQueue(2)
	if got := q.DropRate(); got != 0 {
		t.Errorf("empty queue DropRate = %v, want 0", got)
	}
	for i := 0; i < 8; i++ {
		q.Push(msg(i))
	}
	if got, want := q.DropRate(), 6.0/8.0; got != want {
		t.Errorf("DropRate = %v, want %v", got, want)
	}
}
