package ros

import (
	"testing"
	"time"
)

// TestRingWraparound cycles a small ring far past its capacity so the
// cursors wrap the mask repeatedly.
func TestRingWraparound(t *testing.T) {
	var r ring
	r.init(4)
	msgs := make([]*Message, 3)
	for i := range msgs {
		msgs[i] = &Message{Header: Header{Seq: uint64(i)}}
	}
	for cycle := 0; cycle < 100; cycle++ {
		for _, m := range msgs {
			if !r.tryPush(m) {
				t.Fatalf("cycle %d: push failed at len %d", cycle, r.len())
			}
		}
		if r.len() != 3 {
			t.Fatalf("len = %d", r.len())
		}
		for _, want := range msgs {
			if got := r.pop(); got != want {
				t.Fatalf("cycle %d: pop = %v, want %v", cycle, got, want)
			}
		}
	}
	if r.pop() != nil {
		t.Fatal("empty pop should be nil")
	}
}

// TestRingFullRejects: tryPush must refuse, not overwrite.
func TestRingFullRejects(t *testing.T) {
	var r ring
	r.init(2)
	a, b, c := &Message{}, &Message{}, &Message{}
	if !r.tryPush(a) || !r.tryPush(b) {
		t.Fatal("fill failed")
	}
	if r.tryPush(c) {
		t.Fatal("push into full ring should fail")
	}
	if !r.full() {
		t.Fatal("full() should report true")
	}
	if got := r.pop(); got != a {
		t.Fatalf("pop = %v", got)
	}
}

// TestRingInsertSortedStable: equal stamps must preserve arrival order,
// later stamps sort behind earlier ones.
func TestRingInsertSorted(t *testing.T) {
	var r ring
	r.init(8)
	mk := func(seq uint64, stamp time.Duration) *Message {
		return &Message{Header: Header{Seq: seq, Stamp: stamp}}
	}
	r.tryPush(mk(1, 10))
	r.tryPush(mk(2, 30))
	r.insertSorted(mk(3, 20)) // between
	r.insertSorted(mk(4, 20)) // equal: stable, after seq 3
	r.insertSorted(mk(5, 5))  // front
	wantSeq := []uint64{5, 1, 3, 4, 2}
	for _, want := range wantSeq {
		got := r.pop()
		if got == nil || got.Header.Seq != want {
			t.Fatalf("pop = %v, want seq %d", got, want)
		}
	}
}

// TestRingGrow: unbounded growth unrolls across a wrapped ring without
// losing order.
func TestRingGrow(t *testing.T) {
	var r ring
	r.init(4)
	// Wrap the cursors first so growth must unroll.
	for i := 0; i < 3; i++ {
		r.tryPush(&Message{})
		r.pop()
	}
	var pushed []*Message
	for i := 0; i < 4; i++ {
		m := &Message{Header: Header{Seq: uint64(i)}}
		pushed = append(pushed, m)
		r.tryPush(m)
	}
	if !r.full() {
		t.Fatal("should be full")
	}
	r.grow()
	if r.full() || len(r.buf) != 8 {
		t.Fatalf("grow: full=%v cap=%d", r.full(), len(r.buf))
	}
	m := &Message{Header: Header{Seq: 99}}
	pushed = append(pushed, m)
	r.tryPush(m)
	for _, want := range pushed {
		if got := r.pop(); got != want {
			t.Fatalf("pop = %v, want %v", got, want)
		}
	}
}
