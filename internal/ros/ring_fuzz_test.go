package ros

import (
	"testing"
	"time"
)

// FuzzRingPushPop drives a queue (the ring plus its
// drop-oldest / stamp-sort / unbounded-growth extensions) against a
// straight-line slice model of the ROS subscriber contract, with
// op-stream-controlled stamps so sorted inserts, equal-stamp
// stability, wraparound and depth-0 growth all get exercised.
//
// Byte encoding: each op byte selects push (with stamp = op>>2),
// pop, or peek; depthRaw selects the queue depth, 0 = unbounded.
func FuzzRingPushPop(f *testing.F) {
	f.Add([]byte{0, 4, 8, 1, 1, 12, 16, 2}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1}, uint8(0)) // growth
	f.Add([]byte{60, 40, 20, 0, 80, 1, 1, 1, 1}, uint8(3))      // reversed stamps
	f.Add([]byte{8, 8, 8, 8, 2, 1, 8, 8}, uint8(1))             // depth-1 churn
	f.Fuzz(func(t *testing.T, ops []byte, depthRaw uint8) {
		depth := int(depthRaw % 9) // 0..8
		q := NewQueue(depth)
		var model []*Message
		var seq uint64
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // push
				seq++
				m := &Message{Header: Header{Seq: seq, Stamp: time.Duration(op >> 2)}}
				evicted := q.Push(m)
				var wantEvicted *Message
				if depth > 0 && len(model) == depth {
					wantEvicted = model[0]
					model = model[1:]
				}
				if evicted != wantEvicted {
					t.Fatalf("depth %d: evicted %v, want %v", depth, evicted, wantEvicted)
				}
				// Stable stamp-ordered insert: after every queued
				// message with stamp <= m's.
				at := len(model)
				for at > 0 && model[at-1].Header.Stamp > m.Header.Stamp {
					at--
				}
				model = append(model, nil)
				copy(model[at+1:], model[at:])
				model[at] = m
			case 2: // pop
				got := q.Pop()
				var want *Message
				if len(model) > 0 {
					want = model[0]
					model = model[1:]
				}
				if got != want {
					t.Fatalf("pop = %v, want %v", got, want)
				}
			case 3: // peek
				got := q.Peek()
				var want *Message
				if len(model) > 0 {
					want = model[0]
				}
				if got != want {
					t.Fatalf("peek = %v, want %v", got, want)
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("len = %d, model = %d", q.Len(), len(model))
			}
		}
		// Drain: residual content must match the model exactly.
		for _, want := range model {
			if got := q.Pop(); got != want {
				t.Fatalf("drain pop = %v, want %v", got, want)
			}
		}
		if q.Pop() != nil {
			t.Fatal("queue should be empty after drain")
		}
		arrived, delivered, dropped := q.Stats()
		if arrived != seq || arrived != delivered+dropped {
			t.Fatalf("conservation violated: arrived=%d delivered=%d dropped=%d", arrived, delivered, dropped)
		}
	})
}
