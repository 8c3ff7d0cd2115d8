package ros

import (
	"fmt"
	"testing"
	"time"
)

// Middleware micro-benchmarks: the perf trajectory for the intra-process
// transport. `make bench-middleware` runs these with -benchmem and
// records ns/op, B/op and allocs/op into BENCH_middleware.json next to
// the pre-rewrite baseline numbers, so every future change to the bus
// or queue shows up as a delta against the recorded history.
//
// Pre-rewrite baselines (mutex queue, one envelope allocation per
// publish), captured on the seed transport and committed in
// BENCH_middleware.json:
//
//	BenchmarkBusPublishFanout/subs=1   85.71 ns/op   96 B/op   1 allocs/op
//	BenchmarkBusPublishFanout/subs=4  180.80 ns/op   96 B/op   1 allocs/op
//	BenchmarkQueuePush (mutex edge)    43.02 ns/op    0 B/op   0 allocs/op

// benchPayload is a stand-in sensor frame. The bus never copies
// payloads, so the type only matters for the sizer (stats are disabled
// here); a small struct keeps the benchmark focused on transport cost.
type benchPayload struct{ frame [16]float64 }

// BenchmarkBusPublishFanout measures one publication fanned out to N
// subscribers whose depth-4 queues are saturated, so every publish
// exercises the steady-state path: drop-oldest eviction plus delivery
// to every queue.
// This is the per-frame transport cost of a sensor topic under load.
func BenchmarkBusPublishFanout(b *testing.B) {
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			bus := NewBus()
			for i := 0; i < subs; i++ {
				bus.Subscribe(fmt.Sprintf("node%d", i), SubSpec{Topic: "/points_raw", Depth: 4})
			}
			payload := &benchPayload{}
			// Saturate the queues so the timed loop measures eviction
			// steady state, not initial fill.
			for i := 0; i < 8; i++ {
				bus.Publish("/points_raw", time.Duration(i), payload, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bus.Publish("/points_raw", time.Duration(i+8), payload, nil)
			}
		})
	}
}

// BenchmarkQueuePush measures a single bus-edge queue in push/pop
// steady state: no lock, no atomic read-modify-write. The pre-rewrite
// queue paid a mutex per operation on every edge even though the
// simulator is single-threaded.
func BenchmarkQueuePush(b *testing.B) {
	q := NewQueue(4)
	msgs := make([]*Message, 8)
	for i := range msgs {
		msgs[i] = &Message{Topic: "/t", Header: Header{Stamp: time.Duration(i)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(msgs[i%len(msgs)])
		q.Pop()
	}
}

// BenchmarkRingSteadyState measures the bare ring cycling through
// wraparound — the primitive cost floor under every queue.
func BenchmarkRingSteadyState(b *testing.B) {
	var r ring
	r.init(8)
	m := &Message{Topic: "/t"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.tryPush(m)
		r.pop()
	}
}

// TestQueuePushZeroAlloc pins the queue at zero allocations per
// push/pop cycle — the simulator's per-message floor.
func TestQueuePushZeroAlloc(t *testing.T) {
	q := NewQueue(4)
	msgs := make([]*Message, 8)
	for i := range msgs {
		msgs[i] = &Message{Topic: "/t", Header: Header{Stamp: time.Duration(i)}}
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(msgs[i%len(msgs)])
		q.Pop()
		i++
	}); n != 0 {
		t.Fatalf("Push/Pop allocated %v per op, want 0", n)
	}
}

// TestBusPublishAllocs pins what one publication allocates: its
// envelope, plus the envelope's copy of the origin list when there is
// one. The payload is shared and the envelope goes to every subscriber
// queue, so the count does not grow with the fan-out.
func TestBusPublishAllocs(t *testing.T) {
	bus := NewBus()
	for i := 0; i < 3; i++ {
		bus.Subscribe(fmt.Sprintf("node%d", i), SubSpec{Topic: "/points_raw", Depth: 4})
	}
	payload := &benchPayload{}
	stamp := time.Duration(0)
	for _, tc := range []struct {
		origins []Origin
		want    float64
	}{
		{[]Origin{{Topic: "/points_raw"}}, 2},
		{nil, 1},
	} {
		if n := testing.AllocsPerRun(1000, func() {
			bus.Publish("/points_raw", stamp, payload, tc.origins)
			stamp++
		}); n != tc.want {
			t.Errorf("Publish with %d origins allocated %v per op, want %v", len(tc.origins), n, tc.want)
		}
	}
}
