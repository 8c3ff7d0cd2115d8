// Command benchmw runs the middleware micro-benchmarks (bus fan-out,
// bus-edge queue push/pop) against the public transport API and prints
// the measured numbers next to the pre-rewrite baselines recorded from
// the seed transport (mutex queue, one envelope allocation per
// publish). With -out it also writes them as a JSON record; without it
// nothing is written. The committed BENCH_middleware.json is such a
// record, so the perf trajectory of the transport layer is part of the
// repo's history; `make bench-middleware` writes to a temporary file
// and leaves it as it is.
//
// Usage:
//
//	benchmw [-out FILE] [-benchtime 1s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/ros"
)

// Pre-rewrite baselines, measured with -benchmem -benchtime=1s on the
// seed transport immediately before the ring/pool rewrite (same
// benchmark bodies, see internal/ros/middleware_bench_test.go). These
// are frozen history, not regenerated.
var baselines = map[string]measurement{
	"BusPublishFanout/subs=1": {NsPerOp: 85.71, BytesPerOp: 96, AllocsPerOp: 1},
	"BusPublishFanout/subs=4": {NsPerOp: 180.80, BytesPerOp: 96, AllocsPerOp: 1},
	"QueuePush/edge":          {NsPerOp: 43.02, BytesPerOp: 0, AllocsPerOp: 0},
}

type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type entry struct {
	Name string `json:"name"`
	// Before is the committed pre-rewrite baseline (mutex queue,
	// allocating publish); After is this run's measurement.
	Before  measurement `json:"before"`
	After   measurement `json:"after"`
	Speedup float64     `json:"speedup_ns"`
}

type report struct {
	Note       string  `json:"note"`
	Benchtime  string  `json:"benchtime"`
	Benchmarks []entry `json:"benchmarks"`
}

type benchPayload struct{ frame [16]float64 }

// benchFanout measures one publication fanned out to N subscribers
// whose depth-4 queues are saturated: steady-state eviction + delivery,
// the per-frame transport cost of a sensor topic under load.
func benchFanout(subs int) func(*testing.B) {
	return func(b *testing.B) {
		bus := ros.NewBus()
		for i := 0; i < subs; i++ {
			bus.Subscribe(fmt.Sprintf("node%d", i), ros.SubSpec{Topic: "/points_raw", Depth: 4})
		}
		payload := &benchPayload{}
		for i := 0; i < 8; i++ {
			bus.Publish("/points_raw", time.Duration(i), payload, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bus.Publish("/points_raw", time.Duration(i+8), payload, nil)
		}
	}
}

// benchQueuePush measures the bus-edge queue in push/pop steady state;
// the seed transport paid a mutex here on every edge.
func benchQueuePush(b *testing.B) {
	q := ros.NewQueue(4)
	msgs := make([]*ros.Message, 8)
	for i := range msgs {
		msgs[i] = &ros.Message{Topic: "/t", Header: ros.Header{Stamp: time.Duration(i)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(msgs[i%len(msgs)])
		q.Pop()
	}
}

func main() {
	testing.Init() // registers test.benchtime before we set it
	out := flag.String("out", "", "write the JSON record to this file (default: none)")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark measuring time")
	flag.Parse()

	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmw:", err)
		os.Exit(1)
	}

	runs := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BusPublishFanout/subs=1", benchFanout(1)},
		{"BusPublishFanout/subs=4", benchFanout(4)},
		{"QueuePush/edge", benchQueuePush},
	}

	rep := report{
		Note: "middleware perf trajectory: 'before' is the frozen pre-rewrite baseline " +
			"(mutex queue, allocating publish); 'after' is the current transport",
		Benchtime: benchtime.String(),
	}
	for _, r := range runs {
		res := testing.Benchmark(r.fn)
		after := measurement{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		before := baselines[r.name]
		e := entry{Name: r.name, Before: before, After: after}
		if after.NsPerOp > 0 {
			e.Speedup = before.NsPerOp / after.NsPerOp
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
		fmt.Printf("%-26s before %8.2f ns/op %3d B/op %d allocs/op | after %8.2f ns/op %3d B/op %d allocs/op\n",
			r.name, before.NsPerOp, before.BytesPerOp, before.AllocsPerOp,
			after.NsPerOp, after.BytesPerOp, after.AllocsPerOp)
	}

	if *out == "" {
		return
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmw:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmw:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
