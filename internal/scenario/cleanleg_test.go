package scenario

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/testenv"
	"repro/internal/world"
)

// TestCleanLegMemo pins the memo's contract: a run served the stored
// clean leg renders the same bytes as a cold run, every input the leg
// depends on is part of its key, and a node the clean leg never
// recorded reads as the zero summary.
func TestCleanLegMemo(t *testing.T) {
	t.Parallel()
	const duration = schedTestDuration
	spec, err := ByName(NameContentionTuned) // scheduled: the hit also serves the criticality
	if err != nil {
		t.Fatal(err)
	}
	scen, m, wcfg := testenv.Scenario(), testenv.Map(), world.DefaultScenarioConfig()
	render := func(legs *cleanMemo) (string, *autoware.Stack) {
		t.Helper()
		res, faulted, err := runWith(context.Background(), legs, scen, m, spec, autoware.DetectorSSD300, duration)
		if err != nil {
			t.Fatal(err)
		}
		var rep bytes.Buffer
		res.WriteReport(&rep)
		return rep.String(), faulted
	}

	var legs cleanMemo
	cold, _ := render(&legs)
	hit, faulted := render(&legs)
	fresh, _ := render(new(cleanMemo))
	if legs.hits != 1 {
		t.Errorf("memo counted %d hits over two runs of one drive, want 1", legs.hits)
	}
	if hit != cold {
		t.Error("a memo hit rendered a different report from the cold run")
	}
	if fresh != cold {
		t.Error("a cold run on a fresh memo rendered a different report")
	}

	// Each input the clean leg depends on misses when it changes.
	key := newCleanKey(scen, m, autoware.DetectorSSD300, duration, wcfg)
	stored := legs.entries[key]
	if stored == nil || stored.leg == nil {
		t.Fatal("the runs stored no clean leg under the key of their inputs")
	}
	foggy := wcfg
	foggy.Noise = world.NoiseProfile{Name: "fog", LiDARDrop: 0.2}
	variants := []struct {
		name string
		key  cleanKey
	}{
		{"detector", newCleanKey(scen, m, autoware.DetectorSSD512, duration, wcfg)},
		{"duration", newCleanKey(scen, m, autoware.DetectorSSD300, duration+time.Second, wcfg)},
		{"world params", newCleanKey(scen, m, autoware.DetectorSSD300, duration, foggy)},
		{"world pointer", newCleanKey(&world.Scenario{}, m, autoware.DetectorSSD300, duration, wcfg)},
		{"map pointer", newCleanKey(scen, &hdmap.Map{}, autoware.DetectorSSD300, duration, wcfg)},
	}
	for _, v := range variants {
		ran := false
		if _, err := legs.do(context.Background(), v.key, func(context.Context) (*cleanLeg, error) {
			ran = true
			return &cleanLeg{}, nil
		}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Errorf("changing the %s hit the stored clean leg", v.name)
		}
	}

	// A node absent from the clean leg renders as the zero summary, as
	// Recorder.NodeLatency reads a node it never recorded.
	trimmed := &cleanLeg{nodes: map[string]mathx.Summary{}, paths: stored.leg.paths, crit: stored.leg.crit}
	for n, s := range stored.leg.nodes {
		if n != autoware.TrackerNodeName {
			trimmed.nodes[n] = s
		}
	}
	res := collect(spec, autoware.DetectorSSD300, duration, trimmed, faulted, nil)
	ns, ok := res.NodeStat(autoware.TrackerNodeName)
	if !ok {
		t.Fatalf("%s missing from the report", autoware.TrackerNodeName)
	}
	if ns.Baseline != (mathx.Summary{}) || ns.Faulted != faulted.Recorder.NodeLatency(autoware.TrackerNodeName) {
		t.Errorf("absent clean node rendered baseline %+v, faulted %+v", ns.Baseline, ns.Faulted)
	}

	// The bound evicts the oldest stored leg first.
	var small cleanMemo
	fake := func(context.Context) (*cleanLeg, error) { return &cleanLeg{}, nil }
	for i := 0; i <= cleanLegMemoSize; i++ {
		if _, err := small.do(context.Background(), cleanKey{duration: time.Duration(i)}, fake); err != nil {
			t.Fatal(err)
		}
	}
	if len(small.entries) != cleanLegMemoSize || small.entries[cleanKey{duration: 0}] != nil {
		t.Errorf("memo holds %d legs after %d inserts, oldest kept: %v",
			len(small.entries), cleanLegMemoSize+1, small.entries[cleanKey{duration: 0}] != nil)
	}
}

// legOutcome is what one goroutine's memo lookup returned, or the
// value it panicked with.
type legOutcome struct {
	leg      *cleanLeg
	err      error
	panicked any
}

// lookup runs c.do on its own goroutine.
func lookup(ctx context.Context, c *cleanMemo, key cleanKey, run func(context.Context) (*cleanLeg, error)) <-chan legOutcome {
	out := make(chan legOutcome, 1)
	go func() {
		var o legOutcome
		defer func() {
			o.panicked = recover()
			out <- o
		}()
		o.leg, o.err = c.do(ctx, key, run)
	}()
	return out
}

// awaitWaiters returns once n lookups have waited on a leg in flight.
func awaitWaiters(c *cleanMemo, n int) {
	for {
		c.mu.Lock()
		w := c.waits
		c.mu.Unlock()
		if w >= n {
			return
		}
		runtime.Gosched()
	}
}

// storedLeg returns the leg the memo holds for key, and how many it holds.
func storedLeg(c *cleanMemo, key cleanKey) (*cleanLeg, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		return e.leg, len(c.entries)
	}
	return nil, len(c.entries)
}

// TestCleanLegMemoFailures pins what the memo does when the call
// computing a leg does not finish it: nothing is stored, no waiter is
// stranded, and a waiter gives up on its own context.
func TestCleanLegMemoFailures(t *testing.T) {
	t.Parallel()
	const duration = 4 * time.Second
	scen, m, wcfg := testenv.Scenario(), testenv.Map(), world.DefaultScenarioConfig()
	key := newCleanKey(scen, m, autoware.DetectorSSD300, duration, wcfg)
	leg := func(ctx context.Context) (*cleanLeg, error) {
		return runClean(ctx, scen, m, autoware.DetectorSSD300, duration, wcfg)
	}

	t.Run("cancelled computing call", func(t *testing.T) {
		want, err := leg(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var c cleanMemo
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		started, proceed := make(chan struct{}), make(chan struct{})
		first := lookup(ctx, &c, key, func(ctx context.Context) (*cleanLeg, error) {
			close(started)
			<-proceed
			return leg(ctx)
		})
		<-started
		second := lookup(context.Background(), &c, key, leg)
		awaitWaiters(&c, 1)
		cancel()
		close(proceed)

		a := <-first
		if !errors.Is(a.err, autoware.ErrCancelled) {
			t.Errorf("cancelled computing call returned %v, want autoware.ErrCancelled", a.err)
		}
		b := <-second
		if b.err != nil {
			t.Fatalf("waiter failed with the computing call: %v", b.err)
		}
		if !reflect.DeepEqual(b.leg, want) {
			t.Error("waiter's clean leg differs from a cold one")
		}
		if got, n := storedLeg(&c, key); got != b.leg || n != 1 || c.hits != 0 {
			t.Errorf("memo holds %d legs (the waiter's: %v) after %d hits; the cancelled leg must not be stored",
				n, got == b.leg, c.hits)
		}

		var alone cleanMemo
		if _, err := alone.do(ctx, key, leg); !errors.Is(err, autoware.ErrCancelled) {
			t.Errorf("lone cancelled call returned %v", err)
		}
		if _, n := storedLeg(&alone, key); n != 0 {
			t.Errorf("a lone cancelled call left %d memo entries", n)
		}
	})

	t.Run("cancelled waiter", func(t *testing.T) {
		var c cleanMemo
		started, release := make(chan struct{}), make(chan struct{})
		sentinel := &cleanLeg{}
		first := lookup(context.Background(), &c, key, func(context.Context) (*cleanLeg, error) {
			close(started)
			<-release
			return sentinel, nil
		})
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		waiter := lookup(ctx, &c, key, func(context.Context) (*cleanLeg, error) {
			t.Error("a waiter ran the leg while another call was computing it")
			return nil, errors.New("unexpected run")
		})
		select {
		case w := <-waiter:
			if !errors.Is(w.err, autoware.ErrCancelled) || !errors.Is(w.err, context.Canceled) {
				t.Errorf("cancelled waiter returned %v, want autoware.ErrCancelled and context.Canceled", w.err)
			}
		case <-time.After(time.Minute):
			t.Fatal("cancelled waiter still blocked on the computing call")
		}
		close(release)
		if r := <-first; r.err != nil || r.leg != sentinel {
			t.Errorf("computing call returned %v, %v", r.leg, r.err)
		}
	})

	t.Run("panicking leg", func(t *testing.T) {
		var c cleanMemo
		started, proceed := make(chan struct{}), make(chan struct{})
		first := lookup(context.Background(), &c, key, func(context.Context) (*cleanLeg, error) {
			close(started)
			<-proceed
			panic("leg exploded")
		})
		<-started
		sentinel := &cleanLeg{}
		second := lookup(context.Background(), &c, key, func(context.Context) (*cleanLeg, error) {
			return sentinel, nil
		})
		awaitWaiters(&c, 1)
		close(proceed)

		if r := <-first; r.panicked != "leg exploded" {
			t.Errorf("computing call's panic = %v, want it re-raised to its caller", r.panicked)
		}
		if r := <-second; r.err != nil || r.leg != sentinel {
			t.Errorf("waiter returned %v, %v; want the leg it ran itself", r.leg, r.err)
		}
		if got, n := storedLeg(&c, key); got != sentinel || n != 1 {
			t.Errorf("memo holds %d legs, waiter's stored: %v", n, got == sentinel)
		}
	})
}
