package platform

import (
	"sort"
	"testing"
	"time"

	"repro/internal/ros"
	"repro/internal/work"
)

// relayNode forwards each input to an output topic; sinkNode consumes.
// The relay's callback (about 320 µs of CPU) outlasts the 100 µs frame
// spacing of the test burst, so its depth-2 queue backs up, evicts and
// ages frames past a shed budget.
type relayNode struct{}

func (relayNode) Name() string              { return "relay" }
func (relayNode) Subscribes() []ros.SubSpec { return []ros.SubSpec{{Topic: "/in", Depth: 2}} }
func (relayNode) Process(in *ros.Message, now time.Duration) ros.Result {
	return ros.Result{
		Outputs: []ros.Output{{Topic: "/mid", Payload: in.Payload}},
		Work:    work.Work{IntOps: 500_000},
	}
}

type sinkNode struct{}

func (sinkNode) Name() string              { return "sink" }
func (sinkNode) Subscribes() []ros.SubSpec { return []ros.SubSpec{{Topic: "/mid", Depth: 1}} }
func (sinkNode) Process(in *ros.Message, now time.Duration) ros.Result {
	return ros.Result{Work: work.Work{IntOps: 1000}}
}

// stubPolicy switches the executor to the deadline (EDF) dispatcher
// with flat priorities and one CPU-resident callback at a time.
type stubPolicy struct{}

func (stubPolicy) Priority(string) float64 { return 0 }
func (stubPolicy) MaxInflight() int        { return 1 }

// TestExecutorAccountsEveryFrame runs a finite burst through a two-node
// chain and lets the simulation drain completely, on both dispatchers
// (FIFO and EDF) and under each verdict of the shared dispatch tail:
// none, deadline shed, crash-drop and stall. With no events left every
// queue must be empty, and every frame published on /in must be
// accounted for exactly once: run by the relay, shed, dropped by the
// callback filter, or evicted from the relay's queue.
func TestExecutorAccountsEveryFrame(t *testing.T) {
	const shedBudget = 200 * time.Microsecond
	for _, dispatcher := range []string{"fifo", "edf"} {
		edf := dispatcher == "edf"
		for _, v := range []string{"none", "shed", "crash-drop", "stall"} {
			t.Run(dispatcher+"/"+v, func(t *testing.T) {
				sim := NewSim()
				ex := NewExecutor(sim,
					NewCPU(DefaultCPUConfig(), sim),
					NewGPU(DefaultGPUConfig(), sim),
					ros.NewBus(), nil)
				ex.AddNode(relayNode{}, NodeOptions{})
				ex.AddNode(sinkNode{}, NodeOptions{})

				if edf {
					ex.Sched = stubPolicy{}
				}
				if v == "shed" {
					ex.ShedBudget = shedBudget
				}
				var relayInputs, filterDrops, stalls int
				if v == "crash-drop" || v == "stall" {
					ex.CallbackFilter = func(node string, m *ros.Message, now time.Duration) CallbackVerdict {
						if node != "relay" {
							return CallbackVerdict{}
						}
						relayInputs++
						if relayInputs%3 != 0 {
							return CallbackVerdict{}
						}
						if v == "crash-drop" {
							filterDrops++
							return CallbackVerdict{Drop: true}
						}
						stalls++
						return CallbackVerdict{Stall: time.Millisecond}
					}
				}
				var relaySpans [][2]time.Duration // [started, finished] per relay callback
				onDone(ex, func(d DoneInfo) {
					if d.Node == "relay" {
						relaySpans = append(relaySpans, [2]time.Duration{d.Started, d.Finished})
					}
				})

				const frames = 40
				for i := 0; i < frames; i++ {
					i := i
					sim.After(time.Duration(i)*100*time.Microsecond, func() {
						ex.Publish("/in", i)
					})
				}
				sim.Run(10 * time.Second)

				if p := sim.Pending(); p != 0 {
					t.Fatalf("simulation did not drain: %d events pending", p)
				}
				queued := 0
				for _, node := range []string{"relay", "sink"} {
					for _, sub := range ex.Bus.SubscriptionsOf(node) {
						queued += sub.Queue.Len()
					}
				}
				if queued != 0 {
					t.Fatalf("queued = %d after drain", queued)
				}

				var shedIn uint64
				for _, ts := range ex.Bus.TopicStats() {
					if ts.Topic == "/in" {
						shedIn = ts.Shed
					}
				}
				_, _, evicted := ex.Bus.SubscriptionsOf("relay")[0].Queue.Stats()
				if got := uint64(len(relaySpans)) + shedIn + uint64(filterDrops) + evicted; got != frames {
					t.Fatalf("/in conservation: %d relay callbacks + %d shed + %d filter-dropped + %d evicted = %d, want %d published",
						len(relaySpans), shedIn, filterDrops, evicted, got, frames)
				}
				// A node runs one callback at a time; a stall holds it
				// busy too, so no input may start during one.
				sort.Slice(relaySpans, func(i, j int) bool { return relaySpans[i][0] < relaySpans[j][0] })
				for i := 1; i < len(relaySpans); i++ {
					if relaySpans[i][0] < relaySpans[i-1][1] {
						t.Fatalf("relay callback started at %v, before the previous one finished at %v",
							relaySpans[i][0], relaySpans[i-1][1])
					}
				}
				if evicted == 0 {
					t.Errorf("no queue evictions: the burst should overrun the relay's depth-2 queue")
				}
				switch {
				case v == "shed" && shedIn == 0:
					t.Errorf("shed budget set but no frame on /in was shed")
				case v == "crash-drop" && filterDrops == 0:
					t.Errorf("crash-drop filter set but no input was dropped")
				case v == "stall" && stalls == 0:
					t.Errorf("stall filter set but no callback stalled")
				case v != "shed" && shedIn != 0:
					t.Errorf("%d frames shed with no shed budget", shedIn)
				}
			})
		}
	}
}
