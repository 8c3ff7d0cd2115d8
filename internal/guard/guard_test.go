package guard

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/platform"
	"repro/internal/pointcloud"
	"repro/internal/ros"
)

// cloudMsg builds a clean n-point cloud payload.
func cloudMsg(n int) *msgs.PointCloud {
	c := pointcloud.New(n)
	for i := 0; i < n; i++ {
		c.Append(pointcloud.Point{Pos: geom.Vec3{X: float64(i), Y: 1, Z: 0.2}, Intensity: 0.5})
	}
	return &msgs.PointCloud{Cloud: c}
}

// TestGuardVerdicts walks one frame through each quarantine cause and
// the accept paths, pinning each arrival's verdict and cause string.
func TestGuardVerdicts(t *testing.T) {
	nanCloud := cloudMsg(4)
	nanCloud.Cloud.Points[2].Pos.X = math.NaN()
	farCloud := cloudMsg(4)
	farCloud.Cloud.Points[0].Pos.Y = 2 * MaxAbsCoord

	cases := []struct {
		name string
		// arrivals on /points_raw: (stamp, payload, now) triples played
		// in order; want holds the expected cause per arrival ("" = accept).
		arrivals []struct {
			stamp, now time.Duration
			payload    any
		}
		want []string
	}{
		{
			name: "clean stream accepts",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{
				{100 * time.Millisecond, 105 * time.Millisecond, cloudMsg(3)},
				{200 * time.Millisecond, 205 * time.Millisecond, cloudMsg(3)},
			},
			want: []string{"", ""},
		},
		{
			name: "NaN point is malformed",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{{100 * time.Millisecond, 105 * time.Millisecond, nanCloud}},
			want: []string{CauseMalformed},
		},
		{
			name: "out-of-range point is malformed",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{{100 * time.Millisecond, 105 * time.Millisecond, farCloud}},
			want: []string{CauseMalformed},
		},
		{
			name: "future stamp beyond tolerance",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{{200 * time.Millisecond, 100 * time.Millisecond, cloudMsg(3)}},
			want: []string{CauseFutureStamp},
		},
		{
			name: "duplicate stamp",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{
				{100 * time.Millisecond, 105 * time.Millisecond, cloudMsg(3)},
				{100 * time.Millisecond, 205 * time.Millisecond, cloudMsg(3)},
			},
			want: []string{"", CauseDuplicate},
		},
		{
			name: "rewind beyond holdback",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{
				{time.Second, time.Second, cloudMsg(3)},
				{500 * time.Millisecond, 1100 * time.Millisecond, cloudMsg(3)},
			},
			want: []string{"", CauseStampRewind},
		},
		{
			name: "late within holdback is admitted",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{
				{time.Second, time.Second, cloudMsg(3)},
				{900 * time.Millisecond, 1100 * time.Millisecond, cloudMsg(3)},
			},
			want: []string{"", ""},
		},
		{
			name: "malformed wins over mistimed",
			arrivals: []struct {
				stamp, now time.Duration
				payload    any
			}{
				// The NaN frame is also a duplicate and far in the future;
				// corruption is the root cause, so it must win attribution.
				{100 * time.Millisecond, 105 * time.Millisecond, cloudMsg(3)},
				{10 * time.Second, 200 * time.Millisecond, nanCloud},
			},
			want: []string{"", CauseMalformed},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(Config{})
			for i, a := range tc.arrivals {
				v := g.Inspect(filters.TopicPointsRaw, a.stamp, a.payload, a.now)
				want := tc.want[i]
				if want == "" {
					if v.Quarantine {
						t.Errorf("arrival %d quarantined (%s), want accept", i, v.Cause)
					}
					continue
				}
				if !v.Quarantine || v.Cause != want {
					t.Errorf("arrival %d verdict = %+v, want quarantine cause %q", i, v, want)
				}
			}
		})
	}
}

// TestGuardReorderTolerance checks the reorder buffer semantics: a
// straggler within the holdback is admitted without advancing the
// high-water mark, so later frames are still measured against the true
// head.
func TestGuardReorderTolerance(t *testing.T) {
	g := New(Config{})
	inspect := func(stamp, now time.Duration) platform.IngressVerdict {
		return g.Inspect(filters.TopicPointsRaw, stamp, cloudMsg(2), now)
	}
	stamps := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		150 * time.Millisecond, // straggler, within 150ms holdback of 200ms
	}
	for i, s := range stamps {
		if v := inspect(s, s+5*time.Millisecond); v.Quarantine {
			t.Fatalf("frame %d (stamp %v) quarantined: %s", i, s, v.Cause)
		}
	}
	// The straggler must not have dragged the head back: a stamp just
	// past the holdback behind the true head (200ms) is a rewind, though
	// it is within the holdback of the straggler's stamp.
	behind := 200*time.Millisecond - holdback - time.Millisecond
	if v := inspect(behind, 250*time.Millisecond); !v.Quarantine || v.Cause != CauseStampRewind {
		t.Errorf("stamp %v behind a 200ms head = %+v, want quarantine cause %q", behind, v, CauseStampRewind)
	}
	if v := inspect(300*time.Millisecond, 305*time.Millisecond); v.Quarantine {
		t.Fatalf("in-order frame after the straggler quarantined: %s", v.Cause)
	}
}

// TestGuardDupWindowBounded checks the dup ring forgets: a stamp older
// than the window's reach is no longer flagged as a duplicate (it is
// handled by the rewind rule instead).
func TestGuardDupWindowBounded(t *testing.T) {
	g := New(Config{})
	// dupWindow+1 frames 1ms apart: the whole run stays inside the
	// holdback, so only the ring decides whether base is a duplicate.
	base := time.Second
	for i := 0; i <= dupWindow; i++ {
		s := base + time.Duration(i)*time.Millisecond
		if v := g.Inspect("/t", s, nil, s); v.Quarantine {
			t.Fatalf("frame %d quarantined: %s", i, v.Cause)
		}
	}
	// base was evicted from the ring by the last accept; within the
	// holdback it re-enters as a tolerated straggler.
	now := base + 2*dupWindow*time.Millisecond
	if v := g.Inspect("/t", base, nil, now); v.Quarantine {
		t.Errorf("stamp outside dup window still flagged: %s", v.Cause)
	}
	// The newest stamp is still remembered.
	if v := g.Inspect("/t", base+dupWindow*time.Millisecond, nil, now); !v.Quarantine || v.Cause != CauseDuplicate {
		t.Errorf("in-window duplicate not flagged: %+v", v)
	}
}

// TestGuardQuarantinedFrameNeverQueued drives the guard through the
// executor's ingress: of two arrivals with one stamp the first is
// accepted and queued, and the second is quarantined as a duplicate —
// one Quarantined event — and never reaches the subscriber's queue.
func TestGuardQuarantinedFrameNeverQueued(t *testing.T) {
	sim := platform.NewSim()
	ex := platform.NewExecutor(sim,
		platform.NewCPU(platform.DefaultCPUConfig(), sim),
		platform.NewGPU(platform.DefaultGPUConfig(), sim),
		ros.NewBus(), nil)
	sub := ex.Bus.Subscribe("probe", ros.SubSpec{Topic: "/t", Depth: 0})
	New(Config{}).Attach(ex)
	var quarantined []platform.Event
	ex.Observe(func(ev platform.Event) {
		if ev.Kind == platform.Quarantined {
			quarantined = append(quarantined, ev)
		}
	})

	ex.Publish("/t", 7)
	ex.Publish("/t", 7)
	sim.Run(time.Second)

	if len(quarantined) != 1 || quarantined[0].Topic != "/t" || quarantined[0].Cause != CauseDuplicate {
		t.Fatalf("quarantined events = %+v, want one %q on /t", quarantined, CauseDuplicate)
	}
	if sub.Queue.Len() != 1 {
		t.Fatalf("queued = %d, want 1", sub.Queue.Len())
	}
}
