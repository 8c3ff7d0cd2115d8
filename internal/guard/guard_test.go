package guard

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
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
// the accept paths, pinning the verdict, the cause string and the
// counter each one lands in.
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
			var wantAccepted, wantQuarantined uint64
			for i, a := range tc.arrivals {
				v := g.Inspect(filters.TopicPointsRaw, a.stamp, a.payload, a.now)
				want := tc.want[i]
				if want == "" {
					wantAccepted++
					if v.Quarantine {
						t.Errorf("arrival %d quarantined (%s), want accept", i, v.Cause)
					}
					continue
				}
				wantQuarantined++
				if !v.Quarantine || v.Cause != want {
					t.Errorf("arrival %d verdict = %+v, want quarantine cause %q", i, v, want)
				}
			}
			if g.Accepted() != wantAccepted || g.Quarantined() != wantQuarantined {
				t.Errorf("counters = accepted %d quarantined %d, want %d, %d",
					g.Accepted(), g.Quarantined(), wantAccepted, wantQuarantined)
			}
		})
	}
}

// TestGuardReorderTolerance checks the reorder buffer semantics: a
// straggler within the holdback is admitted without advancing the
// high-water mark, so the following in-order frame is still measured
// against the true head.
func TestGuardReorderTolerance(t *testing.T) {
	g := New(Config{})
	stamps := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		150 * time.Millisecond, // straggler, within 150ms holdback of 200ms
		300 * time.Millisecond,
	}
	for i, s := range stamps {
		if v := g.Inspect(filters.TopicPointsRaw, s, cloudMsg(2), s+5*time.Millisecond); v.Quarantine {
			t.Fatalf("frame %d (stamp %v) quarantined: %s", i, s, v.Cause)
		}
	}
	if g.Reordered() != 1 {
		t.Errorf("reordered = %d, want 1", g.Reordered())
	}
	if g.Accepted() != 4 {
		t.Errorf("accepted = %d, want 4", g.Accepted())
	}
	// The straggler must not have dragged the head back: 100->200->300
	// gives an EWMA period of 100ms exactly.
	if p := g.Period(filters.TopicPointsRaw); p != 100*time.Millisecond {
		t.Errorf("period = %v, want 100ms (head must ignore the straggler)", p)
	}
}

// TestGuardCounts pins the (topic, cause) aggregation and its ordering.
func TestGuardCounts(t *testing.T) {
	g := New(Config{})
	nan := cloudMsg(1)
	nan.Cloud.Points[0].Intensity = math.Inf(1)

	g.Inspect("/a", 100*time.Millisecond, nil, 100*time.Millisecond) // accept (no validator)
	g.Inspect("/a", 100*time.Millisecond, nil, 200*time.Millisecond) // dup
	g.Inspect("/a", 100*time.Millisecond, nil, 300*time.Millisecond) // dup
	g.Inspect("/a", 10*time.Second, nil, 300*time.Millisecond)       // future
	g.Inspect(filters.TopicPointsRaw, 0, nan, 10*time.Millisecond)   // malformed
	want := []CauseCount{
		{Topic: "/a", Cause: CauseDuplicate, Count: 2},
		{Topic: "/a", Cause: CauseFutureStamp, Count: 1},
		{Topic: filters.TopicPointsRaw, Cause: CauseMalformed, Count: 1},
	}
	got := g.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("counts[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGuardRegistryOverride installs a custom registry: the overridden
// topic uses the custom rule, and topics the default registry would
// have guarded pass unchecked.
func TestGuardRegistryOverride(t *testing.T) {
	reg := NewRegistry()
	reg.Register("/custom", func(p any) error {
		if p == "poison" {
			return ErrMissingPayload
		}
		return nil
	})
	g := New(Config{Validators: reg})

	if v := g.Inspect("/custom", time.Millisecond, "poison", time.Millisecond); !v.Quarantine {
		t.Error("custom validator was not consulted")
	}
	if v := g.Inspect("/custom", 2*time.Millisecond, "fine", 2*time.Millisecond); v.Quarantine {
		t.Errorf("clean payload quarantined: %s", v.Cause)
	}
	// /points_raw has no validator in the custom registry: a NaN cloud
	// passes payload checks (time checks still apply).
	nan := cloudMsg(1)
	nan.Cloud.Points[0].Pos.Z = math.NaN()
	if v := g.Inspect(filters.TopicPointsRaw, time.Millisecond, nan, time.Millisecond); v.Quarantine {
		t.Errorf("unregistered topic was payload-checked: %s", v.Cause)
	}
}

// TestGuardDefaults pins the documented default tuning.
func TestGuardDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Holdback != 150*time.Millisecond {
		t.Errorf("Holdback default = %v", cfg.Holdback)
	}
	if cfg.FutureTolerance != 10*time.Millisecond {
		t.Errorf("FutureTolerance default = %v", cfg.FutureTolerance)
	}
	if cfg.DupWindow != 32 {
		t.Errorf("DupWindow default = %d", cfg.DupWindow)
	}
	if cfg.Validators == nil || cfg.Validators.For(filters.TopicPointsRaw) == nil {
		t.Error("default registry must guard /points_raw")
	}
}

// TestGuardDupWindowBounded checks the dup ring forgets: a stamp older
// than the window's reach is no longer flagged as a duplicate (it is
// handled by the rewind rule instead).
func TestGuardDupWindowBounded(t *testing.T) {
	g := New(Config{DupWindow: 4, Holdback: time.Hour})
	base := time.Second
	for i := 0; i < 5; i++ {
		s := base + time.Duration(i)*100*time.Millisecond
		if v := g.Inspect("/t", s, nil, s); v.Quarantine {
			t.Fatalf("frame %d quarantined: %s", i, v.Cause)
		}
	}
	// base was evicted from the 4-slot ring by the 5th accept; with the
	// huge holdback it re-enters as a tolerated straggler.
	if v := g.Inspect("/t", base, nil, 2*time.Second); v.Quarantine {
		t.Errorf("stamp outside dup window still flagged: %s", v.Cause)
	}
	// The newest stamp is still remembered.
	if v := g.Inspect("/t", base+400*time.Millisecond, nil, 2*time.Second); !v.Quarantine || v.Cause != CauseDuplicate {
		t.Errorf("in-window duplicate not flagged: %+v", v)
	}
}
