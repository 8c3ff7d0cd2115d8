package tracking

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/fusion"
	"repro/internal/ros"
	"repro/internal/work"
)

// TopicObjects is the tracker output.
const TopicObjects = "/detection/object_tracker/objects"

// Config parameterizes the tracker node.
type Config struct {
	// GateMahalanobis is the squared-distance association gate.
	GateMahalanobis float64
	// StdMeas is the measurement (cluster centroid) noise, meters.
	StdMeas float64
	// ConfirmHits promotes a tentative track after this many updates.
	ConfirmHits int
	// MaxMisses drops a track after this many frames without support.
	MaxMisses int
	// ClutterDensity is the PDA clutter parameter (per square meter).
	ClutterDensity float64
	// DetectionProb is the PDA detection probability.
	DetectionProb float64
	QueueDepth    int
}

// DefaultConfig returns the stock configuration.
func DefaultConfig() Config {
	return Config{
		GateMahalanobis: 9.21, // chi2(2) at 99%
		StdMeas:         0.45,
		ConfirmHits:     3,
		MaxMisses:       4,
		ClutterDensity:  1e-4,
		DetectionProb:   0.9,
		QueueDepth:      2,
	}
}

// Track is one maintained object hypothesis.
type Track struct {
	ID    int
	IMM   *IMM
	Label msgs.ObjectLabel
	Score float64
	Dim   geom.Vec3
	Hull  geom.Polygon
	hits  int
	miss  int
	last  time.Duration
}

// Confirmed reports whether the track has enough support to publish.
func (t *Track) Confirmed(confirmHits int) bool { return t.hits >= confirmHits }

// Tracker is the imm_ukf_pda_tracker node.
type Tracker struct {
	cfg    Config
	tracks []*Track
	nextID int
	last   time.Duration
	// stats of the last frame for work/µarch modeling
	lastGateTests int
	lastUpdated   int
	// Per-frame scratch reused across Steps.
	zs       []MeasVec
	claimed  []bool
	removed  []bool
	gated    []MeasVec
	gatedIdx []int
	betas    []float64
}

// New builds the node.
func New(cfg Config) *Tracker {
	if cfg.GateMahalanobis <= 0 || cfg.StdMeas <= 0 {
		panic("tracking: invalid config")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	return &Tracker{cfg: cfg, nextID: 1}
}

// Name implements ros.Node.
func (t *Tracker) Name() string { return "imm_ukf_pda_tracker" }

// Subscribes implements ros.Node.
func (t *Tracker) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: fusion.TopicObjects, Depth: t.cfg.QueueDepth}}
}

// Tracks exposes the live track list (for tests and examples).
func (t *Tracker) Tracks() []*Track { return t.tracks }

// Step advances the tracker with one detection frame at the given
// stamp; exported for direct use. Returns the confirmed tracks.
func (t *Tracker) Step(objects []msgs.DetectedObject, stamp time.Duration) []*Track {
	dt := 0.1
	if t.last > 0 {
		d := (stamp - t.last).Seconds()
		if d > 1e-4 && d < 2 {
			dt = d
		}
	}
	t.last = stamp
	t.lastGateTests = 0
	t.lastUpdated = 0

	// Predict all tracks.
	for _, tr := range t.tracks {
		if err := tr.IMM.Predict(dt); err != nil {
			// A degenerate covariance marks the track for removal.
			tr.miss = t.cfg.MaxMisses + 1
		}
	}

	// Measurement vectors.
	zs := t.zs[:0]
	for _, o := range objects {
		zs = append(zs, MeasVec{o.Pose.Pos.X, o.Pose.Pos.Y})
	}
	t.zs = zs
	claimed := append(t.claimed[:0], make([]bool, len(objects))...)
	t.claimed = claimed

	// Per-track gating and PDA update.
	for _, tr := range t.tracks {
		if tr.miss > t.cfg.MaxMisses {
			continue
		}
		// Gate against the CTRV filter's measurement prediction (the
		// bank shares position closely; one gate per track suffices).
		mp, err := tr.IMM.Filters[ModelCTRV].PredictMeasurement(t.cfg.StdMeas)
		if err != nil {
			tr.miss++
			continue
		}
		gated, gatedIdx := t.gated[:0], t.gatedIdx[:0]
		for i, z := range zs {
			t.lastGateTests++
			m := mahalanobis2(MeasVec{z[0] - mp.Z[0], z[1] - mp.Z[1]}, &mp.SInv)
			if m <= t.cfg.GateMahalanobis {
				gated = append(gated, z)
				gatedIdx = append(gatedIdx, i)
			}
		}
		t.gated, t.gatedIdx = gated, gatedIdx
		if len(gated) == 0 {
			tr.miss++
			continue
		}
		err = tr.IMM.Update(t.cfg.StdMeas, gated, func(mp MeasurementPrediction) []float64 {
			return t.pdaBetas(&mp, gated)
		})
		if err != nil {
			tr.miss++
			continue
		}
		tr.hits++
		tr.miss = 0
		tr.last = stamp
		t.lastUpdated++
		// Refresh appearance attributes from the strongest gated
		// detection (highest score, preferring labeled ones).
		bi := gatedIdx[0]
		for _, i := range gatedIdx {
			if objects[i].Label != msgs.LabelUnknown && objects[bi].Label == msgs.LabelUnknown {
				bi = i
			} else if objects[i].Score > objects[bi].Score {
				bi = i
			}
		}
		o := objects[bi]
		if o.Label != msgs.LabelUnknown {
			tr.Label = o.Label
			tr.Score = math.Max(tr.Score, o.Score)
		}
		tr.Dim = o.Dim
		tr.Hull = o.Hull
		for _, i := range gatedIdx {
			claimed[i] = true
		}
	}

	// Spawn tentative tracks from unclaimed detections.
	for i, o := range objects {
		if claimed[i] {
			continue
		}
		tr := &Track{
			ID:    t.nextID,
			IMM:   NewIMM(o.Pose.XY()),
			Label: o.Label,
			Score: o.Score,
			Dim:   o.Dim,
			Hull:  o.Hull,
			hits:  1,
			last:  stamp,
		}
		t.nextID++
		t.tracks = append(t.tracks, tr)
	}

	// Prune dead tracks.
	alive := t.tracks[:0]
	for _, tr := range t.tracks {
		if tr.miss <= t.cfg.MaxMisses {
			alive = append(alive, tr)
		}
	}
	t.tracks = alive

	// Merge coincident tracks: PDA's shared-measurement updates let
	// duplicates ride the same object forever, so near-identical
	// hypotheses collapse onto the most established one.
	t.mergeDuplicates()

	confirmed := make([]*Track, 0, len(t.tracks))
	for _, tr := range t.tracks {
		if tr.Confirmed(t.cfg.ConfirmHits) {
			confirmed = append(confirmed, tr)
		}
	}
	return confirmed
}

// mergeDuplicates removes tracks whose position estimate sits within
// MergeDist of a better-established track (more hits; ties keep the
// older ID). The survivor absorbs the duplicate's hit count so
// confirmation is not reset by a merge.
func (t *Tracker) mergeDuplicates() {
	const mergeDist = 1.2
	removed := append(t.removed[:0], make([]bool, len(t.tracks))...)
	t.removed = removed
	for i := 0; i < len(t.tracks); i++ {
		if removed[i] {
			continue
		}
		for j := i + 1; j < len(t.tracks); j++ {
			if removed[j] {
				continue
			}
			a, b := t.tracks[i], t.tracks[j]
			if a.IMM.Pos().Dist(b.IMM.Pos()) > mergeDist {
				continue
			}
			// Keep the better-established hypothesis.
			keep, drop := i, j
			if b.hits > a.hits || (b.hits == a.hits && b.ID < a.ID) {
				keep, drop = j, i
			}
			if t.tracks[drop].hits > t.tracks[keep].hits {
				t.tracks[keep].hits = t.tracks[drop].hits
			}
			if t.tracks[keep].Label == msgs.LabelUnknown {
				t.tracks[keep].Label = t.tracks[drop].Label
			}
			removed[drop] = true
			if drop == i {
				break
			}
		}
	}
	alive := t.tracks[:0]
	for i, tr := range t.tracks {
		if !removed[i] {
			alive = append(alive, tr)
		}
	}
	t.tracks = alive
}

// pdaBetas computes the PDA association weights for gated measurements
// under a measurement prediction: one weight per measurement plus the
// trailing no-detection weight. The result lives in the tracker's
// scratch and is valid until the next call.
func (t *Tracker) pdaBetas(mp *MeasurementPrediction, zs []MeasVec) []float64 {
	det := mp.S[0][0]*mp.S[1][1] - mp.S[0][1]*mp.S[1][0]
	norm := 1.0
	if det > 0 {
		norm = 1 / (2 * math.Pi * math.Sqrt(det))
	}
	beta := append(t.betas[:0], make([]float64, len(zs)+1)...)
	t.betas = beta
	sum := 0.0
	for i, z := range zs {
		m := mahalanobis2(MeasVec{z[0] - mp.Z[0], z[1] - mp.Z[1]}, &mp.SInv)
		beta[i] = t.cfg.DetectionProb * norm * math.Exp(-0.5*m)
		sum += beta[i]
	}
	b0 := t.cfg.ClutterDensity * (1 - t.cfg.DetectionProb)
	total := sum + b0
	for i := range zs {
		beta[i] /= total
	}
	beta[len(zs)] = b0 / total
	return beta
}

// Process implements ros.Node.
func (t *Tracker) Process(in *ros.Message, now time.Duration) ros.Result {
	arr, ok := in.Payload.(*msgs.DetectedObjectArray)
	if !ok {
		return ros.Result{}
	}
	startOps := t.totalFPOps()
	confirmed := t.Step(arr.Objects, in.Header.Stamp)
	filterOps := t.totalFPOps() - startOps

	out := make([]msgs.DetectedObject, 0, len(confirmed))
	for _, tr := range confirmed {
		pos := tr.IMM.Pos()
		out = append(out, msgs.DetectedObject{
			ID:       tr.ID,
			Label:    tr.Label,
			Score:    tr.Score,
			Pose:     geom.Pose{Pos: geom.V3(pos.X, pos.Y, 0), Yaw: tr.IMM.Yaw()},
			Dim:      tr.Dim,
			Velocity: tr.IMM.Velocity(),
			YawRate:  tr.IMM.YawRate(),
			Hull:     tr.Hull,
			Tracked:  true,
		})
	}

	nT := float64(len(t.tracks))
	nG := float64(t.lastGateTests)
	w := work.Work{
		FPOps:        filterOps + nG*40,
		IntOps:       nT*180 + nG*12,
		LoadOps:      filterOps*0.45 + nG*18,
		StoreOps:     filterOps*0.18 + nT*60,
		BranchOps:    nT*90 + nG*8,
		BytesTouched: nT*1600 + nG*96 + 4096,
	}
	return ros.Result{
		Outputs: []ros.Output{{
			Topic:   TopicObjects,
			Payload: &msgs.DetectedObjectArray{Objects: out},
			FrameID: "map",
		}},
		Work: w,
	}
}

func (t *Tracker) totalFPOps() float64 {
	var s float64
	for _, tr := range t.tracks {
		s += tr.IMM.FPOps()
	}
	return s
}
