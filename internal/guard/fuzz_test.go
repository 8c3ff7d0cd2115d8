package guard

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/tracking"
	"repro/internal/pointcloud"
)

// payloadFromBytes deterministically reinterprets fuzz input as sensor
// payloads: consecutive 8-byte windows become float64 bit patterns, so
// the fuzzer reaches NaNs, infinities, denormals and huge exponents —
// exactly the bit-flip corruption the guard exists to stop.
func payloadFromBytes(data []byte) (cloud *msgs.PointCloud, dets *msgs.DetectedObjectArray, pose *msgs.PoseStamped) {
	f := func(i int) float64 {
		if (i+1)*8 > len(data) {
			return 0
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	nf := len(data) / 8

	c := pointcloud.New(nf/4 + 1)
	for i := 0; i+3 < nf; i += 4 {
		c.Append(pointcloud.Point{
			Pos:       geom.Vec3{X: f(i), Y: f(i + 1), Z: f(i + 2)},
			Intensity: f(i + 3),
		})
	}
	cloud = &msgs.PointCloud{Cloud: c}

	dets = &msgs.DetectedObjectArray{}
	for i := 0; i+5 < nf; i += 6 {
		dets.Objects = append(dets.Objects, msgs.DetectedObject{
			Pose:     geom.Pose{Pos: geom.Vec3{X: f(i), Y: f(i + 1)}, Yaw: f(i + 2)},
			Dim:      geom.Vec3{X: f(i + 3), Y: f(i + 4), Z: 1},
			Score:    f(i + 5),
			Velocity: geom.Vec2{X: f(i), Y: f(i + 1)},
		})
	}

	pose = &msgs.PoseStamped{
		Pose:    geom.Pose{Pos: geom.Vec3{X: f(0), Y: f(1), Z: f(2)}, Yaw: f(3)},
		Fitness: f(4),
	}
	return cloud, dets, pose
}

// FuzzGuardValidate feeds arbitrary bit patterns through the validator
// map and the full guard pipeline. Invariants: no validator ever
// panics, every Inspect returns a verdict whose Quarantine flag and
// Cause agree, and a payload the validators reject is always
// quarantined with CauseMalformed regardless of its stamp.
func FuzzGuardValidate(f *testing.F) {
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	seed := func(words ...uint64) []byte {
		out := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(out[i*8:], w)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(seed(0x3FF0000000000000, 0x4000000000000000, 0x4008000000000000, 0x3FE0000000000000)) // clean 1,2,3 point
	f.Add(seed(nan, 0, 0, 0))                                                                   // NaN X
	f.Add(seed(0, inf, 0, 0))                                                                   // +Inf Y
	f.Add(seed(0x7FE0000000000000, 0, 0, 0))                                                    // huge exponent, out of range
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))                                          // denormal soup

	f.Fuzz(func(t *testing.T, data []byte) {
		cloud, dets, pose := payloadFromBytes(data)

		// Validators must classify, never panic.
		cloudErr := ValidatePointCloud(cloud)
		detsErr := ValidateDetections(dets)
		poseErr := ValidatePose(pose)
		_ = tracking.ValidateDetections(dets)

		// Stamp and arrival time derive from the input too, so time
		// sanitization sees adversarial values alongside the payloads.
		var stamp, now time.Duration
		if len(data) >= 8 {
			stamp = time.Duration(binary.LittleEndian.Uint64(data))
		}
		if len(data) >= 16 {
			now = time.Duration(binary.LittleEndian.Uint64(data[8:]))
		}

		g := New(Config{})
		for _, in := range []struct {
			topic   string
			payload any
			bad     bool
		}{
			{filters.TopicPointsRaw, cloud, cloudErr != nil},
			{tracking.TopicObjects, dets, detsErr != nil},
			{localization.TopicCurrentPose, pose, poseErr != nil},
		} {
			v := g.Inspect(in.topic, stamp, in.payload, now)
			if v.Quarantine != (v.Cause != "") {
				t.Fatalf("inconsistent verdict on %s: %+v", in.topic, v)
			}
			if in.bad && validators[in.topic] != nil {
				if !v.Quarantine || v.Cause != CauseMalformed {
					t.Fatalf("invalid payload on %s escaped: %+v", in.topic, v)
				}
			}
		}
	})
}
