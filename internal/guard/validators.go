package guard

import (
	"errors"
	"math"

	"repro/internal/msgs"
	"repro/internal/nodes/costmap"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/fusion"
	"repro/internal/nodes/lidardet"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/motion"
	"repro/internal/nodes/planning"
	"repro/internal/nodes/prediction"
	"repro/internal/nodes/tracking"
	"repro/internal/nodes/visiondet"
)

// Validator checks one payload; non-nil means quarantine. Validators
// must be allocation-free on clean input (return sentinel errors) —
// they run on every frame of every guarded topic.
type Validator func(payload any) error

// Validation sentinels shared by the built-in validators.
var (
	// ErrWrongType flags a payload of a type the topic never carries.
	ErrWrongType = errors.New("guard: payload type does not match topic")
	// ErrMissingPayload flags a nil payload or nil required sub-object.
	ErrMissingPayload = errors.New("guard: payload missing required data")
	// ErrNonFinitePoint flags a NaN/Inf cloud point or intensity.
	ErrNonFinitePoint = errors.New("guard: cloud point is not finite")
	// ErrOutOfRangePoint flags a coordinate outside any physical sensor
	// range (an exponent bit-flip).
	ErrOutOfRangePoint = errors.New("guard: cloud point out of sensor range")
	// ErrImageGeometry flags an image whose pixel buffer does not match
	// its dimensions.
	ErrImageGeometry = errors.New("guard: image buffer does not match dimensions")
	// ErrGridGeometry flags an occupancy grid whose cell buffer does not
	// match its dimensions or whose resolution is degenerate.
	ErrGridGeometry = errors.New("guard: grid geometry degenerate")
	// ErrNonFiniteLane flags a NaN/Inf waypoint or an out-of-range best
	// index.
	ErrNonFiniteLane = errors.New("guard: lane array malformed")
	// ErrNonFiniteTwist flags a NaN/Inf velocity command.
	ErrNonFiniteTwist = errors.New("guard: twist is not finite")
)

// MaxAbsCoord bounds any plausible point coordinate in the ego or map
// frame, meters. A LiDAR return beyond it can only be a corrupted
// float, not a real surface.
const MaxAbsCoord = 1e6

// validators wires every topic of the Autoware-style graph to its
// payload validator: clouds on the LiDAR chain, images, object arrays
// on the detection/tracking chain, poses and nav sensors on the
// localization chain, grids, lanes and twists downstream. Topics
// without a validator skip payload checks but still get time
// sanitization.
var validators = map[string]Validator{
	filters.TopicPointsRaw:           ValidatePointCloud,
	filters.TopicFilteredPoints:      ValidatePointCloud,
	filters.TopicPointsGround:        ValidatePointCloud,
	filters.TopicPointsNoGround:      ValidatePointCloud,
	visiondet.TopicImageRaw:          ValidateImage,
	lidardet.TopicObjects:            ValidateDetections,
	fusion.TopicObjects:              ValidateDetections,
	tracking.TopicObjects:            ValidateDetections,
	prediction.TopicPredictedObjects: ValidateDetections,
	localization.TopicCurrentPose:    ValidatePose,
	localization.TopicGNSS:           ValidateGNSS,
	localization.TopicIMU:            ValidateIMU,
	costmap.TopicObjectsCostmap:      ValidateGrid,
	planning.TopicGlobalRoute:        ValidateLanes,
	planning.TopicLocalPath:          ValidateLanes,
	motion.TopicTwistRaw:             ValidateTwist,
	motion.TopicTwistCmd:             ValidateTwist,
}

// ValidatePointCloud rejects clouds with non-finite or physically
// impossible points.
func ValidatePointCloud(payload any) error {
	p, ok := payload.(*msgs.PointCloud)
	if !ok {
		return ErrWrongType
	}
	if p == nil || p.Cloud == nil {
		return ErrMissingPayload
	}
	for i := range p.Cloud.Points {
		pt := &p.Cloud.Points[i]
		if !finite(pt.Pos.X) || !finite(pt.Pos.Y) || !finite(pt.Pos.Z) || !finite(pt.Intensity) {
			return ErrNonFinitePoint
		}
		if pt.Pos.X > MaxAbsCoord || pt.Pos.X < -MaxAbsCoord ||
			pt.Pos.Y > MaxAbsCoord || pt.Pos.Y < -MaxAbsCoord ||
			pt.Pos.Z > MaxAbsCoord || pt.Pos.Z < -MaxAbsCoord {
			return ErrOutOfRangePoint
		}
	}
	return nil
}

// ValidateImage rejects frames whose pixel buffer disagrees with the
// declared geometry.
func ValidateImage(payload any) error {
	p, ok := payload.(*msgs.CameraImage)
	if !ok {
		return ErrWrongType
	}
	if p == nil || p.Frame == nil || p.Frame.Image == nil {
		return ErrMissingPayload
	}
	im := p.Frame.Image
	if im.W <= 0 || im.H <= 0 || len(im.Pix) != 3*im.W*im.H {
		return ErrImageGeometry
	}
	return nil
}

// ValidateDetections applies the tracker's object-array checks.
func ValidateDetections(payload any) error {
	p, ok := payload.(*msgs.DetectedObjectArray)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	return tracking.ValidateDetections(p)
}

// ValidatePose applies the localizer's pose checks.
func ValidatePose(payload any) error {
	p, ok := payload.(*msgs.PoseStamped)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	return localization.ValidatePose(p)
}

// ValidateGNSS applies the localizer's fix checks.
func ValidateGNSS(payload any) error {
	p, ok := payload.(*msgs.GNSS)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	return localization.ValidateGNSS(p)
}

// ValidateIMU applies the localizer's inertial checks.
func ValidateIMU(payload any) error {
	p, ok := payload.(*msgs.IMU)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	return localization.ValidateIMU(p)
}

// ValidateGrid rejects occupancy grids with mismatched buffers or a
// degenerate resolution/origin.
func ValidateGrid(payload any) error {
	p, ok := payload.(*msgs.OccupancyGrid)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	if p.Width <= 0 || p.Height <= 0 || len(p.Data) != p.Width*p.Height {
		return ErrGridGeometry
	}
	if !finite(p.Resolution) || p.Resolution <= 0 || !finite(p.Origin.X) || !finite(p.Origin.Y) {
		return ErrGridGeometry
	}
	return nil
}

// ValidateLanes rejects lane arrays with non-finite waypoints or a
// best index outside [-1, len).
func ValidateLanes(payload any) error {
	p, ok := payload.(*msgs.LaneArray)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	if p.Best < -1 || p.Best >= len(p.Lanes) {
		return ErrNonFiniteLane
	}
	for li := range p.Lanes {
		l := &p.Lanes[li]
		if !finite(l.Cost) {
			return ErrNonFiniteLane
		}
		for wi := range l.Waypoints {
			w := &l.Waypoints[wi]
			if !finite(w.Pos.X) || !finite(w.Pos.Y) || !finite(w.Yaw) || !finite(w.Speed) {
				return ErrNonFiniteLane
			}
		}
	}
	return nil
}

// ValidateTwist rejects non-finite velocity commands.
func ValidateTwist(payload any) error {
	p, ok := payload.(*msgs.TwistStamped)
	if !ok {
		return ErrWrongType
	}
	if p == nil {
		return ErrMissingPayload
	}
	if !finite(p.Twist.Linear) || !finite(p.Twist.Angular) {
		return ErrNonFiniteTwist
	}
	return nil
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
