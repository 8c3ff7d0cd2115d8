package geom

import (
	"fmt"
	"math"
)

// Pose is a rigid transform in the plane with an altitude: position,
// yaw (heading) and z. Full 3D orientation is not needed anywhere in the
// stack — vehicles and the LiDAR rig stay level — so roll/pitch are
// omitted by design.
type Pose struct {
	Pos Vec3
	Yaw float64
}

// NewPose builds a Pose from a 2D position, altitude and yaw.
func NewPose(x, y, z, yaw float64) Pose {
	return Pose{Pos: Vec3{x, y, z}, Yaw: WrapAngle(yaw)}
}

// Transform maps a point from the pose's local frame to the world frame.
func (p Pose) Transform(local Vec3) Vec3 {
	s, c := math.Sincos(p.Yaw)
	return Vec3{
		p.Pos.X + local.X*c - local.Y*s,
		p.Pos.Y + local.X*s + local.Y*c,
		p.Pos.Z + local.Z,
	}
}

// Inverse maps a world point into the pose's local frame.
func (p Pose) Inverse(world Vec3) Vec3 {
	d := world.Sub(p.Pos)
	s, c := math.Sincos(-p.Yaw)
	return Vec3{
		d.X*c - d.Y*s,
		d.X*s + d.Y*c,
		d.Z,
	}
}

// Compose returns the pose obtained by applying q in p's frame
// (i.e. p then q, like matrix multiplication p*q).
func (p Pose) Compose(q Pose) Pose {
	return Pose{
		Pos: p.Transform(q.Pos),
		Yaw: WrapAngle(p.Yaw + q.Yaw),
	}
}

// Forward returns the unit heading vector of the pose on the ground plane.
func (p Pose) Forward() Vec2 {
	s, c := math.Sincos(p.Yaw)
	return Vec2{c, s}
}

// XY returns the ground-plane position.
func (p Pose) XY() Vec2 { return p.Pos.XY() }

// String implements fmt.Stringer.
func (p Pose) String() string {
	return fmt.Sprintf("pose{%s yaw=%.3f}", p.Pos, p.Yaw)
}

// Twist is a velocity command or measurement: linear speed along the
// heading and angular (yaw) rate.
type Twist struct {
	Linear  float64 // m/s
	Angular float64 // rad/s
}

// Integrate advances a pose by the twist over dt seconds using the
// unicycle model (exact arc integration when Angular != 0).
func (t Twist) Integrate(p Pose, dt float64) Pose {
	if math.Abs(t.Angular) < 1e-9 {
		d := p.Forward().Scale(t.Linear * dt)
		return Pose{Pos: p.Pos.Add(Vec3{d.X, d.Y, 0}), Yaw: p.Yaw}
	}
	r := t.Linear / t.Angular
	newYaw := p.Yaw + t.Angular*dt
	dx := r * (math.Sin(newYaw) - math.Sin(p.Yaw))
	dy := r * (-math.Cos(newYaw) + math.Cos(p.Yaw))
	return Pose{Pos: p.Pos.Add(Vec3{dx, dy, 0}), Yaw: WrapAngle(newYaw)}
}
