package pointcloud

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// determinismCloud is a uniformly random cloud; at 30,000 points it
// spans several voxel blocks.
func determinismCloud(n int, seed uint64) *Cloud {
	rng := mathx.NewRNG(seed)
	c := New(n)
	for i := 0; i < n; i++ {
		c.Append(Point{
			Pos: geom.V3(
				rng.Float64()*120-60,
				rng.Float64()*120-60,
				rng.Float64()*6-1,
			),
			Intensity: rng.Float64(),
			Ring:      i % 16,
		})
	}
	return c
}

// voxelFingerprint renders the downsampled cloud to an exact,
// order-sensitive string: any reordering or least-significant-bit
// divergence between runs changes it.
func voxelFingerprint(c *Cloud, leaf float64) string {
	dst := New(0)
	out, kept := VoxelDownsampleInto(c, leaf, dst)
	var b strings.Builder
	fmt.Fprintf(&b, "kept=%d\n", kept)
	for _, p := range out.Points {
		fmt.Fprintf(&b, "%x %x %x %x %d\n",
			p.Pos.X, p.Pos.Y, p.Pos.Z, p.Intensity, p.Ring)
	}
	return b.String()
}

// kdFingerprint renders the built tree's full state: the point in
// every slot, which with the slot count fixes the structure and split
// axes, and the point-to-slot map that OrderKey reads.
func kdFingerprint(t *KDTree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d points=%d slots=%d\n", len(t.nodes), len(t.pts), len(t.slot))
	for s, i := range t.nodes {
		fmt.Fprintf(&b, "%d: idx=%d\n", s, i)
	}
	for i, s := range t.slot {
		fmt.Fprintf(&b, "point %d: slot=%d\n", i, s)
	}
	return b.String()
}

// blockFoldSHA is the sha256 of voxelFingerprint(determinismCloud(30000,
// 42), 2.0) under the 8,192-point block fold. The HD map's point and
// voxel bits are built on the same fold.
const blockFoldSHA = "4f8e0cd80456d067aa67f6011629477770011ca914b6e717ebae28b2ef235263"

// TestVoxelDownsampleBlockFold pins the float association of the voxel
// filter on a cloud that spans several blocks: the output's bits must
// equal the pinned block-fold hash, which a single pass over all points
// does not reproduce. The map build downsamples in place, so the
// in-place result must equal the out-of-place one point for point.
func TestVoxelDownsampleBlockFold(t *testing.T) {
	c := determinismCloud(30000, 42)
	const leaf = 2.0
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(voxelFingerprint(c, leaf)))); got != blockFoldSHA {
		t.Fatalf("voxel fingerprint sha256 = %s, want %s", got, blockFoldSHA)
	}
	want, kept := VoxelDownsample(c, leaf)
	got, keptInPlace := VoxelDownsampleInto(c, leaf, c)
	if keptInPlace != kept || got.Len() != want.Len() {
		t.Fatalf("in place kept %d voxels, out of place %d", keptInPlace, kept)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d: in place %+v, out of place %+v", i, got.Points[i], want.Points[i])
		}
	}
}

// TestKDTreeRebuildAcrossClouds checks storage reuse does not leak
// state between frames: rebuilding over cloud B after cloud A yields
// the same tree as a fresh build over B.
func TestKDTreeRebuildAcrossClouds(t *testing.T) {
	mk := func(seed uint64) []geom.Vec3 {
		c := determinismCloud(12000, seed)
		pts := make([]geom.Vec3, c.Len())
		for i, p := range c.Points {
			pts[i] = p.Pos
		}
		return pts
	}
	a, b := mk(1), mk(2)
	fresh := kdFingerprint(NewKDTree(b))
	reused := NewKDTree(a)
	reused.Rebuild(b)
	if got := kdFingerprint(reused); got != fresh {
		t.Error("Rebuild over reused storage differs from a fresh build of the same cloud")
	}
}
