package pointcloud

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/parallel"
)

// determinismCloud is a LiDAR-scale cloud, big enough (>> kdParallelMin
// and the voxel shard threshold) that the parallel build paths engage.
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

// withWorkers runs fn with the global worker bound set to n, restoring
// the previous setting afterwards so other tests are unaffected.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.MaxWorkers()
	parallel.SetMaxWorkers(n)
	defer parallel.SetMaxWorkers(prev)
	fn()
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

// kdFingerprint renders the built tree's full node array — structure,
// split axes and point order — with exact bit formatting.
func kdFingerprint(t *KDTree) string {
	var b strings.Builder
	fmt.Fprintf(&b, "root=%d n=%d\n", t.root, len(t.nodes))
	for i, n := range t.nodes {
		fmt.Fprintf(&b, "%d: idx=%d axis=%d l=%d r=%d\n", i, n.idx, n.axis, n.left, n.right)
	}
	return b.String()
}

// TestVoxelDownsampleWorkerInvariance pins the property the simulator's
// determinism rests on: the voxel filter output is identical whether
// the shard loop runs on 1, 2 or 8 host workers, and across repeated
// runs at the same width. Host parallelism must be invisible in
// simulated results.
func TestVoxelDownsampleWorkerInvariance(t *testing.T) {
	c := determinismCloud(30000, 42)
	const leaf = 2.0
	var ref string
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers, func() {
			got := voxelFingerprint(c, leaf)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("voxel output at %d workers diverges from 1-worker reference", workers)
			}
			// Repeatability at the same width.
			if again := voxelFingerprint(c, leaf); again != got {
				t.Errorf("voxel output not repeatable at %d workers", workers)
			}
		})
	}
	if ref == "" || ref == "kept=0\n" {
		t.Fatalf("degenerate fingerprint: %q", ref)
	}
}

// TestKDTreeRebuildWorkerInvariance does the same for the k-d tree: the
// node array laid out by the parallel subtree build must be
// bit-identical for any worker count, including reusing one tree's
// storage across Rebuild calls.
func TestKDTreeRebuildWorkerInvariance(t *testing.T) {
	c := determinismCloud(20000, 7)
	pts := make([]geom.Vec3, c.Len())
	for i, p := range c.Points {
		pts[i] = p.Pos
	}
	var ref string
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers, func() {
			tree := NewKDTree(pts)
			got := kdFingerprint(tree)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("k-d tree at %d workers diverges from 1-worker reference", workers)
			}
			// Rebuild over the same points into reused storage must
			// reproduce the identical tree.
			tree.Rebuild(pts)
			if again := kdFingerprint(tree); again != got {
				t.Errorf("Rebuild not repeatable at %d workers", workers)
			}
		})
	}
	if ref == "" || ref == "root=-1 n=0\n" {
		t.Fatalf("degenerate fingerprint: %q", ref)
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
