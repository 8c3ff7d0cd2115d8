package pointcloud

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// refTree is the layout a full sort per level builds: node slots in
// pre-order, the median by (coordinate, index) at each subtree root.
func refTree(pts []geom.Vec3) []kdNode {
	nodes := make([]kdNode, len(pts))
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	var build func(idx []int32, depth int, base int32)
	build = func(idx []int32, depth int, base int32) {
		axis := depth % 3
		sort.Slice(idx, func(a, b int) bool { return kdLess(pts, idx[a], idx[b], axis) })
		mid := len(idx) / 2
		left, right := int32(-1), int32(-1)
		if mid > 0 {
			left = base + 1
		}
		if mid+1 < len(idx) {
			right = base + 1 + int32(mid)
		}
		nodes[base] = kdNode{pos: pts[idx[mid]], idx: idx[mid], axis: int8(axis), left: left, right: right}
		if left >= 0 {
			build(idx[:mid], depth+1, left)
		}
		if right >= 0 {
			build(idx[mid+1:], depth+1, right)
		}
	}
	if len(pts) > 0 {
		build(idx, 0, 0)
	}
	return nodes
}

// refRadius is the recursive query: it returns the matches in visit
// order and the number of nodes visited.
func refRadius(nodes []kdNode, node int32, q geom.Vec3, r2 float64, out []int32, steps *int) []int32 {
	n := &nodes[node]
	*steps++
	if n.pos.DistSq(q) <= r2 {
		out = append(out, n.idx)
	}
	delta := coord(q, int(n.axis)) - coord(n.pos, int(n.axis))
	near, far := n.right, n.left
	if delta < 0 {
		near, far = n.left, n.right
	}
	if near >= 0 {
		out = refRadius(nodes, near, q, r2, out, steps)
	}
	if far >= 0 && delta*delta <= r2 {
		out = refRadius(nodes, far, q, r2, out, steps)
	}
	return out
}

// TestKDTreeMatchesSortedReference pins what clustering depends on: the
// quickselect build lays out exactly the full-sort tree, and Radius
// returns the recursive query's matches in the same order with the same
// traversal count (the count feeds euclidean_cluster's work model).
func TestKDTreeMatchesSortedReference(t *testing.T) {
	rng := mathx.NewRNG(97)
	tree := NewKDTree(nil)
	for _, n := range []int{1, 2, 13, 100, 777, 5000} {
		pts := randomPoints(rng, n, 20)
		// Repeat coordinates so the index tiebreak decides some medians.
		for i := 0; i+1 < n; i += 7 {
			pts[i+1].X = pts[i].X
		}
		tree.Rebuild(pts)
		want := refTree(pts)
		for i := range want {
			if tree.nodes[i] != want[i] {
				t.Fatalf("n=%d node %d: %+v, want %+v", n, i, tree.nodes[i], want[i])
			}
		}
		for q := 0; q < 200; q++ {
			p := pts[rng.Intn(n)]
			r := rng.Range(0.1, 4)
			tree.ResetCounters()
			got := tree.Radius(p, r, nil)
			steps := 0
			ref := refRadius(want, 0, p, r*r, nil, &steps)
			if tree.TraversalSteps != steps || len(got) != len(ref) {
				t.Fatalf("n=%d: %d matches in %d steps, want %d in %d", n, len(got), tree.TraversalSteps, len(ref), steps)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("n=%d: match %d = %d, want %d", n, i, got[i], ref[i])
				}
			}
		}
	}
}
