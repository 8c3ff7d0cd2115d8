package pointcloud

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// refNode is one node of the reference tree, with its links explicit.
type refNode struct {
	pos         geom.Vec3
	idx         int32 // index into pts
	left, right int32 // node slots, -1 for none
	axis        int32 // 0=X 1=Y 2=Z
}

// refTree is the layout a full sort per level builds: node slots in
// pre-order, the median by (coordinate, index) at each subtree root,
// the left subtree in the slots after it and the right subtree after
// that.
func refTree(pts []geom.Vec3) []refNode {
	layout := make([]int32, len(pts))
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	var build func(idx []int32, depth int, base int)
	build = func(idx []int32, depth int, base int) {
		axis := int32(depth % 3)
		sort.Slice(idx, func(a, b int) bool { return kdLess(pts, idx[a], idx[b], axis) })
		mid := len(idx) / 2
		layout[base] = idx[mid]
		if mid > 0 {
			build(idx[:mid], depth+1, base+1)
		}
		if mid+1 < len(idx) {
			build(idx[mid+1:], depth+1, base+1+mid)
		}
	}
	if len(pts) > 0 {
		build(idx, 0, 0)
	}
	return refLinks(pts, layout)
}

// refLinks stores the links and split axes of a pre-order layout (slot
// -> point index) explicitly.
func refLinks(pts []geom.Vec3, layout []int32) []refNode {
	nodes := make([]refNode, len(layout))
	var link func(base, size, depth int)
	link = func(base, size, depth int) {
		mid := size / 2
		left, right := int32(-1), int32(-1)
		if mid > 0 {
			left = int32(base + 1)
			link(base+1, mid, depth+1)
		}
		if mid+1 < size {
			right = int32(base + 1 + mid)
			link(base+1+mid, size-mid-1, depth+1)
		}
		i := layout[base]
		nodes[base] = refNode{pos: pts[i], idx: i, axis: int32(depth % 3), left: left, right: right}
	}
	if len(layout) > 0 {
		link(0, len(layout), 0)
	}
	return nodes
}

// refRadius is the recursive query: it returns the matches in visit
// order and the number of nodes visited. If visited is not nil, every
// visited node's point is appended to it in visit order; if prune is
// false, no far child is skipped.
func refRadius(nodes []refNode, node int32, q geom.Vec3, r2 float64, prune bool, out []int32, steps *int, visited *[]int32) []int32 {
	n := &nodes[node]
	*steps++
	if visited != nil {
		*visited = append(*visited, n.idx)
	}
	if n.pos.DistSq(q) <= r2 {
		out = append(out, n.idx)
	}
	delta := coord(q, n.axis) - coord(n.pos, n.axis)
	near, far := n.right, n.left
	if delta < 0 {
		near, far = n.left, n.right
	}
	if near >= 0 {
		out = refRadius(nodes, near, q, r2, prune, out, steps, visited)
	}
	if far >= 0 && (!prune || delta*delta <= r2) {
		out = refRadius(nodes, far, q, r2, prune, out, steps, visited)
	}
	return out
}

// tiedPoints is a random cloud in which every seventh point repeats its
// predecessor's X, every fifth its Y and every eleventh its whole
// position, so the index tiebreak decides some medians on every axis.
func tiedPoints(rng *mathx.RNG, n int, span float64) []geom.Vec3 {
	pts := randomPoints(rng, n, span)
	for i := 1; i < n; i++ {
		switch {
		case i%11 == 0:
			pts[i] = pts[i-1]
		case i%7 == 0:
			pts[i].X = pts[i-1].X
		case i%5 == 0:
			pts[i].Y = pts[i-1].Y
		}
	}
	return pts
}

// TestKDTreeMatchesSortedReference pins what clustering depends on: the
// quickselect build puts exactly the full-sort tree's point in every
// slot, and Radius, which derives links and axes from the slot ranges,
// returns the recursive query over the reference's stored links with
// the same matches in the same order and the same traversal count (the
// count feeds euclidean_cluster's work model).
func TestKDTreeMatchesSortedReference(t *testing.T) {
	rng := mathx.NewRNG(97)
	tree := NewKDTree(nil)
	for _, n := range []int{1, 2, 3, 13, 100, 777, 5000} {
		pts := tiedPoints(rng, n, 20)
		tree.Rebuild(pts)
		want := refTree(pts)
		if len(tree.nodes) != len(want) {
			t.Fatalf("n=%d: %d slots, want %d", n, len(tree.nodes), len(want))
		}
		for s := range want {
			if tree.nodes[s] != want[s].idx {
				t.Fatalf("n=%d slot %d: point %d, want %+v", n, s, tree.nodes[s], want[s])
			}
			if tree.slot[want[s].idx] != int32(s) {
				t.Fatalf("n=%d: point %d maps to slot %d, want %d", n, want[s].idx, tree.slot[want[s].idx], s)
			}
		}
		for q := 0; q < 200; q++ {
			p := pts[rng.Intn(n)]
			r := rng.Range(0.1, 4)
			tree.ResetCounters()
			got := tree.Radius(p, r, nil)
			steps := 0
			ref := refRadius(want, 0, p, r*r, true, nil, &steps, nil)
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

// stepRadii are the radii the bulk count and the order keys are checked
// at: ordinary, zero, one whose square underflows to zero, one whose
// square overflows to +Inf, and the non-finite and negative ones.
var stepRadii = []float64{0.3, 1, 2.5, 40, 0, 1e-170, 1e160, math.Inf(1), math.NaN(), -1.5}

// TestKDTreeSumRadiusSteps pins the bulk count against the sum of the
// steps Radius takes from every indexed point, and from a random subset
// of them, on random trees with
// coordinate ties, duplicate points, and clouds holding NaN and ±Inf
// coordinates, whose deltas take the rule's NaN branches.
func TestKDTreeSumRadiusSteps(t *testing.T) {
	rng := mathx.NewRNG(61)
	tree := NewKDTree(nil)
	for _, n := range []int{1, 2, 3, 4, 9, 64, 333, 2000} {
		for _, odd := range []bool{false, true} {
			pts := tiedPoints(rng, n, 6)
			if odd {
				for i := 2; i < n; i += 5 {
					pts[i].Z = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
				}
				if n > 3 {
					pts[3].X = math.Inf(1)
				}
			}
			tree.Rebuild(pts)
			// Every point, then a random subset with repeats.
			all := make([]int32, n)
			for i := range all {
				all[i] = int32(i)
			}
			some := make([]int32, rng.Intn(n+1))
			for i := range some {
				some[i] = int32(rng.Intn(n))
			}
			for _, r := range stepRadii {
				for _, qs := range [][]int32{all, some} {
					tree.ResetCounters()
					for _, i := range qs {
						tree.Radius(pts[i], r, nil)
					}
					if got := tree.SumRadiusSteps(qs, r); got != tree.TraversalSteps {
						t.Fatalf("n=%d odd=%v r=%v, %d queries: bulk count %d, Radius steps sum to %d", n, odd, r, len(qs), got, tree.TraversalSteps)
					}
				}
			}
		}
	}
}

// TestKDTreeOrderKey pins OrderKey against the reference walk: for
// every point, the key is its position in the unpruned near-first
// pre-order, and it is reported reached iff the pruned query visits
// it; so Radius's matches are exactly the reached points within r, in
// key order. Queries are indexed points, which tie with the splits,
// and random positions.
func TestKDTreeOrderKey(t *testing.T) {
	rng := mathx.NewRNG(71)
	tree := NewKDTree(nil)
	for _, n := range []int{1, 2, 5, 64, 500} {
		for _, odd := range []bool{false, true} {
			pts := tiedPoints(rng, n, 5)
			if odd {
				for i := 1; i < n; i += 4 {
					pts[i].Z = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
				}
			}
			tree.Rebuild(pts)
			// NaN coordinates leave kdLess without a total order, so
			// the layout is the build's own, not a full sort's.
			ref := refLinks(pts, tree.nodes)
			for trial := 0; trial < 40; trial++ {
				q := pts[rng.Intn(n)]
				if trial%2 == 1 {
					q = geom.V3(rng.Range(-5, 5), rng.Range(-5, 5), rng.Range(-5, 5))
				}
				r := stepRadii[trial%len(stepRadii)]
				var all, visited []int32
				steps := 0
				refRadius(ref, 0, q, r*r, false, nil, &steps, &all)
				matches := refRadius(ref, 0, q, r*r, true, nil, &steps, &visited)
				reachedWant := make(map[int32]bool, len(visited))
				for _, i := range visited {
					reachedWant[i] = true
				}
				for pos, i := range all {
					key, reached := tree.OrderKey(q, i, r)
					if reached != reachedWant[i] || (reached && key != pos) {
						t.Fatalf("n=%d odd=%v q=%v r=%v point %d: key %d reached %v, want %d reached %v",
							n, odd, q, r, i, key, reached, pos, reachedWant[i])
					}
				}
				got := tree.Radius(q, r, nil)
				if len(got) != len(matches) {
					t.Fatalf("n=%d r=%v: %d matches, want %d", n, r, len(got), len(matches))
				}
				last := -1
				for j, i := range got {
					key, _ := tree.OrderKey(q, i, r)
					if i != matches[j] || key <= last {
						t.Fatalf("n=%d r=%v: match %d is point %d key %d after key %d, want point %d", n, r, j, i, key, last, matches[j])
					}
					last = key
				}
			}
		}
	}
}
