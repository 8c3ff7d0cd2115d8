package pointcloud

import "repro/internal/geom"

// KDTree is a 3-dimensional k-d tree over cloud point indices. It backs
// radius queries for euclidean clustering. Construction is O(n log n);
// the tree refers to the positions slice it was built from and must not
// outlive it.
type KDTree struct {
	pts   []geom.Vec3
	nodes []kdNode
	idx   []int32 // build scratch, retained for Rebuild
	root  int32
	// TraversalSteps counts nodes visited across all queries since the
	// last ResetCounters call. The µarch trace generators use it to size
	// the pointer-chasing access stream that gives euclidean_cluster its
	// poor-locality cache signature (Table VII).
	TraversalSteps int
}

// kdNode carries a copy of its point, so a query reads the node records
// in pre-order and never chases an index into the positions slice.
type kdNode struct {
	pos         geom.Vec3
	idx         int32 // index into pts
	left, right int32 // node indices, -1 for none
	axis        int8  // 0=X 1=Y 2=Z
}

// kdMaxDepth bounds the depth of a balanced tree over int32 indices,
// and so the explicit stack of a query.
const kdMaxDepth = 64

// NewKDTree builds a balanced tree over the given positions.
func NewKDTree(pts []geom.Vec3) *KDTree {
	t := &KDTree{root: -1}
	t.Rebuild(pts)
	return t
}

// Rebuild re-indexes the tree over a new positions slice, reusing the
// node and scratch storage of previous builds — the zero-allocation
// path for per-frame reconstruction in the clustering node.
func (t *KDTree) Rebuild(pts []geom.Vec3) {
	t.pts = pts
	t.root = -1
	n := len(pts)
	if n == 0 {
		t.nodes = t.nodes[:0]
		return
	}
	if cap(t.idx) < n {
		t.idx = make([]int32, n)
	} else {
		t.idx = t.idx[:n]
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	if cap(t.nodes) < n {
		t.nodes = make([]kdNode, n)
	} else {
		t.nodes = t.nodes[:n]
	}
	t.build(t.idx, 0, 0)
	t.root = 0
}

// build lays out the subtree over idx (a subslice of the index scratch)
// in pre-order at node slots [base, base+len(idx)): the subtree root at
// base, the left subtree at [base+1, base+1+mid), the right subtree
// after it, so slot assignment depends only on subrange sizes.
func (t *KDTree) build(idx []int32, depth int, base int32) {
	axis := depth % 3
	mid := len(idx) / 2
	selectIdxByAxis(t.pts, idx, mid, axis)
	left, right := int32(-1), int32(-1)
	if mid > 0 {
		left = base + 1
	}
	if mid+1 < len(idx) {
		right = base + 1 + int32(mid)
	}
	t.nodes[base] = kdNode{pos: t.pts[idx[mid]], idx: idx[mid], axis: int8(axis), left: left, right: right}
	if left >= 0 {
		t.build(idx[:mid], depth+1, left)
	}
	if right >= 0 {
		t.build(idx[mid+1:], depth+1, right)
	}
}

// kdLess orders indices by (coordinate on axis, index). The index
// tiebreak makes the ordering total, so the built tree is a unique
// function of the input regardless of the sorting algorithm.
func kdLess(pts []geom.Vec3, a, b int32, axis int) bool {
	ca, cb := coord(pts[a], axis), coord(pts[b], axis)
	if ca != cb {
		return ca < cb
	}
	return a < b
}

// selectIdxByAxis partially orders idx by kdLess so that idx[k] holds
// the element a full sort would put there, with smaller elements before
// it and larger ones after: median-of-three quickselect, with insertion
// sort below a threshold. A subtree depends only on the set of indices
// on each side of its median, never on their order within a side, so
// the tree equals the one a full sort per level would build.
// Deterministic (total order, fixed pivoting) and allocation-free.
func selectIdxByAxis(pts []geom.Vec3, idx []int32, k int, axis int) {
	for len(idx) > 12 {
		// Median-of-three pivot, moved to the end.
		m := len(idx) / 2
		hi := len(idx) - 1
		if kdLess(pts, idx[m], idx[0], axis) {
			idx[m], idx[0] = idx[0], idx[m]
		}
		if kdLess(pts, idx[hi], idx[0], axis) {
			idx[hi], idx[0] = idx[0], idx[hi]
		}
		if kdLess(pts, idx[hi], idx[m], axis) {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		idx[m], idx[hi] = idx[hi], idx[m]
		pivot := idx[hi]
		store := 0
		for i := 0; i < hi; i++ {
			if kdLess(pts, idx[i], pivot, axis) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi] = idx[hi], idx[store]
		// Continue in the side that holds position k.
		switch {
		case k == store:
			return
		case k < store:
			idx = idx[:store]
		default:
			idx = idx[store+1:]
			k -= store + 1
		}
	}
	// Insertion sort for small ranges.
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		j := i - 1
		for j >= 0 && kdLess(pts, v, idx[j], axis) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = v
	}
}

func coord(v geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}

// Radius appends to out the indices of all points within r of q and
// returns the extended slice. Passing a reused out slice avoids
// allocation in the clustering hot loop. Points come out in depth-first
// order, nearer subtree first, and each visited node counts one
// traversal step.
func (t *KDTree) Radius(q geom.Vec3, r float64, out []int32) []int32 {
	if t.root < 0 {
		return out
	}
	r2 := r * r
	// An explicit stack replaces recursion: pushing the far child before
	// the near one visits nodes in the recursive order.
	var stack [kdMaxDepth]int32
	stack[0] = t.root
	sp, steps := 1, 0
	for sp > 0 {
		sp--
		n := &t.nodes[stack[sp]]
		steps++
		if n.pos.DistSq(q) <= r2 {
			out = append(out, n.idx)
		}
		delta := coord(q, int(n.axis)) - coord(n.pos, int(n.axis))
		near, far := n.right, n.left
		if delta < 0 {
			near, far = n.left, n.right
		}
		if far >= 0 && delta*delta <= r2 {
			stack[sp] = far
			sp++
		}
		if near >= 0 {
			stack[sp] = near
			sp++
		}
	}
	t.TraversalSteps += steps
	return out
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// ResetCounters zeroes the traversal-step counter.
func (t *KDTree) ResetCounters() { t.TraversalSteps = 0 }
