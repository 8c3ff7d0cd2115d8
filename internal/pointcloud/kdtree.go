package pointcloud

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// KDTree is a 3-dimensional k-d tree over cloud point indices. It backs
// radius queries for euclidean clustering. Construction is O(n log n);
// the tree refers to the positions slice it was built from and must not
// outlive it. Its points must be NaN-free: a NaN coordinate leaves
// kdLess without a total order, the tree is then laid out
// inconsistently, and Radius misses points within r.
//
// The tree is laid out implicitly in pre-order: slot s roots the subtree
// over slots [s, s+size), nodes[s] is the index of its median point, its
// left subtree takes the next size/2 slots and its right subtree the
// rest. A node's children and split axis (depth mod 3) follow from the
// slot ranges and its split value is its point's coordinate, so a node
// costs only its point index.
type KDTree struct {
	pts   []geom.Vec3
	nodes []int32 // slot -> point index
	// slot is the build's index scratch; once the tree is built it maps
	// each point index to its node slot, which OrderKey reads.
	slot []int32
	// queries is SumRadiusSteps's scratch.
	queries []int32
	// TraversalSteps counts nodes Radius visited since the last
	// ResetCounters call. euclidean_cluster's work model charges these
	// visits, which SumRadiusSteps counts without running the queries,
	// and the µarch trace generators size from them the pointer-chasing
	// access stream that gives the node its poor-locality cache
	// signature (Table VII).
	TraversalSteps int
}

// kdSpan is a subtree: its root slot, its node count and its split
// axis (0=X 1=Y 2=Z).
type kdSpan struct {
	base, size, axis int32
}

// children returns the subtrees of s; either may be empty (size 0).
func (s kdSpan) children() (left, right kdSpan) {
	mid := s.size / 2
	axis := s.axis + 1
	if axis == 3 {
		axis = 0
	}
	return kdSpan{s.base + 1, mid, axis}, kdSpan{s.base + 1 + mid, s.size - mid - 1, axis}
}

// kdMaxDepth bounds the depth of a balanced tree over int32 indices,
// and so the explicit stack of a query.
const kdMaxDepth = 64

// NewKDTree builds a balanced tree over the given positions.
func NewKDTree(pts []geom.Vec3) *KDTree {
	t := &KDTree{}
	t.Rebuild(pts)
	return t
}

// Rebuild re-indexes the tree over a new positions slice, reusing the
// node and scratch storage of previous builds — the zero-allocation
// path for per-frame reconstruction in the clustering node.
func (t *KDTree) Rebuild(pts []geom.Vec3) {
	t.pts = pts
	n := len(pts)
	t.slot = slices.Grow(t.slot[:0], n)[:n]
	for i := range t.slot {
		t.slot[i] = int32(i)
	}
	t.nodes = slices.Grow(t.nodes[:0], n)[:n]
	if n > 0 {
		t.build(t.slot, kdSpan{0, int32(n), 0})
	}
	for s, i := range t.nodes {
		t.slot[i] = int32(s)
	}
}

// build lays out the subtree over idx (a subslice of the index scratch)
// at the slots of s: the median at s.base, the left subtree after it,
// the right subtree after that, so slot assignment depends only on
// subrange sizes.
func (t *KDTree) build(idx []int32, s kdSpan) {
	mid := len(idx) / 2
	selectIdxByAxis(t.pts, idx, mid, s.axis)
	t.nodes[s.base] = idx[mid]
	left, right := s.children()
	if left.size > 0 {
		t.build(idx[:mid], left)
	}
	if right.size > 0 {
		t.build(idx[mid+1:], right)
	}
}

// kdLess orders indices by (coordinate on axis, index). The index
// tiebreak makes the ordering total, so the built tree is a unique
// function of the input regardless of the sorting algorithm, as long
// as no coordinate is NaN: a NaN compares neither less nor greater.
func kdLess(pts []geom.Vec3, a, b int32, axis int32) bool {
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
func selectIdxByAxis(pts []geom.Vec3, idx []int32, k int, axis int32) {
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

func coord(v geom.Vec3, axis int32) float64 {
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
	if len(t.nodes) == 0 {
		return out
	}
	r2 := r * r
	// An explicit stack replaces recursion: pushing the far child before
	// the near one visits nodes in the recursive order.
	var stack [kdMaxDepth]kdSpan
	stack[0] = kdSpan{0, int32(len(t.nodes)), 0}
	sp, steps := 1, 0
	for sp > 0 {
		sp--
		s := stack[sp]
		steps++
		i := t.nodes[s.base]
		p := t.pts[i]
		if p.DistSq(q) <= r2 {
			out = append(out, i)
		}
		left, right := s.children()
		delta := coord(q, s.axis) - coord(p, s.axis)
		near, far := right, left
		if delta < 0 {
			near, far = left, right
		}
		if far.size > 0 && delta*delta <= r2 {
			stack[sp] = far
			sp++
		}
		if near.size > 0 {
			stack[sp] = near
			sp++
		}
	}
	t.TraversalSteps += steps
	return out
}

// SumRadiusSteps returns the number of nodes Radius(pts[i], r) visits,
// summed over the point indices i in qs, without running the queries.
// It walks the tree once, top down: each node counts the queries that
// reach it and splits them between its children by Radius's own rule,
// so a query that reaches both children is carried into both. The
// split is branch-free: with delta = q[axis] - split, Radius visits the
// left child iff delta < 0 || delta*delta <= r*r and the right child
// iff !(delta < 0) || delta*delta <= r*r, which are one comparison each
// against kdBounds. TraversalSteps is not advanced.
func (t *KDTree) SumRadiusSteps(qs []int32, r float64) int {
	if len(t.nodes) == 0 || len(qs) == 0 {
		return 0
	}
	goLeft, goRight := kdBounds(r * r)
	steps := 0
	t.queries = t.sumSteps(append(t.queries[:0], qs...), kdSpan{0, int32(len(t.nodes)), 0}, 0, len(qs), goLeft, goRight, &steps)
	return steps
}

// sumSteps adds to *steps the visits that the queries qs[lo:hi], all of
// which reach subtree s, make inside it. Queries bound for the left
// child are packed at the front of their own segment; those bound for
// the right child are appended past the end of qs, which is trimmed
// back to its length on entry before returning.
func (t *KDTree) sumSteps(qs []int32, s kdSpan, lo, hi int, goLeft, goRight float64, steps *int) []int32 {
	*steps += hi - lo
	left, right := s.children()
	if lo == hi || left.size == 0 {
		return qs
	}
	split := coord(t.pts[t.nodes[s.base]], s.axis)
	end := len(qs)
	qs = slices.Grow(qs, hi-lo)[:end+hi-lo]
	nl, nr := lo, end
	for j := lo; j < hi; j++ {
		q := qs[j]
		delta := coord(t.pts[q], s.axis) - split
		qs[nl], qs[nr] = q, q
		if delta <= goLeft {
			nl++
		}
		if !(delta < goRight) {
			nr++
		}
	}
	// The right child's queries go first, so the left child's appended
	// lists reuse their space.
	if right.size > 0 {
		qs = t.sumSteps(qs[:nr], right, end, nr, goLeft, goRight, steps)
	}
	return t.sumSteps(qs[:end], left, lo, nl, goLeft, goRight, steps)
}

// kdBounds returns the thresholds that decide, from delta = q[axis] -
// split, which children a query with squared radius r2 visits: the left
// iff delta <= goLeft, the right iff !(delta < goRight). Normally
// goLeft is the largest t with t*t <= r2 (+Inf when r2 is +Inf), found
// by bisecting the ordered bit patterns of the non-negative doubles, and
// goRight is -t; rounding is monotone, so delta <= t iff delta*delta <=
// r2 for delta >= 0, NaN failing both. A NaN r2 prunes every far child,
// so then each query visits its near child only.
func kdBounds(r2 float64) (goLeft, goRight float64) {
	if r2 != r2 {
		return -math.SmallestNonzeroFloat64, 0
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if v := math.Float64frombits(mid); v*v <= r2 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	t := math.Float64frombits(lo)
	return t, -t
}

// OrderKey returns point i's position in the near-first pre-order that
// Radius(q, r) walks the tree in, and whether that walk reaches point i
// at all. Radius emits its matches in this order, so sorting matches by
// key reproduces its output order. O(depth).
func (t *KDTree) OrderKey(q geom.Vec3, i int32, r float64) (key int, reached bool) {
	r2 := r * r
	target := t.slot[i]
	s := kdSpan{0, int32(len(t.nodes)), 0}
	for s.base != target {
		left, right := s.children()
		delta := coord(q, s.axis) - coord(t.pts[t.nodes[s.base]], s.axis)
		inLeft := target < right.base
		child, other := right, left
		if inLeft {
			child, other = left, right
		}
		if inLeft == (delta < 0) {
			key++ // child is the near side: it follows its parent
		} else if delta*delta <= r2 {
			key += 1 + int(other.size) // the far side follows the near subtree
		} else {
			return 0, false
		}
		s = child
	}
	return key, true
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.pts) }

// ResetCounters zeroes the traversal-step counter.
func (t *KDTree) ResetCounters() { t.TraversalSteps = 0 }
