package world

import "math"

// gridPad widens every cell bound the ray walk compares against, so
// rounding in the track's coordinates can add a cell but never drop one.
const gridPad = 1e-6

// rayAxisEps is the direction component below which the walk treats a
// ray as parallel to that axis, matching geom.AABB3.RayHit.
const rayAxisEps = 1e-12

// buildingGrid is a uniform grid of square cells over the city's
// building footprints, stored flat: the buildings of cell (cx, cy) are
// items[start[i]:start[i+1]] with i = (cx-x0)*h + (cy-y0), so one column
// of cells is contiguous. A building is listed in every cell its
// footprint overlaps.
type buildingGrid struct {
	cell   float64
	x0, y0 int // cell coordinates of the first column and row
	w, h   int
	start  []int32
	items  []int32
}

func newBuildingGrid(bs []Building, cell float64) buildingGrid {
	g := buildingGrid{cell: cell}
	if len(bs) == 0 {
		return g
	}
	x1, y1 := math.MinInt, math.MinInt
	g.x0, g.y0 = math.MaxInt, math.MaxInt
	for _, b := range bs {
		g.x0 = min(g.x0, g.coord(b.Box.Min.X))
		g.y0 = min(g.y0, g.coord(b.Box.Min.Y))
		x1 = max(x1, g.coord(b.Box.Max.X))
		y1 = max(y1, g.coord(b.Box.Max.Y))
	}
	g.w, g.h = x1-g.x0+1, y1-g.y0+1
	// Two passes: count each cell's buildings, then place them, in
	// building order.
	g.start = make([]int32, g.w*g.h+1)
	each := func(b Building, fn func(i int)) {
		for cx := g.coord(b.Box.Min.X); cx <= g.coord(b.Box.Max.X); cx++ {
			for cy := g.coord(b.Box.Min.Y); cy <= g.coord(b.Box.Max.Y); cy++ {
				fn((cx-g.x0)*g.h + (cy - g.y0))
			}
		}
	}
	for _, b := range bs {
		each(b, func(i int) { g.start[i+1]++ })
	}
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	g.items = make([]int32, g.start[len(g.start)-1])
	fill := append([]int32(nil), g.start[:len(g.start)-1]...)
	for bi, b := range bs {
		each(b, func(i int) {
			g.items[fill[i]] = int32(bi)
			fill[i]++
		})
	}
	return g
}

// coord returns the cell coordinate containing v along either axis.
func (g *buildingGrid) coord(v float64) int { return int(math.Floor(v / g.cell)) }

// cellItems lists the buildings of an in-range cell.
func (g *buildingGrid) cellItems(cx, cy int) []int32 {
	i := (cx-g.x0)*g.h + (cy - g.y0)
	return g.items[g.start[i]:g.start[i+1]]
}

// span returns the grid cells along one axis (origin c0, n cells) that
// the interval [lo, hi] overlaps, ordered in the direction d points:
// iterate from first to last by step. ok is false when the interval
// misses the grid.
func (g *buildingGrid) span(lo, hi float64, c0, n int, d float64) (first, last, step int, ok bool) {
	// Clamp in floating point first so far-off coordinates cannot
	// overflow the integer conversion.
	a := clampCell(math.Floor(lo/g.cell)-float64(c0), n)
	b := clampCell(math.Floor(hi/g.cell)-float64(c0), n)
	a, b = max(a, 0), min(b, n-1)
	if a > b {
		return 0, 0, 0, false
	}
	if d < 0 {
		return c0 + b, c0 + a, -1, true
	}
	return c0 + a, c0 + b, 1, true
}

// clampCell converts a cell offset to int after clamping it to
// [-1, n], which keeps far-off or infinite coordinates from overflowing.
func clampCell(f float64, n int) int {
	switch {
	case f < -1:
		return -1
	case f > float64(n):
		return n
	}
	return int(f)
}
