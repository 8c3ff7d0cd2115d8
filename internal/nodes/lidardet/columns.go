package lidardet

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/pointcloud"
)

// columns indexes the points that region growing has not visited yet by
// XY column: a grid over their XY bounding box whose cells are wider
// than the tolerance, so every point within the tolerance of a query
// lies in the 3×3 cells around the query's, whatever its Z. A visited
// point leaves its cell by swap-removal, so a query scans only
// unvisited points.
//
// When no such grid exists — a tolerance whose square overflows, or a
// bounding box with an infinite side — the grid is one cell and every
// unvisited point is a candidate.
type columns struct {
	pts    []geom.Vec3
	x0, y0 float64 // bounding-box corner
	inv    float64 // 1 / cell width
	nx, ny int
	start  []int32 // cell c holds order[start[c] : start[c]+live[c]]
	live   []int32
	order  []int32 // point indices, grouped by cell
	gone   []bool  // point -> visited
}

// cellMargin widens a cell past the widest per-axis gap between two
// points within the tolerance. The gap exceeds the tolerance by a few
// ulps at most, and a cell coordinate (x - x0) / width is off by a few
// ulps of itself, below 2^-20 with fewer than 2^31 cells; 2^-16 leaves
// two coordinates within the tolerance less than one cell apart.
const cellMargin = 1 + 0x1p-16

// minCellWidth is the narrowest cell: below it a tolerance's square
// is subnormal or zero, so its relative rounding is unbounded.
const minCellWidth = 0x1p-500

// reset indexes every point of pts, which must not be empty, as
// unvisited for queries of radius tol (positive): the cells are at
// least tol wide and there are at most len(pts) of them.
func (g *columns) reset(pts []geom.Vec3, tol float64) {
	n := len(pts)
	g.pts = pts
	g.nx, g.ny, g.x0, g.y0, g.inv = 1, 1, 0, 0, 0
	if tol*tol <= math.MaxFloat64 {
		box := geom.EmptyAABB3()
		for _, p := range pts {
			box.Expand(p)
		}
		ex, ey := box.Max.X-box.Min.X, box.Max.Y-box.Min.Y
		if ex <= math.MaxFloat64 && ey <= math.MaxFloat64 {
			w := max(tol, minCellWidth) * cellMargin
			for {
				fx, fy := math.Floor(ex/w)+1, math.Floor(ey/w)+1
				if fx*fy <= float64(n) {
					g.nx, g.ny = int(fx), int(fy)
					break
				}
				w *= max(math.Sqrt(fx*fy/float64(n)), 1+0x1p-8)
			}
			g.x0, g.y0, g.inv = box.Min.X, box.Min.Y, 1/w
		}
	}
	cells := g.nx * g.ny
	g.start = slices.Grow(g.start[:0], cells)[:cells]
	g.live = slices.Grow(g.live[:0], cells)[:cells]
	clear(g.live)
	for _, p := range pts {
		g.live[g.cell(p)]++
	}
	var sum int32
	for c, k := range g.live {
		g.start[c] = sum
		sum += k
	}
	clear(g.live)
	g.order = slices.Grow(g.order[:0], n)[:n]
	for i, p := range pts {
		c := g.cell(p)
		g.order[g.start[c]+g.live[c]] = int32(i)
		g.live[c]++
	}
	g.gone = slices.Grow(g.gone[:0], n)[:n]
	clear(g.gone)
}

// column returns the column index of coordinate v from corner v0 on an
// axis of n cells; NaN and out-of-range values clamp to the edges.
func (g *columns) column(v, v0 float64, n int) int {
	u := (v - v0) * g.inv
	if !(u > 0) {
		return 0
	}
	if u >= float64(n-1) {
		return n - 1
	}
	return int(u)
}

// cell returns the index of p's cell.
func (g *columns) cell(p geom.Vec3) int {
	return g.column(p.Y, g.y0, g.ny)*g.nx + g.column(p.X, g.x0, g.nx)
}

// visited reports whether point i has left the grid.
func (g *columns) visited(i int32) bool { return g.gone[i] }

// removeAt takes the point at order[at] out of cell c, moving the
// cell's last unvisited point into its place.
func (g *columns) removeAt(c int, at int32) {
	last := g.start[c] + g.live[c] - 1
	g.gone[g.order[at]] = true
	g.order[at] = g.order[last]
	g.live[c]--
}

// remove takes the unvisited point i out of its cell.
func (g *columns) remove(i int32) {
	c := g.cell(g.pts[i])
	at := g.start[c]
	for g.order[at] != i {
		at++
	}
	g.removeAt(c, at)
}

// take removes from the grid the unvisited points that tree.Radius(q,
// tol) returns, appends each to out packed as its OrderKey above its
// index, and sorts them into the order Radius returns them in.
func (g *columns) take(tree *pointcloud.KDTree, q geom.Vec3, tol float64, out []uint64) []uint64 {
	r2 := tol * tol
	cx, cy := g.column(q.X, g.x0, g.nx), g.column(q.Y, g.y0, g.ny)
	for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
		for x := max(cx-1, 0); x <= min(cx+1, g.nx-1); x++ {
			c := y*g.nx + x
			for at := g.start[c]; at < g.start[c]+g.live[c]; {
				j := g.order[at]
				if g.pts[j].DistSq(q) <= r2 {
					if key, ok := tree.OrderKey(q, j, tol); ok {
						out = append(out, uint64(key)<<32|uint64(j))
						g.removeAt(c, at)
						continue // at now holds the cell's last point
					}
				}
				at++
			}
		}
	}
	slices.Sort(out)
	return out
}
