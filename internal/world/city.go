package world

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// City is the static environment: a rectangular street grid with
// box-shaped buildings filling the blocks, plus street furniture
// (poles). Streets run every BlockSize meters in both axes.
type City struct {
	// Blocks is the number of city blocks per axis.
	Blocks int
	// BlockSize is the street-to-street pitch in meters.
	BlockSize float64
	// StreetWidth is the drivable width of each street.
	StreetWidth float64
	Buildings   []Building
	// grid is a coarse uniform grid over building indices for the ray
	// queries of the LiDAR model.
	grid buildingGrid
}

// CityConfig parameterizes city generation.
type CityConfig struct {
	Blocks      int
	BlockSize   float64
	StreetWidth float64
	Seed        uint64
	// BuildingDensity in [0,1] is the chance a lot inside a block gets
	// a building.
	BuildingDensity float64
	// FurnitureSeed, when nonzero, gives street furniture (poles) its
	// own RNG stream instead of continuing the building stream. The
	// scripted default keeps it zero — the shared stream is pinned by
	// historical golden hashes — but generated cities always set it, so
	// mutating BuildingDensity cannot reshuffle pole placement.
	FurnitureSeed uint64
}

// DefaultCityConfig mirrors a dense mid-rise urban district, matching
// the "city of Nagoya" drive context in scale.
func DefaultCityConfig() CityConfig {
	return CityConfig{
		Blocks:          8,
		BlockSize:       100,
		StreetWidth:     14,
		Seed:            0xA07A0,
		BuildingDensity: 0.85,
	}
}

// NewCity deterministically generates a city from the config. It
// panics on an invalid config; generated configs should go through
// BuildCity, which reports the problem as a sentinel error instead.
func NewCity(cfg CityConfig) *City {
	c, err := BuildCity(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// BuildCity deterministically generates a city from the config,
// rejecting invalid parameter combinations with an error wrapping
// ErrCityConfig (hostile or mutated configs must never panic the
// generator).
func BuildCity(cfg CityConfig) (*City, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRNG(cfg.Seed)
	c := &City{
		Blocks:      cfg.Blocks,
		BlockSize:   cfg.BlockSize,
		StreetWidth: cfg.StreetWidth,
	}
	inner := cfg.BlockSize - cfg.StreetWidth // usable block interior
	lotsPerSide := 3
	lot := inner / float64(lotsPerSide)
	for bx := 0; bx < cfg.Blocks; bx++ {
		for by := 0; by < cfg.Blocks; by++ {
			// Block interior origin (after the half street on each side).
			ox := float64(bx)*cfg.BlockSize + cfg.StreetWidth/2
			oy := float64(by)*cfg.BlockSize + cfg.StreetWidth/2
			for lx := 0; lx < lotsPerSide; lx++ {
				for ly := 0; ly < lotsPerSide; ly++ {
					if !rng.Bool(cfg.BuildingDensity) {
						continue
					}
					// Building footprint inside the lot with a margin.
					margin := rng.Range(1, 4)
					w := lot - 2*margin
					if w < 4 {
						continue
					}
					h := rng.Range(6, 30) // building height
					x0 := ox + float64(lx)*lot + margin
					y0 := oy + float64(ly)*lot + margin
					c.Buildings = append(c.Buildings, Building{
						Box: geom.NewAABB3(geom.V3(x0, y0, 0), geom.V3(x0+w, y0+w, h)),
					})
				}
			}
		}
	}
	// Street furniture: poles at intersection corners. With a furniture
	// seed the poles own their stream; otherwise they continue the
	// building stream (the legacy derivation the goldens pin).
	frng := rng
	if cfg.FurnitureSeed != 0 {
		frng = mathx.NewRNG(cfg.FurnitureSeed)
	}
	for ix := 0; ix <= cfg.Blocks; ix++ {
		for iy := 0; iy <= cfg.Blocks; iy++ {
			if !frng.Bool(0.6) {
				continue
			}
			px := float64(ix)*cfg.BlockSize + cfg.StreetWidth/2 + 1
			py := float64(iy)*cfg.BlockSize + cfg.StreetWidth/2 + 1
			if px+0.15 > c.Size() || py+0.15 > c.Size() {
				continue
			}
			c.Buildings = append(c.Buildings, Building{
				Box: geom.NewAABB3(geom.V3(px-0.15, py-0.15, 0), geom.V3(px+0.15, py+0.15, 6)),
			})
		}
	}
	// Quarter-block cells (25 m at the default pitch, a little under a
	// lot): over the scripted map build a ray tests 3.8 buildings in
	// 2.8 cells, where half-block cells made it test 8.6 in 2.4. Finer
	// cells walk more cells than they save in tests, and 10 m cells
	// build the map slower than 25 m ones. The cell size moves only
	// host time: CastRay returns the exact minimum over all buildings
	// at any size.
	c.grid = newBuildingGrid(c.Buildings, c.BlockSize/4)
	return c, nil
}

// Validate rejects parameter combinations the generator cannot turn
// into a well-formed city. Every violation wraps ErrCityConfig.
func (cfg CityConfig) Validate() error {
	switch {
	case cfg.Blocks <= 0 || cfg.Blocks > maxBlocks:
		return fmt.Errorf("%w: blocks %d outside [1, %d]", ErrCityConfig, cfg.Blocks, maxBlocks)
	case !isFinite(cfg.BlockSize) || cfg.BlockSize <= 0:
		return fmt.Errorf("%w: block size %v not a positive finite length", ErrCityConfig, cfg.BlockSize)
	case !isFinite(cfg.StreetWidth) || cfg.StreetWidth < 0 || cfg.StreetWidth >= cfg.BlockSize:
		return fmt.Errorf("%w: street width %v outside [0, block size)", ErrCityConfig, cfg.StreetWidth)
	case !isFinite(cfg.BuildingDensity) || cfg.BuildingDensity < 0 || cfg.BuildingDensity > 1:
		return fmt.Errorf("%w: building density %v outside [0, 1]", ErrCityConfig, cfg.BuildingDensity)
	}
	return nil
}

// Size returns the total extent of the city per axis, meters.
func (c *City) Size() float64 { return float64(c.Blocks) * c.BlockSize }

// StreetCenter returns the centerline coordinate of street index i
// (streets are at multiples of BlockSize).
func (c *City) StreetCenter(i int) float64 { return float64(i) * c.BlockSize }

// CastRay intersects a ray with the static environment (ground plane at
// z=0 plus buildings) and returns the hit distance and whether anything
// was hit within maxRange. It allocates nothing and only reads the
// city, so concurrent scanners may share one.
//
// Buildings come from the grid cells under the ray's ground track,
// visited nearest first; the walk stops at the first cell that starts
// beyond the nearest hit so far. Every point of the track lies in a
// visited cell (cell bounds are padded by gridPad against rounding),
// and every building is listed in each cell its footprint overlaps, so
// the result is the minimum over all buildings, exactly as a brute-force
// scan would find it.
func (c *City) CastRay(origin, dir geom.Vec3, maxRange float64) (float64, bool) {
	best := maxRange
	hit := false
	// Ground plane z=0.
	if dir.Z < -1e-9 {
		t := -origin.Z / dir.Z
		if t > 0 && t < best {
			best = t
			hit = true
		}
	}
	g := &c.grid
	if len(g.items) == 0 {
		return best, hit
	}
	end := origin.Add(dir.Scale(best))
	xmin, xmax := minf(origin.X, end.X)-gridPad, maxf(origin.X, end.X)+gridPad
	ymin, ymax := minf(origin.Y, end.Y)-gridPad, maxf(origin.Y, end.Y)+gridPad
	cx, cxEnd, cxStep, ok := g.span(xmin, xmax, g.x0, g.w, dir.X)
	if !ok {
		return best, hit
	}
	alongX := math.Abs(dir.X) >= rayAxisEps
	alongY := math.Abs(dir.Y) >= rayAxisEps
	for ; ; cx += cxStep {
		// The track's y-extent inside column cx.
		ya, yb := ymin, ymax
		if alongX {
			lo := float64(cx) * g.cell
			xa, xb := maxf(xmin, lo-gridPad), minf(xmax, lo+g.cell+gridPad)
			near := xa
			if dir.X < 0 {
				near = xb
			}
			if (near-origin.X)/dir.X > best {
				break
			}
			ya = origin.Y + (xa-origin.X)*dir.Y/dir.X
			yb = origin.Y + (xb-origin.X)*dir.Y/dir.X
			if ya > yb {
				ya, yb = yb, ya
			}
			ya, yb = maxf(ya-gridPad, ymin), minf(yb+gridPad, ymax)
		}
		if cy, cyEnd, cyStep, ok := g.span(ya, yb, g.y0, g.h, dir.Y); ok {
			for ; ; cy += cyStep {
				if alongY {
					near := float64(cy)*g.cell - gridPad
					if dir.Y < 0 {
						near += g.cell + 2*gridPad
					}
					if (near-origin.Y)/dir.Y > best {
						break
					}
				}
				for _, bi := range g.cellItems(cx, cy) {
					if t, ok := c.Buildings[bi].Box.RayHit(origin, dir, best); ok && t < best {
						best = t
						hit = true
					}
				}
				if cy == cyEnd {
					break
				}
			}
		}
		if cx == cxEnd {
			break
		}
	}
	return best, hit
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
