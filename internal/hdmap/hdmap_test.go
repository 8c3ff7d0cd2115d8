package hdmap

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointcloud"
	"repro/internal/sensor"
	"repro/internal/world"
)

var (
	testMapOnce sync.Once
	testSweep   *Sweep
	testMap     *Map
	testScen    *world.Scenario
)

// sharedMap builds one sweep and its map for all tests in the package
// (the sweep drives the whole route and is the expensive part).
func sharedMap(t testing.TB) (*Map, *world.Scenario) {
	t.Helper()
	testMapOnce.Do(func() {
		testScen = world.NewScenario(world.DefaultScenarioConfig())
		sw, err := SweepRoute(testScen, DefaultConfig())
		if err != nil {
			panic(err)
		}
		testSweep, testMap = sw, sw.Map()
	})
	return testMap, testScen
}

// sharedSweep returns the sweep the shared map was built from.
func sharedSweep(t testing.TB) *Sweep {
	sharedMap(t)
	return testSweep
}

// gridFingerprint hashes a map's NDT grid: a header, then every voxel in
// key order (x, then y, then z) as its key, the hex bits of its mean,
// its full inverse covariance row by row, each lower term read from its
// upper mirror, and its population, the sweep's points in its key.
func gridFingerprint(sw *Sweep, m *Map) (header, sum string) {
	header = fmt.Sprintf("scans=%d points=%d usable=%d\n", m.Scans, sw.Cloud.Len(), m.NDT.Len())
	population := map[pointcloud.VoxelKey]int{}
	for _, p := range sw.Cloud.Points {
		population[pointcloud.KeyFor(p.Pos, sw.NDTLeaf)]++
	}
	type keyed struct {
		k  pointcloud.VoxelKey
		vs *pointcloud.VoxelStats
	}
	var voxels []keyed
	m.NDT.ForEach(func(k pointcloud.VoxelKey, vs *pointcloud.VoxelStats) {
		voxels = append(voxels, keyed{k, vs})
	})
	slices.SortFunc(voxels, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.k.X, b.k.X), cmp.Compare(a.k.Y, b.k.Y), cmp.Compare(a.k.Z, b.k.Z))
	})
	h := sha256.New()
	h.Write([]byte(header))
	upper := [3][3]int{{0, 1, 2}, {1, 3, 4}, {2, 4, 5}}
	for _, v := range voxels {
		k, vs := v.k, v.vs
		fmt.Fprintf(h, "%d %d %d %x %x %x", k.X, k.Y, k.Z, vs.Mean.X, vs.Mean.Y, vs.Mean.Z)
		for _, row := range upper {
			for _, i := range row {
				fmt.Fprintf(h, " %x", vs.InvCov[i])
			}
		}
		fmt.Fprintf(h, " %d\n", population[k])
	}
	return header, fmt.Sprintf("%x", h.Sum(nil))
}

// requireSameGrid fails unless two maps hold the same voxels, bit for
// bit and in the same order, and each looks every voxel up in place.
func requireSameGrid(t *testing.T, got, want *Map) {
	t.Helper()
	if got.NDT.Len() != want.NDT.Len() {
		t.Fatalf("grid has %d voxels, want %d", got.NDT.Len(), want.NDT.Len())
	}
	for i := range want.NDT.Voxels {
		g, w := &got.NDT.Voxels[i], &want.NDT.Voxels[i]
		if fmt.Sprintf("%x", *g) != fmt.Sprintf("%x", *w) {
			t.Fatalf("voxel %d: got %+v, want %+v", i, *g, *w)
		}
		if got.VoxelAt(g.Mean) != g {
			t.Fatalf("voxel %d: not found at its own mean", i)
		}
	}
}

// TestNDTGridPinned pins the shared map's grid bits: every usable
// voxel's key, mean, inverse covariance and population, in key order,
// so the pin holds for any record layout.
func TestNDTGridPinned(t *testing.T) {
	m, _ := sharedMap(t)
	header, sum := gridFingerprint(sharedSweep(t), m)
	const wantHeader = "scans=239 points=553274 usable=46643\n"
	const wantSum = "19ff4594278f5fe8365b97b97178ba3889e513f47e8ec3e81f483f25d492914c"
	if header != wantHeader || sum != wantSum {
		t.Errorf("NDT grid %q %s, want %q %s", header, sum, wantHeader, wantSum)
	}
}

// TestMapFilePinned pins the bytes Save writes for the shared sweep,
// which are the bytes of "mapbuilder build -spacing 10": the thinned
// cloud, point for point, and the grid parameters.
func TestMapFilePinned(t *testing.T) {
	h := sha256.New()
	if err := sharedSweep(t).Save(h); err != nil {
		t.Fatal(err)
	}
	const want = "6dc98a4abdc6ebce3d94f1a2b95dffe2496d6532748ce67d4a6464ac4f1cdd80"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("map file sha256 %s, want %s", got, want)
	}
}

func TestBuildProducesMap(t *testing.T) {
	m, _ := sharedMap(t)
	if n := sharedSweep(t).Cloud.Len(); n < 10000 {
		t.Errorf("map cloud too sparse: %d points", n)
	}
	if m.Scans < 50 {
		t.Errorf("too few mapping scans: %d", m.Scans)
	}
	if m.NDT.Len() < 100 {
		t.Errorf("too few usable NDT voxels: %d", m.NDT.Len())
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	s := world.NewScenario(world.DefaultScenarioConfig())
	cfg := DefaultConfig()
	cfg.ScanSpacing = -1
	if _, err := Build(s, cfg); err == nil {
		t.Error("negative spacing should fail")
	}
	for _, bad := range []func(*Config){
		func(c *Config) { c.LiDAR.Beams = 0 },
		func(c *Config) { c.LiDAR.AzimuthSteps = 0 },
		func(c *Config) { c.LiDAR = sensor.LiDARConfig{MaxRange: 80} },
	} {
		cfg := DefaultConfig()
		cfg.ScanSpacing = 50
		bad(&cfg)
		if _, err := Build(s, cfg); err == nil {
			t.Errorf("LiDAR config %+v should fail", cfg.LiDAR)
		}
	}
}

// TestBuildZeroLiDARUsesDefault: a zero Config.LiDAR means the default
// scanner with noise off, so it builds the grid DefaultConfig's builds.
func TestBuildZeroLiDARUsesDefault(t *testing.T) {
	_, s := sharedMap(t)
	zero := Config{ScanSpacing: 50, MapLeaf: 0.4, NDTLeaf: 2, MinVoxelPoints: 4}
	got, err := Build(s, zero)
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	def.ScanSpacing = 50
	want, err := Build(s, def)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scans != want.Scans || got.NDT.Len() == 0 {
		t.Fatalf("zero LiDAR: %d scans and %d voxels, want %d scans", got.Scans, got.NDT.Len(), want.Scans)
	}
	requireSameGrid(t, got, want)
}

func TestVoxelAt(t *testing.T) {
	m, s := sharedMap(t)
	// A point near the route at ground structure height should usually
	// have a voxel; a point far outside the city should not.
	pose, _ := s.EgoRoute.At(30)
	found := false
	for dz := 0.0; dz <= 2 && !found; dz += 0.5 {
		for dx := -6.0; dx <= 6 && !found; dx += 2 {
			if m.VoxelAt(pose.Pos.Add(geom.V3(dx, 0, dz))) != nil {
				found = true
			}
		}
	}
	if !found {
		t.Error("no NDT voxel near route point")
	}
	if m.VoxelAt(geom.V3(-500, -500, 0)) != nil {
		t.Error("voxel outside the city should be nil")
	}
}

func TestNeighborVoxelsSorted(t *testing.T) {
	m, s := sharedMap(t)
	pose, _ := s.EgoRoute.At(60)
	p := pose.Pos.Add(geom.V3(0, 0, 0.2))
	vs := m.NeighborVoxels(p)
	for i := 1; i < len(vs); i++ {
		if vs[i].Mean.DistSq(p) < vs[i-1].Mean.DistSq(p) {
			t.Fatal("neighbor voxels not sorted by distance")
		}
	}
}

func TestCoverageAlongRoute(t *testing.T) {
	m, s := sharedMap(t)
	cov := m.Coverage(s, 50)
	if cov < 0.8 {
		t.Errorf("route coverage = %v, want >= 0.8", cov)
	}
}

// TestCoverageCountsOnlyMappedProbes pins what Coverage counts: every
// probe along the scripted route has a usable voxel neighborhood, and
// none along the same route displaced 10 km from the mapped city does.
func TestCoverageCountsOnlyMappedProbes(t *testing.T) {
	m, s := sharedMap(t)
	if cov := m.Coverage(s, 100); cov != 1 {
		t.Errorf("scripted route coverage = %v, want 1", cov)
	}
	start, _ := s.EgoRoute.At(0)
	off := geom.Vec2{X: 10000}
	wps := s.EgoRoute.Waypoints()
	b := world.NewRouteBuilder(wps[0].Add(off), start.Pos.Z)
	for _, wp := range wps[1:] {
		b.DriveTo(wp.Add(off), 10)
	}
	displaced := &world.Scenario{EgoRoute: b.Build()}
	if cov := m.Coverage(displaced, 100); cov != 0 {
		t.Errorf("coverage of the route displaced 10 km = %v, want 0", cov)
	}
}

func TestDirect7Neighborhood(t *testing.T) {
	m, s := sharedMap(t)
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	var buf []*pointcloud.VoxelStats
	buf = m.Direct7(probe, buf[:0])
	if len(buf) > 7 {
		t.Fatalf("Direct7 returned %d voxels", len(buf))
	}
	// Every returned voxel's mean lies within ~2 cells of the probe.
	for _, vs := range buf {
		if vs.Mean.Dist(probe) > 2*m.NDTLeaf*1.8 {
			t.Errorf("voxel mean %v too far from probe %v", vs.Mean, probe)
		}
	}
	// Reuse: the buffer grows without reallocating beyond capacity.
	buf2 := m.Direct7(probe, buf[:0])
	if len(buf2) != len(buf) {
		t.Error("Direct7 not deterministic")
	}
}

func TestMapSaveLoadRoundTrip(t *testing.T) {
	m, s := sharedMap(t)
	sw := sharedSweep(t)
	path := t.TempDir() + "/test.avmap"
	if err := sw.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loadedSweep, err := LoadSweepFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := sw.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := loadedSweep.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("reloaded sweep saves different bytes")
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scans != m.Scans || loaded.NDTLeaf != m.NDTLeaf {
		t.Errorf("metadata mismatch: %+v", loaded)
	}
	// The rebuilt NDT grid matches voxel for voxel.
	requireSameGrid(t, loaded, m)
	// And localization still works against the loaded map: probe the
	// DIRECT7 neighborhood along the route.
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	if got, want := loaded.Direct7(probe, nil), m.Direct7(probe, nil); len(got) != len(want) || len(want) == 0 {
		t.Errorf("Direct7 after reload: %d voxels, want %d (nonzero)", len(got), len(want))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/junk"
	if err := os.WriteFile(path, []byte("not a map"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("garbage file should fail to load")
	}
	if _, err := LoadFile(path + "/missing"); err == nil {
		t.Error("missing file should fail to load")
	}
}

// BenchmarkDirect7 measures the NDT neighborhood lookup that
// ndt_matching runs seven times per point per Gauss-Newton iteration.
func BenchmarkDirect7(b *testing.B) {
	m, s := sharedMap(b)
	var probes []geom.Vec3
	for t := 0.0; t < 60; t += 0.25 {
		pose, _ := s.EgoRoute.At(t)
		probes = append(probes, pose.Pos.Add(geom.V3(3, 1, 0.5)), pose.Pos.Add(geom.V3(-6, 2, 1.5)))
	}
	buf := make([]*pointcloud.VoxelStats, 0, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Direct7(probes[i%len(probes)], buf[:0])
	}
}

// BenchmarkDirect7Drive measures DIRECT7 lookups where ndt_matching
// makes them: its probes are the world-frame points of the scripted
// drive's filtered scans, each taken at the true pose, from 64 scans
// spread evenly along the route, so the working set spans the map
// instead of fitting in cache as BenchmarkDirect7's does. One op is one
// Direct7 call; the probes cycle in scan order.
func BenchmarkDirect7Drive(b *testing.B) {
	m, s := sharedMap(b)
	lidar := sensor.NewLiDAR(sensor.DefaultLiDARConfig(), s.City)
	const scans = 64
	var probes []geom.Vec3
	for i := 0; i < scans; i++ {
		snap := s.At(s.Duration() * float64(i) / scans)
		filtered, _ := pointcloud.VoxelDownsample(lidar.Scan(&snap), 2.0)
		for _, p := range filtered.Transform(snap.Ego.Pose).Points {
			probes = append(probes, p.Pos)
		}
	}
	buf := make([]*pointcloud.VoxelStats, 0, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.Direct7(probes[i%len(probes)], buf[:0])
	}
}
