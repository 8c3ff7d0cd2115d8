package hdmap

import (
	"os"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/pointcloud"
	"repro/internal/world"
)

var (
	testMapOnce sync.Once
	testMap     *Map
	testScen    *world.Scenario
)

// sharedMap builds one map for all tests in the package (construction
// sweeps the whole route and is the expensive part).
func sharedMap(t testing.TB) (*Map, *world.Scenario) {
	t.Helper()
	testMapOnce.Do(func() {
		testScen = world.NewScenario(world.DefaultScenarioConfig())
		cfg := DefaultConfig()
		cfg.ScanSpacing = 10 // coarser for test speed
		m, err := Build(testScen, cfg)
		if err != nil {
			panic(err)
		}
		testMap = m
	})
	return testMap, testScen
}

func TestBuildProducesMap(t *testing.T) {
	m, _ := sharedMap(t)
	if m.Cloud.Len() < 10000 {
		t.Errorf("map cloud too sparse: %d points", m.Cloud.Len())
	}
	if m.Scans < 50 {
		t.Errorf("too few mapping scans: %d", m.Scans)
	}
	usable := 0
	for _, vs := range m.NDT.Voxels {
		if vs.OK {
			usable++
		}
	}
	if usable < 100 {
		t.Errorf("too few usable NDT voxels: %d", usable)
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	s := world.NewScenario(world.DefaultScenarioConfig())
	cfg := DefaultConfig()
	cfg.ScanSpacing = -1
	if _, err := Build(s, cfg); err == nil {
		t.Error("negative spacing should fail")
	}
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
		if !vs.OK {
			t.Error("Direct7 returned an unusable voxel")
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
	path := t.TempDir() + "/test.avmap"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cloud.Len() != m.Cloud.Len() {
		t.Errorf("cloud size %d != %d", loaded.Cloud.Len(), m.Cloud.Len())
	}
	if loaded.Scans != m.Scans || loaded.NDTLeaf != m.NDTLeaf {
		t.Errorf("metadata mismatch: %+v", loaded)
	}
	// The rebuilt NDT grid matches voxel for voxel.
	if loaded.NDT.Len() != m.NDT.Len() {
		t.Fatalf("voxel count %d != %d", loaded.NDT.Len(), m.NDT.Len())
	}
	// And localization still works against the loaded map: probe the
	// DIRECT7 neighborhood along the route.
	pose, _ := s.EgoRoute.At(45)
	probe := pose.Pos.Add(geom.V3(0, 0, 0.3))
	a := m.Direct7(probe, nil)
	b := loaded.Direct7(probe, nil)
	if len(a) != len(b) {
		t.Errorf("Direct7 differs after reload: %d vs %d", len(a), len(b))
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
