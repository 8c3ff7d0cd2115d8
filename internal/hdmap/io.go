package hdmap

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/pointcloud"
)

// serialized is the on-disk form of a Sweep. The file stores the thinned
// points, not the NDT grid: the grid is rebuilt on load from the stored
// leaf/minPoints, so the file stays compact and the regularization logic
// has a single home.
type serialized struct {
	Magic          string
	Version        int
	Points         []pointcloud.Point
	NDTLeaf        float64
	MinVoxelPoints int
	Scans          int
}

const mapMagic = "AVMAP"

// Save writes the sweep to w in a compact binary form.
func (sw *Sweep) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	err := enc.Encode(serialized{
		Magic:          mapMagic,
		Version:        1,
		Points:         sw.Cloud.Points,
		NDTLeaf:        sw.NDTLeaf,
		MinVoxelPoints: sw.MinVoxelPoints,
		Scans:          sw.Scans,
	})
	if err != nil {
		return fmt.Errorf("hdmap: saving map: %w", err)
	}
	return nil
}

// SaveFile writes the sweep to a file path.
func (sw *Sweep) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("hdmap: creating %s: %w", path, err)
	}
	defer f.Close()
	return sw.Save(f)
}

// LoadSweepFile reads a sweep previously written by Save.
func LoadSweepFile(path string) (*Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hdmap: opening %s: %w", path, err)
	}
	defer f.Close()
	var s serialized
	if err := gob.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("hdmap: reading map: %w", err)
	}
	if s.Magic != mapMagic {
		return nil, fmt.Errorf("hdmap: not a map file (magic %q)", s.Magic)
	}
	if s.Version != 1 {
		return nil, fmt.Errorf("hdmap: unsupported map version %d", s.Version)
	}
	minPts := s.MinVoxelPoints
	if minPts <= 0 {
		minPts = DefaultConfig().MinVoxelPoints
	}
	return &Sweep{
		Cloud:          &pointcloud.Cloud{Points: s.Points},
		Scans:          s.Scans,
		NDTLeaf:        s.NDTLeaf,
		MinVoxelPoints: minPts,
	}, nil
}

// LoadFile reads a map file and builds its NDT grid; the stored points
// are dropped once the grid is built.
func LoadFile(path string) (*Map, error) {
	sw, err := LoadSweepFile(path)
	if err != nil {
		return nil, err
	}
	return sw.Map(), nil
}
