// Command mapbuilder runs the ndt_mapping-equivalent sweep: it drives
// the mapping rig along the scenario's route, accumulates the
// point-cloud map, and saves it for reuse — the step the paper performed
// with Autoware's ndt_mapping utility before characterization.
//
// Usage:
//
//	mapbuilder build -out city.avmap [-spacing 5]
//	mapbuilder info  -map city.avmap
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/hdmap"
	"repro/internal/world"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mapbuilder {build|info} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapbuilder:", err)
	os.Exit(1)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("out", "city.avmap", "output map path")
	spacing := fs.Float64("spacing", 5, "distance between mapping scans, meters")
	_ = fs.Parse(args)

	scen := world.NewScenario(world.DefaultScenarioConfig())
	cfg := hdmap.DefaultConfig()
	cfg.ScanSpacing = *spacing

	fmt.Printf("sweeping the mapping rig along the route (spacing %.1f m)...\n", *spacing)
	start := time.Now()
	m, err := hdmap.Build(scen, cfg)
	if err != nil {
		fatal(err)
	}
	if err := m.SaveFile(*out); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built in %.1fs: %d scans, %d map points, %d NDT voxels -> %s (%.1f MB)\n",
		time.Since(start).Seconds(), m.Scans, m.Cloud.Len(), usableVoxels(m), *out,
		float64(st.Size())/1e6)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("map", "city.avmap", "map path")
	_ = fs.Parse(args)

	m, err := hdmap.LoadFile(*path)
	if err != nil {
		fatal(err)
	}
	scen := world.NewScenario(world.DefaultScenarioConfig())
	b := m.Cloud.Bounds()
	fmt.Printf("%s:\n", *path)
	fmt.Printf("  scans          %d\n", m.Scans)
	fmt.Printf("  map points     %d\n", m.Cloud.Len())
	fmt.Printf("  NDT leaf       %.1f m (%d voxels, %d usable)\n", m.NDTLeaf, m.NDT.Len(), usableVoxels(m))
	fmt.Printf("  extent         %.0f x %.0f m\n", b.Size().X, b.Size().Y)
	fmt.Printf("  route coverage %.0f%%\n", 100*m.Coverage(scen, 100))
}

func usableVoxels(m *hdmap.Map) int {
	n := 0
	for _, vs := range m.NDT.Voxels {
		if vs.OK {
			n++
		}
	}
	return n
}
