// Command mapbuilder runs the ndt_mapping-equivalent sweep: it drives
// the mapping rig along the scenario's route, accumulates the
// point-cloud map, and saves it for reuse — the step the paper performed
// with Autoware's ndt_mapping utility before characterization. The
// default spacing is hdmap.DefaultConfig's, so a default build writes
// the map every run builds in memory.
//
// Usage:
//
//	mapbuilder build -out city.avmap [-spacing 10]
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
	cfg := hdmap.DefaultConfig()
	spacing := fs.Float64("spacing", cfg.ScanSpacing, "distance between mapping scans, meters")
	_ = fs.Parse(args)

	scen := world.NewScenario(world.DefaultScenarioConfig())
	cfg.ScanSpacing = *spacing

	fmt.Printf("sweeping the mapping rig along the route (spacing %.1f m)...\n", *spacing)
	start := time.Now()
	sw, err := hdmap.SweepRoute(scen, cfg)
	if err != nil {
		fatal(err)
	}
	m := sw.Map()
	if err := sw.SaveFile(*out); err != nil {
		fatal(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built in %.1fs: %d scans, %d map points, %d NDT voxels -> %s (%.1f MB)\n",
		time.Since(start).Seconds(), sw.Scans, sw.Cloud.Len(), m.NDT.Len(), *out,
		float64(st.Size())/1e6)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	path := fs.String("map", "city.avmap", "map path")
	_ = fs.Parse(args)

	sw, err := hdmap.LoadSweepFile(*path)
	if err != nil {
		fatal(err)
	}
	m := sw.Map()
	scen := world.NewScenario(world.DefaultScenarioConfig())
	b := sw.Cloud.Bounds()
	fmt.Printf("%s:\n", *path)
	fmt.Printf("  scans          %d\n", m.Scans)
	fmt.Printf("  map points     %d\n", sw.Cloud.Len())
	fmt.Printf("  NDT leaf       %.1f m (%d usable voxels)\n", m.NDTLeaf, m.NDT.Len())
	fmt.Printf("  extent         %.0f x %.0f m\n", b.Size().X, b.Size().Y)
	fmt.Printf("  route coverage %.0f%%\n", 100*m.Coverage(scen, 100))
}
