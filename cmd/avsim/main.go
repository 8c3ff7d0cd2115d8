// Command avsim runs the full stack (optionally with the planning and
// motion layers) on the synthetic drive and reports what the vehicle
// perceives: localization quality, tracked objects, and the latency
// posture of the pipeline.
//
// Usage:
//
//	avsim [-detector SSD512|SSD300|YOLOv3-416] [-duration 30s]
//	      [-planning] [-status 5s] [-faults <scenario>]
//	      [-supervise] [-shed 100ms] [-guard] [-sched]
//	      [-world "<params>"] [-gen <seed>] [-space default|compact]
//
// avsim drives a single stack, on one host thread (DESIGN.md §4a).
//
// -faults attaches a named chaos scenario (see internal/scenario): the
// seeded fault schedule perturbs the drive deterministically, the
// graceful-degradation watchdog substitutes for stalled nodes, and the
// final report includes injected events and degraded intervals.
//
// -supervise attaches the node-lifecycle supervision layer (restart
// with backoff + checkpoint restore; internal/supervise) and -shed
// arms deadline-aware load shedding with the given budget. Scenarios
// that request either (crash-recover, overload-shed) enable them
// automatically.
//
// -guard attaches the input-integrity layer (internal/guard): payload
// validation and time sanitization at the bus boundary; corrupted
// frames are quarantined and reported instead of reaching any node.
// Scenarios that request it (corrupt-lidar, clock-skew, dup-storm)
// enable it automatically. On clean input the guard changes nothing.
//
// -sched attaches the critical-path deadline scheduler (internal/sched)
// with the pinned contention-tuned knobs: earliest-origin-deadline
// dispatch, deadline shedding and a CPU admission cap. avsim drives a
// single stack, so there is no profiling leg to measure criticality on
// and the priority tie-break falls back to registration order; use
// `characterize -faults contention-tuned` (or -exp tune) for the fully
// profiled schedule. Scenarios that pin a schedule (contention-tuned)
// enable the scheduler automatically with their own knobs.
//
// -world drives a procedurally generated world instead of the scripted
// default: pass a params line (the world.MarshalParams codec — the
// string `characterize -exp search` reports as "worst world"). -gen
// generates one from a seed over the -space sampling space and prints
// its params line. Generated chaos scenarios (-faults gen-*) carry
// their own world and need neither flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/avstack"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/world"
)

func main() {
	detector := flag.String("detector", "YOLOv3-416", "vision detector: SSD512, SSD300 or YOLOv3-416")
	duration := flag.Duration("duration", 30*time.Second, "virtual drive duration")
	planning := flag.Bool("planning", false, "run the planning and motion nodes too")
	status := flag.Duration("status", 5*time.Second, "status print interval (virtual time)")
	faultsFlag := flag.String("faults", "", "inject a named chaos scenario: "+strings.Join(scenario.Names(), ", "))
	supervise := flag.Bool("supervise", false, "attach the supervision layer (restart crashed/silent nodes with backoff + checkpoint restore)")
	shed := flag.Duration("shed", 0, "deadline-aware load shedding budget (0 disables): queued frames older than this are shed at dispatch")
	guardFlag := flag.Bool("guard", false, "attach the input-integrity guard (payload validation + time sanitization + quarantine)")
	schedFlag := flag.Bool("sched", false, "attach the critical-path deadline scheduler (EDF dispatch + deadline shedding + admission cap)")
	worldFlag := flag.String("world", "", "drive a generated world: a params line (see world.MarshalParams)")
	genFlag := flag.String("gen", "", "generate the world from this seed instead of the scripted default")
	spaceFlag := flag.String("space", "default", "sampling space for -gen: default or compact")
	flag.Parse()

	var spec scenario.Spec
	if *faultsFlag != "" {
		var err error
		spec, err = scenario.ByName(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "avsim:", err)
			os.Exit(1)
		}
		if min := spec.MinDuration(); *duration < min {
			fmt.Fprintf(os.Stderr, "avsim: scenario %s needs -duration >= %v\n", spec.Name, min)
			os.Exit(1)
		}
	}

	// Resolve the drive parameterization: explicit params line, then a
	// generator seed, then whatever a generated chaos scenario carries.
	var wcfg *world.ScenarioConfig
	switch {
	case *worldFlag != "":
		c, err := world.ParseParams(*worldFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "avsim: -world:", err)
			os.Exit(1)
		}
		wcfg = &c
	case *genFlag != "":
		seed, err := strconv.ParseUint(*genFlag, 0, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avsim: -gen %q is not a seed\n", *genFlag)
			os.Exit(1)
		}
		var sp world.ParamSpace
		switch *spaceFlag {
		case "default":
			sp = world.DefaultSpace()
		case "compact":
			sp = world.CompactSpace()
		default:
			fmt.Fprintf(os.Stderr, "avsim: unknown -space %q (have default, compact)\n", *spaceFlag)
			os.Exit(1)
		}
		c, err := world.Generate(sp, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "avsim: -gen:", err)
			os.Exit(1)
		}
		wcfg = &c
	case spec.World != nil:
		wcfg = spec.World
	}
	if wcfg != nil {
		fmt.Printf("generated world: %s\n", world.MarshalParams(*wcfg))
	}

	fmt.Println("assembling stack (map synthesis takes a few seconds)...")
	guarded := *guardFlag || spec.Guard
	sys, err := avstack.NewSystemWithOptions(avstack.Detector(*detector), avstack.Options{
		WithPlanning: *planning,
		Scenario:     wcfg,
		Guard:        guarded,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "avsim:", err)
		os.Exit(1)
	}
	if guarded {
		fmt.Println("input-integrity guard attached")
	}

	// The spec's layers; -supervise and -sched add theirs, and a -shed
	// budget replaces the spec's.
	layers := avstack.Layers{
		Faults:     spec.Schedule(),
		Supervise:  *supervise || spec.Supervise,
		ShedBudget: *shed,
		Watch:      spec.Watch,
	}
	if layers.ShedBudget == 0 {
		layers.ShedBudget = spec.ShedBudget
	}
	if *schedFlag || spec.Sched != nil {
		knobs := scenario.ContentionTunedKnobs()
		if spec.Sched != nil {
			knobs = *spec.Sched
		}
		// Single-stack run: no profiling leg, so criticality is nil and
		// the priority tie-break degrades to registration order.
		layers.Sched = &knobs
	}
	injector, err := sys.AttachLayers(layers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avsim:", err)
		os.Exit(1)
	}
	if injector != nil {
		fmt.Printf("chaos scenario %q armed:\n", spec.Name)
		for _, f := range spec.Faults {
			fmt.Printf("  %s\n", f)
		}
	}
	if layers.Supervise {
		fmt.Println("supervision layer attached")
	}
	if layers.ShedBudget > 0 {
		fmt.Printf("deadline shedding armed: budget=%v\n", layers.ShedBudget)
	}
	if k := layers.Sched; k != nil {
		fmt.Printf("deadline scheduler attached: priorities=%t shed=%v max_inflight=%d\n",
			k.UsePriorities, k.ShedBudget, k.MaxInflight)
	}

	for elapsed := time.Duration(0); elapsed < *duration; {
		step := *status
		if remaining := *duration - elapsed; remaining < step {
			step = remaining
		}
		sys.Run(step)
		elapsed += step

		pose, ok := sys.Pose()
		truth := sys.GroundTruthPose()
		fmt.Printf("t=%6.1fs ", sys.Now().Seconds())
		if ok {
			fmt.Printf("pose=(%.1f, %.1f) err=%.2fm ", pose.Pos.X, pose.Pos.Y, pose.XY().Dist(truth.XY()))
		} else {
			fmt.Printf("pose=<initializing> ")
		}
		objs := sys.TrackedObjects()
		fmt.Printf("tracks=%d", len(objs))
		shown := 0
		for _, o := range objs {
			if shown >= 3 {
				fmt.Printf(" ...")
				break
			}
			fmt.Printf(" [#%d %s v=%.1fm/s]", o.ID, o.Label, o.Velocity.Norm())
			shown++
		}
		fmt.Println()
	}

	fmt.Println("\n--- pipeline latency (ms) ---")
	for _, n := range sys.Nodes() {
		s := sys.NodeLatency(n)
		fmt.Printf("%-24s mean=%7.2f  q3=%7.2f  max=%8.2f  (n=%d)\n", n, s.Mean, s.Q3, s.Max, s.Count)
	}
	worst, e2e := sys.EndToEnd()
	fmt.Printf("\nend-to-end perception latency (worst path %s): mean %.1f ms, max %.1f ms\n",
		worst, e2e.Mean, e2e.Max)
	cpuW, gpuW := sys.MeanPower()
	fmt.Printf("mean power: CPU %.1f W + GPU %.1f W = %.1f W\n", cpuW, gpuW, cpuW+gpuW)

	if injector != nil {
		fmt.Println("\n--- injected faults ---")
		evs := injector.Events()
		if len(evs) == 0 {
			fmt.Println("(no perturbations applied)")
		}
		for _, e := range evs {
			fmt.Printf("%-10s %-34s count=%d\n", e.Kind, e.Target, e.Count)
		}
		fmt.Println("\n--- degraded intervals ---")
		degraded := sys.DegradedIntervals()
		if len(degraded) == 0 {
			fmt.Println("(none)")
		}
		for _, d := range degraded {
			end := "open"
			if d.End > 0 {
				end = d.End.String()
			}
			fmt.Printf("%-24s policy=%-10s [%v, %s) substituted=%d\n",
				d.Node, d.Policy, d.Start, end, d.Substituted)
		}
		fmt.Println("\n--- message drops ---")
		drops := sys.Drops()
		if len(drops) == 0 {
			fmt.Println("(none)")
		}
		for _, d := range drops {
			fmt.Printf("%-34s -> %-24s arrived=%-6d dropped=%-6d rate=%.3f\n",
				d.Topic, d.Subscriber, d.Arrived, d.Dropped, d.Rate)
		}

		fmt.Println("\n--- fault-induced message losses ---")
		lost := false
		for _, e := range evs {
			if e.Kind == faults.KindDrop || e.Kind == faults.KindCrash {
				lost = true
				fmt.Printf("%-10s %-34s count=%-6d window=[%v, %v]\n",
					e.Kind, e.Target, e.Count, e.First, e.Last)
			}
		}
		if !lost {
			fmt.Println("(none)")
		}
	}

	if layers.Supervise {
		fmt.Println("\n--- supervised outages ---")
		outages := sys.Outages()
		if len(outages) == 0 {
			fmt.Println("(none)")
		}
		for _, o := range outages {
			end := "open"
			if o.Recovered > 0 {
				end = o.Recovered.String()
			}
			fmt.Printf("%-24s cause=%-12s [%v, %s) restarts=%d lost=%d restored=%t ckpt_age=%v\n",
				o.Node, o.Cause, o.Detected, end, o.Restarts, o.FramesLost, o.Restored, o.CheckpointAge)
		}
	}

	if layers.ShedBudget > 0 {
		fmt.Println("\n--- deadline-shed frames ---")
		any := false
		for _, t := range sys.Topics() {
			if t.Shed == 0 {
				continue
			}
			any = true
			fmt.Printf("%-34s shed=%-6d delivered=%-6d\n", t.Topic, t.Shed, t.Messages)
		}
		if !any {
			fmt.Println("(none)")
		}
	}

	if guarded {
		fmt.Println("\n--- integrity quarantine ---")
		events := sys.IntegrityEvents()
		if len(events) == 0 {
			fmt.Println("(none)")
		}
		for _, ev := range events {
			fmt.Printf("%-34s cause=%-18s at=%-8s count=%-6d window=[%v, %v]\n",
				ev.Topic, ev.Cause, ev.Point, ev.Count, ev.First, ev.Last)
		}
		delivered := map[string]uint64{}
		for _, t := range sys.Topics() {
			delivered[t.Topic] = t.Messages
		}
		for i := 0; i < len(events); {
			topic, quarantined := events[i].Topic, 0
			for ; i < len(events) && events[i].Topic == topic; i++ {
				quarantined += events[i].Count
			}
			fmt.Printf("%-34s quarantined=%-6d delivered=%-6d\n", topic, quarantined, delivered[topic])
		}
	}
}
