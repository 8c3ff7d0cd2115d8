package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/autoware"
	"repro/internal/mathx"
	"repro/internal/uarch"
)

// fig5Nodes is the node set of the paper's Fig. 5 violins, in its
// display order.
var fig5Nodes = []string{
	"voxel_grid_filter",
	"ndt_matching",
	"ray_ground_filter",
	"euclidean_cluster",
	"vision_detection",
	"range_vision_fusion",
	"imm_ukf_pda_tracker",
	"naive_motion_predict",
	"costmap_generator",
	"costmap_generator_obj",
}

// Fig5 regenerates Figure 5: single-node latency distributions under
// each image-detection configuration.
func Fig5(w io.Writer, runs *Runs) error {
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			return err
		}
		Section(w, fmt.Sprintf("Fig. 5 — single-node latency with %s", det))
		// Shared axis per panel for visual comparability.
		hi := 1.0
		for _, n := range fig5Nodes {
			if m := s.Recorder.NodeLatency(n).Max; m > hi {
				hi = m
			}
		}
		for _, n := range fig5Nodes {
			Violin(w, n, s.Recorder.NodeSamples(n), 0, hi, 60)
		}
	}
	return nil
}

// Table3 regenerates Table III: dropped messages per (topic,
// subscriber) for each detector. The default camera rate reproduces the
// paper's regime ordering (SSD512 drops, the others do not); a second
// sweep at 13.5 fps shows the saturated-detector dropping regime.
func Table3(w io.Writer, runs *Runs) error {
	Section(w, "Table III — dropped messages during execution")
	tbl := &Table{Header: []string{"Config", "Topic", "Subscriber", "Arrived", "Dropped", "Rate"}}
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			return err
		}
		rows := 0
		for _, r := range s.Bus.DropReports() {
			if r.Dropped == 0 {
				continue
			}
			tbl.Add("with "+string(det), r.Topic, r.Subscriber, r.Arrived, r.Dropped, Pct(r.Rate))
			rows++
		}
		if rows == 0 {
			tbl.Add("with "+string(det), "(no drops)", "-", "-", "-", "-")
		}
	}
	tbl.Write(w)

	// Saturated regime: camera faster than SSD512 can serve.
	Section(w, "Table III (b) — camera at 13.5 fps (saturated-detector regime)")
	tbl2 := &Table{Header: []string{"Config", "Topic", "Subscriber", "Arrived", "Dropped", "Rate"}}
	for _, det := range autoware.Detectors() {
		s, err := runs.Saturated(det)
		if err != nil {
			return err
		}
		rows := 0
		for _, r := range s.Bus.DropReports() {
			if r.Dropped == 0 {
				continue
			}
			tbl2.Add("with "+string(det), r.Topic, r.Subscriber, r.Arrived, r.Dropped, Pct(r.Rate))
			rows++
		}
		if rows == 0 {
			tbl2.Add("with "+string(det), "(no drops)", "-", "-", "-", "-")
		}
	}
	tbl2.Write(w)
	return nil
}

// Fig6 regenerates Figure 6: end-to-end computation-path latency per
// detector, with the worst path (the paper's end-to-end metric) marked.
func Fig6(w io.Writer, runs *Runs) error {
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			return err
		}
		Section(w, fmt.Sprintf("Fig. 6 — computation-path latency with %s", det))
		hi := 1.0
		for _, p := range s.Recorder.PathNames() {
			if m := s.Recorder.PathLatency(p).Max; m > hi {
				hi = m
			}
		}
		for _, p := range s.Recorder.PathNames() {
			Violin(w, p, s.Recorder.PathSamples(p), 0, hi, 60)
		}
		worst, sum := s.Recorder.EndToEnd()
		fmt.Fprintf(w, "end-to-end (worst path) = %s: mean %.1f ms, p99 %.1f ms, max %.1f ms — 100 ms budget %s\n",
			worst, sum.Mean, sum.P99, sum.Max, budgetVerdict(sum))
	}
	return nil
}

func budgetVerdict(s mathx.Summary) string {
	switch {
	case s.Max > 200:
		return "exceeded by more than 2x at the tail"
	case s.Max > 100:
		return "exceeded at the tail"
	default:
		return "met"
	}
}

// Table5 regenerates Table V: per-node CPU and GPU utilization shares.
func Table5(w io.Writer, runs *Runs) error {
	Section(w, "Table V — CPU and GPU utilization share among nodes")
	tbl := &Table{Header: []string{"Node", "CPU(SSD512)", "CPU(SSD300)", "CPU(YOLO)", "GPU(SSD512)", "GPU(SSD300)", "GPU(YOLO)"}}
	type share struct{ cpu, gpu float64 }
	perDet := map[autoware.Detector]map[string]share{}
	var nodeOrder []string
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			return err
		}
		m := map[string]share{}
		for _, row := range s.UtilizationReport() {
			m[row.Node] = share{cpu: row.CPUShare, gpu: row.GPUShare}
			if det == autoware.DetectorSSD512 {
				nodeOrder = append(nodeOrder, row.Node)
			}
		}
		perDet[det] = m
	}
	var totals [6]float64
	for _, n := range nodeOrder {
		a := perDet[autoware.DetectorSSD512][n]
		b := perDet[autoware.DetectorSSD300][n]
		c := perDet[autoware.DetectorYOLOv3][n]
		tbl.Add(n, Pct(a.cpu), Pct(b.cpu), Pct(c.cpu), Pct(a.gpu), Pct(b.gpu), Pct(c.gpu))
		for i, v := range []float64{a.cpu, b.cpu, c.cpu, a.gpu, b.gpu, c.gpu} {
			totals[i] += v
		}
	}
	tbl.Add("Total", Pct(totals[0]), Pct(totals[1]), Pct(totals[2]), Pct(totals[3]), Pct(totals[4]), Pct(totals[5]))
	tbl.Write(w)
	return nil
}

// Table6 regenerates Table VI: mean CPU and GPU power dissipation.
func Table6(w io.Writer, runs *Runs) error {
	Section(w, "Table VI — CPU and GPU mean power dissipation")
	tbl := &Table{Header: []string{"Config", "CPU (W)", "GPU (W)", "Total (W)"}}
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			return err
		}
		cpu := s.Sampler.MeanCPUPower()
		gpu := s.Sampler.MeanGPUPower()
		tbl.Add("with "+string(det), cpu, gpu, cpu+gpu)
	}
	tbl.Write(w)
	return nil
}

// tab7Key maps recorder node names (and the active detector) to the
// µarch spec identities of Table VII.
func tab7Entries(runs *Runs) ([]string, map[string]uarch.InstrMix, error) {
	mixes := map[string]uarch.InstrMix{}
	// Vision entries come from the matching detector's full run.
	for _, det := range []autoware.Detector{autoware.DetectorSSD512, autoware.DetectorYOLOv3} {
		s, err := runs.Full(det)
		if err != nil {
			return nil, nil, err
		}
		mixes[string(det)] = uarch.MixFromWork(s.Recorder.NodeWork("vision_detection"))
	}
	// LiDAR-side nodes measured under the SSD512 configuration (the
	// paper's reference column).
	s, err := runs.Full(autoware.DetectorSSD512)
	if err != nil {
		return nil, nil, err
	}
	for _, n := range []string{"euclidean_cluster", "ndt_matching", "imm_ukf_pda_tracker", "costmap_generator_obj"} {
		mixes[n] = uarch.MixFromWork(s.Recorder.NodeWork(n))
	}
	order := []string{"SSD512", "YOLOv3-416", "euclidean_cluster", "ndt_matching", "imm_ukf_pda_tracker", "costmap_generator_obj"}
	return order, mixes, nil
}

// Table7 regenerates Table VII: the per-node microarchitectural profile
// (IPC, L1 miss rates, branch misprediction), from the cache/branch
// simulators driven by each node's structural trace and the instruction
// mix measured in the live run.
func Table7(w io.Writer, runs *Runs) error {
	Section(w, "Table VII — microarchitecture profile of critical nodes")
	order, mixes, err := tab7Entries(runs)
	if err != nil {
		return err
	}
	tbl := &Table{Header: []string{"Node", "IPC", "L1 miss (read)", "L1 miss (write)", "Branch mispred."}}
	for _, name := range order {
		spec, err := uarch.SpecFor(name)
		if err != nil {
			return err
		}
		p := uarch.Simulate(spec, mixes[name], 600000, 600000, 42)
		tbl.Add(name, fmt.Sprintf("%.2f", p.IPC), Pct(p.L1ReadMissRate), Pct(p.L1WriteMissRate), Pct(p.BranchMissRate))
	}
	tbl.Write(w)
	return nil
}

// Fig7 regenerates Figure 7: the instruction mix of the Table VII nodes.
func Fig7(w io.Writer, runs *Runs) error {
	Section(w, "Fig. 7 — instruction mix")
	order, mixes, err := tab7Entries(runs)
	if err != nil {
		return err
	}
	tbl := &Table{Header: []string{"Node", "Int", "FP", "Load", "Store", "Branch"}}
	for _, name := range order {
		m := mixes[name]
		tbl.Add(name, Pct(m.Int), Pct(m.FP), Pct(m.Load), Pct(m.Store), Pct(m.Branch))
	}
	tbl.Write(w)
	return nil
}

// Fig8 regenerates Figure 8: the CPU/GPU share of detector latency and
// the standalone-versus-full-system comparison (Findings 4 and 5).
func Fig8(w io.Writer, runs *Runs) error {
	Section(w, "Fig. 8 — CPU/GPU split and standalone vs full-system execution")
	tbl := &Table{Header: []string{"Detector", "Mode", "Mean (ms)", "StdDev (ms)", "CPU share", "GPU share"}}
	for _, det := range []autoware.Detector{autoware.DetectorSSD512, autoware.DetectorYOLOv3} {
		alone, err := runs.Standalone(det)
		if err != nil {
			return err
		}
		full, err := runs.Full(det)
		if err != nil {
			return err
		}
		sa := alone.Recorder.NodeLatency("vision_detection")
		sf := full.Recorder.NodeLatency("vision_detection")
		tbl.Add(string(det), "standalone", sa.Mean, sa.StdDev,
			Pct(alone.Recorder.CPUShare("vision_detection")), Pct(alone.Recorder.GPUShare("vision_detection")))
		tbl.Add(string(det), "full system", sf.Mean, sf.StdDev,
			Pct(full.Recorder.CPUShare("vision_detection")), Pct(full.Recorder.GPUShare("vision_detection")))
	}
	tbl.Write(w)
	return nil
}

// Experiment couples a name with its harness.
type Experiment struct {
	Name  string
	Title string
	Run   func(io.Writer, *Runs) error
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{Name: "fig5", Title: "Figure 5: single-node latency distributions", Run: Fig5},
		{Name: "tab3", Title: "Table III: dropped messages", Run: Table3},
		{Name: "fig6", Title: "Figure 6: end-to-end path latency", Run: Fig6},
		{Name: "tab5", Title: "Table V: utilization shares", Run: Table5},
		{Name: "tab6", Title: "Table VI: mean power", Run: Table6},
		{Name: "tab7", Title: "Table VII: microarchitecture profile", Run: Table7},
		{Name: "fig7", Title: "Figure 7: instruction mix", Run: Fig7},
		{Name: "fig8", Title: "Figure 8: standalone vs full system", Run: Fig8},
		{Name: "scene", Title: "Supplementary: scene-content dependence", Run: SceneDependence},
	}
}

// ByName resolves an experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	names := make([]string, 0, len(All()))
	for _, e := range All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}

// RunAll writes the paper's whole evaluation to w: every experiment in
// paper order, then the findings checklist. With runs.Workers > 1 the
// configuration matrix simulates concurrently before the serial,
// ordered rendering; the report is identical either way.
func RunAll(w io.Writer, runs *Runs) error {
	if err := runs.warm(); err != nil {
		return err
	}
	for _, e := range All() {
		if err := e.Run(w, runs); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
	}
	findings, err := Findings(runs)
	if err != nil {
		return err
	}
	Section(w, "Findings")
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	return nil
}
