package experiments

import (
	"fmt"

	"repro/internal/autoware"
)

// Findings checks the paper's five findings against the completed runs
// and returns one line per finding with a pass/deviation verdict. It
// first simulates the three configurations it reads across
// runs.Workers.
func Findings(runs *Runs) ([]string, error) {
	var out []string

	err := runs.fetchAll([]fetch{
		{runs.Full, autoware.DetectorSSD512},
		{runs.Full, autoware.DetectorSSD300},
		{runs.Standalone, autoware.DetectorSSD512},
	})
	if err != nil {
		return nil, err
	}
	ssd512, err := runs.Full(autoware.DetectorSSD512)
	if err != nil {
		return nil, err
	}
	ssd300, err := runs.Full(autoware.DetectorSSD300)
	if err != nil {
		return nil, err
	}
	alone, err := runs.Standalone(autoware.DetectorSSD512)
	if err != nil {
		return nil, err
	}

	// Finding 1: tail latency of other components varies with the
	// detector choice (contention).
	t512 := ssd512.Recorder.NodeLatency("euclidean_cluster").P99
	t300 := ssd300.Recorder.NodeLatency("euclidean_cluster").P99
	delta := 0.0
	if t300 > 0 {
		delta = (t512 - t300) / t300
	}
	out = append(out, verdict(
		"F1 contention moves co-runner tails",
		fmt.Sprintf("euclidean_cluster p99 %.1f ms (SSD512) vs %.1f ms (SSD300), %+.0f%%", t512, t300, 100*delta),
		delta > 0.05 || delta < -0.05))

	// Finding 2: end-to-end latency exceeds the 100 ms budget.
	_, e2e := ssd512.Recorder.EndToEnd()
	out = append(out, verdict(
		"F2 end-to-end exceeds 100 ms budget",
		fmt.Sprintf("worst path mean %.1f ms, max %.1f ms", e2e.Mean, e2e.Max),
		e2e.Mean > 100 && e2e.Max > 150))

	// Finding 3: average utilization leaves headroom.
	cpuU := ssd512.Sampler.MeanCPUUtil()
	gpuU := ssd512.Sampler.MeanGPUUtil()
	out = append(out, verdict(
		"F3 resources not saturated",
		fmt.Sprintf("mean CPU %.0f%%, GPU %.0f%%", 100*cpuU, 100*gpuU),
		cpuU < 0.6 && gpuU < 0.6))

	// Findings 4/5: full system raises detector mean and stddev.
	sa := alone.Recorder.NodeLatency(autoware.VisionNodeName)
	sf := ssd512.Recorder.NodeLatency(autoware.VisionNodeName)
	out = append(out, verdict(
		"F4 full system raises detector mean",
		fmt.Sprintf("SSD512 %.2f ms alone vs %.2f ms in system", sa.Mean, sf.Mean),
		sf.Mean > sa.Mean))
	out = append(out, verdict(
		"F5 full system weakens predictability",
		fmt.Sprintf("SSD512 stddev %.2f ms alone vs %.2f ms in system", sa.StdDev, sf.StdDev),
		sf.StdDev > sa.StdDev))
	return out, nil
}

func verdict(name, detail string, ok bool) string {
	mark := "REPRODUCED"
	if !ok {
		mark = "DEVIATION"
	}
	return fmt.Sprintf("[%s] %s — %s", mark, name, detail)
}
