package repro_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// benchmark iteration regenerates its artifact from a deterministic
// short drive and reports the artifact's headline numbers as custom
// metrics, so `go test -bench=.` doubles as a results dashboard.

import (
	"io"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/experiments"
)

// benchDrive is the virtual duration per configuration in benches —
// long enough for stable distributions, short enough to iterate.
const benchDrive = 12 * time.Second

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// runExperiment executes one experiment harness per iteration.
func runExperiment(b *testing.B, fn func(io.Writer, *experiments.Runs) error) *experiments.Runs {
	e := benchEnv(b)
	var runs *experiments.Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs = experiments.NewRuns(e, benchDrive)
		if err := fn(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return runs
}

// BenchmarkPrewarmWorkers runs the full configuration matrix (3 full +
// 3 saturated + 2 standalone stacks) serially and with 4 workers. The
// wall-clock ratio between the sub-benchmarks is the engine's speedup;
// the virtual-time results are identical (see
// TestParallelRunsAreByteIdentical in internal/experiments).
func BenchmarkPrewarmWorkers(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			e := benchEnv(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runs := experiments.NewRuns(e, benchDrive)
				runs.Workers = workers
				if err := runs.Prewarm(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5SingleNodeLatency regenerates Figure 5 and reports the
// three detectors' mean latencies.
func BenchmarkFig5SingleNodeLatency(b *testing.B) {
	runs := runExperiment(b, experiments.Fig5)
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Recorder.NodeLatency("vision_detection").Mean, "ms-vision-"+string(det))
	}
}

// BenchmarkTable3DroppedMessages regenerates Table III and reports the
// saturated-regime SSD512 image drop rate.
func BenchmarkTable3DroppedMessages(b *testing.B) {
	runExperiment(b, experiments.Table3)
}

// BenchmarkFig6EndToEnd regenerates Figure 6 and reports the worst-path
// mean and max with SSD512.
func BenchmarkFig6EndToEnd(b *testing.B) {
	runs := runExperiment(b, experiments.Fig6)
	s, err := runs.Full(autoware.DetectorSSD512)
	if err != nil {
		b.Fatal(err)
	}
	_, e2e := s.Recorder.EndToEnd()
	b.ReportMetric(e2e.Mean, "ms-e2e-mean")
	b.ReportMetric(e2e.Max, "ms-e2e-max")
}

// BenchmarkTable5Utilization regenerates Table V and reports total CPU
// utilization with SSD512.
func BenchmarkTable5Utilization(b *testing.B) {
	runs := runExperiment(b, experiments.Table5)
	s, err := runs.Full(autoware.DetectorSSD512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*s.Sampler.MeanCPUUtil(), "pct-cpu-util")
	b.ReportMetric(100*s.Sampler.MeanGPUUtil(), "pct-gpu-util")
}

// BenchmarkTable6Power regenerates Table VI and reports total power per
// configuration.
func BenchmarkTable6Power(b *testing.B) {
	runs := runExperiment(b, experiments.Table6)
	for _, det := range autoware.Detectors() {
		s, err := runs.Full(det)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.Sampler.MeanCPUPower()+s.Sampler.MeanGPUPower(), "W-total-"+string(det))
	}
}

// BenchmarkTable7Microarch regenerates Table VII (cache + branch
// simulation for the six critical nodes).
func BenchmarkTable7Microarch(b *testing.B) {
	runExperiment(b, experiments.Table7)
}

// BenchmarkFig7InstructionMix regenerates Figure 7.
func BenchmarkFig7InstructionMix(b *testing.B) {
	runExperiment(b, experiments.Fig7)
}

// BenchmarkFig8StandaloneVsFull regenerates Figure 8 and reports the
// SSD512 standalone-vs-full stddev ratio (Finding 5's headline).
func BenchmarkFig8StandaloneVsFull(b *testing.B) {
	runs := runExperiment(b, experiments.Fig8)
	alone, err := runs.Standalone(autoware.DetectorSSD512)
	if err != nil {
		b.Fatal(err)
	}
	full, err := runs.Full(autoware.DetectorSSD512)
	if err != nil {
		b.Fatal(err)
	}
	sa := alone.Recorder.NodeLatency("vision_detection")
	sf := full.Recorder.NodeLatency("vision_detection")
	if sa.StdDev > 0 {
		b.ReportMetric(sf.StdDev/sa.StdDev, "x-stddev-ratio")
	}
}

// runConfigured runs one full stack with a tweaked config and returns it.
func runConfigured(b *testing.B, mutate func(*autoware.Config)) *autoware.Stack {
	b.Helper()
	b.ReportAllocs()
	e := benchEnv(b)
	cfg := autoware.DefaultConfig(autoware.DetectorSSD512)
	mutate(&cfg)
	s, err := autoware.BuildWithMap(cfg, e.Scenario, e.Map)
	if err != nil {
		b.Fatal(err)
	}
	s.Run(benchDrive)
	return s
}

// BenchmarkAblationQueueDepth sweeps the detector's input queue depth:
// deeper queues trade drops for latency (stale frames queue up).
func BenchmarkAblationQueueDepth(b *testing.B) {
	for _, depth := range []int{1, 3, 8} {
		depth := depth
		b.Run(map[int]string{1: "depth1", 3: "depth3", 8: "depth8"}[depth], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) {
					c.VisionQueueDepth = depth
					c.CameraRate = 13.5 // saturate the detector
				})
				lat := s.Recorder.NodeLatency("vision_detection")
				b.ReportMetric(lat.Mean, "ms-vision-mean")
				for _, r := range s.Bus.DropReports() {
					if r.Topic == "/image_raw" {
						b.ReportMetric(100*r.Rate, "pct-image-drops")
					}
				}
			}
		})
	}
}

// BenchmarkAblationCoreCount sweeps the CPU core count: the headroom
// behind Finding 3 versus the contention behind Finding 1.
func BenchmarkAblationCoreCount(b *testing.B) {
	for _, cores := range []int{2, 3, 6} {
		cores := cores
		b.Run(map[int]string{2: "cores2", 3: "cores3", 6: "cores6"}[cores], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) { c.CPU.Cores = cores })
				_, e2e := s.Recorder.EndToEnd()
				b.ReportMetric(e2e.Mean, "ms-e2e-mean")
				b.ReportMetric(e2e.Max, "ms-e2e-max")
			}
		})
	}
}

// BenchmarkAblationGPUChannels compares the CUDA default-stream FIFO
// against two-way kernel concurrency: the clusterer stops queueing
// behind detector inference.
func BenchmarkAblationGPUChannels(b *testing.B) {
	for _, ch := range []int{1, 2} {
		ch := ch
		b.Run(map[int]string{1: "fifo", 2: "dual"}[ch], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) { c.GPU.Channels = ch })
				b.ReportMetric(s.Recorder.NodeLatency("euclidean_cluster").P99, "ms-euclid-p99")
			}
		})
	}
}

// BenchmarkAblationVoxelLeaf sweeps the downsampling leaf: smaller
// leaves feed NDT more points (higher localization cost).
func BenchmarkAblationVoxelLeaf(b *testing.B) {
	for _, leaf := range []float64{1.0, 2.0, 3.0} {
		leaf := leaf
		b.Run(map[float64]string{1.0: "leaf1m", 2.0: "leaf2m", 3.0: "leaf3m"}[leaf], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) { c.VoxelLeaf = leaf })
				b.ReportMetric(s.Recorder.NodeLatency("ndt_matching").Mean, "ms-ndt-mean")
			}
		})
	}
}

// BenchmarkAblationTrafficDensity sweeps the scene's traffic volume:
// the object-dependent nodes (clustering, tracking, costmap_obj) grow
// with scene content — the source of their latency variability in
// Fig. 5 — while scene-independent nodes stay flat.
func BenchmarkAblationTrafficDensity(b *testing.B) {
	for _, mult := range []int{0, 1, 3} {
		mult := mult
		b.Run(map[int]string{0: "empty", 1: "normal", 3: "rush"}[mult], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Denser traffic is a world of its own over the same
				// city's HD map.
				cfg := autoware.DefaultConfig(autoware.DetectorSSD300)
				cfg.Scenario.NumCars *= mult
				cfg.Scenario.NumPedestrians *= mult
				cfg.Scenario.NumCyclists *= mult
				scen, m, err := autoware.Environment(cfg.Scenario)
				if err != nil {
					b.Fatal(err)
				}
				s, err := autoware.BuildWithMap(cfg, scen, m)
				if err != nil {
					b.Fatal(err)
				}
				// Longer window than the other benches: traffic
				// encounters need driving distance to accumulate.
				s.Run(3 * benchDrive)
				b.ReportMetric(s.Recorder.NodeLatency("costmap_generator_obj").P99, "ms-costmapObj-p99")
				b.ReportMetric(s.Recorder.NodeLatency("imm_ukf_pda_tracker").Mean, "ms-tracker-mean")
			}
		})
	}
}

// BenchmarkAblationLiDARBeams sweeps the scanner's beam count: denser
// clouds raise every point-driven node's cost (the sensing-resolution
// versus compute trade).
func BenchmarkAblationLiDARBeams(b *testing.B) {
	for _, beams := range []int{8, 16, 32} {
		beams := beams
		b.Run(map[int]string{8: "beams8", 16: "beams16", 32: "beams32"}[beams], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) { c.LiDAR.Beams = beams })
				b.ReportMetric(s.Recorder.NodeLatency("ray_ground_filter").Mean, "ms-rayground-mean")
				b.ReportMetric(s.Recorder.NodeLatency("ndt_matching").Mean, "ms-ndt-mean")
			}
		})
	}
}

// BenchmarkAblationScheduling compares processor-sharing against
// FIFO run-to-completion CPU scheduling: PS amortizes queueing across
// tasks, FIFO isolates short tasks behind long ones.
func BenchmarkAblationScheduling(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		fifo := fifo
		name := "ps"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := runConfigured(b, func(c *autoware.Config) { c.CPU.FIFO = fifo })
				_, e2e := s.Recorder.EndToEnd()
				b.ReportMetric(e2e.P99, "ms-e2e-p99")
			}
		})
	}
}
