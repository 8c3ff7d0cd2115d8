package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/autoware"
)

// WriteCSV exports the raw data behind the figures to dir, one file per
// artifact, so the paper's plots can be regenerated with any plotting
// tool:
//
//	fig5_latency.csv    detector,node,latency_ms      (one row per callback)
//	fig6_paths.csv      detector,path,latency_ms      (one row per traced path)
//	tab5_utilization.csv detector,node,cpu_share,gpu_share
//	tab6_power.csv      detector,cpu_w,gpu_w
//	fig8_modes.csv      detector,mode,mean_ms,stddev_ms,cpu_share
//
// With runs.Workers > 1 the configuration matrix simulates concurrently
// first, as in RunAll.
func WriteCSV(dir string, runs *Runs) error {
	if err := runs.warm(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: creating csv dir: %w", err)
	}

	if err := writeCSV(dir, "fig5_latency.csv", []string{"detector", "node", "latency_ms"}, func(emit func(...string)) error {
		for _, det := range autoware.Detectors() {
			s, err := runs.Full(det)
			if err != nil {
				return err
			}
			for _, n := range fig5Nodes {
				for _, v := range s.Recorder.NodeSamples(n) {
					emit(string(det), n, formatF(v))
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeCSV(dir, "fig6_paths.csv", []string{"detector", "path", "latency_ms"}, func(emit func(...string)) error {
		for _, det := range autoware.Detectors() {
			s, err := runs.Full(det)
			if err != nil {
				return err
			}
			for _, p := range s.Recorder.PathNames() {
				for _, v := range s.Recorder.PathSamples(p) {
					emit(string(det), p, formatF(v))
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeCSV(dir, "tab5_utilization.csv", []string{"detector", "node", "cpu_share", "gpu_share"}, func(emit func(...string)) error {
		for _, det := range autoware.Detectors() {
			s, err := runs.Full(det)
			if err != nil {
				return err
			}
			for _, row := range s.UtilizationReport() {
				emit(string(det), row.Node, formatF(row.CPUShare), formatF(row.GPUShare))
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := writeCSV(dir, "tab6_power.csv", []string{"detector", "cpu_w", "gpu_w"}, func(emit func(...string)) error {
		for _, det := range autoware.Detectors() {
			s, err := runs.Full(det)
			if err != nil {
				return err
			}
			emit(string(det), formatF(s.Sampler.MeanCPUPower()), formatF(s.Sampler.MeanGPUPower()))
		}
		return nil
	}); err != nil {
		return err
	}

	return writeCSV(dir, "fig8_modes.csv", []string{"detector", "mode", "mean_ms", "stddev_ms", "cpu_share"}, func(emit func(...string)) error {
		for _, det := range []autoware.Detector{autoware.DetectorSSD512, autoware.DetectorYOLOv3} {
			alone, err := runs.Standalone(det)
			if err != nil {
				return err
			}
			full, err := runs.Full(det)
			if err != nil {
				return err
			}
			sa := alone.Recorder.NodeLatency(autoware.VisionNodeName)
			sf := full.Recorder.NodeLatency(autoware.VisionNodeName)
			emit(string(det), "standalone", formatF(sa.Mean), formatF(sa.StdDev),
				formatF(alone.Recorder.CPUShare(autoware.VisionNodeName)))
			emit(string(det), "full", formatF(sf.Mean), formatF(sf.StdDev),
				formatF(full.Recorder.CPUShare(autoware.VisionNodeName)))
		}
		return nil
	})
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// writeCSV streams rows produced by fill into dir/name.
func writeCSV(dir, name string, header []string, fill func(emit func(...string)) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("experiments: creating %s: %w", name, err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	var writeErr error
	emit := func(cells ...string) {
		if writeErr == nil {
			writeErr = w.Write(cells)
		}
	}
	if err := fill(emit); err != nil {
		return err
	}
	if writeErr != nil {
		return writeErr
	}
	w.Flush()
	return w.Error()
}
