// Package work defines the cost descriptor a node reports for one
// callback execution. Node algorithms compute real outputs and, along
// the way, account for how much machine work they represent: CPU
// operations by class, bytes touched, and GPU kernels launched. The
// platform simulator turns a Work into virtual time under contention;
// the µarch model turns it into instruction-mix and counter estimates.
package work

// GPUKernel is one device-side launch: a compute volume in fused
// multiply-add operations and the bytes moved over the device memory bus.
type GPUKernel struct {
	Name string
	// FMAs is the kernel's arithmetic volume in fused multiply-adds.
	FMAs float64
	// Bytes is device-memory traffic (reads + writes).
	Bytes float64
	// Efficiency in (0, 1] is the fraction of device peak the kernel
	// sustains: dense GEMM-style kernels run near 0.6, irregular
	// pointer-chasing kernels a few percent. Zero means 1.0.
	Efficiency float64
}

// Work describes one callback execution.
type Work struct {
	// CPU operation counts by class. These are *architectural*
	// instruction estimates derived from the real computation performed
	// (loop trip counts, element counts), not host-profiling artifacts.
	IntOps    float64 // integer ALU
	FPOps     float64 // floating point
	LoadOps   float64 // memory reads
	StoreOps  float64 // memory writes
	BranchOps float64 // control transfer

	// BytesTouched approximates the callback's working-set traffic and
	// drives the memory-bandwidth interference model.
	BytesTouched float64

	// Kernels is the ordered list of GPU launches this callback performs.
	// The CPU blocks on kernel completion (synchronous offload, matching
	// the ROS node structure of the profiled detectors).
	Kernels []GPUKernel
}

// Add accumulates o's CPU counters into w. Kernels are not summed: a
// running total kept over a node's lifetime would otherwise hold every
// kernel of every frame, and its readers need only the CPU counters.
func (w *Work) Add(o Work) {
	w.IntOps += o.IntOps
	w.FPOps += o.FPOps
	w.LoadOps += o.LoadOps
	w.StoreOps += o.StoreOps
	w.BranchOps += o.BranchOps
	w.BytesTouched += o.BytesTouched
}

// CPUOps returns the total CPU operation count.
func (w Work) CPUOps() float64 {
	return w.IntOps + w.FPOps + w.LoadOps + w.StoreOps + w.BranchOps
}

// GPUFMAs returns the total device arithmetic volume.
func (w Work) GPUFMAs() float64 {
	var s float64
	for _, k := range w.Kernels {
		s += k.FMAs
	}
	return s
}

// Scale returns a copy of w with all CPU-side costs multiplied by f.
// GPU kernels are not scaled.
func (w Work) Scale(f float64) Work {
	out := w
	out.IntOps *= f
	out.FPOps *= f
	out.LoadOps *= f
	out.StoreOps *= f
	out.BranchOps *= f
	out.BytesTouched *= f
	return out
}
