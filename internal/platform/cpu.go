package platform

import (
	"math"
	"time"
)

// CPUConfig describes the simulated processor.
type CPUConfig struct {
	// Cores is the number of hardware threads tasks share.
	Cores int
	// EffectiveOpsPerSec is the per-core sustained architectural
	// operation rate used to turn Work op counts into seconds.
	EffectiveOpsPerSec float64
	// MemBandwidth is the socket memory bandwidth, bytes/second.
	// Concurrent tasks whose combined traffic exceeds it slow down —
	// the shared-resource contention of the paper's Finding 1.
	MemBandwidth float64
	// FIFO switches from processor-sharing to run-to-completion
	// scheduling: each task owns one core; excess tasks queue. Used by
	// the scheduling ablation bench.
	FIFO bool
}

// DefaultCPUConfig models the paper's testbed-class desktop part,
// with the core count folded down to the effective parallelism left
// for the stack once OS, ROS infrastructure and driver threads take
// their share.
func DefaultCPUConfig() CPUConfig {
	return CPUConfig{
		Cores:              3,
		EffectiveOpsPerSec: 1.55e9,
		MemBandwidth:       8.0e9,
	}
}

type cpuTask struct {
	id        uint64
	owner     string
	remaining float64 // seconds of single-core work left at full rate
	bwDemand  float64 // bytes/second the task streams when running full rate
	onDone    func()
}

// CPU simulates processor-sharing execution: all runnable tasks share
// the cores equally; when more tasks than cores are runnable, or when
// aggregate memory traffic saturates the socket, everyone slows down.
type CPU struct {
	cfg  CPUConfig
	sim  *Sim
	next uint64

	tasks      map[uint64]*cpuTask
	fifoQueue  []*cpuTask
	lastUpdate time.Duration
	rate       float64 // per-task progress rate currently in force
	eventGen   uint64  // invalidates stale completion events

	// busy accounting: core-seconds consumed per owner, and in total.
	busyByOwner map[string]float64
	busyTotal   float64
}

// NewCPU creates the processor bound to a simulation clock.
func NewCPU(cfg CPUConfig, sim *Sim) *CPU {
	if cfg.Cores <= 0 || cfg.EffectiveOpsPerSec <= 0 {
		panic("platform: invalid CPU config")
	}
	return &CPU{
		cfg:         cfg,
		sim:         sim,
		tasks:       make(map[uint64]*cpuTask),
		busyByOwner: make(map[string]float64),
		rate:        1,
		lastUpdate:  sim.Now(),
	}
}

// Config returns the processor configuration.
func (c *CPU) Config() CPUConfig { return c.cfg }

// Submit enqueues a task of the given single-core duration (seconds)
// with a streaming bandwidth demand; onDone fires at completion.
func (c *CPU) Submit(owner string, seconds, bwDemand float64, onDone func()) {
	if seconds <= 0 {
		seconds = 1e-9
	}
	c.advance()
	c.next++
	t := &cpuTask{
		id: c.next, owner: owner,
		remaining: seconds, bwDemand: bwDemand, onDone: onDone,
	}
	if c.cfg.FIFO {
		c.fifoQueue = append(c.fifoQueue, t)
		c.fifoAdmit()
		return
	}
	c.tasks[c.next] = t
	c.reschedule()
}

// fifoAdmit moves queued tasks onto free cores (FIFO mode only).
func (c *CPU) fifoAdmit() {
	moved := false
	for len(c.tasks) < c.cfg.Cores && len(c.fifoQueue) > 0 {
		t := c.fifoQueue[0]
		c.fifoQueue = c.fifoQueue[1:]
		c.tasks[t.id] = t
		moved = true
	}
	if moved || len(c.tasks) > 0 {
		c.reschedule()
	}
}

// advance applies progress to all tasks since the last update.
func (c *CPU) advance() {
	elapsed := (c.sim.Now() - c.lastUpdate).Seconds()
	c.lastUpdate = c.sim.Now()
	if elapsed <= 0 || len(c.tasks) == 0 {
		return
	}
	progress := elapsed * c.rate
	for _, t := range c.tasks {
		t.remaining -= progress
		c.busyByOwner[t.owner] += progress
		c.busyTotal += progress
	}
}

// currentRate computes the per-task progress rate for the present task
// set: the processor-sharing share (1 in FIFO mode, where admission
// control caps concurrency at the core count), further scaled when
// aggregate memory traffic exceeds the socket bandwidth.
func (c *CPU) currentRate() float64 {
	n := len(c.tasks)
	if n == 0 {
		return 1
	}
	share := math.Min(1, float64(c.cfg.Cores)/float64(n))
	demand := 0.0
	for _, t := range c.tasks {
		demand += t.bwDemand * share
	}
	if demand > c.cfg.MemBandwidth {
		share *= c.cfg.MemBandwidth / demand
	}
	return share
}

// reschedule recomputes the rate and schedules the next completion.
func (c *CPU) reschedule() {
	c.rate = c.currentRate()
	c.eventGen++
	if len(c.tasks) == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, t := range c.tasks {
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	wait := time.Duration(minRem / c.rate * float64(time.Second))
	gen := c.eventGen
	c.sim.After(wait+1, func() { c.completionCheck(gen) })
}

// completionCheck fires completed tasks; stale generations are ignored.
func (c *CPU) completionCheck(gen uint64) {
	if gen != c.eventGen {
		return
	}
	c.advance()
	const eps = 1e-12
	var done []*cpuTask
	for id, t := range c.tasks {
		if t.remaining <= eps {
			done = append(done, t)
			delete(c.tasks, id)
		}
	}
	// Deterministic completion order by task id.
	for i := 0; i < len(done); i++ {
		for j := i + 1; j < len(done); j++ {
			if done[j].id < done[i].id {
				done[i], done[j] = done[j], done[i]
			}
		}
	}
	if c.cfg.FIFO {
		c.fifoAdmit()
	} else {
		c.reschedule()
	}
	for _, t := range done {
		t.onDone()
	}
}

// BusyTotal returns total core-seconds consumed so far.
func (c *CPU) BusyTotal() float64 {
	c.advance()
	return c.busyTotal
}

// BusyByOwner returns core-seconds consumed per owner (a live map
// snapshot; callers must not mutate it).
func (c *CPU) BusyByOwner() map[string]float64 {
	c.advance()
	return c.busyByOwner
}

// SecondsFor converts a Work op volume to single-core seconds.
func (c *CPU) SecondsFor(ops float64) float64 {
	return ops / c.cfg.EffectiveOpsPerSec
}
