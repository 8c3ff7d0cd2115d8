// Package faults is the deterministic fault-injection layer: a seeded,
// schedule-driven injector that perturbs the running stack through the
// executor's publish/callback filters and the platform's CPU model.
// It exists to make the paper's tail-latency phenomena — contention
// inflation (Finding 1), message drops under load (Table III), stale
// inputs — reproducible on demand instead of accidental: the same seed
// and schedule always produce the same perturbation sequence, so chaos
// runs are regression-testable byte for byte.
//
// Hook point and ordering. The injector perturbs at the *publish*
// instant: it owns the executor's PublishFilter, installs the first
// CallbackFilter for stall/crash verdicts, observes Published events on
// burst topics to learn the payloads it replays, and loads the CPU
// model with contention hogs. It is the FIRST layer in the executor's
// decision chain — everything it lets through is then
// adjudicated by the guard at ingress, the supervisor at dispatch, and
// the scheduler's pick last (injector → guard → supervisor →
// scheduler), so a fault is always upstream of every mitigation that
// might answer it.
//
// Accounting. Injector.Events is the one tally of what the injector
// did: per fault kind and target, a count and the virtual-time window
// it spans. Its drop and crash events are the tally of the messages
// the faults lost.
//
// Ownership. Published messages and payloads are read-only and shared:
// corruption faults substitute a freshly cloned payload rather than
// mutating the original, and the burst pump republishes the newest
// payload it saw on its topic as a new publication.
package faults

import (
	"fmt"
	"sort"
	"time"
)

// Kind names a fault type.
type Kind string

// Fault kinds.
const (
	// KindDrop drops messages published on Topic with probability Prob
	// while the window is active (lossy transport / dying driver).
	KindDrop Kind = "drop"
	// KindDelay adds Delay (+ uniform extra up to Sigma) of transport
	// delay to messages on Topic (congested DDS / serialization stall).
	KindDelay Kind = "delay"
	// KindJitter perturbs the publication timing of Topic with a
	// half-normal delay of scale Sigma — sensor clock wander.
	KindJitter Kind = "jitter"
	// KindStall blocks Node for Delay (+ uniform extra up to Sigma)
	// before each callback while active — a hung lock or I/O wait. The
	// node stays busy but burns no CPU.
	KindStall Kind = "stall"
	// KindCrash makes Node consume its inputs without processing them
	// while active — a crashed, restarting process losing messages.
	KindCrash Kind = "crash"
	// KindBurst republishes the last message seen on Topic at Rate Hz
	// while active, saturating subscriber queues to force drop-oldest
	// eviction (a runaway upstream publisher).
	KindBurst Kind = "burst"
	// KindContention runs Workers background CPU hogs, each a stream of
	// Load-second tasks with Bandwidth bytes/s of memory traffic — the
	// co-located best-effort work of the paper's Finding 1.
	KindContention Kind = "contention"
	// KindCorrupt flips payload bits on Topic with probability Prob:
	// each hit substitutes a mutated copy (NaN/Inf/out-of-range fields)
	// the integrity guard must quarantine before it corrupts node state.
	KindCorrupt Kind = "corrupt"
	// KindSkew offsets the stamp of messages on Topic by Skew with
	// probability Prob — a corrupted sensor clock. Negative Skew rewinds
	// stamps, positive Skew stamps frames in the future.
	KindSkew Kind = "skew"
	// KindDup delivers Copies extra identical frames (same stamp, same
	// payload) per message on Topic with probability Prob — a
	// duplicating driver or retransmitting transport.
	KindDup Kind = "dup"
	// KindTruncate truncates payloads on Topic with probability Prob,
	// keeping a Frac prefix and leaving a torn (non-finite) tail record
	// — a write cut off mid-frame.
	KindTruncate Kind = "truncate"
)

// Fault is one scheduled perturbation. Which fields apply depends on
// Kind; Validate enforces the pairing.
type Fault struct {
	Kind Kind
	// Topic targets message-level faults (drop, delay, jitter, burst).
	Topic string
	// Node targets callback-level faults (stall, crash).
	Node string
	// Start and Duration bound the active window in virtual time.
	Start    time.Duration
	Duration time.Duration

	// Prob is the per-message drop probability (drop).
	Prob float64
	// Delay is the base added delay (delay, stall).
	Delay time.Duration
	// Sigma is the random extra: uniform [0, Sigma) for delay/stall,
	// half-normal scale for jitter.
	Sigma time.Duration
	// Rate is the burst republish rate, Hz (burst).
	Rate float64
	// Load is single-core seconds per hog task (contention).
	Load float64
	// Bandwidth is bytes/s of memory traffic per hog task (contention).
	Bandwidth float64
	// Workers is the number of concurrent hog streams (contention).
	Workers int
	// Skew is the stamp offset applied per hit (skew); may be negative.
	Skew time.Duration
	// Copies is the number of extra identical frames per hit (dup).
	Copies int
	// Frac is the kept prefix fraction of a truncated payload (truncate).
	Frac float64
}

// ActiveAt reports whether the fault window covers virtual time t.
func (f Fault) ActiveAt(t time.Duration) bool {
	return t >= f.Start && t < f.Start+f.Duration
}

// End returns the end of the active window.
func (f Fault) End() time.Duration { return f.Start + f.Duration }

// Target names what the fault acts on, for reports.
func (f Fault) Target() string {
	switch f.Kind {
	case KindStall, KindCrash:
		return f.Node
	case KindContention:
		return "cpu"
	default:
		return f.Topic
	}
}

// Validate checks the fault's parameters.
func (f Fault) Validate() error {
	if f.Duration <= 0 {
		return fmt.Errorf("faults: %s fault needs a positive duration", f.Kind)
	}
	switch f.Kind {
	case KindDrop:
		if f.Topic == "" {
			return fmt.Errorf("faults: drop fault needs a topic")
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: drop probability %v outside (0, 1]", f.Prob)
		}
	case KindDelay:
		if f.Topic == "" {
			return fmt.Errorf("faults: delay fault needs a topic")
		}
		if f.Delay <= 0 && f.Sigma <= 0 {
			return fmt.Errorf("faults: delay fault needs Delay or Sigma")
		}
	case KindJitter:
		if f.Topic == "" {
			return fmt.Errorf("faults: jitter fault needs a topic")
		}
		if f.Sigma <= 0 {
			return fmt.Errorf("faults: jitter fault needs a positive Sigma")
		}
	case KindStall:
		if f.Node == "" {
			return fmt.Errorf("faults: stall fault needs a node")
		}
		if f.Delay <= 0 && f.Sigma <= 0 {
			return fmt.Errorf("faults: stall fault needs Delay or Sigma")
		}
	case KindCrash:
		if f.Node == "" {
			return fmt.Errorf("faults: crash fault needs a node")
		}
	case KindBurst:
		if f.Topic == "" {
			return fmt.Errorf("faults: burst fault needs a topic")
		}
		if f.Rate <= 0 {
			return fmt.Errorf("faults: burst fault needs a positive rate")
		}
	case KindContention:
		if f.Workers <= 0 || f.Load <= 0 {
			return fmt.Errorf("faults: contention fault needs Workers and Load")
		}
	case KindCorrupt:
		if f.Topic == "" {
			return fmt.Errorf("faults: corrupt fault needs a topic")
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: corrupt probability %v outside (0, 1]", f.Prob)
		}
	case KindSkew:
		if f.Topic == "" {
			return fmt.Errorf("faults: skew fault needs a topic")
		}
		if f.Skew == 0 {
			return fmt.Errorf("faults: skew fault needs a nonzero Skew")
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: skew probability %v outside (0, 1]", f.Prob)
		}
	case KindDup:
		if f.Topic == "" {
			return fmt.Errorf("faults: dup fault needs a topic")
		}
		if f.Copies <= 0 {
			return fmt.Errorf("faults: dup fault needs positive Copies")
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: dup probability %v outside (0, 1]", f.Prob)
		}
	case KindTruncate:
		if f.Topic == "" {
			return fmt.Errorf("faults: truncate fault needs a topic")
		}
		if f.Frac < 0 || f.Frac >= 1 {
			return fmt.Errorf("faults: truncate fraction %v outside [0, 1)", f.Frac)
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("faults: truncate probability %v outside (0, 1]", f.Prob)
		}
	default:
		return fmt.Errorf("faults: unknown kind %q", f.Kind)
	}
	return nil
}

// String renders the fault for reports, fully determined by its fields.
func (f Fault) String() string {
	base := fmt.Sprintf("%-10s %-34s window=[%v, %v)", f.Kind, f.Target(), f.Start, f.End())
	switch f.Kind {
	case KindDrop:
		return fmt.Sprintf("%s p=%.2f", base, f.Prob)
	case KindDelay, KindStall:
		return fmt.Sprintf("%s delay=%v sigma=%v", base, f.Delay, f.Sigma)
	case KindJitter:
		return fmt.Sprintf("%s sigma=%v", base, f.Sigma)
	case KindBurst:
		return fmt.Sprintf("%s rate=%.0fHz", base, f.Rate)
	case KindContention:
		return fmt.Sprintf("%s workers=%d load=%.1fms bw=%.1fGB/s",
			base, f.Workers, f.Load*1e3, f.Bandwidth/1e9)
	case KindCorrupt:
		return fmt.Sprintf("%s p=%.2f", base, f.Prob)
	case KindSkew:
		return fmt.Sprintf("%s p=%.2f skew=%v", base, f.Prob, f.Skew)
	case KindDup:
		return fmt.Sprintf("%s p=%.2f copies=%d", base, f.Prob, f.Copies)
	case KindTruncate:
		return fmt.Sprintf("%s p=%.2f frac=%.2f", base, f.Prob, f.Frac)
	}
	return base
}

// Schedule is a seeded set of faults. The seed drives every stochastic
// decision (drop coin flips, jitter draws) through per-fault split RNG
// streams, so two runs with the same schedule perturb identically.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

// Validate checks every fault in the schedule.
func (s Schedule) Validate() error {
	if len(s.Faults) == 0 {
		return fmt.Errorf("faults: empty schedule")
	}
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Event is one aggregate counter of applied perturbations, for reports.
// A drop or crash event is the one tally of the messages that fault
// lost.
type Event struct {
	Kind   Kind
	Target string
	Count  int
	// First and Last bound the applied perturbations in virtual time.
	First, Last time.Duration
}

// sortEvents orders events deterministically (kind, then target).
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Target < evs[j].Target
	})
}
